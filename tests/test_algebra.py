import itertools
from fractions import Fraction

import pytest

from conftest import (
    GF2,
    GF5,
    rand_invertible,
    seeded,
)
from mocklie.algebra import (
    _DEFECT_GENERATORS,
    Algebra,
    IDENTITY_KINDS,
    Witness,
    ad,
    algebra_from_tuple,
    antiassociator,
    apply_basis_change,
    check_identity,
    direct_sum,
    left_mult,
    op_anticommutator,
    opposite,
    passes_identity,
    product,
    report_from_defects,
    right_mult,
    structure_equal,
    sub_adjacent,
    tuple_from_algebra,
)
from mocklie.catalog import class_algebra
from mocklie.classify import enumerate_solutions
from mocklie.errors import FieldError, MixedFieldError, ShapeError
from mocklie.fields import QQ, prime_field
from mocklie.linalg import LinearMap


def vec(field, *coords):
    return tuple(field.of(x) for x in coords)


# ---------------------------------------------------------------------------
# product / antiassociator
# ---------------------------------------------------------------------------

def test_product_on_square_class(classes_qq):
    alg = classes_qq["e1e1=e2"]
    assert product(alg, alg.basis(0), alg.basis(0)) == vec(QQ, 0, 1)


def test_product_zero_algebra():
    alg = Algebra.zero(QQ, 3)
    x, y = vec(QQ, 1, 2, 3), vec(QQ, -1, 0, 5)
    assert product(alg, x, y) == vec(QQ, 0, 0, 0)


def test_product_bilinear_scaling(classes_qq):
    alg = classes_qq["e1e1=e2"]
    assert product(alg, vec(QQ, 2, 0), alg.basis(0)) == vec(QQ, 0, 2)


def test_product_bilinearity_random(f5_prejj_algebras):
    rng = seeded(10)
    for _ in range(50):
        alg = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        x = vec(GF5, rng.randrange(5), rng.randrange(5))
        y = vec(GF5, rng.randrange(5), rng.randrange(5))
        expansion = (GF5.zero, GF5.zero)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                s = GF5.mul(xi, yj)
                expansion = tuple(
                    GF5.add(e, GF5.mul(s, c))
                    for e, c in zip(expansion, alg.c[i][j])
                )
        assert product(alg, x, y) == expansion


def test_product_dimension_mismatch(classes_qq):
    with pytest.raises(ShapeError):
        product(classes_qq["zero"], vec(QQ, 1, 0, 0), vec(QQ, 1, 0))


def test_antiassociator_zero_algebra():
    alg = Algebra.zero(QQ, 2)
    assert antiassociator(alg, alg.basis(0), alg.basis(1), alg.basis(0)) == vec(QQ, 0, 0)


def test_antiassociator_square_class_vanishes(classes_qq):
    alg = classes_qq["e1e1=e2"]
    e1 = alg.basis(0)
    assert antiassociator(alg, e1, e1, e1) == vec(QQ, 0, 0)


def test_antiassociator_third_class_defect(classes_qq):
    # (e2*e1)*e1 + e2*(e1*e1) = e2*e1 = e2
    alg = classes_qq["e2e1=e2"]
    e1, e2 = alg.basis(0), alg.basis(1)
    assert antiassociator(alg, e2, e1, e1) == vec(QQ, 0, 1)


def test_antiassociator_trilinearity(f5_prejj_algebras):
    rng = seeded(11)
    alg = f5_prejj_algebras[1]
    for _ in range(20):
        x = vec(GF5, rng.randrange(5), rng.randrange(5))
        y = vec(GF5, rng.randrange(5), rng.randrange(5))
        z = vec(GF5, rng.randrange(5), rng.randrange(5))
        s = GF5.of(rng.randrange(1, 5))
        scaled = antiassociator(alg, tuple(GF5.mul(s, c) for c in x), y, z)
        assert scaled == tuple(GF5.mul(s, c) for c in antiassociator(alg, x, y, z))


# ---------------------------------------------------------------------------
# check_identity
# ---------------------------------------------------------------------------

def test_class_verdicts(classes_qq):
    # the catalogued third class fails every identity; the others pass all
    for name, alg in classes_qq.items():
        expected = name != "e2e1=e2"
        for kind in IDENTITY_KINDS:
            assert passes_identity(alg, kind) is expected, (name, kind)


def test_zero_algebra_passes_everything():
    alg = Algebra.zero(QQ, 2)
    for kind in IDENTITY_KINDS:
        report = check_identity(alg, kind)
        assert report.passed and not report.witnesses


def test_idempotent_fails_antiassociativity_with_witness():
    alg = Algebra.from_products(QQ, 2, {(0, 0): (1, 0)})
    report = check_identity(alg, "antiassociative")
    assert not report.passed
    assert report.witnesses[0].indices == (0, 0, 0)
    assert report.witnesses[0].defect == vec(QQ, 2, 0)


def test_unknown_kind_rejected(classes_qq):
    with pytest.raises(FieldError):
        check_identity(classes_qq["zero"], "associative")


def test_witness_cap_and_truncation():
    alg = Algebra.from_products(QQ, 2, {(0, 0): (1, 0), (1, 1): (0, 1)})
    report = check_identity(alg, "antiassociative", max_witnesses=1)
    assert not report.passed
    assert len(report.witnesses) == 1
    assert report.truncated
    full = check_identity(alg, "antiassociative", max_witnesses=1000)
    assert not full.truncated
    assert [w.indices for w in full.witnesses] == sorted(
        w.indices for w in full.witnesses
    )


def test_witness_cap_clamped_to_one():
    # a failing verdict must always carry evidence, whatever the cap
    alg = Algebra.from_products(QQ, 2, {(0, 0): (1, 0)})
    report = check_identity(alg, "antiassociative", max_witnesses=0)
    assert not report.passed
    assert len(report.witnesses) == 1


def test_small_characteristic_warning():
    report = check_identity(Algebra.zero(GF2, 2), "jj")
    assert report.passed and report.warnings
    report5 = check_identity(Algebra.zero(GF5, 2), "jj")
    assert not report5.warnings


def test_operad_equals_left_pre_jj_on_random_tensors():
    rng = seeded(12)
    for _ in range(300):
        entries = tuple(rng.randrange(5) for _ in range(8))
        alg = algebra_from_tuple(GF5, 2, entries)
        assert passes_identity(alg, "operad") == passes_identity(alg, "left_pre_jj")


def test_antiassociative_implies_both_pre_jj(f5_anti_solutions):
    for entries in f5_anti_solutions:
        alg = algebra_from_tuple(GF5, 2, entries)
        assert passes_identity(alg, "left_pre_jj")
        assert passes_identity(alg, "right_pre_jj")
        assert passes_identity(alg, "operad")


# ---------------------------------------------------------------------------
# check_identity over QQ against an oracle in field arithmetic
# ---------------------------------------------------------------------------

def _qq_oracle(alg, kind):
    """Each identity's (indices, defect) pairs, in the generators' order.

    Written with ``product`` and ``antiassociator``, which always compute
    in the algebra's field, so the integer path of ``check_identity`` is
    compared against plain ``Fraction`` arithmetic.
    """
    n, e = alg.dim, alg.basis

    def mul(x, y):
        return product(alg, x, y)

    def add(*vs):
        return tuple(sum(xs, QQ.zero) for xs in zip(*vs))

    def assoc(i, j, k):
        return antiassociator(alg, e(i), e(j), e(k))

    triples = list(itertools.product(range(n), repeat=3))
    if kind == "antiassociative":
        return [(t, assoc(*t)) for t in triples]
    if kind == "left_pre_jj":
        return [((i, j, k), add(assoc(i, j, k), assoc(j, i, k)))
                for i, j, k in triples if i <= j]
    if kind == "right_pre_jj":
        return [((i, j, k), add(assoc(i, j, k), assoc(i, k, j)))
                for i, j, k in triples if j <= k]
    if kind == "operad":
        # (xy)z + x(yz) + (yx)z + y(xz), expanded
        return [((i, j, k), add(mul(mul(e(i), e(j)), e(k)), mul(e(i), mul(e(j), e(k))),
                                mul(mul(e(j), e(i)), e(k)), mul(e(j), mul(e(i), e(k)))))
                for i, j, k in triples if i <= j]
    assert kind == "jj"
    commutators = [((i, j), add(mul(e(i), e(j)), tuple(-x for x in mul(e(j), e(i)))))
                   for i in range(n) for j in range(i + 1, n)]
    return commutators + [((i, j, k), add(mul(mul(e(i), e(j)), e(k)),
                                          mul(mul(e(k), e(i)), e(j)),
                                          mul(mul(e(j), e(k)), e(i))))
                          for i, j, k in triples]


def _random_qq_tensor(rng, n, family):
    """n^3 rationals, about half of them zero, with denominators by family.

    ``integral``: all 1.  ``shared``: divisors of 12, with a 1/12 forced in.
    ``coprime``: the primes 2, 3, 5 and 7, with 1/7 and -1/2 forced in.
    """
    dens = {"integral": (1,), "shared": (1, 2, 3, 4, 6, 12), "coprime": (2, 3, 5, 7)}[family]
    entries = [Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3)), rng.choice(dens))
               for _ in range(n ** 3)]
    if family == "shared":
        entries[rng.randrange(n ** 3)] = Fraction(1, 12)
    if family == "coprime":
        entries[rng.randrange(n ** 3)] = Fraction(1, 7)
        entries[rng.randrange(n ** 3)] = Fraction(-1, 2)
    return algebra_from_tuple(QQ, n, entries)


@pytest.mark.parametrize("family", ["integral", "shared", "coprime"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_check_identity_matches_field_oracle(family, n):
    rng = seeded(100 + 10 * n + len(family))
    algebras = [_random_qq_tensor(rng, n, family) for _ in range(2)]
    for alg in algebras:
        integral = all(x.denominator == 1 for x in tuple_from_algebra(alg))
        assert integral == (family == "integral")
    # scaling the constants preserves every identity, so these pass
    if n == 2:
        scale = {"integral": 5, "shared": Fraction(3, 4), "coprime": Fraction(1, 7)}[family]
        algebras += [algebra_from_tuple(QQ, 2, (scale * x for row in class_algebra(name).c
                                                for v in row for x in v))
                     for name in ("e1e1=e2", "e2e2=e1")]
    for alg in algebras:
        for kind in IDENTITY_KINDS:
            violations = [Witness(indices, defect) for indices, defect in
                          _qq_oracle(alg, kind) if any(defect)]
            total = len(violations)
            assert passes_identity(alg, kind) == (total == 0), kind
            for cap in range(1, total + 1):
                report = check_identity(alg, kind, max_witnesses=cap)
                assert report.witnesses == tuple(violations[:cap]), (kind, cap)
                assert report.truncated == (cap < total)
                assert report.passed is False
            if total == 0:
                report = check_identity(alg, kind)
                assert report.passed and not report.witnesses and not report.truncated


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integral_qq_witnesses_are_ints(n):
    rng = seeded(60 + n)
    for _ in range(3):
        alg = algebra_from_tuple(QQ, n, (Fraction(rng.randrange(-9, 10)) for _ in range(n ** 3)))
        assert all(type(x) is int for x in tuple_from_algebra(alg))
        for kind in IDENTITY_KINDS:
            for w in check_identity(alg, kind, max_witnesses=n ** 3).witnesses:
                assert all(type(x) is int for x in w.defect), (kind, w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integral_fractions_check_like_their_int_twins(n):
    # an integral Fraction that bypasses ``of`` is an exact scalar all the same
    rng = seeded(70 + n)
    for _ in range(4):
        twin = algebra_from_tuple(QQ, n, (rng.choice((0, 0, 1, -1, 2, -3))
                                          for _ in range(n ** 3)))
        alg = Algebra(QQ, twin.labels,
                      tuple(tuple(tuple(map(Fraction, v)) for v in row) for row in twin.c))
        assert type(alg.c[0][0][0]) is Fraction and alg.c == twin.c
        for kind in IDENTITY_KINDS:
            assert check_identity(alg, kind, n ** 3) == check_identity(twin, kind, n ** 3)
            assert passes_identity(alg, kind) == passes_identity(twin, kind)
        for halved in (False, True):
            assert structure_equal(sub_adjacent(alg, halved), sub_adjacent(twin, halved))
        x = vec(QQ, *range(1, n + 1))
        assert product(alg, x, x) == product(twin, x, x)
        assert left_mult(alg, x) == left_mult(twin, x)


# ---------------------------------------------------------------------------
# sub_adjacent
# ---------------------------------------------------------------------------

def test_sub_adjacent_square_class(classes_qq):
    s = sub_adjacent(classes_qq["e1e1=e2"])
    assert s.c[0][0] == vec(QQ, 0, 2)
    assert passes_identity(s, "jj")


def test_sub_adjacent_zero(classes_qq):
    s = sub_adjacent(classes_qq["zero"])
    assert structure_equal(s, classes_qq["zero"])


def test_sub_adjacent_third_class_symmetrizes(classes_qq):
    s = sub_adjacent(classes_qq["e2e1=e2"])
    assert s.c[0][1] == vec(QQ, 0, 1)
    assert s.c[1][0] == vec(QQ, 0, 1)
    # the symmetrized product is not a Jacobi algebra for this class
    assert not passes_identity(s, "jj")


def test_sub_adjacent_halved(classes_qq):
    s = sub_adjacent(classes_qq["e1e1=e2"], halved=True)
    assert s.c[0][0] == vec(QQ, 0, 1)
    # halving an integral table leaves ints, zeros included, not Fractions
    assert all(type(x) is int for x in tuple_from_algebra(s))
    assert passes_identity(s, "jj")


def test_sub_adjacent_halved_characteristic_2_rejected():
    with pytest.raises(FieldError):
        sub_adjacent(Algebra.zero(GF2, 2), halved=True)


def test_sub_adjacent_of_pre_jj_is_jj(f5_prejj_algebras):
    for alg in f5_prejj_algebras:
        assert passes_identity(sub_adjacent(alg), "jj")


def test_halved_sub_adjacent_of_antiassociative_is_jj(f5_anti_solutions):
    for entries in f5_anti_solutions:
        alg = algebra_from_tuple(GF5, 2, entries)
        assert passes_identity(sub_adjacent(alg, halved=True), "jj")


# ---------------------------------------------------------------------------
# multiplication operators
# ---------------------------------------------------------------------------

def test_left_mult_square_class(classes_qq):
    alg = classes_qq["e1e1=e2"]
    L = left_mult(alg, alg.basis(0))
    assert L.apply(alg.basis(0)) == vec(QQ, 0, 1)
    assert L.apply(alg.basis(1)) == vec(QQ, 0, 0)


def test_mult_operators_zero_algebra():
    alg = Algebra.zero(QQ, 2)
    x = vec(QQ, 3, 4)
    assert left_mult(alg, x).is_zero()
    assert right_mult(alg, x).is_zero()
    assert ad(alg, x).is_zero()


def test_ad_on_cube_class(classes_qq):
    alg = classes_qq["e2e2=e1"]
    m = ad(alg, alg.basis(1))
    assert m.apply(alg.basis(1)) == vec(QQ, 2, 0)
    assert m.apply(alg.basis(0)) == vec(QQ, 0, 0)


def test_left_mult_linear_in_x(f5_prejj_algebras):
    rng = seeded(13)
    alg = f5_prejj_algebras[2]
    for _ in range(20):
        x = vec(GF5, rng.randrange(5), rng.randrange(5))
        y = vec(GF5, rng.randrange(5), rng.randrange(5))
        lhs = left_mult(alg, tuple(GF5.add(a, b) for a, b in zip(x, y)))
        assert lhs == left_mult(alg, x).add(left_mult(alg, y))


def test_mult_operators_match_products(f5_prejj_algebras):
    rng = seeded(14)
    alg = f5_prejj_algebras[3]
    for _ in range(20):
        x = vec(GF5, rng.randrange(5), rng.randrange(5))
        y = vec(GF5, rng.randrange(5), rng.randrange(5))
        assert left_mult(alg, x).apply(y) == product(alg, x, y)
        assert right_mult(alg, x).apply(y) == product(alg, y, x)


# ---------------------------------------------------------------------------
# operator anticommutator
# ---------------------------------------------------------------------------

def test_op_anticommutator_identity():
    identity = LinearMap.identity(QQ, 2)
    assert op_anticommutator(identity, identity) == identity.scale(QQ.of(2))


def test_op_anticommutator_zero():
    z = LinearMap.zeros(QQ, 2, 2)
    m = LinearMap.from_rows(QQ, [[1, 2], [3, 4]])
    assert op_anticommutator(m, z).is_zero()


def test_op_anticommutator_square_class(classes_qq):
    alg = classes_qq["e1e1=e2"]
    e1 = alg.basis(0)
    assert op_anticommutator(left_mult(alg, e1), right_mult(alg, e1)).is_zero()


def test_op_anticommutator_shape_mismatch():
    a = LinearMap.identity(QQ, 2)
    b = LinearMap.identity(QQ, 3)
    with pytest.raises(ShapeError):
        op_anticommutator(a, b)


def test_operator_identities_on_pre_jj_algebras(f5_prejj_algebras):
    # L_[x,y] = -(LxLy + LyLx); [Lx,Ry] = -(R_xy + RyRx) = -[Rx,Ly];
    # [ad_x, ad_y] = ad_[x,y], all on basis pairs
    for alg in f5_prejj_algebras:
        n = alg.dim
        f = alg.field
        for i in range(n):
            for j in range(n):
                x, y = alg.basis(i), alg.basis(j)
                bracket = tuple(
                    f.add(a, b)
                    for a, b in zip(product(alg, x, y), product(alg, y, x))
                )
                lx, ly = left_mult(alg, x), left_mult(alg, y)
                rx, ry = right_mult(alg, x), right_mult(alg, y)
                assert left_mult(alg, bracket).add(op_anticommutator(lx, ly)).is_zero()
                assert (
                    op_anticommutator(lx, ry)
                    .add(right_mult(alg, product(alg, x, y)))
                    .add(ry.mul(rx))
                    .is_zero()
                )
                assert (
                    op_anticommutator(lx, ry)
                    .add(op_anticommutator(rx, ly))
                    .is_zero()
                )
                assert (
                    op_anticommutator(ad(alg, x), ad(alg, y))
                    .sub(ad(alg, bracket))
                    .is_zero()
                )


# ---------------------------------------------------------------------------
# GF(p) verdicts from the compiled equations, the generators as the oracle
# ---------------------------------------------------------------------------

def assert_verdicts_match_generators(algebras):
    """``check_identity`` at caps 1 and 16 and ``passes_identity`` equal what
    the defect generator alone gives, for every kind; returns the number of
    (table, kind) pairs that pass and that fail."""
    passed = failed = 0
    for alg in algebras:
        for kind in IDENTITY_KINDS:
            for cap in (1, 16):
                oracle = report_from_defects(kind, alg.field, _DEFECT_GENERATORS[kind](alg), cap)
                assert check_identity(alg, kind, cap) == oracle, (tuple_from_algebra(alg), kind)
            assert passes_identity(alg, kind) is oracle.passed
            passed += oracle.passed
            failed += not oracle.passed
    return passed, failed


def test_verdicts_on_every_dim2_gf2_table():
    algebras = [algebra_from_tuple(GF2, 2, c) for c in itertools.product(range(2), repeat=8)]
    passed, failed = assert_verdicts_match_generators(algebras)
    assert passed and failed


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_verdicts_on_every_dim1_table(p):
    field = prime_field(p)
    passed, failed = assert_verdicts_match_generators(
        [algebra_from_tuple(field, 1, (x,)) for x in range(p)])
    assert passed and failed


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verdicts_on_sampled_and_census_dim2_tables(p):
    # random tables fail nearly every kind, so every census solution of
    # every kind is added: each passes its own kind
    field, rng = prime_field(p), seeded(290 + p)
    tables = {tuple(rng.randrange(p) for _ in range(8)) for _ in range(40)}
    tables |= {c for kind in IDENTITY_KINDS for c in enumerate_solutions(2, field, kind)}
    passed, failed = assert_verdicts_match_generators(
        [algebra_from_tuple(field, 2, c) for c in sorted(tables)])
    assert passed and failed


# ---------------------------------------------------------------------------
# opposite
# ---------------------------------------------------------------------------

def test_opposite_third_class(classes_qq):
    opp = opposite(classes_qq["e2e1=e2"])
    assert opp.c[0][1] == vec(QQ, 0, 1)
    assert opp.c[1][0] == vec(QQ, 0, 0)


def test_opposite_zero(classes_qq):
    assert structure_equal(opposite(classes_qq["zero"]), classes_qq["zero"])


def test_opposite_involution(f5_prejj_algebras):
    for alg in f5_prejj_algebras[:10]:
        assert structure_equal(opposite(opposite(alg)), alg)


def test_opposite_swaps_left_and_right_verdicts(classes_qq):
    rng = seeded(15)
    samples = list(classes_qq.values())
    samples += [
        algebra_from_tuple(GF5, 2, tuple(rng.randrange(5) for _ in range(8)))
        for _ in range(100)
    ]
    for alg in samples:
        opp = opposite(alg)
        assert passes_identity(opp, "right_pre_jj") == passes_identity(alg, "left_pre_jj")
        assert passes_identity(opp, "left_pre_jj") == passes_identity(alg, "right_pre_jj")


# ---------------------------------------------------------------------------
# basis change
# ---------------------------------------------------------------------------

def test_basis_change_identity(classes_qq):
    alg = classes_qq["e2e2=e1"]
    assert structure_equal(apply_basis_change(alg, LinearMap.identity(QQ, 2)), alg)


def test_basis_change_rescales_structure_constant():
    lam = 3
    alg = Algebra.from_products(QQ, 2, {(0, 0): (0, lam)})
    p = LinearMap.from_rows(QQ, [[1, 0], [0, lam]])
    moved = apply_basis_change(alg, p)
    assert structure_equal(moved, Algebra.from_products(QQ, 2, {(0, 0): (0, 1)}))


def test_basis_change_zero_algebra():
    alg = Algebra.zero(QQ, 2)
    p = LinearMap.from_rows(QQ, [[1, 1], [0, 1]])
    assert structure_equal(apply_basis_change(alg, p), alg)


def test_basis_change_singular_rejected(classes_qq):
    p = LinearMap.from_rows(QQ, [[1, 2], [2, 4]])
    with pytest.raises(ShapeError):
        apply_basis_change(classes_qq["zero"], p)


def test_basis_change_preserves_verdicts(classes_f5, f5_prejj_algebras):
    rng = seeded(16)
    samples = list(classes_f5.values()) + list(f5_prejj_algebras[:6])
    for alg in samples:
        p = rand_invertible(rng, GF5, 2)
        moved = apply_basis_change(alg, p)
        for kind in IDENTITY_KINDS:
            assert passes_identity(moved, kind) == passes_identity(alg, kind)


@pytest.mark.parametrize("density", [0.25, 1.0], ids=["sparse", "dense"])
@pytest.mark.parametrize("field", [QQ, prime_field(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_change_against_products(n, field, density):
    # the oracle multiplies in A with ``product`` and maps back with
    # ``LinearMap.apply``: P (f_i f_j in B) = (P e_i)(P e_j) in A
    rng = seeded(100 * n + int(10 * density))

    def scalar():
        if rng.random() >= density:
            return field.zero
        return field.of(f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}")

    for _ in range(3):
        alg = Algebra.from_tensor(
            field, [[[scalar() for _ in range(n)] for _ in range(n)] for _ in range(n)])
        while True:
            p = LinearMap(field, tuple(tuple(scalar() for _ in range(n)) for _ in range(n)))
            if p.is_invertible():
                break
        moved = apply_basis_change(alg, p)
        for i in range(n):
            for j in range(n):
                assert p.apply(moved.c[i][j]) == product(alg, p.column(i), p.column(j))
        assert apply_basis_change(moved, p.inverse()) == alg


def test_basis_change_field_mismatch(classes_qq):
    with pytest.raises(MixedFieldError):
        apply_basis_change(classes_qq["zero"], LinearMap.identity(GF5, 2))


# ---------------------------------------------------------------------------
# direct sum
# ---------------------------------------------------------------------------

def test_direct_sum_of_zeros():
    s = direct_sum(Algebra.zero(QQ, 1), Algebra.zero(QQ, 1))
    assert structure_equal(s, Algebra.zero(QQ, 2))


def test_direct_sum_with_trivial_summand(classes_qq):
    s = direct_sum(classes_qq["e1e1=e2"], Algebra.zero(QQ, 1, labels=("u",)))
    assert s.dim == 3
    assert s.c[0][0] == vec(QQ, 0, 1, 0)
    nonzero = [(i, j) for i in range(3) for j in range(3)
               if s.c[i][j] != vec(QQ, 0, 0, 0)]
    assert nonzero == [(0, 0)]


def test_direct_sum_of_two_square_classes(classes_qq):
    a = classes_qq["e1e1=e2"]
    s = direct_sum(a, a)
    assert s.dim == 4
    assert s.c[0][0] == vec(QQ, 0, 1, 0, 0)
    assert s.c[2][2] == vec(QQ, 0, 0, 0, 1)
    assert passes_identity(s, "antiassociative")


def test_direct_sum_field_mismatch(classes_qq, classes_f5):
    with pytest.raises(MixedFieldError):
        direct_sum(classes_qq["zero"], classes_f5["zero"])


# ---------------------------------------------------------------------------
# algebra validation
# ---------------------------------------------------------------------------

def test_duplicate_labels_rejected():
    with pytest.raises(ShapeError):
        Algebra.zero(QQ, 2, labels=("e", "e"))


def test_bad_tensor_shape_rejected():
    with pytest.raises(ShapeError):
        Algebra(QQ, ("e1", "e2"), ((vec(QQ, 0, 0),),) * 2)


def test_out_of_range_product_index():
    with pytest.raises(ShapeError):
        Algebra.from_products(QQ, 2, {(0, 5): (0, 1)})


@pytest.mark.parametrize("count", [7, 9])
def test_algebra_from_tuple_refuses_a_wrong_constant_count(count):
    with pytest.raises(ShapeError, match=f"need 8 structure constants, got {count}"):
        algebra_from_tuple(QQ, 2, range(count))

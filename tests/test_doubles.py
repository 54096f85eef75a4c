import dataclasses
import itertools

import pytest

from conftest import GF2, GF5, outcome, rand_table_algebra, seeded
from mocklie import algebra as algebra_module
from mocklie.algebra import (
    Algebra,
    algebra_from_tuple,
    check_identity,
    left_mult,
    passes_identity,
    product,
    right_mult,
    structure_equal,
    sub_adjacent,
)
from mocklie.catalog import CASE_NAMES, case_conformance, case_inputs, case_table
from mocklie.doubles import (
    BilinearForm,
    DoubleConstruction,
    assemble_jj_double,
    assemble_prejj_double,
    build_jj_double,
    build_prejj_double,
    canonical_form,
    check_invariance,
    conformance_diff,
    dual_structure_maps,
    jj_matched_pair_from_duals,
)
from mocklie.errors import PreconditionError, ShapeError
from mocklie.fields import QQ, prime_field
from mocklie.linalg import LinearMap
from mocklie.matched import (
    JJMatchedPair,
    check_jj_matched_pair,
    check_prejj_matched_pair,
    jj_bicross_product,
)

GF7 = prime_field(7)


def rand_algebra(rng, field, n):
    return algebra_from_tuple(field, n, [rng.randrange(-2, 3) for _ in range(n ** 3)])


def vec(field, *coords):
    return tuple(field.of(x) for x in coords)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_n1():
    form = canonical_form(QQ, 1)
    assert form.matrix == LinearMap.from_rows(QQ, [[0, 1], [1, 0]])


def test_canonical_form_n2_symmetric_det_one():
    form = canonical_form(QQ, 2)
    assert form.matrix.transpose() == form.matrix
    assert form.matrix.det() == QQ.one


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_form_symmetric_det_unit(n):
    form = canonical_form(QQ, n)
    assert form.matrix.transpose() == form.matrix
    assert form.matrix.det() in (QQ.one, QQ.of(-1))


def test_canonical_form_rejects_n0():
    with pytest.raises(ShapeError):
        canonical_form(QQ, 0)


def test_canonical_form_pairs_basis_with_dual():
    form = canonical_form(QQ, 2)
    e = [tuple(QQ.one if i == k else QQ.zero for k in range(4)) for i in range(4)]
    for i in range(2):
        for j in range(2):
            expected = QQ.one if i == j else QQ.zero
            assert form.value(e[i], e[2 + j]) == expected
            assert form.value(e[2 + i], e[j]) == expected
            assert form.value(e[i], e[j]) == QQ.zero


def test_degenerate_form_rejected():
    with pytest.raises(ShapeError):
        BilinearForm(LinearMap.from_rows(QQ, [[1, 1], [1, 1]]))
    with pytest.raises(ShapeError):
        BilinearForm(LinearMap.from_rows(QQ, [[0, 1], [-1, 0]]))


# ---------------------------------------------------------------------------
# dual structure maps
# ---------------------------------------------------------------------------

def test_dual_structure_maps_case_one():
    primal, dual = case_inputs("I", QQ)
    mp = dual_structure_maps(primal, dual)
    # rA = transposed left multiplication: e2* goes to e1* under rA(e1)
    assert mp.ra[0].apply(vec(QQ, 0, 1)) == vec(QQ, 1, 0)
    assert mp.la[0].apply(vec(QQ, 0, 1)) == vec(QQ, 1, 0)
    assert mp.la[1].is_zero() and mp.ra[1].is_zero()


def test_dual_structure_maps_zero_algebras():
    zero = Algebra.zero(QQ, 2)
    mp = dual_structure_maps(zero, zero)
    assert all(m.is_zero() for m in mp.la + mp.ra + mp.lb + mp.rb)


def test_dual_structure_maps_zero_dual_side():
    primal, dual = case_inputs("II", QQ)
    mp = dual_structure_maps(primal, dual)
    assert all(m.is_zero() for m in mp.lb + mp.rb)


def test_dual_structure_maps_dim_mismatch():
    with pytest.raises(ShapeError):
        dual_structure_maps(Algebra.zero(QQ, 2), Algebra.zero(QQ, 3))


# ---------------------------------------------------------------------------
# pre-JJ double
# ---------------------------------------------------------------------------

def test_case_one_double_spot_entries():
    primal, dual = case_inputs("I", QQ)
    double = build_prejj_double(primal, dual)
    rows = conformance_diff(double, case_table("I"))
    by_entry = {(tuple(r["left"]), tuple(r["right"])): r for r in rows}
    assert by_entry[((0, 0), (0, 0))]["recomputed"] == vec(QQ, 0, 1, 0, 0)
    assert by_entry[((0, 0), (0, 0))]["match"]
    assert by_entry[((0, 0), (0, 1))]["recomputed"] == vec(QQ, 0, 2, 1, 0)
    assert by_entry[((0, 0), (0, 1))]["match"]
    assert by_entry[((1, 1), (1, 1))]["recomputed"] == vec(QQ, 0, 0, 1, 0)


def test_zero_double():
    zero = Algebra.zero(QQ, 2)
    double = build_prejj_double(zero, zero)
    assert structure_equal(double.ambient, Algebra.zero(QQ, 4))
    assert double.form.matrix == canonical_form(QQ, 2).matrix
    assert check_invariance(double).passed


def test_case_mismatch_counts_are_stable():
    # the recomputation from the product formula is the authority; the
    # catalogued tables disagree with it on a fixed set of entries
    expected_mismatches = {"I": 2, "II": 1, "III": 3}
    for case in CASE_NAMES:
        double, rows = case_conformance(case, QQ)
        assert len(rows) == 16
        mismatches = [r for r in rows if not r["match"]]
        assert len(mismatches) == expected_mismatches[case], case


def test_case_two_specific_mismatch():
    _, rows = case_conformance("II", QQ)
    bad = {(tuple(r["left"]), tuple(r["right"])): r
           for r in rows if not r["match"]}
    row = bad[((1, 1), (0, 1))]
    assert row["recomputed"] == vec(QQ, 0, 1, 0, 0)
    assert row["expected"] == vec(QQ, 0, 0, 1, 0)


def test_build_prejj_double_gates_on_identity():
    primal, dual = case_inputs("II", QQ)
    with pytest.raises(PreconditionError) as exc:
        build_prejj_double(primal, dual)
    assert [name for name, _ in exc.value.failures] == ["primal"]
    assert assemble_prejj_double(primal, dual).ambient.dim == 4


def test_ambient_verdict_tracks_checker(f5_prejj_algebras):
    rng = seeded(40)
    for _ in range(40):
        a = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        b = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        double = build_prejj_double(a, b)
        checker = outcome(lambda: check_prejj_matched_pair(dual_structure_maps(a, b)))
        assert passes_identity(double.ambient, "left_pre_jj") == checker


# ---------------------------------------------------------------------------
# JJ double
# ---------------------------------------------------------------------------

def test_jj_double_zero():
    zero = Algebra.zero(QQ, 2)
    double = build_jj_double(zero, zero)
    assert structure_equal(double.ambient, Algebra.zero(QQ, 4))


def test_jj_double_of_sub_adjacent_case(classes_qq):
    primal = sub_adjacent(classes_qq["e1e1=e2"])
    dual = sub_adjacent(classes_qq["e2e2=e1"]).relabel(("e1*", "e2*"))
    double = build_jj_double(primal, dual)
    amb = double.ambient
    assert all(amb.c[i][j] == amb.c[j][i] for i in range(4) for j in range(4))
    assert check_invariance(double).passed


def test_jj_double_verdict_tracks_checker(f5_prejj_algebras):
    rng = seeded(41)
    algs = [sub_adjacent(a) for a in f5_prejj_algebras]
    for _ in range(30):
        a = algs[rng.randrange(len(algs))]
        b = algs[rng.randrange(len(algs))]
        double = build_jj_double(a, b)
        n = a.dim
        rho = tuple(left_mult(a, a.basis(i)).transpose() for i in range(n))
        mu = tuple(left_mult(b, b.basis(i)).transpose() for i in range(n))
        checker = outcome(
            lambda: check_jj_matched_pair(JJMatchedPair(a, b, rho, mu))
        )
        assert passes_identity(double.ambient, "jj") == checker
        # the bracket formula is symmetric, so the ambient is commutative
        assert all(
            double.ambient.c[i][j] == double.ambient.c[j][i]
            for i in range(4)
            for j in range(4)
        )


def test_build_jj_double_gates_on_jj(classes_qq):
    with pytest.raises(PreconditionError):
        build_jj_double(classes_qq["e2e1=e2"], classes_qq["e1e1=e2"])


@pytest.mark.parametrize("build, kind", [(build_prejj_double, "pre-JJ"),
                                         (build_jj_double, "JJ")])
@pytest.mark.parametrize("failing", ["primal", "dual"])
def test_double_gate_messages_name_the_failing_input(classes_qq, build, kind, failing):
    good, bad = classes_qq["e1e1=e2"], classes_qq["e2e1=e2"]
    with pytest.raises(PreconditionError) as exc:
        build(*((bad, good) if failing == "primal" else (good, bad)))
    assert str(exc.value) == f"inputs are not {kind}: {failing}"


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------

def test_invariance_on_case_doubles():
    for case in CASE_NAMES:
        double, _ = case_conformance(case, QQ)
        assert check_invariance(double).passed


def test_invariance_mutation_detected():
    double, _ = case_conformance("I", QQ)
    amb = double.ambient
    c = [list(map(list, row)) for row in amb.c]
    c[0][0][0] = QQ.add(c[0][0][0], QQ.one)
    mutated = dataclasses.replace(
        double,
        ambient=Algebra(QQ, amb.labels,
                        tuple(tuple(tuple(v) for v in row) for row in c)),
    )
    report = check_invariance(mutated)
    assert not report.passed
    assert report.witnesses


def test_invariance_is_structural_for_arbitrary_inputs():
    # invariance only uses the transpose structure of the dual actions, so it
    # holds for the pre-JJ assembly on completely arbitrary inputs, and for
    # the JJ assembly on arbitrary commutative inputs (the jj-double formula
    # carries only the left multiplications, so it needs L = R)
    rng = seeded(42)

    def rand_tuple():
        return tuple(rng.randrange(5) for _ in range(8))

    def rand_commutative():
        a1, a2, b1, b2, d1, d2 = (rng.randrange(5) for _ in range(6))
        return (a1, a2, b1, b2, b1, b2, d1, d2)

    for _ in range(25):
        a = algebra_from_tuple(GF5, 2, rand_tuple())
        b = algebra_from_tuple(GF5, 2, rand_tuple())
        assert check_invariance(assemble_prejj_double(a, b)).passed
        ca = algebra_from_tuple(GF5, 2, rand_commutative())
        cb = algebra_from_tuple(GF5, 2, rand_commutative())
        assert check_invariance(assemble_jj_double(ca, cb)).passed


def invariance_defects(double):
    """Every nonzero B(e_u e_v, e_w) - B(e_u, e_v e_w), in triple order,
    from the form's values on basis vectors."""
    amb, form, f = double.ambient, double.form, double.ambient.field
    found = []
    for u, v, w in itertools.product(range(amb.dim), repeat=3):
        d = f.sub(form.value(amb.c[u][v], amb.basis(w)),
                  form.value(amb.basis(u), amb.c[v][w]))
        if d != f.zero:
            found.append(((u, v, w), (d,)))
    return found


def mutated_case_doubles(field):
    rng = seeded(45)
    for case in CASE_NAMES:
        double = assemble_prejj_double(*case_inputs(case, field))
        amb = double.ambient
        c = [[list(v) for v in row] for row in amb.c]
        for _ in range(3):
            i, j, k = (rng.randrange(amb.dim) for _ in range(3))
            c[i][j][k] = field.add(c[i][j][k], field.of(rng.randrange(1, 4)))
        yield dataclasses.replace(
            double, ambient=Algebra.from_tensor(field, c, labels=amb.labels))


def hand_built_doubles(field):
    # a random ambient paired by a symmetric nondegenerate form that is not
    # the canonical swap
    rng = seeded(46)
    built = []
    while len(built) < 4:
        n = rng.randrange(1, 3)
        sym = [[0] * 2 * n for _ in range(2 * n)]
        for r in range(2 * n):
            for s in range(r, 2 * n):
                sym[r][s] = sym[s][r] = rng.randrange(-2, 3)
        matrix = LinearMap.from_rows(field, sym)
        if matrix.det() == field.zero or matrix == canonical_form(field, n).matrix:
            continue
        built.append(DoubleConstruction(
            ambient=rand_algebra(rng, field, 2 * n), form=BilinearForm(matrix),
            primal=rand_algebra(rng, field, n), dual=rand_algebra(rng, field, n),
            kind="pre_jj"))
    return built


@pytest.mark.parametrize("field", [QQ, GF5])
def test_invariance_matches_the_basis_vector_oracle_at_every_cap(field):
    doubles = [*mutated_case_doubles(field), *hand_built_doubles(field)]
    for double in doubles:
        found = invariance_defects(double)
        assert found, "every input must fail somewhere"
        for cap in range(1, double.ambient.dim ** 3 + 1):
            report = check_invariance(double, max_witnesses=cap)
            assert [(w.indices, w.defect) for w in report.witnesses] == found[:cap]
            assert report.truncated == (len(found) > cap)
            assert not report.passed


def test_invariance_applies_the_form_once_per_product(monkeypatch):
    # one application of M per ambient product c[u][v]: (2n)^2 in all,
    # however many of the (2n)^3 triples are checked
    calls = []
    apply = LinearMap.apply
    monkeypatch.setattr(LinearMap, "apply",
                        lambda self, v: calls.append(1) or apply(self, v))
    for n in (1, 2, 3):
        rng = seeded(47 + n)
        double = assemble_prejj_double(rand_algebra(rng, GF5, n),
                                       rand_algebra(rng, GF5, n))
        calls.clear()
        assert check_invariance(double).passed
        assert len(calls) == (2 * n) ** 2


# ---------------------------------------------------------------------------
# conformance and JJ assembly against basis-vector oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, GF7])
def test_conformance_rows_match_the_product_oracle(field):
    rng = seeded(48)
    for n in (1, 2, 3):
        double = assemble_prejj_double(rand_algebra(rng, field, n),
                                       rand_algebra(rng, field, n))
        amb = double.ambient
        table, oracle = [], []
        for _ in range(12):
            i, j, k, l = (rng.randrange(n) for _ in range(4))
            u = tuple(field.one if t in (i, n + j) else field.zero for t in range(2 * n))
            v = tuple(field.one if t in (k, n + l) else field.zero for t in range(2 * n))
            truth = product(amb, u, v)
            expected = truth if rng.random() < 0.5 else tuple(
                field.of(rng.randrange(-2, 3)) for _ in range(2 * n))
            table.append(((i, j), (k, l), expected))
            oracle.append(((i, j), (k, l), truth, truth == expected))
        rows = conformance_diff(double, table)
        assert [(r["left"], r["right"], r["recomputed"], r["match"])
                for r in rows] == oracle
        assert not all(r["match"] for r in rows)


def test_jj_double_matches_the_left_multiplication_oracle():
    rng = seeded(49)
    for field in (QQ, GF2, GF5):
        for n in (1, 2, 3, 4):
            a, b = rand_table_algebra(rng, field, n), rand_table_algebra(rng, field, n)
            rho = tuple(left_mult(a, a.basis(i)).transpose() for i in range(n))
            mu = tuple(left_mult(b, b.basis(i)).transpose() for i in range(n))
            oracle = jj_bicross_product(JJMatchedPair(a, b, rho, mu))
            ambient = assemble_jj_double(a, b).ambient
            assert structure_equal(ambient, oracle)
            assert ambient.labels == oracle.labels


def _transposed_oracle(alg):
    # (L_{e_i}^T) and (R_{e_i}^T) through the general-vector operators
    basis = [alg.basis(i) for i in range(alg.dim)]
    return (tuple(left_mult(alg, x).transpose() for x in basis),
            tuple(right_mult(alg, x).transpose() for x in basis))


@pytest.mark.parametrize("field", [QQ, GF2, GF5], ids=["QQ", "GF2", "GF5"])
def test_dual_maps_match_the_multiplication_oracle(field):
    rng = seeded(63)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            a, b = rand_table_algebra(rng, field, n), rand_table_algebra(rng, field, n)
            (lt_a, rt_a), (lt_b, rt_b) = _transposed_oracle(a), _transposed_oracle(b)
            mp = dual_structure_maps(a, b)
            assert (mp.la, mp.ra, mp.lb, mp.rb) == (rt_a, lt_a, rt_b, lt_b)
            jp = jj_matched_pair_from_duals(a, b)
            assert structure_equal(jp.G, sub_adjacent(a))
            assert structure_equal(jp.H, sub_adjacent(b))
            assert jp.rho == tuple(l.add(r).neg() for l, r in zip(lt_a, rt_a))
            assert jp.mu == tuple(l.add(r).neg() for l, r in zip(lt_b, rt_b))


def test_dual_maps_and_jj_double_multiply_no_vectors(monkeypatch):
    calls = []
    real = algebra_module.combination
    monkeypatch.setattr(algebra_module, "combination",
                        lambda *args: calls.append(args) or real(*args))
    rng = seeded(64)
    a, b = rand_table_algebra(rng, QQ, 3), rand_table_algebra(rng, QQ, 3)
    left_mult(a, a.basis(0))
    assert calls, "the spy does not see the multiplication kernel"
    calls.clear()
    dual_structure_maps(a, b)
    jj_matched_pair_from_duals(a, b)
    assemble_jj_double(a, b)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jj_double_builds_only_its_maps(monkeypatch, n):
    # the L^T family of each side and the two matrices of the form; no R^T
    built = []
    real = LinearMap.__post_init__
    monkeypatch.setattr(LinearMap, "__post_init__", lambda m: built.append(m) or real(m))
    rng = seeded(66 + n)
    a, b = rand_table_algebra(rng, QQ, n), rand_table_algebra(rng, QQ, n)
    assemble_jj_double(a, b)
    assert len(built) == 2 * n + 2


def test_integral_qq_double_has_int_constants_and_defects():
    primal, dual = case_inputs("I", QQ)
    double = assemble_prejj_double(primal, dual)
    assert all(type(x) is int for row in double.ambient.c for v in row for x in v)
    # the identity form is not invariant on this ambient, so there are defects
    form = BilinearForm(LinearMap.identity(QQ, 2 * primal.dim))
    report = check_invariance(dataclasses.replace(double, form=form), max_witnesses=64)
    assert report.witnesses
    assert all(type(x) is int for w in report.witnesses for x in w.defect)


# ---------------------------------------------------------------------------
# three-way equivalence and the dual lift sign
# ---------------------------------------------------------------------------

def test_three_way_equivalence_on_cases_and_random_pairs(f5_prejj_algebras):
    rng = seeded(43)
    pairs = [case_inputs(c, QQ) for c in CASE_NAMES]
    pairs += [
        (
            f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))],
            f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))],
        )
        for _ in range(20)
    ]
    for a, astar in pairs:
        ambient_ok = passes_identity(
            assemble_prejj_double(a, astar).ambient, "left_pre_jj"
        )
        pair_ok = outcome(
            lambda: check_prejj_matched_pair(dual_structure_maps(a, astar))
        )
        lift_ok = outcome(
            lambda: check_jj_matched_pair(jj_matched_pair_from_duals(a, astar))
        )
        assert ambient_ok == pair_ok == lift_ok


def test_dual_lift_sign_is_immaterial_in_dimension_two(f5_prejj_algebras):
    rng = seeded(44)
    for _ in range(25):
        a = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        b = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        minus = jj_matched_pair_from_duals(a, b)
        plus = dataclasses.replace(minus, rho=tuple(m.neg() for m in minus.rho),
                                   mu=tuple(m.neg() for m in minus.mu))
        assert outcome(lambda: check_jj_matched_pair(minus)) == \
            outcome(lambda: check_jj_matched_pair(plus))


@pytest.mark.parametrize("field", [QQ, GF5])
def test_case_three_double_fails_left_pre_jj_at_hand_derived_witness(field):
    # In the case III double the only nonzero products are e2e2 = e1,
    # e2e1* = e2*, e2e2* = e1, e1*e2 = e2 + e2* and e2*e1* = e2*.  Row and
    # column e1 vanish, so every triple with e1 passes, and (e2, e2, e1) and
    # (e2, e2, e2) give 2(e1e1 + 0) and 2(e1e2 + e2e1), both zero.  At
    # (e2, e2, e1*) the defect is 2((e2e2)e1* + e2(e2e1*)) = 2(e1e1* + e2e2*)
    # = 2(0 + e1) = 2e1.
    report = check_identity(
        assemble_prejj_double(*case_inputs("III", field)).ambient, "left_pre_jj")
    assert report.witnesses[0].indices == (1, 1, 2)
    assert report.witnesses[0].defect == vec(field, 2, 0, 0, 0)
    assert check_identity(
        assemble_prejj_double(*case_inputs("I", field)).ambient, "left_pre_jj").passed

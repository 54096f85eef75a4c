import itertools

import pytest

from conftest import (
    GF2,
    GF5,
    rand_matrix,
    rand_table_algebra,
    random_candidate_bimodule,
    random_valid_bimodule,
    random_valid_rep,
    seeded,
)
from mocklie import algebra as algebra_module
from mocklie.algebra import (
    _DEFECT_GENERATORS,
    Algebra,
    Witness,
    _Polynomials,
    ad,
    check_identity,
    direct_sum,
    left_mult,
    passes_identity,
    product,
    report_from_defects,
    right_mult,
    structure_equal,
    sub_adjacent,
)
from mocklie.errors import PreconditionError, ShapeError
from mocklie.fields import QQ
from mocklie.linalg import LinearMap
from mocklie.reps import (
    JJRep,
    PreJJBimodule,
    _bimodule_condition_defects,
    _bimodule_displayed_defects,
    _rep_condition_defects,
    check_jj_rep,
    check_prejj_bimodule,
    check_prejj_bimodule_displayed,
    dual_bimodule,
    dual_rep,
    jj_semidirect,
    prejj_semidirect,
    sum_rep,
)


def vec(field, *coords):
    return tuple(field.of(x) for x in coords)


# ---------------------------------------------------------------------------
# JJ representations
# ---------------------------------------------------------------------------

def test_adjoint_rep_passes(classes_qq):
    for name in ("zero", "e1e1=e2", "e2e2=e1"):
        g = sub_adjacent(classes_qq[name])
        assert check_jj_rep(JJRep.adjoint(g)).passed


def test_zero_rep_passes(classes_qq):
    g = sub_adjacent(classes_qq["e1e1=e2"])
    assert check_jj_rep(JJRep.zero(g, 3)).passed


def test_identity_candidate_fails():
    g = sub_adjacent(Algebra.from_products(QQ, 2, {(0, 0): (0, 1)}))
    rep = JJRep(g, (LinearMap.identity(QQ, 2), LinearMap.zeros(QQ, 2, 2)))
    report = check_jj_rep(rep)
    assert not report.passed
    assert report.witnesses[0].indices == (0, 0)


def test_rep_check_folds_algebra_identity(classes_qq):
    # candidate over a non-JJ algebra fails with an "algebra" witness
    bad = sub_adjacent(classes_qq["e2e1=e2"])
    report = check_jj_rep(JJRep.zero(bad, 2))
    assert not report.passed
    assert {w.tag for w in report.witnesses} == {"algebra"}


def test_rep_with_nonvanishing_action_on_products():
    # rho(e1) a nilpotent Jordan block of index 3 forces rho(e1*e1) != 0;
    # negating such a representation breaks the defining condition.
    g = sub_adjacent(Algebra.from_products(QQ, 2, {(0, 0): (0, 1)}))
    j3 = LinearMap.from_rows(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    rep = JJRep(g, (j3, j3.mul(j3).neg()))
    assert check_jj_rep(rep).passed
    assert not rep.rho(g.c[0][0]).is_zero()
    negated = JJRep(g, tuple(m.neg() for m in rep.maps))
    assert not check_jj_rep(negated).passed


def test_dual_rep_zero_and_involution(classes_qq):
    g = sub_adjacent(classes_qq["e2e2=e1"])
    zero = JJRep.zero(g, 2)
    assert dual_rep(zero).maps == zero.maps
    rep = JJRep.adjoint(g)
    assert dual_rep(dual_rep(rep)).maps == rep.maps


def test_dual_rep_is_transpose(classes_qq):
    g = sub_adjacent(classes_qq["e2e2=e1"])
    rep = JJRep.adjoint(g)
    assert rep.maps[1].apply(g.basis(1)) == vec(QQ, 2, 0)
    assert dual_rep(rep).maps[1] == rep.maps[1].transpose()


def test_dual_rep_verdict_equality_random(f5_prejj_algebras):
    rng = seeded(20)
    algs = [sub_adjacent(a) for a in f5_prejj_algebras]
    for _ in range(200):
        g = algs[rng.randrange(len(algs))]
        rep = JJRep(g, tuple(rand_matrix(rng, GF5, 2) for _ in range(2)))
        assert check_jj_rep(rep).passed == check_jj_rep(dual_rep(rep)).passed


# ---------------------------------------------------------------------------
# jj_semidirect
# ---------------------------------------------------------------------------

def test_jj_semidirect_zero_rep_is_direct_sum(classes_qq):
    g = sub_adjacent(classes_qq["e1e1=e2"])
    result = jj_semidirect(JJRep.zero(g, 2))
    assert structure_equal(result, direct_sum(g, Algebra.zero(QQ, 2)))


def test_jj_semidirect_of_adjoint(classes_qq):
    g = sub_adjacent(classes_qq["e1e1=e2"])
    result = jj_semidirect(JJRep.adjoint(g))
    assert result.dim == 4
    assert passes_identity(result, "jj")


def test_jj_semidirect_of_dual_adjoint(classes_qq):
    g = sub_adjacent(classes_qq["e1e1=e2"])
    result = jj_semidirect(dual_rep(JJRep.adjoint(g)))
    assert result.dim == 4
    assert passes_identity(result, "jj")


def test_jj_semidirect_rejects_invalid_rep(classes_qq):
    g = sub_adjacent(classes_qq["e1e1=e2"])
    rep = JJRep(g, (LinearMap.identity(QQ, 2), LinearMap.zeros(QQ, 2, 2)))
    with pytest.raises(PreconditionError):
        jj_semidirect(rep)


# ---------------------------------------------------------------------------
# bimodule checks
# ---------------------------------------------------------------------------

def test_regular_bimodule_passes(classes_qq):
    for name in ("zero", "e1e1=e2", "e2e2=e1"):
        assert check_prejj_bimodule(PreJJBimodule.regular(classes_qq[name])).passed


def test_regular_bimodule_over_third_class_fails_like_its_semidirect(classes_qq):
    bm = PreJJBimodule.regular(classes_qq["e2e1=e2"])
    report = check_prejj_bimodule(bm)
    assert not report.passed
    assert "algebra" in {w.tag for w in report.witnesses}
    assert not passes_identity(prejj_semidirect(bm), "left_pre_jj")


@pytest.mark.parametrize("field", [QQ, GF2, GF5], ids=["QQ", "GF2", "GF5"])
def test_regular_and_adjoint_match_the_multiplication_oracle(field):
    rng = seeded(61)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            alg = rand_table_algebra(rng, field, n)
            left = tuple(left_mult(alg, alg.basis(i)) for i in range(n))
            right = tuple(right_mult(alg, alg.basis(i)) for i in range(n))
            reg = PreJJBimodule.regular(alg)
            assert (reg.left, reg.right) == (left, right)
            assert JJRep.adjoint(alg).maps == left


def test_regular_and_adjoint_multiply_no_vectors(monkeypatch):
    calls = []
    real = algebra_module.combination
    monkeypatch.setattr(algebra_module, "combination",
                        lambda *args: calls.append(args) or real(*args))
    alg = rand_table_algebra(seeded(62), QQ, 3)
    left_mult(alg, alg.basis(0))
    assert calls, "the spy does not see the multiplication kernel"
    calls.clear()
    PreJJBimodule.regular(alg)
    JJRep.adjoint(alg)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjoint_builds_only_its_maps(monkeypatch, n):
    # n maps L_{e_i}^T and their n transposes; no R^T family
    built = []
    real = LinearMap.__post_init__
    monkeypatch.setattr(LinearMap, "__post_init__", lambda m: built.append(m) or real(m))
    alg = rand_table_algebra(seeded(65 + n), QQ, n)
    JJRep.adjoint(alg)
    assert len(built) == 2 * n


def test_zero_maps_pass(classes_qq):
    assert check_prejj_bimodule(PreJJBimodule.zero(classes_qq["e1e1=e2"], 3)).passed


def test_swapped_regular_maps_agree_with_semidirect_oracle(classes_qq, classes_f5):
    for classes in (classes_qq, classes_f5):
        for alg in classes.values():
            reg = PreJJBimodule.regular(alg)
            swapped = PreJJBimodule(alg, reg.right, reg.left)
            verdict = check_prejj_bimodule(swapped).passed
            assert verdict == passes_identity(
                prejj_semidirect(swapped), "left_pre_jj"
            )


def test_bimodule_witness_tags(classes_qq):
    alg = classes_qq["e1e1=e2"]
    maps = (LinearMap.identity(QQ, 2), LinearMap.zeros(QQ, 2, 2))
    report = check_prejj_bimodule(PreJJBimodule(alg, maps, maps))
    assert not report.passed
    assert {w.tag for w in report.witnesses} <= {"left", "mixed", "right", "algebra"}
    assert {w.tag for w in report.witnesses} & {"left", "mixed", "right"}


def test_bimodule_witness_layout(classes_qq):
    # Over e1e1=e2 (c00 = e2, all other products 0) take
    #   l1 = A = [[1, 1], [0, 0]],  l2 = D = [[0, 0], [3, 0]],
    #   r1 = C = [[0, 0], [1, 0]],  r2 = F = [[0, 2], [0, 0]].
    # Products: A A = A, A D = [[3, 0], [0, 0]], D A = [[0, 0], [3, 3]],
    # D D = 0, C A = [[0, 0], [1, 1]], A C = [[1, 0], [0, 0]], C C = 0,
    # F A = 0, A F = F, F C = [[2, 0], [0, 0]], C F = [[0, 0], [0, 2]],
    # C D = D C = 0, F D = [[6, 0], [0, 0]], D F = [[0, 0], [0, 6]], F F = 0.
    # left (i,j):  l_{e_i e_j} + l_i l_j + l_{e_j e_i} + l_j l_i
    #   (0,0) 2 D + 2 A A = [[2, 2], [6, 0]];  (0,1) A D + D A;  (1,1) 0
    # mixed and right (i,j):  r_j l_i + l_i r_j + r_j r_i + r_{e_i e_j}
    #   (0,0) C A + A C + C C + F = [[1, 2], [1, 1]]
    #   (0,1) F A + A F + F C = [[2, 2], [0, 0]]
    #   (1,0) C D + D C + C F = [[0, 0], [0, 2]]
    #   (1,1) F D + D F + F F = [[6, 0], [0, 6]]
    # The first defect of each family is non-symmetric, so a transposed
    # layout would show, and F C != C F pins the order of r_j r_i.
    alg = classes_qq["e1e1=e2"]
    a = LinearMap.from_rows(QQ, [[1, 1], [0, 0]])
    d = LinearMap.from_rows(QQ, [[0, 0], [3, 0]])
    c = LinearMap.from_rows(QQ, [[0, 0], [1, 0]])
    f = LinearMap.from_rows(QQ, [[0, 2], [0, 0]])
    report = check_prejj_bimodule(PreJJBimodule(alg, (a, d), (c, f)))
    mixed = (
        ((0, 0), (1, 2, 1, 1)),
        ((0, 1), (2, 2, 0, 0)),
        ((1, 0), (0, 0, 0, 2)),
        ((1, 1), (6, 0, 0, 6)),
    )
    assert report.witnesses == (
        Witness((0, 0), (2, 2, 6, 0), "left"),
        Witness((0, 1), (3, 0, 3, 3), "left"),
        *(Witness(ij, defect, "mixed") for ij, defect in mixed),
        *(Witness(ij, defect, "right") for ij, defect in mixed),
    )
    assert not report.truncated


def _scalar(rng, field):
    # about two in five zeros, so that skipped terms are exercised too
    return field.of(rng.randrange(-3, 4) if rng.random() < 0.7 else 0)


def _on(maps, v):
    # the map of the algebra vector v: sum_k v_k maps[k]
    acc = LinearMap.zeros(maps[0].field, maps[0].rows, maps[0].cols)
    for vk, m in zip(v, maps):
        acc = acc.add(m.scale(vk))
    return acc


def _bimodule_oracle(bm):
    # the three operational conditions of the ``reps`` docstring, each term
    # a LinearMap product or sum, flattened row-major
    alg, l, r = bm.algebra, bm.left, bm.right
    n = alg.dim

    def xy(i, j):
        return product(alg, alg.basis(i), alg.basis(j))

    def flat(*maps):
        total = maps[0]
        for m in maps[1:]:
            total = total.add(m)
        return tuple(x for row in total.entries for x in row)

    for indices, defect in _DEFECT_GENERATORS["left_pre_jj"](alg):
        yield indices, defect, "algebra"
    for i in range(n):
        for j in range(i, n):
            yield (i, j), flat(_on(l, xy(i, j)), l[i].mul(l[j]),
                               _on(l, xy(j, i)), l[j].mul(l[i])), "left"
    for i in range(n):
        for j in range(n):
            yield (i, j), flat(r[j].mul(l[i]), l[i].mul(r[j]),
                               r[j].mul(r[i]), _on(r, xy(i, j))), "mixed"
    for i in range(n):
        for j in range(n):
            yield (i, j), flat(_on(r, xy(i, j)), r[j].mul(r[i]),
                               r[j].mul(l[i]), l[i].mul(r[j])), "right"


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_bimodule_witnesses_match_operator_oracle(field, n, m):
    # arbitrary candidates: every report, at every cap up to the number of
    # violations, against the conditions written with LinearMap.mul/add
    rng = seeded(60 + 3 * n + m)
    tags = set()
    for _ in range(2):
        alg = Algebra.from_tensor(field, [[[_scalar(rng, field) for _ in range(n)]
                                           for _ in range(n)] for _ in range(n)])
        maps = lambda: tuple(
            LinearMap(field, tuple(tuple(_scalar(rng, field) for _ in range(m))
                                   for _ in range(m)))
            for _ in range(n))
        bm = PreJJBimodule(alg, maps(), maps())
        total = len(report_from_defects("", field, _bimodule_oracle(bm), 10 ** 6)
                    .witnesses)
        for cap in range(1, total + 2):
            got = check_prejj_bimodule(bm, cap)
            want = report_from_defects("prejj_bimodule", field,
                                       _bimodule_oracle(bm), cap)
            assert got == want
        tags |= {w.tag for w in got.witnesses}
    assert {"left", "mixed", "right"} <= tags


def test_displayed_variant_diverges_from_operational():
    # l = 0 and r_{e1} = I satisfy both displayed conditions over the zero
    # algebra, while the semidirect sum is not pre-JJ; the operational check
    # agrees with the semidirect sum.
    alg = Algebra.zero(QQ, 2)
    left = (LinearMap.zeros(QQ, 2, 2), LinearMap.zeros(QQ, 2, 2))
    right = (LinearMap.identity(QQ, 2), LinearMap.zeros(QQ, 2, 2))
    bm = PreJJBimodule(alg, left, right)
    assert check_prejj_bimodule_displayed(bm).passed
    assert not check_prejj_bimodule(bm).passed
    assert not passes_identity(prejj_semidirect(bm), "left_pre_jj")


def test_displayed_variant_passes_on_valid_bimodules(f5_prejj_algebras):
    rng = seeded(21)
    for _ in range(40):
        alg = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        bm = random_valid_bimodule(rng, alg)
        assert check_prejj_bimodule(bm).passed
        assert check_prejj_bimodule_displayed(bm).passed


# ---------------------------------------------------------------------------
# prejj_semidirect
# ---------------------------------------------------------------------------

def test_prejj_semidirect_zero_maps(classes_qq):
    alg = classes_qq["e1e1=e2"]
    result = prejj_semidirect(PreJJBimodule.zero(alg, 1))
    assert result.dim == 3
    assert result.c[0][0] == vec(QQ, 0, 1, 0)
    nonzero = [(i, j) for i in range(3) for j in range(3)
               if any(x != QQ.zero for x in result.c[i][j])]
    assert nonzero == [(0, 0)]
    assert passes_identity(result, "left_pre_jj")


def test_prejj_semidirect_regular_bimodule(classes_qq):
    alg = classes_qq["e1e1=e2"]
    result = prejj_semidirect(PreJJBimodule.regular(alg))
    assert result.dim == 4
    assert passes_identity(result, "left_pre_jj")


def test_random_non_bimodule_semidirect_fails(f5_prejj_algebras):
    rng = seeded(22)
    alg = f5_prejj_algebras[1]
    while True:
        bm = random_candidate_bimodule(rng, alg)
        if not check_prejj_bimodule(bm).passed:
            break
    assert not passes_identity(prejj_semidirect(bm), "left_pre_jj")


def test_bimodule_semidirect_equivalence_random(f5_prejj_algebras):
    rng = seeded(23)
    seen = {True: 0, False: 0}
    for trial in range(300):
        alg = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        if trial % 5 == 0:
            bm = random_valid_bimodule(rng, alg)
        else:
            bm = random_candidate_bimodule(rng, alg)
        verdict = check_prejj_bimodule(bm).passed
        seen[verdict] += 1
        assert verdict == passes_identity(prejj_semidirect(bm), "left_pre_jj")
    assert seen[True] and seen[False]


# ---------------------------------------------------------------------------
# sum_rep and dual_bimodule
# ---------------------------------------------------------------------------

def test_sum_rep_zero_bimodule(classes_qq):
    alg = classes_qq["e1e1=e2"]
    rep = sum_rep(PreJJBimodule.zero(alg, 2))
    assert all(m.is_zero() for m in rep.maps)
    assert structure_equal(rep.algebra, sub_adjacent(alg))


def test_sum_rep_regular_is_ad(classes_qq):
    alg = classes_qq["e2e2=e1"]
    rep = sum_rep(PreJJBimodule.regular(alg))
    assert rep.maps[1] == ad(alg, alg.basis(1))
    assert rep.maps[1].apply(alg.basis(1)) == vec(QQ, 2, 0)
    assert check_jj_rep(rep).passed


def test_sum_rep_passes_for_random_valid_bimodules(f5_prejj_algebras):
    rng = seeded(24)
    for _ in range(30):
        alg = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        rep = sum_rep(random_valid_bimodule(rng, alg))
        assert check_jj_rep(rep).passed


def test_sum_rep_rejects_invalid_bimodule(classes_qq):
    alg = classes_qq["e1e1=e2"]
    maps = (LinearMap.identity(QQ, 2), LinearMap.zeros(QQ, 2, 2))
    with pytest.raises(PreconditionError):
        sum_rep(PreJJBimodule(alg, maps, maps))


def test_dual_bimodule_zero_and_involution(classes_qq):
    alg = classes_qq["e1e1=e2"]
    zero = PreJJBimodule.zero(alg, 2)
    assert dual_bimodule(zero).left == zero.left
    reg = PreJJBimodule.regular(alg)
    double = dual_bimodule(dual_bimodule(reg))
    assert double.left == reg.left and double.right == reg.right


def test_dual_bimodule_of_regular(classes_qq):
    alg = classes_qq["e1e1=e2"]
    dual = dual_bimodule(PreJJBimodule.regular(alg))
    assert dual.left[0] == right_mult(alg, alg.basis(0)).transpose()
    assert dual.right[0] == left_mult(alg, alg.basis(0)).transpose()
    assert check_prejj_bimodule(dual).passed


def test_dual_bimodule_verdict_equality_random(f5_prejj_algebras):
    rng = seeded(25)
    for _ in range(200):
        alg = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        bm = random_candidate_bimodule(rng, alg)
        assert (
            check_prejj_bimodule(bm).passed
            == check_prejj_bimodule(dual_bimodule(bm)).passed
        )


# ---------------------------------------------------------------------------
# shape validation
# ---------------------------------------------------------------------------

def test_rep_shape_validation(classes_qq):
    g = sub_adjacent(classes_qq["e1e1=e2"])
    with pytest.raises(ShapeError):
        JJRep(g, (LinearMap.identity(QQ, 2),))
    with pytest.raises(ShapeError):
        JJRep(g, (LinearMap.identity(QQ, 2), LinearMap.identity(QQ, 3)))


@pytest.mark.parametrize("coords", [(1, 0, 5), (1,)], ids=["long", "short"])
def test_rho_refuses_a_vector_of_the_wrong_length(coords):
    alg = Algebra.zero(QQ, 2)
    message = f"vector of length {len(coords)} in a dim-2 algebra"
    with pytest.raises(ShapeError, match=message):
        left_mult(alg, vec(QQ, *coords))
    with pytest.raises(ShapeError, match=message):
        JJRep.adjoint(alg).rho(vec(QQ, *coords))


def test_bimodule_shape_validation(classes_qq):
    alg = classes_qq["e1e1=e2"]
    ok = (LinearMap.zeros(QQ, 2, 2), LinearMap.zeros(QQ, 2, 2))
    bad = (LinearMap.zeros(QQ, 3, 3), LinearMap.zeros(QQ, 3, 3))
    with pytest.raises(ShapeError):
        PreJJBimodule(alg, ok, bad)


# ---------------------------------------------------------------------------
# the algebra's own identity: compiled GF(p) verdicts, generators as oracle
# ---------------------------------------------------------------------------

def _folded(alg, kind):
    # the algebra part of a checker, straight from the kind's generator
    for indices, defect in _DEFECT_GENERATORS[kind](alg):
        yield indices, defect, "algebra"


def test_checker_reports_match_generator_folded_reports(f5_prejj_algebras, classes_f5):
    # the 25 left pre-JJ algebras pass their identity and e2e1=e2 fails
    # both, so "algebra" witnesses are covered too; random maps fail and
    # the valid ones pass
    rng = seeded(29)
    tags = set()
    for alg in (*f5_prejj_algebras, classes_f5["e2e1=e2"]):
        sub = sub_adjacent(alg)
        bimodules = (random_candidate_bimodule(rng, alg), random_valid_bimodule(rng, alg))
        reps = (JJRep(sub, tuple(rand_matrix(rng, GF5, 2) for _ in range(2))),
                random_valid_rep(rng, sub) if alg is not classes_f5["e2e1=e2"]
                else JJRep(alg, tuple(rand_matrix(rng, GF5, 2) for _ in range(2))))
        for cap in (1, 16):
            for bm in bimodules:
                report = check_prejj_bimodule(bm, cap)
                assert report == report_from_defects("prejj_bimodule", GF5, itertools.chain(
                    _folded(alg, "left_pre_jj"), _bimodule_condition_defects(bm)), cap)
                assert check_prejj_bimodule_displayed(bm, cap) == report_from_defects(
                    "prejj_bimodule_displayed", GF5, itertools.chain(
                        _folded(alg, "left_pre_jj"), _bimodule_displayed_defects(bm)), cap)
                tags |= {w.tag for w in report.witnesses} | {report.passed}
            for rep in reps:
                report = check_jj_rep(rep, cap)
                assert report == report_from_defects("jj_representation", GF5, itertools.chain(
                    _folded(rep.algebra, "jj"), _rep_condition_defects(rep)), cap)
                tags |= {w.tag for w in report.witnesses} | {report.passed}
    assert {True, False, "algebra", "left", "mixed", "representation"} <= tags


@pytest.fixture
def generator_calls(monkeypatch):
    """The kinds whose defect generator runs on a concrete algebra, in order."""
    calls = []
    for kind, generator in _DEFECT_GENERATORS.items():
        def spy(alg, kind=kind, generator=generator):
            if alg.field is not _Polynomials:  # not the compile of the equations
                calls.append(kind)
            return generator(alg)
        monkeypatch.setitem(_DEFECT_GENERATORS, kind, spy)
    return calls


def test_dim2_prime_field_verdicts_run_no_generator(generator_calls, f5_prejj_algebras,
                                                    classes_f5):
    # passing checks need no witness, and passes_identity never does
    alg = f5_prejj_algebras[-1]
    assert alg.c != Algebra.zero(GF5, 2).c
    assert check_identity(alg, "left_pre_jj").passed
    assert passes_identity(alg, "operad")
    assert check_prejj_bimodule(PreJJBimodule.regular(alg)).passed
    assert check_jj_rep(JJRep.adjoint(sub_adjacent(alg))).passed
    for kind in ("antiassociative", "left_pre_jj", "jj"):
        assert passes_identity(classes_f5["e2e1=e2"], kind) is False
    assert passes_identity(Algebra.from_products(GF5, 1, {(0, 0): (1,)}), "jj") is False
    assert generator_calls == []


def test_failing_qq_and_dim4_checks_run_their_generator(generator_calls, classes_f5,
                                                         classes_qq):
    # the witnesses are the ones the generators gave before the compiled
    # verdict; passing QQ and dim-4 tables run their generator as well
    third_f5, third_qq = classes_f5["e2e1=e2"], classes_qq["e2e1=e2"]
    idempotent4 = Algebra.from_products(GF5, 4, {(0, 0): (1, 0, 0, 0)})
    cases = [
        (lambda: check_identity(third_f5, "antiassociative", 2),
         ["antiassociative"], [Witness((1, 0, 0), (0, 1))]),
        (lambda: check_prejj_bimodule(PreJJBimodule.zero(third_f5, 1), 2),
         ["left_pre_jj"], [Witness((0, 1, 0), (0, 1), "algebra")]),
        (lambda: check_jj_rep(JJRep.zero(third_f5, 1), 2),
         ["jj"], [Witness((0, 1), (0, 4), "algebra"), Witness((0, 0, 1), (0, 1), "algebra")]),
        (lambda: check_identity(third_qq, "left_pre_jj", 2),
         ["left_pre_jj"], [Witness((0, 1, 0), (0, 1))]),
        (lambda: check_identity(idempotent4, "jj", 2),
         ["jj"], [Witness((0, 0, 0), (3, 0, 0, 0))]),
        (lambda: check_identity(classes_qq["e1e1=e2"], "jj"), ["jj"], []),
        (lambda: check_jj_rep(JJRep.zero(Algebra.zero(GF5, 4), 1)), ["jj"], []),
    ]
    for run, kinds, witnesses in cases:
        generator_calls.clear()
        assert list(run().witnesses) == witnesses
        assert generator_calls == kinds
    for alg in (third_qq, idempotent4):
        generator_calls.clear()
        assert passes_identity(alg, "jj") is False
        assert generator_calls == ["jj"]

import functools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    GF5,
    outcome,
    random_valid_bimodule,
    random_valid_rep,
    seeded,
)
from mocklie.algebra import passes_identity, structure_equal, sub_adjacent
from mocklie.catalog import case_inputs
from mocklie.doubles import dual_structure_maps
from mocklie.errors import PreconditionError
from mocklie.fields import QQ
from mocklie.linalg import LinearMap
from mocklie.matched import (
    JJMatchedPair,
    PreJJMatchedPair,
    check_jj_matched_pair,
    check_prejj_matched_pair,
    jj_bicross_product,
    prejj_bicross_product,
    subadjacent_matched_pair,
)
from mocklie.algebra import (
    Algebra,
    direct_sum,
    left_mult,
    product,
    report_from_defects,
    right_mult,
)
from mocklie.classify import algebra_from_tuple
from mocklie.linalg import vec_add
from mocklie.matched import _jj_pair_defects, _prejj_pair_defects


def vec(field, *coords):
    return tuple(field.of(x) for x in coords)


# ---------------------------------------------------------------------------
# JJ matched pairs
# ---------------------------------------------------------------------------

def test_zero_actions_pass_jj_checker(classes_qq):
    g = sub_adjacent(classes_qq["e1e1=e2"])
    h = sub_adjacent(classes_qq["e2e2=e1"])
    mp = JJMatchedPair.zero_actions(g, h)
    assert check_jj_matched_pair(mp).passed


def test_zero_actions_bicross_is_direct_sum(classes_qq):
    g = sub_adjacent(classes_qq["e1e1=e2"])
    h = sub_adjacent(classes_qq["e2e2=e1"])
    mp = JJMatchedPair.zero_actions(g, h)
    assert structure_equal(jj_bicross_product(mp), direct_sum(g, h))
    assert passes_identity(jj_bicross_product(mp), "jj")


def test_jj_checker_preconditions_raise(classes_qq):
    bad = sub_adjacent(classes_qq["e2e1=e2"])
    good = sub_adjacent(classes_qq["e1e1=e2"])
    with pytest.raises(PreconditionError) as exc:
        check_jj_matched_pair(JJMatchedPair.zero_actions(bad, good))
    assert any(name == "G" for name, _ in exc.value.failures)
    rho = (LinearMap.identity(QQ, 2), LinearMap.zeros(QQ, 2, 2))
    mu = (LinearMap.zeros(QQ, 2, 2), LinearMap.zeros(QQ, 2, 2))
    with pytest.raises(PreconditionError) as exc:
        check_jj_matched_pair(JJMatchedPair(good, good, rho, mu))
    assert any(name == "rho" for name, _ in exc.value.failures)


def test_eqt1_breaking_candidate_found_by_rejection(classes_f5):
    # valid representations with mu = 0, sampled until eqt1 breaks; the
    # bicrossed product must then fail the jj identity as well
    rng = seeded(30)
    g = sub_adjacent(classes_f5["e1e1=e2"])
    h = sub_adjacent(classes_f5["e2e2=e1"])
    zero = LinearMap.zeros(GF5, 2, 2)
    while True:
        rep = random_valid_rep(rng, g)
        if all(m.is_zero() for m in rep.maps):
            continue
        mp = JJMatchedPair(g, h, rep.maps, (zero, zero))
        report = check_jj_matched_pair(mp)
        if not report.passed:
            break
    assert {w.tag for w in report.witnesses} <= {"eqt1", "eqt2"}
    assert "eqt1" in {w.tag for w in report.witnesses}
    assert not passes_identity(jj_bicross_product(mp), "jj")


def test_jj_equivalence_random(f5_prejj_algebras):
    rng = seeded(31)
    algs = [sub_adjacent(a) for a in f5_prejj_algebras]
    seen = {True: 0, False: 0}
    for trial in range(150):
        g = algs[rng.randrange(len(algs))]
        h = algs[rng.randrange(len(algs))]
        if trial % 10 == 0:
            mp = JJMatchedPair.zero_actions(g, h)
        else:
            mp = JJMatchedPair(g, h, random_valid_rep(rng, g).maps,
                               random_valid_rep(rng, h).maps)
        verdict = outcome(lambda: check_jj_matched_pair(mp))
        seen[verdict] += 1
        assert verdict == passes_identity(jj_bicross_product(mp), "jj")
    assert seen[True] and seen[False]


# ---------------------------------------------------------------------------
# pre-JJ matched pairs
# ---------------------------------------------------------------------------

def test_zero_actions_pass_prejj_checker(classes_qq):
    mp = PreJJMatchedPair.zero_actions(
        classes_qq["e1e1=e2"], classes_qq["e2e2=e1"]
    )
    assert check_prejj_matched_pair(mp).passed
    assert structure_equal(
        prejj_bicross_product(mp),
        direct_sum(classes_qq["e1e1=e2"], classes_qq["e2e2=e1"]),
    )


def test_case_one_dual_pair_passes():
    primal, dual = case_inputs("I", QQ)
    mp = dual_structure_maps(primal, dual)
    assert check_prejj_matched_pair(mp).passed
    assert passes_identity(prejj_bicross_product(mp), "left_pre_jj")


def test_case_one_spot_products():
    primal, dual = case_inputs("I", QQ)
    amb = prejj_bicross_product(dual_structure_maps(primal, dual))
    e1_p_e1s = vec(QQ, 1, 0, 1, 0)
    e1_p_e2s = vec(QQ, 1, 0, 0, 1)
    assert product(amb, e1_p_e1s, e1_p_e1s) == vec(QQ, 0, 1, 0, 0)
    assert product(amb, e1_p_e1s, e1_p_e2s) == vec(QQ, 0, 2, 1, 0)


def test_case_two_and_three_fail_preconditions():
    for case, side in (("II", "(lA, rA) over A"), ("III", "(lB, rB) over B")):
        primal, dual = case_inputs(case, QQ)
        mp = dual_structure_maps(primal, dual)
        with pytest.raises(PreconditionError) as exc:
            check_prejj_matched_pair(mp)
        assert [name for name, _ in exc.value.failures] == [side]
        assert not passes_identity(prejj_bicross_product(mp), "left_pre_jj")


def test_prejj_equivalence_random(f5_prejj_algebras):
    rng = seeded(32)
    seen = {True: 0, False: 0}
    for trial in range(150):
        a = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        b = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        if trial % 10 == 0:
            mp = PreJJMatchedPair.zero_actions(a, b)
        elif trial % 10 == 5:
            mp = dual_structure_maps(a, b)
        else:
            bma = random_valid_bimodule(rng, a)
            bmb = random_valid_bimodule(rng, b)
            mp = PreJJMatchedPair(a, b, bma.left, bma.right, bmb.left, bmb.right)
        verdict = outcome(lambda: check_prejj_matched_pair(mp))
        seen[verdict] += 1
        assert verdict == passes_identity(prejj_bicross_product(mp), "left_pre_jj")
    assert seen[True] and seen[False]


def test_prejj_witnesses_name_equations(f5_prejj_algebras):
    rng = seeded(33)
    tags = set()
    for _ in range(400):
        a = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        b = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        bma = random_valid_bimodule(rng, a)
        bmb = random_valid_bimodule(rng, b)
        mp = PreJJMatchedPair(a, b, bma.left, bma.right, bmb.left, bmb.right)
        report = check_prejj_matched_pair(mp)
        tags |= {w.tag for w in report.witnesses}
        if tags >= {"eqq1", "eqq2", "eqq3", "eqq4"}:
            break
    assert tags <= {"eqq1", "eqq2", "eqq3", "eqq4"}
    assert tags, "expected at least one failing candidate"


def test_doubling_the_mixed_action_term_breaks_the_oracle(classes_qq):
    # A bimodule of B = (e1e1=e2) with l_{e1} nilpotent acts nontrivially on
    # the products of A = (e1e1=e2).  Evaluating the mixed-action equation
    # with the l_B(a)(xy) term counted twice then disagrees with the checker
    # defect, whose verdict is the one matching the bicrossed product.
    a = classes_qq["e1e1=e2"]
    b = classes_qq["e1e1=e2"]
    n = LinearMap.from_rows(QQ, [[0, 1], [0, 0]])
    z = LinearMap.zeros(QQ, 2, 2)
    mp = PreJJMatchedPair(a, b, la=(z, z), ra=(z, z), lb=(n, z), rb=(z, z))
    report = check_prejj_matched_pair(mp)
    assert not report.passed
    w = next(w for w in report.witnesses if w.tag == "eqq4")
    assert w.indices == (0, 0, 0) and w.defect == vec(QQ, 1, 0)
    doubled = tuple(
        QQ.add(d, x) for d, x in zip(w.defect, mp.lb[0].apply(a.c[0][0]))
    )
    assert doubled != w.defect
    assert not passes_identity(prejj_bicross_product(mp), "left_pre_jj")


# ---------------------------------------------------------------------------
# sub-adjacent lift
# ---------------------------------------------------------------------------

def test_subadjacent_lift_zero_actions(classes_qq):
    mp = PreJJMatchedPair.zero_actions(classes_qq["e1e1=e2"], classes_qq["zero"])
    lifted = subadjacent_matched_pair(mp)
    assert all(m.is_zero() for m in lifted.rho + lifted.mu)
    assert check_jj_matched_pair(lifted).passed


def test_subadjacent_lift_case_one():
    primal, dual = case_inputs("I", QQ)
    mp = dual_structure_maps(primal, dual)
    lifted = subadjacent_matched_pair(mp)
    assert check_jj_matched_pair(lifted).passed


def test_commuting_square_case_one():
    primal, dual = case_inputs("I", QQ)
    mp = dual_structure_maps(primal, dual)
    lhs = sub_adjacent(prejj_bicross_product(mp))
    rhs = jj_bicross_product(subadjacent_matched_pair(mp))
    assert lhs.c == rhs.c


def test_commuting_square_random_passing_pairs(f5_prejj_algebras):
    rng = seeded(34)
    verified = 0
    for trial in range(150):
        a = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        b = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        if trial % 2 == 0:
            mp = dual_structure_maps(a, b)
        else:
            bma = random_valid_bimodule(rng, a)
            bmb = random_valid_bimodule(rng, b)
            mp = PreJJMatchedPair(a, b, bma.left, bma.right, bmb.left, bmb.right)
        if not outcome(lambda: check_prejj_matched_pair(mp)):
            continue
        lifted = subadjacent_matched_pair(mp)
        assert check_jj_matched_pair(lifted).passed
        assert sub_adjacent(prejj_bicross_product(mp)).c == jj_bicross_product(lifted).c
        verified += 1
    assert verified >= 10


def test_subadjacent_lift_rejects_failing_pair(f5_prejj_algebras):
    rng = seeded(35)
    while True:
        a = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        b = f5_prejj_algebras[rng.randrange(len(f5_prejj_algebras))]
        bma = random_valid_bimodule(rng, a)
        bmb = random_valid_bimodule(rng, b)
        mp = PreJJMatchedPair(a, b, bma.left, bma.right, bmb.left, bmb.right)
        if not check_prejj_matched_pair(mp).passed:
            break
    with pytest.raises(PreconditionError):
        subadjacent_matched_pair(mp)


# ---------------------------------------------------------------------------
# witness oracle: the equations in vector form, term by term
# ---------------------------------------------------------------------------

def _scalar(rng, field):
    # about two in five zeros, so that skipped terms are exercised too
    k = rng.randrange(-3, 4)
    return field.of(k if rng.random() < 0.7 else 0)


def _rand_map(rng, field, n):
    return LinearMap(field, tuple(tuple(_scalar(rng, field) for _ in range(n))
                                  for _ in range(n)))


def _rand_algebra(rng, field, n):
    return Algebra.from_tensor(field, [[[_scalar(rng, field) for _ in range(n)]
                                        for _ in range(n)] for _ in range(n)])


def _sum(field, *vectors):
    return functools.reduce(lambda u, v: vec_add(field, u, v), vectors)


def _action(maps, v):
    # the map of the vector v: sum_k v_k maps[k]
    acc = LinearMap.zeros(maps[0].field, maps[0].rows, maps[0].cols)
    for vk, m in zip(v, maps):
        acc = acc.add(m.scale(vk))
    return acc


def _jj_pair_oracle(mp):
    G, H, rho, mu = mp.G, mp.H, mp.rho, mp.mu
    f = G.field
    for i in range(G.dim):
        for a in range(H.dim):
            for b in range(a, H.dim):
                x, ea, eb = G.basis(i), H.basis(a), H.basis(b)
                yield (i, a, b), _sum(
                    f,
                    rho[i].apply(product(H, ea, eb)),
                    product(H, rho[i].column(a), eb),
                    product(H, ea, rho[i].column(b)),
                    _action(rho, mu[a].apply(x)).apply(eb),
                    _action(rho, mu[b].apply(x)).apply(ea),
                ), "eqt1"
    for a in range(H.dim):
        for i in range(G.dim):
            for j in range(i, G.dim):
                ea, x, y = H.basis(a), G.basis(i), G.basis(j)
                yield (a, i, j), _sum(
                    f,
                    mu[a].apply(product(G, x, y)),
                    product(G, mu[a].column(i), y),
                    product(G, x, mu[a].column(j)),
                    _action(mu, rho[i].apply(ea)).apply(y),
                    _action(mu, rho[j].apply(ea)).apply(x),
                ), "eqt2"


def _prejj_pair_oracle(mp):
    A, B, la, ra, lb, rb = mp.A, mp.B, mp.la, mp.ra, mp.lb, mp.rb
    f = A.field
    for i in range(A.dim):
        for a in range(B.dim):
            for b in range(a, B.dim):
                x, ea, eb = A.basis(i), B.basis(a), B.basis(b)
                yield (i, a, b), _sum(
                    f,
                    ra[i].apply(vec_add(f, product(B, ea, eb), product(B, eb, ea))),
                    _action(ra, lb[b].apply(x)).apply(ea),
                    _action(ra, lb[a].apply(x)).apply(eb),
                    product(B, ea, ra[i].column(b)),
                    product(B, eb, ra[i].column(a)),
                ), "eqq1"
    for i in range(A.dim):
        for a in range(B.dim):
            for b in range(B.dim):
                x, ea, eb = A.basis(i), B.basis(a), B.basis(b)
                yield (i, a, b), _sum(
                    f,
                    la[i].apply(product(B, ea, eb)),
                    _action(la, vec_add(f, lb[a].apply(x), rb[a].apply(x))).apply(eb),
                    product(B, vec_add(f, la[i].column(a), ra[i].column(a)), eb),
                    _action(ra, rb[b].apply(x)).apply(ea),
                    product(B, ea, la[i].column(b)),
                ), "eqq2"
    for a in range(B.dim):
        for i in range(A.dim):
            for j in range(i, A.dim):
                ea, x, y = B.basis(a), A.basis(i), A.basis(j)
                yield (a, i, j), _sum(
                    f,
                    rb[a].apply(vec_add(f, product(A, x, y), product(A, y, x))),
                    _action(rb, la[j].apply(ea)).apply(x),
                    _action(rb, la[i].apply(ea)).apply(y),
                    product(A, x, rb[a].column(j)),
                    product(A, y, rb[a].column(i)),
                ), "eqq3"
    for a in range(B.dim):
        for i in range(A.dim):
            for j in range(A.dim):
                ea, x, y = B.basis(a), A.basis(i), A.basis(j)
                yield (a, i, j), _sum(
                    f,
                    lb[a].apply(product(A, x, y)),
                    _action(lb, la[i].apply(ea)).apply(y),
                    _action(lb, ra[i].apply(ea)).apply(y),
                    product(A, lb[a].column(i), y),
                    product(A, rb[a].column(i), y),
                    product(A, x, lb[a].column(j)),
                    _action(rb, ra[j].apply(ea)).apply(x),
                ), "eqq4"


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
@pytest.mark.parametrize("dims", [(1, 2), (2, 3), (3, 2)])
def test_pair_witnesses_match_vector_oracle(field, dims):
    # arbitrary candidates, unfiltered by the preconditions: every witness
    # of both checkers, in order, against the equations in vector form
    rng = seeded(40 + dims[0] * 3 + dims[1])
    big = 10 ** 6
    tags = set()
    for _ in range(4):
        ng, nh = dims
        g, h = _rand_algebra(rng, field, ng), _rand_algebra(rng, field, nh)
        jj = JJMatchedPair(g, h, [_rand_map(rng, field, nh) for _ in range(ng)],
                           [_rand_map(rng, field, ng) for _ in range(nh)])
        got = report_from_defects("jj", field, _jj_pair_defects(jj), big)
        want = report_from_defects("jj", field, _jj_pair_oracle(jj), big)
        assert got.witnesses == want.witnesses
        tags |= {w.tag for w in got.witnesses}
        pre = PreJJMatchedPair(
            g, h,
            [_rand_map(rng, field, nh) for _ in range(ng)],
            [_rand_map(rng, field, nh) for _ in range(ng)],
            [_rand_map(rng, field, ng) for _ in range(nh)],
            [_rand_map(rng, field, ng) for _ in range(nh)],
        )
        got = report_from_defects("pre", field, _prejj_pair_defects(pre), big)
        want = report_from_defects("pre", field, _prejj_pair_oracle(pre), big)
        assert got.witnesses == want.witnesses
        tags |= {w.tag for w in got.witnesses}
    assert tags == {"eqt1", "eqt2", "eqq1", "eqq2", "eqq3", "eqq4"}


VECTORS = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, 4), min_size=n ** 3, max_size=n ** 3),
    st.lists(st.integers(0, 4), min_size=n, max_size=n),
    st.lists(st.integers(0, 4), min_size=n, max_size=n),
))


@settings(max_examples=150, deadline=None)
@given(data=VECTORS, field=st.sampled_from([QQ, GF5]))
def test_multiplication_maps_match_product(data, field):
    n, constants, x, y = data
    alg = algebra_from_tuple(field, n, tuple(field.of(k) for k in constants))
    x, y = tuple(map(field.of, x)), tuple(map(field.of, y))
    assert left_mult(alg, x).apply(y) == product(alg, x, y)
    assert right_mult(alg, x).apply(y) == product(alg, y, x)

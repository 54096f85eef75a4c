import hashlib
import importlib
import itertools

import pytest

from conftest import (GF2, GF3, GF5, brute_force_antiassociative, gl_matrices,
                      rand_invertible, seeded)
from mocklie.algebra import (IDENTITY_KINDS, _DEFECT_GENERATORS, Algebra, _compile,
                             _identity_equations, algebra_from_tuple, apply_basis_change,
                             check_identity, passes_identity, structure_equal,
                             tuple_from_algebra)
from mocklie.catalog import class_algebras
from mocklie.classify import (
    _gl_generators,
    _image_columns,
    _primitive_root,
    _solve,
    classify,
    enumerate_solutions,
    find_isomorphism,
    gl_order,
    transport_tuple,
)
from mocklie.errors import FieldError, ShapeError
from mocklie.fields import QQ, prime_field
from mocklie.formats import census_to_json, dumps
from mocklie.linalg import LinearMap, combination


ZERO8 = (0,) * 8
SQUARE_TUPLE = (0, 1, 0, 0, 0, 0, 0, 0)   # e1e1 = e2
THIRD_TUPLE = (0, 0, 0, 0, 0, 1, 0, 0)    # e2e1 = e2
CUBE_TUPLE = (0, 0, 0, 0, 0, 0, 1, 0)     # e2e2 = e1


def test_flattening_order_matches_convention(classes_f5):
    assert tuple_from_algebra(classes_f5["e1e1=e2"]) == SQUARE_TUPLE
    assert tuple_from_algebra(classes_f5["e2e1=e2"]) == THIRD_TUPLE
    assert tuple_from_algebra(classes_f5["e2e2=e1"]) == CUBE_TUPLE
    alg = algebra_from_tuple(GF5, 2, SQUARE_TUPLE)
    assert alg.c[0][0] == (0, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_enumeration_matches_independent_brute_force(p):
    oracle = set(map(tuple, brute_force_antiassociative(p)))
    field = prime_field(p)
    lib = set(enumerate_solutions(2, field, "antiassociative"))
    assert lib == oracle
    assert len(oracle) == {2: 28, 3: 9}[p]


# Solution counts in the order antiassociative, left_pre_jj, right_pre_jj,
# jj, operad.  Dim 1 has e1e1 = a e1 and the identities read 2a^2 = 0
# (antiassociative), 4a^2 = 0 (left, right, operad) and 3a^2 = 0 (jj).  In
# characteristic 2 every a solves all but jj (3 = 1, so a = 0); in
# characteristic 3 every a solves jj and only a = 0 the others; elsewhere
# only a = 0 solves any.  The dim-2 counts are the census sizes.
SOLUTION_COUNTS = {
    (1, 2): (2, 2, 2, 1, 2),
    (1, 3): (1, 1, 1, 3, 1),
    (1, 5): (1, 1, 1, 1, 1),
    (1, 7): (1, 1, 1, 1, 1),
    (2, 2): (28, 58, 58, 7, 58),
    (2, 3): (9, 9, 9, 105, 9),
}


@pytest.mark.parametrize("dim, p", sorted(SOLUTION_COUNTS))
def test_enumeration_matches_defect_generators(dim, p):
    # oracle: every tuple through the defect generators of ``algebra``
    field = prime_field(p)
    tuples = list(itertools.product(range(p), repeat=dim ** 3))
    algebras = [algebra_from_tuple(field, dim, c) for c in tuples]
    for kind, count in zip(IDENTITY_KINDS, SOLUTION_COUNTS[dim, p]):
        oracle = [c for c, alg in zip(tuples, algebras) if passes_identity(alg, kind)]
        lib = enumerate_solutions(dim, field, kind)
        assert lib == oracle
        assert len(lib) == count


def evaluate(equations, c, p):
    """The values mod p of the compiled equations on the flat tuple ``c``."""
    vals = tuple(c) + (1,)
    return [
        (a * vals[d] ** 2 + sum(k * vals[u] for k, u in linear) * vals[d]
         + sum(k * vals[u] * vals[w] for k, u, w in free)) % p
        for d, eqs in enumerate(equations) for a, linear, free in eqs
    ]


def test_prime_field_candidates_match_defect_generators(classes_f5):
    names = ("zero", "e1e1=e2", "e2e1=e2", "e2e2=e1")
    cands = [tuple_from_algebra(classes_f5[name]) for name in names]
    for kind in IDENTITY_KINDS:
        verified = [c for c in cands
                    if not any(evaluate(_identity_equations(2, 5, kind), c, 5))]
        assert verified == [c for c in cands if passes_identity(
            algebra_from_tuple(GF5, 2, c), kind)]
        # e2e1=e2 fails every kind (see acceptance criteria 1 and 2)
        assert verified == [ZERO8, SQUARE_TUPLE, CUBE_TUPLE]


def test_one_compile_per_size_field_and_kind(monkeypatch):
    # the GF(p) verdict, the census and its solver read one cached compile
    algebra = importlib.import_module("mocklie.algebra")
    compile_, calls = algebra._compile, []

    def spy(polys, size, modulus):
        calls.append((size, modulus))
        return compile_(polys, size, modulus)

    monkeypatch.setattr(algebra, "_compile", spy)
    _identity_equations.cache_clear()
    for kind in IDENTITY_KINDS:
        del calls[:]
        check_identity(algebra_from_tuple(GF5, 2, SQUARE_TUPLE), kind)
        enumerate_solutions(2, GF5, kind)
        classify(2, GF5, kind)
        assert calls == [(8, 5)], kind


def test_zero_tuple_is_always_a_solution():
    for field in (GF2, GF3, GF5):
        for kind in IDENTITY_KINDS:
            sols = set(enumerate_solutions(2, field, kind))
            assert (0,) * 8 in sols


def test_class_tuple_membership_over_f5(f5_anti_solutions):
    sols = set(f5_anti_solutions)
    assert ZERO8 in sols
    assert SQUARE_TUPLE in sols
    assert CUBE_TUPLE in sols
    # the catalogued third class does not satisfy the identity it is filed
    # under; the mechanical system generation rules it out
    assert THIRD_TUPLE not in sols


def test_enumeration_is_sorted_and_fixed_size(f5_anti_solutions):
    assert list(f5_anti_solutions) == sorted(f5_anti_solutions)
    assert len(f5_anti_solutions) == 25


def test_prejj_census_equals_antiassociative_over_f5(f5_anti_solutions):
    prejj = set(enumerate_solutions(2, GF5, "left_pre_jj"))
    assert prejj == set(f5_anti_solutions)


def test_prejj_census_strictly_larger_over_f2():
    anti = set(enumerate_solutions(2, GF2, "antiassociative"))
    prejj = set(enumerate_solutions(2, GF2, "left_pre_jj"))
    assert anti < prejj
    assert len(prejj) == 58


def test_every_antiassociative_solution_passes_prejj_checks(f5_anti_solutions):
    for entries in f5_anti_solutions:
        alg = algebra_from_tuple(GF5, 2, entries)
        for kind in ("left_pre_jj", "right_pre_jj", "operad"):
            assert check_identity(alg, kind).passed


def test_rational_mode_requires_candidates():
    with pytest.raises(FieldError):
        enumerate_solutions(2, QQ, "antiassociative")


def test_scan_guard():
    # the guard bounds the assignments the solver tries: the dim-2 GF(5)
    # census tries 8,220, so any smaller limit stops it before it ends
    stats = {}
    enumerate_solutions(2, GF5, "antiassociative", max_scan=8220, stats=stats)
    assert stats["visited"] == 8220
    for limit in (8219, 3000):
        with pytest.raises(FieldError, match=f"more than {limit} assignments"):
            enumerate_solutions(2, GF5, "antiassociative", max_scan=limit)
    # the unknowns are capped before any equation is built
    with pytest.raises(ShapeError, match="64 unknowns"):
        enumerate_solutions(4, GF2, "antiassociative")

    def unread():
        raise AssertionError("polynomials read")
        yield

    with pytest.raises(ShapeError, match="28 unknowns"):
        _compile(unread(), 28, 5)
    assert _compile(iter(()), 27, 5) == ((),) * 27


def brute_force_solve(equations, domains, modulus):
    """What ``_solve`` yields and counts, by listing ``itertools.product``:
    the tuples on which every equation vanishes, and as ``visited`` the
    domain size of x_d times the prefixes x_0 .. x_{d-1} that pass every
    equation filed under them, summed over d."""
    one = len(domains)

    def holds(prefix):
        x = prefix + (1,) * (one + 1 - len(prefix))   # x_one is the constant 1
        for d in range(len(prefix)):
            for a, linear, free in equations[d]:
                value = (a * x[d] * x[d] + sum(c * x[u] * x[d] for c, u in linear)
                         + sum(c * x[u] * x[w] for c, u, w in free))
                if (value % modulus if modulus else value) != 0:
                    return False
        return True

    solutions = [t for t in itertools.product(*domains) if holds(t)]
    visited = sum(len(domains[d]) * sum(map(holds, itertools.product(*domains[:d])))
                  for d in range(one))
    return solutions, visited


def test_solver_on_hand_built_equations():
    # over GF(5), with x_3 standing for the constant 1:
    #   x0^2 - 1 = 0                          quadratic: x0 in {1, 4}
    #   (x0 - 1) x1 + x0 + 1 = 0              at x0 = 1, b = 0 and k = 2: no x1
    #   x2^2 - x0 x2 = 0 and x1 x2 + x1 = 0   at x1 = 0, the second keeps all x2
    equations = (
        ((1, (), ((4, 3, 3),)),),
        ((0, ((1, 0), (4, 3)), ((1, 0, 3), (1, 3, 3))),),
        ((1, ((4, 0),), ()), (0, ((1, 1),), ((1, 1, 3),))),
    )
    domains = [range(5)] * 3
    stats = {}
    assert list(_solve(equations, domains, 5, stats, 10 ** 6)) == [(4, 0, 0), (4, 0, 4)]
    assert stats["visited"] == 5 + 2 * 5 + 1 * 5
    assert brute_force_solve(equations, domains, 5) == ([(4, 0, 0), (4, 0, 4)], 20)


@pytest.mark.parametrize("modulus", [2, 3, 5, 7, 0])
def test_solver_matches_brute_force(modulus):
    # random linear and quadratic equations, coefficients unreduced, on
    # three or four variables; over QQ (modulus 0) the values are -2 .. 2
    rng = seeded(26)
    values = range(modulus) if modulus else range(-2, 3)
    for _ in range(60):
        size = rng.choice((3, 4))
        equations = []
        for d in range(size):
            lower = list(range(d)) + [size]   # x_size is the constant 1
            filed = []
            for _ in range(rng.randint(0, 2)):
                a = rng.choice((0, 0, rng.randint(-3, 3)))
                linear = tuple((rng.randint(-3, 3), rng.choice(lower))
                               for _ in range(rng.randint(0, 2)))
                free = tuple((rng.randint(-3, 3), *sorted(rng.choices(lower, k=2)))
                             for _ in range(rng.randint(0, 2)))
                filed.append((a, linear, free))
            equations.append(tuple(filed))
        domains = [values] * size
        stats = {}
        solutions = list(_solve(equations, domains, modulus, stats, 10 ** 6))
        assert (solutions, stats["visited"]) == brute_force_solve(equations, domains, modulus)


# sha256 of ``dumps(census_to_json(classify(dim, GF(p), kind)))``, metadata
# and ``visited`` included: the solver and orbit closure are free to change
# how they work, not what a census says.
CENSUS_SHA256 = {
    "1/2/antiassociative": "9fb39ba9712daa471ec5c3ddcb9969d29df1f6da7df061eaf6cb5a5128259b84",
    "1/2/left_pre_jj": "4ca8110ed8c2533ec3c3e33b48b21da069b6764b0a9d7af5cbff765aa202b38a",
    "1/2/right_pre_jj": "80a153b9967acfe83df0a473623b85c2aacb1554779c684fc98ba1a7c8de8cbe",
    "1/2/jj": "2fe379bb05e208a2422fa92bd669f42769b90378d245169ef77852230b8321b0",
    "1/2/operad": "d45bc974cae8506c97f7a8441073cfb8f4fca7949fae383444a9e042c5842aa3",
    "1/3/antiassociative": "f769b35e201bc8240149b14fd0721c068f506e9003ebe3b9fad2579505614ffc",
    "1/3/left_pre_jj": "96607a2840f8cc09e295e4d6ecc5f0e5207a2095c57b391b41599a90eb8065f7",
    "1/3/right_pre_jj": "3a33dd4777cf0ccdf407bd74ac7dd912172a25f42a92a29738d7c11bae066d9a",
    "1/3/jj": "7e63f41970922a15bde2fc0b0d8165dcb625b99bd261dc0ee46e5073bc01d967",
    "1/3/operad": "0fdaca5f671079cd3ad61733f4f364e7918649f7b3a5d4866e54d9caceeca6d9",
    "1/5/antiassociative": "4785d25ac70d4a71e02b048e9feb91d093a57db9a395abc34866faaf69354ebf",
    "1/5/left_pre_jj": "fe55ef57285db714f2c2d70cc0e903217abb8755b4c940e3aeca2a6700f1e9a5",
    "1/5/right_pre_jj": "fd2d2995e30b5b49aee802291cdb5e5f9e6dc547ff2086721f2f3d2600f1c5f9",
    "1/5/jj": "1a5c49bdc2152769edef3e829d3eda2d9fc3698b728510261d0d3b31dddc21f7",
    "1/5/operad": "5dab0243f60027768742f1c474bd734b93650b62727efb624e3e68ba5103c03a",
    "1/7/antiassociative": "6c535ccec9e3a3735e3c7f14259127ef391a4b90970c4ba8667513f3d038280b",
    "1/7/left_pre_jj": "3418dc61d65a8acef67908882ee4615db9104c2637a07f32a2223f91f81c79c6",
    "1/7/right_pre_jj": "cdc28b1b3ad80f274b247939fd2d14ee46059c22877200bd25bd3d5ef8862399",
    "1/7/jj": "2d1cd72b13892b1b7e1669988597d53ec7f16071b376736029621f61d6002d29",
    "1/7/operad": "034b3be7c1a9796598217b1738149a0bf30b6608638839935f1f7d71464363e6",
    "2/2/antiassociative": "d9865e4adf2228220d93a2b23aa66ca50770d26a285faa3614360a9483a86bee",
    "2/2/left_pre_jj": "a990f3b51a4d86c92d9f8b4b67dae48af1856bc917526682419db176a55053fd",
    "2/2/right_pre_jj": "f02f1262344fdcb12c60e1a0de4e5940e6c14e2963d1b01403b71a3c94a3fa98",
    "2/2/jj": "d51cbe0265f1809456c9add8b6adcdc91a3c8daaa3cec83ac7e343d8abf0d497",
    "2/2/operad": "4a1afdddc8c9c47d20e3cc3641514c7882ae55dcd93c468604a51ea31a6bb371",
    "2/3/antiassociative": "4a4ff66552ed16badd7d2622a27e1a99f6ecc29f270d07d6be36a8c01fca5797",
    "2/3/left_pre_jj": "218a9577741abecef5a4cb937303641e74a7634fcdeaf96fbd578bdcab93532a",
    "2/3/right_pre_jj": "0029065fe7d55f8efd1e4c6b182394fb8e3e8514462dbbd9790ea8c3fca93f67",
    "2/3/jj": "09464eddef92049a408490673db1f7105e981fcd6157fd13bee766dc0c8bdb32",
    "2/3/operad": "606ca093c7d38730caabeb5f5fe075dfd1f19d16982c6277233de6d95f998eac",
    "2/5/antiassociative": "c3f170daeca7b17c0c74130e4207aebd24baeb1c0a2c7529233e14840e2e4f95",
    "2/5/left_pre_jj": "03b819dab4685f76f024b184ba7cf6871334d7dc337656340570c344cc7cd3b6",
    "2/5/right_pre_jj": "c87981312d8c2e4e4fbca22d048a3efbcbc2047cb9d9e72d0dca2befd2c87224",
    "2/5/jj": "789e100105a9e040eb117ba3d3a9750daa3200c2e353a24d56cecd456e1a7935",
    "2/5/operad": "fc2e5f93c404c8f8e5ebf7cec55e4eb215b31b7948a5329cb450afbe4106c17d",
    "2/7/antiassociative": "cc0bdcf3334706ac89054de68815b0f4e3f817c1deaa7c0adcdc6db243e085ef",
    "2/7/left_pre_jj": "00d61bcc97c835e33f68d65d0eaf773145669dbfa834d49e04640a3660adb4fd",
    "2/7/right_pre_jj": "fea889f8646ad0ae1260fd813e2228a46f585fa5e4dfc9a88ff0bd0f0274ea9e",
    "2/7/jj": "443b183d3ab1b3aa58cf3be7937aafe4c0e7a6ed7dc0add9bc4811813334d4df",
    "2/7/operad": "1c5eac2557e0640d95aaff55f68125d8c9ceb8aaecd97b935919a4aee18a7fa0",
}


def test_census_documents_are_pinned():
    for key, digest in CENSUS_SHA256.items():
        dim, p, kind = key.split("/")
        text = dumps(census_to_json(classify(int(dim), prime_field(int(p)), kind)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, key


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def test_identity_isomorphism(classes_f5):
    alg = classes_f5["e1e1=e2"]
    iso = find_isomorphism(alg, alg)
    assert iso == LinearMap.identity(GF5, 2)


def test_scaling_isomorphism_over_f5():
    a = algebra_from_tuple(GF5, 2, SQUARE_TUPLE)
    b = algebra_from_tuple(GF5, 2, (0, 2, 0, 0, 0, 0, 0, 0))
    iso = find_isomorphism(a, b)
    assert iso is not None
    moved = transport_tuple(SQUARE_TUPLE, tuple(x for row in iso.entries for x in row), 2, 5)
    assert moved == (0, 2, 0, 0, 0, 0, 0, 0)


def test_square_and_cube_classes_are_isomorphic(classes_f5, classes_qq):
    iso5 = find_isomorphism(classes_f5["e1e1=e2"], classes_f5["e2e2=e1"])
    assert iso5 is not None
    iso_qq = find_isomorphism(classes_qq["e1e1=e2"], classes_qq["e2e2=e1"], bound=1)
    assert iso_qq is not None
    from mocklie.algebra import apply_basis_change, structure_equal

    assert structure_equal(
        apply_basis_change(classes_qq["e1e1=e2"], iso_qq), classes_qq["e2e2=e1"]
    )


def test_zero_is_not_isomorphic_to_nonzero(classes_f5):
    assert find_isomorphism(classes_f5["zero"], classes_f5["e2e2=e1"]) is None


def test_iso_dimension_mismatch():
    with pytest.raises(ShapeError):
        find_isomorphism(
            algebra_from_tuple(GF5, 2, ZERO8),
            algebra_from_tuple(GF5, 1, (0,)),
        )


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_dim1():
    census5 = classify(1, GF5, "antiassociative")
    assert census5.total == 1
    assert [o.representative for o in census5.orbits] == [(0,)]
    # characteristic 2 admits the extra idempotent line and carries a warning
    census2 = classify(1, GF2, "antiassociative")
    assert census2.total == 2
    assert len(census2.orbits) == 2
    assert census2.warnings


def test_classify_dim2_f5_antiassociative():
    census = classify(2, GF5, "antiassociative")
    assert census.total == 25
    assert [(o.representative, o.size) for o in census.orbits] == [
        (ZERO8, 1),
        (CUBE_TUPLE, 24),
    ]
    assert census.metadata["scanned"] == 5 ** 8
    assert census.metadata["gl_order"] == 480


def test_classify_dim2_f5_prejj_matches_antiassociative():
    anti = classify(2, GF5, "antiassociative")
    prejj = classify(2, GF5, "left_pre_jj")
    assert [(o.representative, o.size) for o in anti.orbits] == [
        (o.representative, o.size) for o in prejj.orbits
    ]


def test_classify_dim2_f7_beyond_the_scan():
    # |GL(2,7)| = (49 - 1)(49 - 7) = 48 * 42 = 2016.  The stabiliser of
    # e1e1=e2 is {f1 = a e1 + b e2, f2 = a^2 e2} with a != 0: 6 * 7 = 42
    # elements, so its orbit has 2016 / 42 = 48 members; with zero that is
    # 49 solutions, and the lex-smallest member is e2e2=e1.  Over GF(13)
    # the same count gives 1 + 168 = 169 solutions in two orbits.
    for p, gl in ((7, 2016), (13, 168 * 156)):
        expected = [(ZERO8, 1), (CUBE_TUPLE, p * p - 1)]
        for kind in ("antiassociative", "jj", "left_pre_jj", "right_pre_jj", "operad"):
            census = classify(2, prime_field(p), kind)
            assert census.total == p * p
            assert [(o.representative, o.size) for o in census.orbits] == expected
            assert census.metadata["gl_order"] == gl


def test_classify_dim2_f2():
    census = classify(2, GF2, "antiassociative")
    assert census.total == 28
    assert sum(o.size for o in census.orbits) == 28
    assert len(census.orbits) == 8


def test_orbit_members_share_all_verdicts():
    rng = seeded(50)
    base = CUBE_TUPLE
    gl = gl_matrices(5, 2)
    for _ in range(20):
        flat = gl[rng.randrange(len(gl))]
        moved = transport_tuple(base, flat, 2, 5)
        alg_a = algebra_from_tuple(GF5, 2, base)
        alg_b = algebra_from_tuple(GF5, 2, moved)
        for kind in IDENTITY_KINDS:
            assert passes_identity(alg_a, kind) == passes_identity(alg_b, kind)


def test_classify_deterministic_and_worker_independent():
    # one serial search: two runs give byte-identical documents, and the
    # metadata records a single worker
    for kind in IDENTITY_KINDS:
        doc = census_to_json(classify(2, GF3, kind))
        assert dumps(census_to_json(classify(2, GF3, kind))) == dumps(doc)
        assert doc["metadata"]["workers"] == 1


def test_classify_workers_guard_and_metadata():
    # the census takes no worker count, and records one worker
    with pytest.raises(TypeError, match="workers"):
        classify(1, GF2, "antiassociative", workers=2)
    census = classify(1, GF2, "antiassociative")
    assert census.metadata["workers"] == 1
    # dim 1 has one constant, and each of its p values is tried once
    assert census.metadata["visited"] == 2
    assert classify(1, GF5, "jj").metadata["visited"] == 5


def test_classify_guards():
    # 11^8 tuples, but the solver tries 359,238 assignments; one fewer is
    # refused
    census = classify(2, prime_field(11), "antiassociative")
    assert census.total == 121
    assert [o.size for o in census.orbits] == [1, 120]
    assert census.metadata["visited"] == 359238
    assert census.metadata["scanned"] == 11 ** 8
    with pytest.raises(FieldError, match="more than 359237 assignments"):
        classify(2, prime_field(11), "antiassociative", max_scan=359237)
    with pytest.raises(ShapeError):
        classify(3, GF2, "antiassociative")
    with pytest.raises(FieldError):
        classify(2, QQ, "antiassociative")


def test_orbit_representative_is_lex_smallest():
    census = classify(2, GF3, "left_pre_jj")
    gl = gl_matrices(3, 2)
    for orbit in census.orbits:
        members = {
            transport_tuple(orbit.representative, flat, 2, 3) for flat in gl
        }
        assert orbit.representative == min(members)
        assert orbit.size == len(members)


def test_transport_rejects_singular_matrix():
    with pytest.raises(ShapeError, match="singular"):
        transport_tuple(SQUARE_TUPLE, (1, 2, 2, 4), 2, 5)


@pytest.mark.parametrize("c, flat_p", [((1,) * 7, (1, 0, 0, 1)), ((1,) * 9, (1, 0, 0, 1)),
                                       (SQUARE_TUPLE, (1, 0, 0)), (SQUARE_TUPLE, (1,) * 5)])
def test_transport_rejects_wrong_lengths(c, flat_p):
    with pytest.raises(ShapeError, match="needs 8 constants and 4 matrix entries"):
        transport_tuple(c, flat_p, 2, 5)


# An oracle for the solver's equations that shares no code with the defect
# generators: each identity kind written as its defect on basis triples
# (x, y, z), juxtaposition being the product, one word per term.
IDENTITY_STRINGS = {
    "antiassociative": ("(xy)z + x(yz)",),
    "left_pre_jj": ("(xy)z + x(yz) + (yx)z + y(xz)",),
    "right_pre_jj": ("(xy)z + x(yz) + (xz)y + x(zy)",),
    "operad": ("(xy)z + x(yz) + (yx)z + y(xz)",),
    "jj": ("xy - yx", "(xy)z + (zx)y + (yz)x"),
}


def _monic(eq, p):
    inv = pow(eq[0][0], -1, p)
    return tuple((c * inv % p, u, w) for c, u, w in eq)


def expand_identity(n, p, kind):
    """Equations of ``IDENTITY_STRINGS[kind]`` over the flat constants.

    Terms are (coefficient, u, w) for coefficient * x_u * x_w, with index
    n^3 standing for the constant 1.  Returns one set per flat index d of
    the equations whose highest variable is x_d, each scaled to leading
    coefficient 1 mod p.
    """
    one = n ** 3

    def var(a, b, t):
        return (a * n + b) * n + t

    by_highest = [set() for _ in range(one)]
    for triple in itertools.product(range(n), repeat=3):
        for identity in IDENTITY_STRINGS[kind]:
            polys = [{} for _ in range(n)]   # coordinate t -> {(u, w): coef}
            for term in identity.replace("+ ", "").replace("- ", "-").split():
                sign = -1 if term[0] == "-" else 1
                word = term.lstrip("-")
                idx = [triple["xyz".index(ch)] for ch in word if ch in "xyz"]
                for t in range(n):
                    if len(idx) == 2:      # ab: x_abt
                        monos = [(var(*idx, t), one)]
                    elif word[0] == "(":   # (ab)c: sum_m x_abm x_mct
                        a, b, c = idx
                        monos = [(var(a, b, m), var(m, c, t)) for m in range(n)]
                    else:                  # a(bc): sum_m x_bcm x_amt
                        a, b, c = idx
                        monos = [(var(b, c, m), var(a, m, t)) for m in range(n)]
                    for mono in map(tuple, map(sorted, monos)):
                        polys[t][mono] = polys[t].get(mono, 0) + sign
            for poly in polys:
                eq = tuple((c % p, u, w) for (u, w), c in sorted(poly.items()) if c % p)
                if eq:
                    by_highest[max(w if w != one else u for _, u, w in eq)].add(
                        _monic(eq, p))
    return by_highest


def term_form(d, a, linear, free):
    """A compiled equation filed under x_d as terms (c, u, w), u <= w,
    sorted by (u, w)."""
    terms = [(c, min(u, d), max(u, d)) for c, u in linear] + list(free)
    if a:
        terms.append((a, d, d))
    return tuple(sorted(terms, key=lambda term: term[1:]))


@pytest.mark.parametrize("n, p", [(1, 5), (2, 2), (2, 3), (2, 5), (2, 7), (3, 2)])
def test_equations_match_expanded_identity_strings(n, p):
    for kind in IDENTITY_KINDS:
        compiled = [{_monic(term_form(d, *eq), p) for eq in eqs}
                    for d, eqs in enumerate(_identity_equations(n, p, kind))]
        assert compiled == expand_identity(n, p, kind), kind


# ---------------------------------------------------------------------------
# orbits from generators
# ---------------------------------------------------------------------------

def matmul(a, b, n, p):
    return tuple(
        sum(a[r * n + t] * b[t * n + c] for t in range(n)) % p
        for r in range(n) for c in range(n)
    )


@pytest.mark.parametrize("n, p", [(1, 2), (1, 3), (1, 5), (1, 7),
                                  (2, 2), (2, 3), (2, 5), (2, 7), (3, 2)])
def test_generators_close_to_the_whole_group(n, p):
    identity = tuple(int(r == c) for r in range(n) for c in range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        m = frontier.pop()
        for g in _gl_generators(p, n):
            image = matmul(m, g, n, p)
            if image not in group:
                group.add(image)
                frontier.append(image)
    assert group == set(gl_matrices(p, n))
    assert gl_order(p, n) == len(gl_matrices(p, n))


def test_primitive_root_is_the_smallest_generator():
    # the definition: the smallest w whose powers reach all p - 1 units
    for p in range(2, 500):
        if all(p % d for d in range(2, p)):
            assert _primitive_root(p) == next(
                w for w in range(1, p)
                if len({pow(w, k, p) for k in range(1, p)}) == p - 1)


def full_closure_orbits(solutions, n, p):
    """Orbits by closing each unassigned solution over all of GL_n(F_p)."""
    assigned, orbits = set(), []
    for c in solutions:
        if c in assigned:
            continue
        orbit = {transport_tuple(c, flat, n, p) for flat in gl_matrices(p, n)}
        assigned |= orbit
        orbits.append((min(orbit), len(orbit)))
    return orbits


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_orbits_match_full_closure(p):
    field = prime_field(p)
    for kind in IDENTITY_KINDS:
        census = classify(2, field, kind)
        solutions = enumerate_solutions(2, field, kind)
        assert [(o.representative, o.size) for o in census.orbits] == \
            full_closure_orbits(solutions, 2, p), kind
        assert census.metadata["gl_order"] == len(gl_matrices(p, 2))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_orbit_images_from_generator_columns(p):
    # a generator's image of c, read as one combination of its cached
    # columns, is the basis change itself: on every dim 1-2 solution, and
    # on random dim-3 tuples over GF(2) and GF(3)
    field = prime_field(p)
    rng = seeded(p)
    cases = [(n, c) for n in (1, 2) for c in
             sorted({s for kind in IDENTITY_KINDS for s in enumerate_solutions(n, field, kind)})]
    if p < 5:
        cases += [(3, tuple(rng.randrange(p) for _ in range(27))) for _ in range(200)]
    for n, c in cases:
        for g in _gl_generators(p, n):
            image = combination(field, n ** 3, ((c, _image_columns(g, n, p)),))
            assert image == transport_tuple(c, g, n, p), (n, c, g)


def test_orbit_escape_is_detected(monkeypatch):
    # e1e1=e2 lies in the size-24 orbit of e2e2=e1 over GF(5)
    solutions = enumerate_solutions(2, GF5, "antiassociative")
    kept = [s for s in solutions if s != SQUARE_TUPLE]
    assert len(kept) == len(solutions) - 1
    # the package re-exports the function ``classify`` under the module's name
    module = importlib.import_module("mocklie.classify")
    monkeypatch.setattr(module, "enumerate_solutions",
                        lambda *args, **kwargs: kept)
    with pytest.raises(FieldError, match="escaped"):
        classify(2, GF5, "antiassociative")


@pytest.mark.parametrize("n, p", [(1, 5), (2, 3), (2, 5), (3, 2)])
def test_split_equations_evaluate_like_the_equations(n, p):
    # an equation filed under x_d is split in x_d, so its other variables
    # are fixed before it is tested; on any tuple the equations take the
    # values of the coordinates of the kind's defects, evaluated over GF(p)
    rng = seeded(7)
    one = n ** 3
    field = prime_field(p)
    for kind in IDENTITY_KINDS:
        equations = _identity_equations(n, p, kind)
        for d, eqs in enumerate(equations):
            for a, linear, free in eqs:
                assert all(u < d or u == one for _, u in linear)
                assert all(u < d and (w < d or w == one) for _, u, w in free)
        for _ in range(5):
            c = tuple(rng.randrange(p) for _ in range(one))
            alg = algebra_from_tuple(field, n, c)
            defects = {x for _, defect in _DEFECT_GENERATORS[kind](alg) for x in defect}
            assert set(evaluate(equations, c, p)) | {0} == defects | {0}


def test_rational_isomorphism_scan_is_guarded(classes_qq):
    a, b = classes_qq["e1e1=e2"], classes_qq["e2e2=e1"]
    # 101^4 matrices at bound 50, of which the solver walks a few
    iso = find_isomorphism(a, b, bound=50)
    assert structure_equal(apply_basis_change(a, iso), b)
    with pytest.raises(FieldError, match="more than 100 assignments"):
        find_isomorphism(a, b, bound=50, max_scan=100)
    # 2 * 10^19 + 1 values per entry: within max_scan, but past what len() counts
    with pytest.raises(FieldError, match="too large to count"):
        find_isomorphism(a, b, bound=10 ** 19, max_scan=10 ** 30)
    # P has 36 entries at dim 6, past the solver's 27 unknowns
    zero6 = Algebra.zero(QQ, 6)
    with pytest.raises(ShapeError, match="36 unknowns"):
        find_isomorphism(zero6, zero6)


def test_isomorphism_scan_rejects_negative_bound(classes_qq):
    alg = classes_qq["e1e1=e2"]
    with pytest.raises(FieldError, match="bound"):
        find_isomorphism(alg, alg, bound=-3)


def _listed_scan(a, b, bound):
    """Reference scan that transports ``a`` along each invertible candidate:
    over GF(p) the first of ``gl_matrices`` whose ``transport_tuple`` image is
    b, over QQ the first invertible integer matrix whose
    ``apply_basis_change`` image is b."""
    from mocklie.algebra import apply_basis_change

    n, f = a.dim, a.field
    if f.characteristic:
        ca, cb = tuple_from_algebra(a), tuple_from_algebra(b)
        for flat in gl_matrices(f.p, n):
            if transport_tuple(ca, flat, n, f.p) == cb:
                return LinearMap(f, tuple(flat[r * n:(r + 1) * n] for r in range(n)))
        return None
    for flat in itertools.product(range(-bound, bound + 1), repeat=n * n):
        mat = LinearMap.from_rows(f, [flat[r * n:(r + 1) * n] for r in range(n)])
        if mat.is_invertible() and apply_basis_change(a, mat).c == b.c:
            return mat
    return None


def iso_pairs(field, dim):
    """Algebra pairs to search isomorphisms between, isomorphic or not."""
    from mocklie.algebra import Algebra, apply_basis_change

    if dim == 3:
        # e1e1 = e2e2 = e3 against a random transport of itself, and
        # against e1e1 = e3, whose product has rank 1, not 2
        squares = Algebra.from_products(field, 3, {(0, 0): (0, 0, 1),
                                                   (1, 1): (0, 0, 1)})
        square = Algebra.from_products(field, 3, {(0, 0): (0, 0, 1)})
        moved = apply_basis_change(squares, rand_invertible(seeded(11), field, 3))
        return [(squares, moved), (squares, square)]
    classes = class_algebras(field)
    shear = LinearMap.from_rows(field, [[1, 1], [0, 1]])
    swap_shear = LinearMap.from_rows(field, [[0, 1], [1, 1]])
    mixed = Algebra.from_products(field, 2, {(0, 0): (1, 1), (0, 1): (0, 1),
                                             (1, 0): (2, 0)})
    algebras = [
        classes["zero"], classes["e1e1=e2"], classes["e2e2=e1"],
        apply_basis_change(classes["e1e1=e2"], shear),
        mixed,
        apply_basis_change(mixed, swap_shear),
    ]
    return list(itertools.product(algebras, repeat=2))


@pytest.mark.parametrize("field, bound, dim",
                         [(GF2, 2, 2), (GF3, 2, 2), (GF5, 2, 2), (QQ, 1, 2),
                          (QQ, 2, 2), (GF2, 2, 3), (GF3, 2, 3)],
                         ids=["GF2", "GF3", "GF5", "QQ-bound1", "QQ-bound2",
                              "GF2-dim3", "GF3-dim3"])
def test_isomorphism_scan_matches_listed_scan(field, bound, dim):
    outcomes = set()
    for a, b in iso_pairs(field, dim):
        expected = _listed_scan(a, b, bound)
        assert find_isomorphism(a, b, bound=bound) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}

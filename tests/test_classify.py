import importlib
import itertools

import pytest

from conftest import (GF2, GF3, GF5, brute_force_antiassociative, gl_matrices,
                      rand_invertible, seeded)
from mocklie.algebra import (IDENTITY_KINDS, _DEFECT_GENERATORS, Algebra,
                             algebra_from_tuple, apply_basis_change, check_identity,
                             passes_identity, structure_equal, tuple_from_algebra)
from mocklie.catalog import class_algebras
from mocklie.classify import (
    _compile,
    _equations,
    _gl_generators,
    _primitive_root,
    classify,
    enumerate_solutions,
    find_isomorphism,
    gl_order,
    transport_tuple,
)
from mocklie.errors import FieldError, ShapeError
from mocklie.fields import QQ, prime_field
from mocklie.formats import census_to_json, dumps
from mocklie.linalg import LinearMap


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
        verified = [c for c in cands if not any(evaluate(_equations(2, 5, kind), c, 5))]
        assert verified == [c for c in cands if passes_identity(
            algebra_from_tuple(GF5, 2, c), kind)]
        # e2e1=e2 fails every kind (see acceptance criteria 1 and 2)
        assert verified == [ZERO8, SQUARE_TUPLE, CUBE_TUPLE]


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
                    for d, eqs in enumerate(_equations(n, p, kind))]
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
        equations = _equations(n, p, kind)
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

"""Censuses and isomorphism search by solving polynomial equations.

Structure constants of a dim-n algebra are flattened to length-n^3 tuples in
lexicographic (i, j, k) order; for n = 2 the order is (a1, a2, b1, b2, c1, c2,
d1, d2) matching e1e1 = a1 e1 + a2 e2, e1e2 = b1 e1 + b2 e2, e2e1 = ...,
e2e2 = ....  The equations of each identity kind come from its defect
generator in ``algebra``, the same code ``check_identity`` runs: run over
an algebra whose constants are variables, it yields integer equations,
linear or quadratic in the flat constants.  The equations of an
isomorphism, in the entries of its matrix, come the same way from
``algebra.product``.  One depth-first solver serves both: it fixes the
variables one by one in index order and checks each equation as soon as
its highest variable is fixed, so whole subtrees of the search space are
cut at once.  Its one guard is ``max_scan``, on the assignments it tries.

Orbits are computed without listing GL_n(F_p): each unassigned solution is
expanded under a generating set of the group (the transvections I + E_ij
and, for p > 2, diag(w, 1, ..., 1) with w the smallest primitive root mod
p).  The group is finite, so the closure under the generators is the whole
orbit.  Everything is deterministic: solutions are produced in
lexicographic order, orbit representatives are the lexicographically
smallest members, censuses compare byte-identical across runs and worker
counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .algebra import (Algebra, IDENTITY_KINDS, _DEFECT_GENERATORS,
                      default_labels, product)
from .errors import FieldError, MockLieError, ShapeError
from .fields import PrimeField, characteristic_warnings
from .linalg import LinearMap, combination

DEFAULT_MAX_SCAN = 10_000_000
_SEARCH_LIMIT = "search tried more than {} assignments; raise max_scan to force it"
_MAX_UNKNOWNS = 27  # a dim-3 census, or a dim-5 basis change


@dataclass(frozen=True)
class ConstantTuple:
    """Flattened structure constants of one algebra, in (i, j, k) lex order."""

    dim: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.dim ** 3:
            raise ShapeError("constant tuple length must be dim^3")


@dataclass(frozen=True)
class Orbit:
    representative: tuple
    size: int


@dataclass(frozen=True)
class OrbitCensus:
    """All solutions of one identity over GF(p), grouped into GL-orbits."""

    field: PrimeField
    kind: str
    dim: int
    total: int
    orbits: tuple[Orbit, ...]
    warnings: tuple[str, ...] = ()
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if sum(o.size for o in self.orbits) != self.total:
            raise ShapeError("orbit sizes must sum to the solution count")


def algebra_from_tuple(field, dim: int, entries, labels=None) -> Algebra:
    """Unflatten a constant tuple into an Algebra."""
    it = iter(entries)
    tensor = [
        [[next(it) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)
    ]
    return Algebra.from_tensor(field, tensor, labels=labels or default_labels(dim))


def tuple_from_algebra(alg: Algebra) -> tuple:
    return tuple(x for row in alg.c for vec in row for x in vec)


# ---------------------------------------------------------------------------
# polynomial equations and the depth-first solver
# ---------------------------------------------------------------------------

class _Polynomials:
    """Polynomials in indexed variables, as {monomial: coefficient}.

    A monomial is a sorted tuple of variable indices; coefficients are
    integers, or rationals for the equations of an isomorphism over QQ.
    This is the part of the field interface that the defect generators,
    ``product`` and ``combination`` use, so running them over variables
    yields equations.
    """

    zero = {}

    @staticmethod
    def add(a, b):
        out = dict(a)
        for mono, c in b.items():
            out[mono] = out.get(mono, 0) + c
        return out

    @staticmethod
    def sub(a, b):
        return _Polynomials.add(a, {mono: -c for mono, c in b.items()})

    @staticmethod
    def mul(a, b):
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return out


def _compile(polys, size: int, modulus: int) -> tuple:
    """The equations ``poly == 0`` over x_0 .. x_{size-1}, filed and split.

    Each polynomial is linear or quadratic.  Coefficients are reduced mod
    ``modulus``, or kept exact when it is 0, and polynomials that vanish
    identically are dropped.  Entry d of the result holds, for each equation
    whose highest variable is x_d, a triple (a, linear, free) standing for
    a * x_d^2 + b * x_d + k, where b = sum of c * x_u over the pairs (c, u)
    in ``linear`` and k = sum of c * x_u * x_w over the terms (c, u, w) in
    ``free``.  Index ``size`` stands for the constant 1, so b and k involve
    only x_0 .. x_{d-1} and the constant.  More than 27 unknowns raise
    ``ShapeError`` before ``polys`` is read.
    """
    if size > _MAX_UNKNOWNS:
        raise ShapeError(f"{size} unknowns exceed the solver's limit of {_MAX_UNKNOWNS}")
    one = size
    equations = set()
    for poly in polys:
        terms = sorted(((mono + (one,))[:2], c % modulus if modulus else c)
                       for mono, c in poly.items())
        eq = tuple((c, u, w) for (u, w), c in terms if c)
        if eq:
            equations.add(eq)
    split = [[] for _ in range(size)]
    for eq in sorted(equations):
        d = max(w if w != one else u for _, u, w in eq)
        a, linear, free = 0, [], []
        for c, u, w in eq:
            if u == w == d:
                a = c
            elif w == d:
                linear.append((c, u))
            elif u == d:
                linear.append((c, w))
            else:
                free.append((c, u, w))
        split[d].append((a, tuple(linear), tuple(free)))
    return tuple(map(tuple, split))


def _solve(equations, domains, modulus: int, stats: dict, max_scan: int):
    """Lazily, every assignment of x_d from ``domains[d]`` solving ``equations``.

    ``equations`` is as ``_compile`` returns it.  The variables are fixed
    depth-first in index order, each domain's values in their given order,
    so ascending domains yield the solutions in lexicographic order.  On
    entering depth d each equation filed under x_d is evaluated once on the
    fixed prefix, leaving a * v^2 + b * v + k to test per candidate value v,
    by ``% modulus == 0``, or by ``== 0`` when the modulus is 0; the values
    that pass one equation go on to the next.  ``stats["visited"]`` grows by
    each entered depth's domain size, before filtering; past ``max_scan``, ``FieldError``.
    """
    last = len(domains) - 1
    vals = [0] * (last + 1) + [1]

    def descend(d):
        values = domains[d]
        stats["visited"] += len(values)
        if stats["visited"] > max_scan:
            raise FieldError(_SEARCH_LIMIT.format(max_scan))
        for a, linear, free in equations[d]:
            b = sum([c * vals[u] for c, u in linear])
            k = sum([c * vals[u] * vals[w] for c, u, w in free])
            if modulus:
                values = [v for v in values if (a * v * v + b * v + k) % modulus == 0]
            else:
                values = [v for v in values if a * v * v + b * v + k == 0]
            if not values:
                return
        for v in values:
            vals[d] = v
            if d < last:
                yield from descend(d + 1)
            else:
                yield tuple(vals[:-1])

    return descend(0)


@lru_cache(maxsize=None)
def _equations(n: int, p: int, kind: str) -> tuple:
    """The identity ``kind`` over GF(p), compiled for ``_solve``.

    The equations are the coordinates of the kind's defect generator run
    over an algebra whose constants are the variables x_0 .. x_{n^3-1}.
    """
    tensor = tuple(
        tuple(tuple({((i * n + j) * n + k,): 1} for k in range(n)) for j in range(n))
        for i in range(n)
    )
    alg = Algebra(_Polynomials, default_labels(n), tensor)
    return _compile((poly for _, defect in _DEFECT_GENERATORS[kind](alg)
                     for poly in defect), n ** 3, p)


def _solve_subtree(p: int, n: int, kind: str, firsts, max_scan: int) -> tuple[list, int]:
    """Solutions of ``kind`` whose first constant is in ``firsts``, in lex
    order, and the number of (variable, value) assignments tried: one census
    task, defined at module level so worker processes can run it."""
    stats = {"visited": 0}
    domains = [firsts] + [range(p)] * (n ** 3 - 1)
    solutions = list(_solve(_equations(n, p, kind), domains, p, stats, max_scan))
    return solutions, stats["visited"]


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start for ``tasks`` independent tasks."""
    if workers < 1:
        raise MockLieError(f"workers must be at least 1, got {workers}")
    return min(workers, tasks, os.cpu_count() or 1)


def enumerate_solutions(dim: int, field, kind: str,
                        max_scan: int = DEFAULT_MAX_SCAN, workers: int = 1,
                        stats: dict | None = None) -> list[ConstantTuple]:
    """All structure-constant tuples of dimension ``dim`` passing ``kind``.

    The identity's equations are solved over GF(p) by ``_solve``, fixing
    the constants in lexicographic order with ascending values; solutions
    come out in lexicographic order.  Up to ``workers`` processes share the
    subtrees of the first constant; a ``stats`` dict receives ``visited``,
    the assignments tried.  Past ``max_scan`` of them, in one subtree or in
    sum, ``FieldError`` is raised whatever ``workers`` is; past dim 3, ``ShapeError``.
    """
    if kind not in IDENTITY_KINDS:
        raise FieldError(f"unknown identity kind {kind!r}")
    if not isinstance(field, PrimeField):
        raise FieldError(f"enumeration needs a prime field, got {field!r}")
    p = field.p
    if p > max_scan:
        # every search tries each value of the first constant
        raise FieldError(_SEARCH_LIMIT.format(max_scan))
    size = pool_size(workers, p)
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            subtrees = list(pool.map(_solve_subtree, [p] * p, [dim] * p,
                                     [kind] * p, [(v,) for v in range(p)],
                                     [max_scan] * p))
    else:
        subtrees = [_solve_subtree(p, dim, kind, range(p), max_scan)]
    visited = sum(count for _, count in subtrees)
    if visited > max_scan:
        raise FieldError(_SEARCH_LIMIT.format(max_scan))
    if stats is not None:
        stats["visited"] = visited
    return [ConstantTuple(dim, c) for sols, _ in subtrees for c in sols]


@lru_cache(maxsize=None)
def _inverse(flat_p: tuple, n: int, p: int) -> tuple:
    """Inverse of an n x n matrix over GF(p), both flat row-major tuples.

    Raises ``ShapeError`` when ``flat_p`` is singular.
    """
    rows = tuple(flat_p[r * n:(r + 1) * n] for r in range(n))
    inverse = LinearMap(PrimeField(p), rows).inverse()
    return tuple(x for row in inverse.entries for x in row)


def gl_order(p: int, n: int) -> int:
    """|GL_n(F_p)| = (p^n - 1)(p^n - p) ... (p^n - p^(n-1))."""
    return math.prod(p ** n - p ** i for i in range(n))


def _primitive_root(p: int) -> int:
    """The smallest generator of the multiplicative group of GF(p): the
    smallest w with w^((p-1)/q) != 1 for every prime q dividing p - 1."""
    n, factors = p - 1, set()
    for q in range(2, math.isqrt(p) + 1):
        while n % q == 0:
            n //= q
            factors.add(q)
    if n > 1:
        factors.add(n)
    return next(w for w in range(1, p)
                if all(pow(w, (p - 1) // q, p) != 1 for q in factors))


@lru_cache(maxsize=None)
def _gl_generators(p: int, n: int) -> tuple:
    """Generators of GL_n(F_p), as flat row-major tuples.

    The transvections I + E_ij (i != j) generate SL_n(F_p); with
    diag(w, 1, ..., 1), w a primitive root, they generate GL_n(F_p).  The
    diagonal one is the identity at p = 2 and is left out.
    """
    def matrix(index, x):
        flat = [int(r == c) for r in range(n) for c in range(n)]
        flat[index] = x
        return tuple(flat)

    gens = [matrix(i * n + j, 1) for i in range(n) for j in range(n) if i != j]
    if p > 2:
        gens.append(matrix(0, _primitive_root(p)))
    return tuple(gens)


def transport_tuple(c: tuple, flat_p: tuple, n: int, p: int) -> tuple:
    """Structure constants in the basis whose columns are given by ``flat_p``.

    Raises ``ShapeError`` when ``flat_p`` is singular.
    """
    flat_p_inv = _inverse(flat_p, n, p)
    cols = [[flat_p[r * n + i] for r in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            w = [0] * n
            for a in range(n):
                ca = cols[i][a]
                if not ca:
                    continue
                for b in range(n):
                    cb = cols[j][b]
                    if not cb:
                        continue
                    s = ca * cb % p
                    base = (a * n + b) * n
                    for k in range(n):
                        w[k] = (w[k] + s * c[base + k]) % p
            for k in range(n):
                out.append(
                    sum(flat_p_inv[k * n + t] * w[t] for t in range(n)) % p
                )
    return tuple(out)


def find_isomorphism(a: Algebra, b: Algebra, bound: int = 2,
                     max_scan: int = DEFAULT_MAX_SCAN) -> LinearMap | None:
    """Search for an invertible P with apply_basis_change(a, P) == b.

    P qualifies when (P e_i)(P e_j) = P (e_i e_j) for all i, j, the left
    side a product in ``a`` and the right one in ``b``.  These equations in
    the n^2 row-major entries of P are compiled like the identities and
    solved by ``_solve``, the entries ranging over GF(p), or over the
    rationals over the integers in [-bound, bound].  The solutions come in
    ``itertools.product`` order of the entries, and the first invertible
    one is returned: the first invertible match a scan of all those
    matrices would find.  None means there is no such matrix.
    ``FieldError`` is raised for a negative ``bound`` or past ``max_scan``
    assignments tried, and ``ShapeError`` past dim 5.
    """
    if a.field != b.field:
        raise FieldError("isomorphism search needs a common field")
    if a.dim != b.dim:
        raise ShapeError("isomorphism search needs equal dimensions")
    if bound < 0:
        raise FieldError(f"entry bound must be non-negative, got {bound}")
    n = a.dim
    f = a.field
    entries = range(f.p) if isinstance(f, PrimeField) else range(-bound, bound + 1)
    if entries.stop - entries.start > max_scan:
        # the solver tries every value of the first entry
        raise FieldError(_SEARCH_LIMIT.format(max_scan))

    def constants(vec):
        return tuple({(): x} if x != f.zero else {} for x in vec)

    def polys():
        # column i of P is P e_i; its entry in row r is the variable x_{rn+i}
        cols = tuple(tuple({(r * n + i,): 1} for r in range(n)) for i in range(n))
        poly_a = Algebra(_Polynomials, a.labels,
                         tuple(tuple(map(constants, row)) for row in a.c))
        for i in range(n):
            for j in range(n):
                image = combination(_Polynomials, n, ((constants(b.c[i][j]), cols),))
                yield from map(_Polynomials.sub, product(poly_a, cols[i], cols[j]), image)

    equations = _compile(polys(), n * n, f.characteristic)
    for flat in _solve(equations, [entries] * (n * n), f.characteristic,
                       {"visited": 0}, max_scan):
        mat = LinearMap(f, tuple(tuple(map(f.of, flat[r * n:(r + 1) * n]))
                                 for r in range(n)))
        if mat.is_invertible():
            return mat
    return None


def classify(dim: int, field: PrimeField, kind: str,
             max_scan: int = DEFAULT_MAX_SCAN, workers: int = 1) -> OrbitCensus:
    """Census of all solutions of ``kind`` in dimension 1 or 2 over GF(p).

    Solutions are grouped into GL-orbits by expanding each unassigned
    solution under ``_gl_generators``; every image must itself be a solution,
    or the identity is not basis-invariant and ``FieldError`` is raised.
    Each orbit is named by its lexicographically smallest member, and orbits
    come in the order of their first solution.  Output is deterministic for
    any worker count.  ``max_scan`` bounds the assignments the solver tries.
    """
    if dim not in (1, 2):
        raise ShapeError("classification is implemented for dimensions 1 and 2")
    stats = {}
    solutions = enumerate_solutions(dim, field, kind, max_scan=max_scan,
                                    workers=workers, stats=stats)
    p = field.p
    tuples = [s.entries for s in solutions]
    solution_set = set(tuples)
    gens = _gl_generators(p, dim)
    assigned = set()
    orbits = []
    for c in tuples:
        if c in assigned:
            continue
        orbit = {c}
        frontier = [c]
        while frontier:
            member = frontier.pop()
            for g in gens:
                image = transport_tuple(member, g, dim, p)
                if image not in solution_set:
                    raise FieldError(
                        "orbit escaped the solution set; identity is not "
                        "basis-invariant"
                    )
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        assigned |= orbit
        orbits.append(Orbit(representative=min(orbit), size=len(orbit)))
    return OrbitCensus(
        field=field,
        kind=kind,
        dim=dim,
        total=len(tuples),
        orbits=tuple(orbits),
        warnings=characteristic_warnings(field),
        metadata={
            "scanned": p ** (dim ** 3),
            "gl_order": gl_order(p, dim),
            "workers": workers,
            "visited": stats["visited"],
        },
    )

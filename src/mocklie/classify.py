"""Exhaustive enumeration and isomorphism reduction over prime fields.

Structure constants of a dim-n algebra are flattened to length-n^3 tuples in
lexicographic (i, j, k) order; for n = 2 the order is (a1, a2, b1, b2, c1, c2,
d1, d2) matching e1e1 = a1 e1 + a2 e2, e1e2 = b1 e1 + b2 e2, e2e1 = ...,
e2e2 = ....  The equations of each identity kind come from its defect
generator in ``algebra``, the same code ``check_identity`` runs: run over
an algebra whose constants are variables, it yields integer equations,
linear or quadratic in the flat constants.  Enumeration over GF(p) solves
them depth-first, fixing the constants one by one in lexicographic order
and checking each equation as soon as its highest constant is fixed, so
whole subtrees of the p^(n^3) tuples are cut at once.

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

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .algebra import (Algebra, IDENTITY_KINDS, _DEFECT_GENERATORS,
                      default_labels, passes_identity, product)
from .errors import FieldError, MockLieError, ShapeError
from .fields import PrimeField, RationalField, characteristic_warnings
from .linalg import LinearMap, combination

DEFAULT_MAX_SCAN = 10_000_000


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
# identity equations over flat indices, and the depth-first solver
# ---------------------------------------------------------------------------

class _Polynomials:
    """Integer polynomials in the flat constants, as {monomial: coefficient}.

    A monomial is a sorted tuple of variable indices.  This is the part of
    the field interface the defect generators use, so running a generator
    over an algebra whose constants are variables yields its equations.
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


@lru_cache(maxsize=None)
def _equations(n: int, p: int, kind: str) -> tuple:
    """The identity ``kind`` as integer equations over flat indices.

    The equations are the coordinates of the kind's defect generator run
    over an algebra whose constants are the variables x_0 .. x_{n^3-1}.  An
    equation is a tuple of terms (coefficient, u, w) meaning
    coefficient * x_u * x_w; index n^3 stands for the constant 1, so linear
    terms take the same form.  Coefficients are reduced mod p and equations
    that vanish identically are dropped.  Entry d of the result holds the
    equations whose highest variable is x_d.
    """
    one = n ** 3
    tensor = tuple(
        tuple(tuple({((i * n + j) * n + k,): 1} for k in range(n)) for j in range(n))
        for i in range(n)
    )
    alg = Algebra(_Polynomials, default_labels(n), tensor)
    equations = set()
    for _, defect in _DEFECT_GENERATORS[kind](alg):
        for poly in defect:
            terms = sorted(((mono + (one,))[:2], c % p) for mono, c in poly.items())
            eq = tuple((c, u, w) for (u, w), c in terms if c)
            if eq:
                equations.add(eq)
    by_highest = [[] for _ in range(one)]
    for eq in sorted(equations):
        by_highest[max(w if w != one else u for _, u, w in eq)].append(eq)
    return tuple(tuple(eqs) for eqs in by_highest)


def _holds(equations, vals, p) -> bool:
    return all(
        sum(c * vals[u] * vals[w] for c, u, w in eq) % p == 0 for eq in equations
    )


@lru_cache(maxsize=None)
def _split_equations(n: int, p: int, kind: str) -> tuple:
    """``_equations`` with each equation written as a polynomial in x_d.

    Entry d holds, for each equation filed under x_d, a triple
    (a, linear, free) standing for a * x_d^2 + b * x_d + k, where
    b = sum of c * x_u over the pairs (c, u) in ``linear`` (u = n^3 being the
    constant 1) and k = sum of c * x_u * x_w over the terms in ``free``; b and
    k involve only x_0 .. x_{d-1}.
    """
    split = []
    for d, eqs in enumerate(_equations(n, p, kind)):
        parts = []
        for eq in eqs:
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
            parts.append((a, tuple(linear), tuple(free)))
        split.append(tuple(parts))
    return tuple(split)


def _solve_subtree(p: int, n: int, kind: str, first: int) -> tuple[list, int]:
    """Solutions starting with ``first``, in lex order, and the number of
    (variable, value) assignments tried.

    On entering depth d each equation filed under x_d is evaluated once on
    the fixed prefix, leaving a * v^2 + b * v + k to test per candidate
    value v; the candidates that pass one equation go on to the next.
    """
    split = _split_equations(n, p, kind)
    last = n ** 3 - 1
    vals = [0] * (last + 1) + [1]
    out = []
    visited = 0

    def descend(d, values):
        nonlocal visited
        visited += len(values)
        for a, linear, free in split[d]:
            b = sum([c * vals[u] for c, u in linear]) % p
            k = sum([c * vals[u] * vals[w] for c, u, w in free]) % p
            values = [v for v in values if (a * v * v + b * v + k) % p == 0]
            if not values:
                return
        for v in values:
            vals[d] = v
            if d < last:
                descend(d + 1, range(p))
            else:
                out.append(tuple(vals[:-1]))

    descend(0, (first,))
    return out, visited


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start for ``tasks`` independent tasks."""
    if workers < 1:
        raise MockLieError(f"workers must be at least 1, got {workers}")
    return min(workers, tasks, os.cpu_count() or 1)


def enumerate_solutions(dim: int, field, kind: str, candidates=None,
                        max_scan: int = DEFAULT_MAX_SCAN, workers: int = 1,
                        stats: dict | None = None) -> list[ConstantTuple]:
    """All structure-constant tuples of dimension ``dim`` passing ``kind``.

    Over a prime field the identity's equations are solved depth-first,
    fixing the constants in lexicographic order with ascending values and
    checking each equation once its highest variable is fixed; solutions
    come out in lexicographic order.  ``max_scan`` bounds the search space
    p^(dim^3).  Up to ``workers`` processes share the subtrees of the first
    constant; a ``stats`` dict receives ``visited``, the assignments tried.
    Given ``candidates``, only those are verified (the only mode over QQ).
    """
    if kind not in IDENTITY_KINDS:
        raise FieldError(f"unknown identity kind {kind!r}")
    if not isinstance(field, (PrimeField, RationalField)):
        raise FieldError(f"unsupported field {field!r}")
    if candidates is not None:
        tuples = [ConstantTuple(dim, tuple(map(field.of, c))) for c in candidates]
        if isinstance(field, RationalField):
            return [c for c in tuples if passes_identity(
                algebra_from_tuple(field, dim, c.entries), kind)]
        equations = [eq for eqs in _equations(dim, field.p, kind) for eq in eqs]
        return [c for c in tuples if _holds(equations, c.entries + (1,), field.p)]
    if isinstance(field, RationalField):
        raise FieldError(
            "exhaustive enumeration needs a prime field; over the "
            "rationals supply candidate tuples to verify"
        )
    p = field.p
    size = pool_size(workers, p)
    count = p ** (dim ** 3)
    if count > max_scan:
        raise FieldError(
            f"scan of {count} tuples exceeds the limit of {max_scan}; "
            f"raise max_scan to force it"
        )
    firsts = range(p)
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            subtrees = list(pool.map(_solve_subtree, [p] * p, [dim] * p,
                                     [kind] * p, firsts))
    else:
        subtrees = [_solve_subtree(p, dim, kind, v) for v in firsts]
    if stats is not None:
        stats["visited"] = sum(visited for _, visited in subtrees)
    return [ConstantTuple(dim, c) for sols, _ in subtrees for c in sols]


@lru_cache(maxsize=None)
def _inverse(flat_p: tuple, n: int, p: int) -> tuple:
    """Inverse of an n x n matrix over GF(p), both flat row-major tuples.

    Raises ``ShapeError`` when ``flat_p`` is singular.
    """
    rows = tuple(flat_p[r * n:(r + 1) * n] for r in range(n))
    inverse = LinearMap(PrimeField(p), rows).inverse()
    return tuple(x for row in inverse.entries for x in row)


@lru_cache(maxsize=None)
def gl_matrices(p: int, n: int) -> tuple:
    """All invertible n x n matrices over GF(p), as flat row-major tuples."""
    group = []
    for flat in itertools.product(range(p), repeat=n * n):
        try:
            _inverse(flat, n, p)
        except ShapeError:
            continue
        group.append(flat)
    return tuple(group)


def gl_order(p: int, n: int) -> int:
    """|GL_n(F_p)| = (p^n - 1)(p^n - p) ... (p^n - p^(n-1))."""
    return math.prod(p ** n - p ** i for i in range(n))


def _primitive_root(p: int) -> int:
    """The smallest generator of the multiplicative group of GF(p)."""
    return next(w for w in range(1, p)
                if len({pow(w, k, p) for k in range(1, p)}) == p - 1)


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

    The candidates are the n x n matrices over GF(p), or over the rationals
    the integer matrices with entries in [-bound, bound], scanned in
    ``itertools.product`` order of their row-major entries.  P qualifies
    when (P e_i)(P e_j) = P (e_i e_j) for all i, j, the left side a product
    in ``a`` and the right one in ``b``: pairs are tested in order up to the
    first that fails, and only a matrix passing them all is tested for
    invertibility.  ``FieldError`` is raised for a negative ``bound`` and
    before scanning more than ``max_scan`` matrices.  Returns the first
    invertible match, or None when the scan is exhausted.
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
    if len(entries) ** (n * n) > max_scan:
        raise FieldError(
            f"scan over {len(entries) ** (n * n)} matrices exceeds {max_scan}"
        )
    for flat in itertools.product([f.of(x) for x in entries], repeat=n * n):
        rows = tuple(flat[r * n:(r + 1) * n] for r in range(n))
        cols = tuple(zip(*rows))
        # (P e_i)(P e_j) in a against P (e_i e_j), which combines columns of P
        if all(product(a, cols[i], cols[j])
               == combination(f, n, ((b.c[i][j], cols),))
               for i in range(n) for j in range(n)):
            mat = LinearMap(f, rows)
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
    any worker count.
    """
    if dim not in (1, 2):
        raise ShapeError("classification is implemented for dimensions 1 and 2")
    if not isinstance(field, PrimeField):
        raise FieldError("classification runs over prime fields")
    p = field.p
    stats = {}
    solutions = enumerate_solutions(dim, field, kind, max_scan=max_scan,
                                    workers=workers, stats=stats)
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

"""Censuses and isomorphism search by solving polynomial equations.

Solutions are plain tuples of structure constants, flattened as in
``algebra.tuple_from_algebra``: for n = 2 the order is (a1, a2, b1, b2, c1,
c2, d1, d2), matching e1e1 = a1 e1 + a2 e2, e1e2 = b1 e1 + b2 e2, e2e1 = ...,
e2e2 = ....  The equations of each identity kind are compiled once, by
``algebra._compile``, from its defect generator, the same code
``check_identity`` runs: run over an algebra whose constants are variables,
it yields integer equations, linear or quadratic in the flat constants,
filed by highest variable.  ``check_identity`` evaluates that one cached
form for its GF(p) verdicts at dims 1 and 2, and the solver here reads it
as it is.  The equations of an isomorphism, in the entries of its matrix,
come the same way from ``algebra.product`` and the same ``_compile``.  One
depth-first solver serves both: it fixes the variables one by one in index
order and applies each equation as soon as its highest variable is fixed,
solving it when it is linear in that variable over GF(p), so whole
subtrees of the search space are cut at once.  Its one guard is
``max_scan``, on the assignments it tries.

Orbits are computed without listing GL_n(F_p): each unassigned solution is
expanded under a generating set of the group (the transvections I + E_ij
and, for p > 2, diag(w, 1, ..., 1) with w the smallest primitive root mod
p).  A basis change is linear in the constants, so each image is one
``combination`` of the generator's images of the unit tuples, read once by
``transport_tuple`` (``algebra.transport_constants``, which inverts P).  The
group is finite, so the closure under the generators is the whole orbit.
Everything is deterministic: solutions are produced in lexicographic order,
orbit representatives are the lexicographically smallest members, censuses
compare byte-identical.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .algebra import (Algebra, IDENTITY_KINDS, _Poly, _Polynomials, _compile,
                      _identity_equations, product, transport_constants)
from .errors import FieldError, ShapeError
from .fields import PrimeField, characteristic_warnings
from .linalg import LinearMap, combination

DEFAULT_MAX_SCAN = 10_000_000
_SEARCH_LIMIT = "search tried more than {} assignments; raise max_scan to force it"


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


# ---------------------------------------------------------------------------
# the depth-first solver
# ---------------------------------------------------------------------------

def _solve(equations, domains, modulus: int, stats: dict, max_scan: int):
    """Lazily, every assignment of x_d from ``domains[d]`` solving ``equations``.

    ``equations`` is as ``algebra._compile`` returns it.  The variables are
    fixed depth-first in index order, each domain's values in their given
    order, so ascending domains yield the solutions in lexicographic order.
    On entering depth d each equation filed under x_d is evaluated once on
    the fixed prefix, leaving a * v^2 + b * v + k.  With a modulus and a = 0 it
    is solved (the root -k / b, all values or none); otherwise each value v
    is tested, by ``% modulus == 0``, or by ``== 0`` when the modulus is 0.
    The values that pass one equation go on to the next.  ``stats["visited"]``
    counts the sizes of the domains entered, before filtering; past
    ``max_scan``, ``FieldError``, raised before the search for a domain
    larger than ``max_scan`` or too large to count.
    """
    for values in domains:
        try:
            too_many = len(values) > max_scan
        except OverflowError:  # len() stops at sys.maxsize
            if max_scan >= sys.maxsize:
                raise FieldError(f"a search domain of more than {sys.maxsize} "
                                 "values is too large to count") from None
            too_many = True
        if too_many:
            raise FieldError(_SEARCH_LIMIT.format(max_scan))
    stats["visited"] = 0
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
            if not modulus:
                values = [v for v in values if a * v * v + b * v + k == 0]
            elif a:
                values = [v for v in values if (a * v * v + b * v + k) % modulus == 0]
            elif b % modulus:
                root = -k * pow(b, -1, modulus) % modulus
                values = [root] if root in values else []
            elif k % modulus:
                return
            if not values:
                return
        for v in values:
            vals[d] = v
            if d < last:
                yield from descend(d + 1)
            else:
                yield tuple(vals[:-1])

    return descend(0)


def enumerate_solutions(dim: int, field, kind: str,
                        max_scan: int = DEFAULT_MAX_SCAN,
                        stats: dict | None = None) -> list[tuple]:
    """All structure-constant tuples of dimension ``dim`` passing ``kind``.

    The identity's equations are solved over GF(p) by ``_solve``, fixing
    the constants in lexicographic order with ascending values; solutions
    come out in lexicographic order.  A ``stats`` dict receives ``visited``,
    the assignments tried.  Past ``max_scan`` of them, ``FieldError``; past
    dim 3, ``ShapeError``.
    """
    if kind not in IDENTITY_KINDS:
        raise FieldError(f"unknown identity kind {kind!r}")
    if not isinstance(field, PrimeField):
        raise FieldError(f"enumeration needs a prime field, got {field!r}")
    p = field.p
    return list(_solve(_identity_equations(dim, p, kind), [range(p)] * dim ** 3, p,
                       {} if stats is None else stats, max_scan))


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
    """``c`` in the basis given by the columns of ``flat_p`` over GF(p);
    ``ShapeError`` on a wrong length of either or a singular ``flat_p``."""
    return transport_constants(c, flat_p, n, PrimeField(p))


@lru_cache(maxsize=None)
def _image_columns(flat_p: tuple, n: int, p: int) -> tuple:
    """Entry t is ``transport_tuple`` of the t-th unit n^3-tuple: a basis
    change is linear in the constants, so these columns give every image."""
    units = (tuple(int(s == t) for s in range(n ** 3)) for t in range(n ** 3))
    return tuple(transport_tuple(u, flat_p, n, p) for u in units)


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

    def constants(vec):
        return tuple(_Poly({(): x} if x else {}) for x in vec)

    def polys():
        # column i of P is P e_i; its entry in row r is the variable x_{rn+i}
        cols = tuple(tuple(_Poly({(r * n + i,): 1}) for r in range(n)) for i in range(n))
        poly_a = Algebra(_Polynomials, a.labels,
                         tuple(tuple(map(constants, row)) for row in a.c))
        for i in range(n):
            for j in range(n):
                image = combination(_Polynomials, n, ((constants(b.c[i][j]), cols),))
                yield from map(_Polynomials.sub, product(poly_a, cols[i], cols[j]), image)

    equations = _compile(polys(), n * n, f.characteristic)
    for flat in _solve(equations, [entries] * (n * n), f.characteristic, {}, max_scan):
        mat = LinearMap(f, tuple(flat[r * n:(r + 1) * n] for r in range(n)))
        if mat.is_invertible():
            return mat
    return None


def classify(dim: int, field: PrimeField, kind: str,
             max_scan: int = DEFAULT_MAX_SCAN) -> OrbitCensus:
    """Census of all solutions of ``kind`` in dimension 1 or 2 over GF(p).

    Solutions are grouped into GL-orbits by expanding each unassigned
    solution under ``_gl_generators``; every image must itself be a solution,
    or the identity is not basis-invariant and ``FieldError`` is raised.
    Each orbit is named by its lexicographically smallest member, and orbits
    come in the order of their first solution, so the output is
    deterministic.  ``max_scan`` bounds the assignments the solver tries.
    """
    if dim not in (1, 2):
        raise ShapeError("classification is implemented for dimensions 1 and 2")
    stats = {}
    tuples = enumerate_solutions(dim, field, kind, max_scan=max_scan, stats=stats)
    p = field.p
    solution_set = set(tuples)
    columns = [_image_columns(g, dim, p) for g in _gl_generators(p, dim)]
    assigned = set()
    orbits = []
    for c in tuples:
        if c in assigned:
            continue
        orbit = {c}
        frontier = [c]
        while frontier:
            member = frontier.pop()
            for cols in columns:
                image = combination(field, dim ** 3, ((member, cols),))
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
            "workers": 1,
            "visited": stats["visited"],
        },
    )

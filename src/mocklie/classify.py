"""Exhaustive enumeration and isomorphism reduction over prime fields.

Structure constants of a dim-n algebra are flattened to length-n^3 tuples in
lexicographic (i, j, k) order; for n = 2 the order is (a1, a2, b1, b2, c1, c2,
d1, d2) matching e1e1 = a1 e1 + a2 e2, e1e2 = b1 e1 + b2 e2, e2e1 = ...,
e2e2 = ....  The defining equation system of each identity kind is generated
mechanically from the identity on basis triples, never transcribed from a
printed list: expanding the identity's defect on every triple gives integer
equations, linear or quadratic in the flat constants.  Enumeration over GF(p)
solves them depth-first, fixing the constants one by one in lexicographic
order and checking each equation as soon as its highest constant is fixed,
so whole subtrees of the p^(n^3) tuples are cut at once.

Orbits are computed by closing each unassigned solution under the full
GL_n(F_p) basis-change action; at desk scale (p <= 7, n <= 2) this is exact
and cheap.  Everything is deterministic: solutions are produced in
lexicographic order, orbit representatives are the lexicographically
smallest members, censuses compare byte-identical across runs and worker
counts.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .algebra import (Algebra, IDENTITY_KINDS, apply_basis_change,
                      default_labels, passes_identity)
from .errors import FieldError, MockLieError, ShapeError
from .fields import PrimeField, RationalField, characteristic_warnings
from .linalg import LinearMap

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

# The defect of each identity kind on basis triples (x, y, z), written as in
# its definition: juxtaposition is the product, one word per term.
_IDENTITIES = {
    "antiassociative": ("(xy)z + x(yz)",),
    "left_pre_jj": ("(xy)z + x(yz) + (yx)z + y(xz)",),
    "right_pre_jj": ("(xy)z + x(yz) + (xz)y + x(zy)",),
    "operad": ("(xy)z + x(yz) + (yx)z + y(xz)",),
    "jj": ("xy - yx", "(xy)z + (zx)y + (yz)x"),
}


@lru_cache(maxsize=None)
def _equations(n: int, p: int, kind: str) -> tuple:
    """The identity ``kind`` as integer equations over flat indices.

    An equation is a tuple of terms (coefficient, u, w) meaning
    coefficient * x_u * x_w; index n^3 stands for the constant 1, so linear
    terms take the same form.  Coefficients are reduced mod p and equations
    that vanish identically are dropped.  Entry d of the result holds the
    equations whose highest variable is x_d.
    """
    one = n ** 3

    def var(a, b, t):
        return (a * n + b) * n + t

    equations = set()
    for triple in itertools.product(range(n), repeat=3):
        for identity in _IDENTITIES[kind]:
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
                    equations.add(eq)
    by_highest = [[] for _ in range(one)]
    for eq in sorted(equations):
        by_highest[max(w if w != one else u for _, u, w in eq)].append(eq)
    return tuple(tuple(eqs) for eqs in by_highest)


def _holds(equations, vals, p) -> bool:
    return all(
        sum(c * vals[u] * vals[w] for c, u, w in eq) % p == 0 for eq in equations
    )


def _solve_subtree(p: int, n: int, kind: str, first: int) -> tuple[list, int]:
    """Solutions starting with ``first``, in lex order, and the number of
    (variable, value) assignments tried."""
    by_highest = _equations(n, p, kind)
    last = n ** 3 - 1
    vals = [0] * (last + 1) + [1]
    out = []
    visited = 0

    def descend(d, values):
        nonlocal visited
        for v in values:
            visited += 1
            vals[d] = v
            if not _holds(by_highest[d], vals, p):
                continue
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
def gl_matrices(p: int, n: int) -> tuple:
    """All invertible n x n matrices over GF(p), as flat row-major tuples."""
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        if _det_raw(flat, n, p) != 0:
            out.append(flat)
    return tuple(out)


def _det_raw(flat, n, p):
    m = [list(flat[r * n:(r + 1) * n]) for r in range(n)]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            if m[r][col] % p:
                factor = m[r][col] * inv % p
                for cc in range(col, n):
                    m[r][cc] = (m[r][cc] - factor * m[col][cc]) % p
    return det % p


def _inv_raw(flat, n, p):
    m = [list(flat[r * n:(r + 1) * n]) for r in range(n)]
    aug = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] % p)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(m[col][col], -1, p)
        m[col] = [x * inv % p for x in m[col]]
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and m[r][col] % p:
                factor = m[r][col]
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[col])]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(x for row in aug for x in row)


def transport_tuple(c: tuple, flat_p: tuple, n: int, p: int,
                    flat_p_inv: tuple | None = None) -> tuple:
    """Structure constants in the basis whose columns are given by ``flat_p``."""
    if flat_p_inv is None:
        flat_p_inv = _inv_raw(flat_p, n, p)
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

    Over a prime field the scan covers all of GL_n; over the rationals it
    covers integer matrices with entries in [-bound, bound].  Returns the
    first matrix found in scan order, or None when the search space is
    exhausted.
    """
    if a.field != b.field:
        raise FieldError("isomorphism search needs a common field")
    if a.dim != b.dim:
        raise ShapeError("isomorphism search needs equal dimensions")
    n = a.dim
    f = a.field
    if isinstance(f, PrimeField):
        p = f.p
        if p ** (n * n) > max_scan:
            raise FieldError(
                f"GL scan over {p ** (n * n)} matrices exceeds {max_scan}"
            )
        ca, cb = tuple_from_algebra(a), tuple_from_algebra(b)
        for flat in gl_matrices(p, n):
            if transport_tuple(ca, flat, n, p) == cb:
                rows = tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(n))
                return LinearMap(f, rows)
        return None
    entries = range(-bound, bound + 1)
    for flat in itertools.product(entries, repeat=n * n):
        rows = tuple(tuple(f.of(x) for x in flat[r * n:(r + 1) * n]) for r in range(n))
        mat = LinearMap(f, rows)
        if not mat.is_invertible():
            continue
        if apply_basis_change(a, mat).c == b.c:
            return mat
    return None


def classify(dim: int, field: PrimeField, kind: str,
             max_scan: int = DEFAULT_MAX_SCAN, workers: int = 1) -> OrbitCensus:
    """Census of all solutions of ``kind`` in dimension 1 or 2 over GF(p).

    Solutions are grouped into GL-orbits by full closure; each orbit is named
    by its lexicographically smallest member.  Output is deterministic for
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
    gl = gl_matrices(p, dim)
    inverses = {flat: _inv_raw(flat, dim, p) for flat in gl}
    assigned = set()
    orbits = []
    for c in tuples:
        if c in assigned:
            continue
        orbit = {transport_tuple(c, flat, dim, p, inverses[flat]) for flat in gl}
        if not orbit <= solution_set:
            raise FieldError(
                "orbit escaped the solution set; identity is not basis-invariant"
            )
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
            "gl_order": len(gl),
            "workers": workers,
            "visited": stats["visited"],
        },
    )

"""Structure-constant algebras and the defining-identity checks.

An ``Algebra`` is a finite-dimensional vector space with a bilinear product
stored as a structure-constant tensor: ``c[i][j]`` is the coordinate vector
of ``e_i * e_j``, so ``e_i * e_j = sum_k c[i][j][k] e_k``.  All identity
checks run on basis tuples only; bilinearity makes that sufficient and keeps
every check exact and O(n^3).  Each identity is defined once, by its defect
generator.  Run over variables, the generator gives the identity's
equations in the flat constants, compiled once per (n, p, kind) at first
use; the census solver in ``classify`` splits them.  Over a prime field at
dims 1 and 2 the verdict comes from evaluating those equations on the
constants: a table that passes runs no generator, nor does
``passes_identity`` on one that fails; the witnesses of a failing table,
and every verdict over QQ or at larger dims, come from the generators.
Each defect is one ``linalg.combination`` of the rows ``c[i]`` (the products
e_i e_m) and the columns e_m e_k, taken once per generator call; ``product``
and ``left_mult`` go through the same kernel.  As matrices, the rows and
columns are L_{e_i}^T and R_{e_i}^T, the operators ``reps`` and ``doubles`` use.

An integral QQ constant is a plain ``int`` (see ``fields``), so on an
integral tensor the generators run on ints and yield int defects.

``transport_constants`` is the one basis-change loop, on the n^3-tuples of
``tuple_from_algebra``; ``apply_basis_change`` and the census orbits in
``classify`` both run it.

Identity kinds
--------------
``antiassociative``   (x*y)*z = -x*(y*z)
``left_pre_jj``       the antiassociator (x,y,z) = (x*y)*z + x*(y*z) is
                      antisymmetric in x, y
``right_pre_jj``      the antiassociator is antisymmetric in y, z
``operad``            (xy)z + x(yz) + (yx)z + y(xz) = 0, the expanded
                      operator form of ``left_pre_jj``; the two defect sums
                      are identical, so both share one generator
``jj``                commutativity plus the Jacobi identity
                      (xy)z + (zx)y + (yz)x = 0
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import FieldError, ShapeError
from .fields import Field, PrimeField, characteristic_warnings, require_same_field
from .linalg import (
    LinearMap,
    Vector,
    basis_vector,
    combination,
    vec_add,
    vec_scale,
    vec_sub,
    vec_zero,
)

IDENTITY_KINDS = ("antiassociative", "left_pre_jj", "right_pre_jj", "jj", "operad")

DEFAULT_MAX_WITNESSES = 16


@dataclass(frozen=True)
class Witness:
    """One violation of a checked identity.

    ``indices`` are the basis indices the identity was evaluated at, ``defect``
    the nonzero defect vector, and ``tag`` names the violated condition when a
    check bundles several (empty otherwise).
    """

    indices: tuple[int, ...]
    defect: Vector
    tag: str = ""


@dataclass(frozen=True)
class CheckReport:
    """Verdict of an identity check plus bounded violation witnesses.

    ``passed`` is true exactly when no basis tuple violates the identity;
    ``witnesses`` lists at most ``max(1, max_witnesses)`` violations,
    lexicographic within each condition family, and ``truncated`` records
    whether more existed.
    """

    identity_name: str
    passed: bool
    witnesses: tuple[Witness, ...] = ()
    warnings: tuple[str, ...] = ()
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class Algebra:
    """Finite-dimensional algebra given by structure constants.

    ``c[i][j]`` holds the coordinates of the basis product ``e_i * e_j``.
    Instances are immutable and freely shareable.
    """

    field: Field
    labels: tuple[str, ...]
    c: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise ShapeError("algebras must have positive dimension")
        if len(set(self.labels)) != n:
            raise ShapeError("basis labels must be pairwise distinct")
        if len(self.c) != n or any(
            len(row) != n or any(len(v) != n for v in row) for row in self.c
        ):
            raise ShapeError("structure tensor shape does not match dimension")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def zero(cls, field: Field, dim: int, labels=None) -> "Algebra":
        labels = tuple(labels) if labels else default_labels(dim)
        row = tuple(vec_zero(field, dim) for _ in range(dim))
        return cls(field, labels, tuple(row for _ in range(dim)))

    @classmethod
    def from_products(cls, field: Field, dim: int, products, labels=None) -> "Algebra":
        """Build an algebra from a ``{(i, j): coefficients}`` mapping.

        Pairs absent from ``products`` multiply to zero.  Coefficients may be
        ints, strings or field elements; they are coerced into ``field``.
        """
        labels = tuple(labels) if labels else default_labels(dim)
        table = [[vec_zero(field, dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), coeffs in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ShapeError(f"basis index ({i}, {j}) out of range for dim {dim}")
            if len(coeffs) != dim:
                raise ShapeError(f"product ({i}, {j}) has {len(coeffs)} coefficients")
            table[i][j] = tuple(field.of(x) for x in coeffs)
        return cls(field, labels, tuple(tuple(row) for row in table))

    @classmethod
    def from_tensor(cls, field: Field, tensor, labels=None) -> "Algebra":
        """Build from a dense ``n x n x n`` nested sequence of coefficients."""
        dim = len(tensor)
        labels = tuple(labels) if labels else default_labels(dim)
        table = tuple(
            tuple(tuple(field.of(x) for x in vec) for vec in row) for row in tensor
        )
        return cls(field, labels, table)

    def basis(self, i: int) -> Vector:
        return basis_vector(self.field, self.dim, i)

    def relabel(self, labels) -> "Algebra":
        return Algebra(self.field, tuple(labels), self.c)


def default_labels(dim: int, stem: str = "e") -> tuple[str, ...]:
    return tuple(f"{stem}{i + 1}" for i in range(dim))


def structure_equal(a: Algebra, b: Algebra) -> bool:
    """Equality of structure-constant tensors (labels are ignored)."""
    return a.field == b.field and a.c == b.c


def _check_vector(alg: Algebra, v: Vector) -> None:
    if len(v) != alg.dim:
        raise ShapeError(f"vector of length {len(v)} in a dim-{alg.dim} algebra")


def product(alg: Algebra, x: Vector, y: Vector) -> Vector:
    """Bilinear product of two coordinate vectors."""
    _check_vector(alg, x)
    _check_vector(alg, y)
    f = alg.field
    # x*y = sum_i sum_j x_i y_j (e_i e_j): coefficients x_i y over the row c[i]
    return combination(f, alg.dim, ((vec_scale(f, xi, y), row)
                                    for xi, row in zip(x, alg.c) if xi != f.zero))


def antiassociator(alg: Algebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """The defect (x*y)*z + x*(y*z); zero exactly on antiassociative triples."""
    f = alg.field
    return vec_add(f, product(alg, product(alg, x, y), z),
                   product(alg, x, product(alg, y, z)))


def _right_columns(alg: Algebra) -> tuple:
    # entry k lists the products e_m * e_k over m
    return tuple(zip(*alg.c))


def _left_transposes(alg: Algebra) -> tuple:
    # L_{e_i}^T, whose row m is e_i e_m; R_{e_i}^T is this family of opposite(alg)
    return tuple(LinearMap(alg.field, row) for row in alg.c)


def _antiassociator_terms(c, right, i, j, k) -> tuple:
    # (e_i e_j) e_k + e_i (e_j e_k), as terms of ``combination``
    return (c[i][j], right[k]), (c[j][k], c[i])


def _defects_antiassociative(alg: Algebra):
    n, f, c = alg.dim, alg.field, alg.c
    right = _right_columns(alg)
    for i, j, k in itertools.product(range(n), repeat=3):
        yield (i, j, k), combination(f, n, _antiassociator_terms(c, right, i, j, k))


def _defects_left_pre_jj(alg: Algebra):
    n, f, c = alg.dim, alg.field, alg.c
    right = _right_columns(alg)
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                d = combination(f, n, _antiassociator_terms(c, right, i, j, k)
                                + _antiassociator_terms(c, right, j, i, k))
                yield (i, j, k), d


def _defects_right_pre_jj(alg: Algebra):
    n, f, c = alg.dim, alg.field, alg.c
    right = _right_columns(alg)
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                d = combination(f, n, _antiassociator_terms(c, right, i, j, k)
                                + _antiassociator_terms(c, right, i, k, j))
                yield (i, j, k), d


def _defects_jj(alg: Algebra):
    n, f, c = alg.dim, alg.field, alg.c
    right = _right_columns(alg)
    for i in range(n):
        for j in range(i + 1, n):
            yield (i, j), vec_sub(f, c[i][j], c[j][i])
    for i, j, k in itertools.product(range(n), repeat=3):
        # (e_i e_j) e_k + (e_k e_i) e_j + (e_j e_k) e_i
        d = combination(f, n, ((c[i][j], right[k]), (c[k][i], right[j]),
                               (c[j][k], right[i])))
        yield (i, j, k), d


_DEFECT_GENERATORS = {
    "antiassociative": _defects_antiassociative,
    "left_pre_jj": _defects_left_pre_jj,
    "right_pre_jj": _defects_right_pre_jj,
    "operad": _defects_left_pre_jj,
    "jj": _defects_jj,
}


def report_from_defects(name, field, defect_iter, max_witnesses=DEFAULT_MAX_WITNESSES):
    """Collect nonzero defects into a CheckReport, bounded and in order.

    The cap is clamped to at least 1 so a failing report always carries a
    witness (passed is true exactly when witnesses is empty).
    """
    cap = max(1, max_witnesses)
    witnesses = []
    truncated = False
    for item in defect_iter:
        indices, defect = item[0], item[1]
        tag = item[2] if len(item) > 2 else ""
        if not any(defect):
            continue
        if len(witnesses) >= cap:
            truncated = True
            break
        witnesses.append(Witness(tuple(indices), tuple(defect), tag))
    return CheckReport(
        identity_name=name,
        passed=not witnesses,
        witnesses=tuple(witnesses),
        warnings=characteristic_warnings(field),
        truncated=truncated,
    )


def check_identity(alg: Algebra, kind: str,
                   max_witnesses: int = DEFAULT_MAX_WITNESSES) -> CheckReport:
    """Check one of the defining identities on all basis tuples.

    At most ``max_witnesses`` violations are listed, but a cap below 1 is
    raised to 1, so a failing report always carries one.
    """
    return report_from_defects(kind, alg.field, _defects(alg, kind), max_witnesses)


def passes_identity(alg: Algebra, kind: str) -> bool:
    """Early-exit verdict of ``check_identity`` (no witness collection)."""
    verdict = _holds(alg, kind)
    if verdict is None:
        return not any(any(defect) for _, defect in _generated_defects(alg, kind))
    return verdict


def _defects(alg: Algebra, kind: str):
    """The defects of ``kind`` on ``alg``: none when ``_holds`` finds that the
    identity holds, else the kind's generator, the only source of witnesses."""
    if _holds(alg, kind):
        return ()
    return _generated_defects(alg, kind)


def _generated_defects(alg: Algebra, kind: str):
    try:
        return _DEFECT_GENERATORS[kind](alg)  # a generator: no body runs here
    except KeyError:
        raise FieldError(
            f"unknown identity kind {kind!r}; expected one of {IDENTITY_KINDS}"
        ) from None


class _Poly(dict):
    """A polynomial in indexed variables, as {monomial: coefficient}: a
    monomial is a sorted tuple of variable indices; coefficients are
    integers, or rationals for the equations of an isomorphism over QQ."""

    def __add__(self, other):
        out = _Poly(self)
        for mono, c in other.items():
            out[mono] = out.get(mono, 0) + c
        return out

    def __radd__(self, zero):  # 0 + self: each entry of ``combination`` starts at 0
        return self

    def __sub__(self, other):
        return self + _Poly({mono: -c for mono, c in other.items()})

    def __mul__(self, other):
        out = _Poly()
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return out


class _Polynomials:
    """``_Poly`` as a field: the part of the field interface that the defect
    generators, ``product`` and ``combination`` use, so running them over
    variables yields equations."""

    zero = _Poly()
    sub, mul = operator.sub, operator.mul

    @staticmethod
    def reduce(values) -> tuple:
        return tuple(x or _Poly() for x in values)


def _normalised(polys, size: int, modulus: int) -> tuple:
    """The equations ``poly == 0`` over x_0 .. x_{size-1}, sorted.

    Each polynomial is linear or quadratic.  Coefficients are reduced mod
    ``modulus``, or kept exact when it is 0.  An equation is the tuple of
    its non-zero terms (c, u, w), standing for c * x_u * x_w and sorted by
    (u, w), where index ``size`` stands for the constant 1.  Polynomials
    that vanish identically are dropped, and equal equations kept once.
    """
    one = size
    equations = set()
    for poly in polys:
        terms = sorted(((mono + (one,))[:2], c % modulus if modulus else c)
                       for mono, c in poly.items())
        eq = tuple((c, u, w) for (u, w), c in terms if c)
        if eq:
            equations.add(eq)
    return tuple(sorted(equations))


@lru_cache(maxsize=None)
def _identity_equations(n: int, p: int, kind: str) -> tuple:
    """The identity ``kind`` over GF(p) as ``_normalised`` equations in the
    flat constants x_0 .. x_{n^3-1}: the coordinates of the kind's defect
    generator run over an algebra whose constants are those variables."""
    tensor = tuple(
        tuple(tuple(_Poly({((i * n + j) * n + k,): 1}) for k in range(n)) for j in range(n))
        for i in range(n)
    )
    alg = Algebra(_Polynomials, default_labels(n), tensor)
    return _normalised((poly for _, defect in _DEFECT_GENERATORS[kind](alg)
                        for poly in defect), n ** 3, p)


# The largest dimension whose GF(p) verdicts ``_holds`` takes from the
# equations.  At dim 3 a failing table would pay for the evaluation on top
# of the generator, which often stops at its first defect.
_VERDICT_MAX_DIM = 2


def _holds(alg: Algebra, kind: str):
    """Whether ``alg`` satisfies ``kind``, by evaluating the kind's equations
    on its constants, over a prime field at dims 1 and 2; None elsewhere."""
    f, n = alg.field, alg.dim
    if not isinstance(f, PrimeField) or n > _VERDICT_MAX_DIM or kind not in _DEFECT_GENERATORS:
        return None
    p = f.p
    vals = tuple_from_algebra(alg) + (1,)
    for eq in _identity_equations(n, p, kind):
        s = 0
        for c, u, w in eq:
            s += c * vals[u] * vals[w]
        if s % p:
            return False
    return True


def sub_adjacent(alg: Algebra, halved: bool = False) -> Algebra:
    """Commutative algebra with product s*(xy + yx).

    ``s`` is 1 by default and 1/2 with ``halved=True``; the halved variant is
    rejected over characteristic 2.  For a left pre-JJ input (or, halved, an
    antiassociative input) the result satisfies the ``jj`` identity.
    """
    f, n = alg.field, alg.dim
    if halved and f.characteristic == 2:
        raise FieldError("halved anticommutator needs characteristic != 2")
    table = tuple(tuple(vec_add(f, alg.c[i][j], alg.c[j][i]) for j in range(n))
                  for i in range(n))
    if halved:
        half = f.inv(f.of(2))
        # through ``of``, so an integral QQ entry comes back as an int
        table = tuple(tuple(tuple(map(f.of, vec_scale(f, half, v))) for v in row)
                      for row in table)
    return Algebra(f, alg.labels, table)


def left_mult(alg: Algebra, x: Vector) -> LinearMap:
    """Matrix of y -> x*y in the basis; linear in ``x``."""
    _check_vector(alg, x)
    f = alg.field
    n = alg.dim
    # column j = x * e_j
    cols = [combination(f, n, ((x, right_j),)) for right_j in _right_columns(alg)]
    return LinearMap(f, tuple(zip(*cols)))


def right_mult(alg: Algebra, x: Vector) -> LinearMap:
    """Matrix of y -> y*x in the basis; linear in ``x``."""
    return left_mult(opposite(alg), x)


def ad(alg: Algebra, x: Vector) -> LinearMap:
    """Matrix of y -> x*y + y*x (the sum of both multiplications)."""
    return left_mult(alg, x).add(right_mult(alg, x))


def op_anticommutator(p: LinearMap, q: LinearMap) -> LinearMap:
    """PQ + QP.

    This is the bracket used on operators throughout: every operator identity
    in this package reads [P,Q] as the anticommutator, never the commutator.
    """
    if not (p.is_square() and q.is_square()):
        raise ShapeError("operator anticommutator needs square maps")
    if p.rows != q.rows:
        raise ShapeError("operator anticommutator needs equal shapes")
    return p.mul(q).add(q.mul(p))


def opposite(alg: Algebra) -> Algebra:
    """The opposite algebra: x *op y = y * x.

    Maps left pre-JJ algebras to right pre-JJ algebras and conversely.
    """
    n = alg.dim
    table = tuple(tuple(alg.c[j][i] for j in range(n)) for i in range(n))
    return Algebra(alg.field, alg.labels, table)


def algebra_from_tuple(field: Field, dim: int, entries, labels=None) -> Algebra:
    """Unflatten n^3 structure constants in (i, j, k) lex order into an Algebra."""
    entries = tuple(entries)
    if len(entries) != dim ** 3:
        raise ShapeError(f"need {dim ** 3} structure constants, got {len(entries)}")
    it = iter(entries)
    tensor = [[[next(it) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    return Algebra.from_tensor(field, tensor, labels=labels)


def tuple_from_algebra(alg: Algebra) -> tuple:
    """The structure constants of ``alg`` flattened in (i, j, k) lex order."""
    return tuple(x for row in alg.c for vec in row for x in vec)


def transport_constants(c: tuple, flat_p: tuple, flat_p_inv: tuple, n: int,
                        field: Field) -> tuple:
    """Flat structure constants ``c`` rewritten in the basis f_i = P e_i.

    ``c`` holds n^3 constants in (i, j, k) lex order and ``flat_p``,
    ``flat_p_inv`` hold P and P^-1, row-major; entry (i, j) of the result is
    P^-1 (f_i f_j).  As in ``linalg.combination``, sums run natively, with
    zero entries of P, zero constants and zero partial sums skipped, and
    ``field.reduce`` makes scalars of each f_i f_j and of the result.
    """
    cols = [[(a, flat_p[a * n + i]) for a in range(n) if flat_p[a * n + i]]
            for i in range(n)]
    inv_rows = [flat_p_inv[k * n:(k + 1) * n] for k in range(n)]
    out = []
    for col_i in cols:
        for col_j in cols:
            # w = f_i f_j = sum over a, b of P[a][i] P[b][j] (e_a e_b)
            w = [0] * n
            for a, pa in col_i:
                for b, pb in col_j:
                    s = pa * pb
                    base = (a * n + b) * n
                    for k, x in enumerate(c[base:base + n]):
                        if x:
                            w[k] += s * x
            terms = [(t, x) for t, x in enumerate(field.reduce(w)) if x]
            for row in inv_rows:
                out.append(sum([row[t] * x for t, x in terms]))
    return field.reduce(out)


def apply_basis_change(alg: Algebra, p: LinearMap) -> Algebra:
    """Transport the structure constants along an invertible matrix.

    Column ``i`` of ``p`` holds the coordinates of the new basis vector
    ``f_i``; the result is the same algebra written in the ``f`` basis, so
    every identity verdict is preserved.
    """
    require_same_field(alg.field, p.field)
    if p.rows != alg.dim or p.cols != alg.dim:
        raise ShapeError("basis-change matrix shape does not match the algebra")
    p_inv = p.inverse()  # raises ShapeError when singular
    c = transport_constants(tuple_from_algebra(alg), tuple(itertools.chain(*p.entries)),
                            tuple(itertools.chain(*p_inv.entries)), alg.dim, alg.field)
    return algebra_from_tuple(alg.field, alg.dim, c, alg.labels)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Block-diagonal sum: both summands are subalgebras, cross terms vanish."""
    za = tuple(LinearMap.zeros(a.field, a.dim, a.dim) for _ in range(b.dim))
    zb = tuple(LinearMap.zeros(a.field, b.dim, b.dim) for _ in range(a.dim))
    return _block_product(a, b, zb, zb, za, za)


def _block_product(a: Algebra, b: Algebra, la, ra, lb, rb) -> Algebra:
    """The product on A + B, basis of A first, given by

        (x+u)(y+w) = xy + lB(u)y + rB(w)x  +  uw + lA(x)w + rA(y)u.

    ``la``, ``ra`` hold one map on B per basis element of A and ``lb``,
    ``rb`` one map on A per basis element of B.  Direct sums, semidirect
    sums and both bicrossed products are this product.
    """
    require_same_field(a.field, b.field)
    n, m = a.dim, b.dim
    labels = a.labels + b.labels
    if len(set(labels)) != n + m:
        labels = default_labels(n + m)
    zero_a, zero_b = vec_zero(a.field, n), vec_zero(a.field, m)
    table = tuple(
        tuple(a.c[i][j] + zero_b for j in range(n))
        + tuple(rb[w].column(i) + la[i].column(w) for w in range(m))
        for i in range(n)
    ) + tuple(
        tuple(lb[u].column(j) + ra[j].column(u) for j in range(n))
        + tuple(zero_a + b.c[u][w] for w in range(m))
        for u in range(m)
    )
    return Algebra(a.field, labels, table)

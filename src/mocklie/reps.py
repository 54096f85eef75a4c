"""Representations of JJ algebras and bimodules of pre-JJ algebras.

A ``JJRep`` is a family of module maps ``rho_i`` (one per basis element of a
commutative Jacobi-identity algebra, extended linearly) subject to

    rho(x*y) = -(rho(x) rho(y) + rho(y) rho(x)).

A ``PreJJBimodule`` is a pair of families ``l_x``, ``r_x`` over a left pre-JJ
algebra.  The operational bimodule conditions used here are the three that
make the semidirect sum a pre-JJ algebra, checked on all basis pairs:

    (left)   l_{xy} + l_x l_y = -(l_{yx} + l_y l_x)
    (mixed)  r_y l_x + l_x r_y = -(r_y r_x + r_{xy})
    (right)  r_{xy} + r_y r_x = -(r_y l_x + l_x r_y)

(the mixed and right families coincide term by term, so their sum is
evaluated once and each defect is reported under both tags).  The
two-condition variant that replaces mixed/right with
``[l_x, r_y] = -[l_y, r_x]`` is available separately as a diagnostic; it is
strictly weaker, and the divergence is observable.

Checks fold the underlying algebra's own identity into the verdict (witness
tag ``"algebra"``) so that the semidirect-sum equivalences hold verbatim
for arbitrary candidate maps.  Over a prime field at algebra dims 1 and 2,
an algebra that passes is decided from its compiled equations, without
running the identity's generator (see ``algebra``).
``PreJJBimodule.regular`` and ``JJRep.adjoint`` transpose the table slices
L_{e_i}^T and R_{e_i}^T; nothing is multiplied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (
    Algebra,
    CheckReport,
    DEFAULT_MAX_WITNESSES,
    _block_product,
    _check_vector,
    _defects,
    _left_transposes,
    default_labels,
    opposite,
    report_from_defects,
    sub_adjacent,
)
from .errors import ShapeError, require
from .fields import require_same_field
from .linalg import LinearMap, Vector, combination


def _validate_map_family(alg: Algebra, maps, what: str, size: int | None = None) -> int:
    """Size m of the m x m maps, one per basis element; m must be ``size`` if given."""
    maps = tuple(maps)
    if len(maps) != alg.dim:
        raise ShapeError(f"{what}: need one map per basis element of the algebra")
    dims = {(m.rows, m.cols) for m in maps}
    if len(dims) != 1:
        raise ShapeError(f"{what}: maps have inconsistent shapes {dims}")
    rows, cols = dims.pop()
    if rows != cols:
        raise ShapeError(f"{what}: module maps must be square, got {rows}x{cols}")
    if rows < 1:
        raise ShapeError(f"{what}: the module must have positive dimension")
    if size is not None and rows != size:
        raise ShapeError(f"{what}: maps must be {size}x{size}, got {rows}x{rows}")
    for m in maps:
        require_same_field(alg.field, m.field)
    return rows


@dataclass(frozen=True)
class JJRep:
    """Candidate representation of a JJ algebra on an m-dimensional module."""

    algebra: Algebra
    maps: tuple[LinearMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        _validate_map_family(self.algebra, self.maps, "representation")

    @property
    def module_dim(self) -> int:
        return self.maps[0].rows

    def rho(self, x: Vector) -> LinearMap:
        """The map attached to an algebra vector, extended linearly."""
        _check_vector(self.algebra, x)
        f = self.algebra.field
        acc = LinearMap.zeros(f, self.module_dim, self.module_dim)
        for xi, m in zip(x, self.maps):
            if xi != f.zero:
                acc = acc.add(m.scale(xi))
        return acc

    @classmethod
    def zero(cls, algebra: Algebra, module_dim: int) -> "JJRep":
        z = LinearMap.zeros(algebra.field, module_dim, module_dim)
        return cls(algebra, tuple(z for _ in range(algebra.dim)))

    @classmethod
    def adjoint(cls, algebra: Algebra) -> "JJRep":
        """The algebra acting on itself by (left) multiplication."""
        return cls(algebra, tuple(m.transpose() for m in _left_transposes(algebra)))


@dataclass(frozen=True)
class PreJJBimodule:
    """Candidate bimodule (l, r) of a pre-JJ algebra on an m-dim space."""

    algebra: Algebra
    left: tuple[LinearMap, ...]
    right: tuple[LinearMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        m1 = _validate_map_family(self.algebra, self.left, "left maps")
        m2 = _validate_map_family(self.algebra, self.right, "right maps")
        if m1 != m2:
            raise ShapeError("left and right map families act on different spaces")

    @property
    def module_dim(self) -> int:
        return self.left[0].rows

    @classmethod
    def zero(cls, algebra: Algebra, module_dim: int) -> "PreJJBimodule":
        z = LinearMap.zeros(algebra.field, module_dim, module_dim)
        zs = tuple(z for _ in range(algebra.dim))
        return cls(algebra, zs, zs)

    @classmethod
    def regular(cls, algebra: Algebra) -> "PreJJBimodule":
        """The regular bimodule (L, R, A): the algebra acting on itself."""
        lt, rt = _left_transposes(algebra), _left_transposes(opposite(algebra))
        return cls(algebra, tuple(m.transpose() for m in lt),
                   tuple(m.transpose() for m in rt))


def _flat(maps):
    # row-major scalar tuples of a map family
    return tuple(tuple(x for row in mp.entries for x in row) for mp in maps)


def _flat_sum(field, m, products, combinations=()):
    """Row-major entries of ``sum(a b) + sum(sum_k coeffs[k] maps[k])``.

    ``products`` holds pairs ``(a, b)`` and ``combinations`` pairs
    ``(coeffs, maps)``; every matrix is a row-major tuple of ``m * m``
    scalars.  The linear part is one ``linalg.combination``; the products
    are summed onto it here with native ``+`` and ``*``, and ``field.reduce``
    runs once at the end.  Evaluating on flat tuples keeps the checkers free
    of a validated ``LinearMap`` per term.
    """
    acc = list(combination(field, m * m, combinations))
    for a, b in products:
        for row in range(0, m * m, m):
            for k in range(m):
                x = a[row + k]
                if x:
                    for col, y in enumerate(b[k * m:(k + 1) * m]):
                        if y:
                            acc[row + col] += x * y
    return field.reduce(acc)


def _algebra_defects(alg: Algebra, kind: str):
    for indices, defect in _defects(alg, kind):
        yield indices, defect, "algebra"


def _rep_condition_defects(rep: JJRep):
    alg, m, rho = rep.algebra, rep.module_dim, _flat(rep.maps)
    f, n = alg.field, alg.dim
    for i in range(n):
        for j in range(i, n):
            d = _flat_sum(f, m, ((rho[i], rho[j]), (rho[j], rho[i])),
                          ((alg.c[i][j], rho),))
            yield (i, j), d, "representation"


def check_jj_rep(rep: JJRep, max_witnesses: int = DEFAULT_MAX_WITNESSES) -> CheckReport:
    """Check rho(x*y) = -(rho(x)rho(y) + rho(y)rho(x)) on all basis pairs.

    The verdict also covers the underlying algebra's ``jj`` identity (witness
    tag ``"algebra"``), so arbitrary candidates get a plain pass/fail answer.
    Matrix defects are reported flattened row-major.
    """
    defects = itertools.chain(
        _algebra_defects(rep.algebra, "jj"),
        _rep_condition_defects(rep),
    )
    return report_from_defects("jj_representation", rep.algebra.field,
                               defects, max_witnesses)


def dual_rep(rep: JJRep) -> JJRep:
    """The dual representation, realized as matrix transposition.

    Passing the representation check is preserved and reflected: the dual
    passes exactly when the original does.
    """
    return JJRep(rep.algebra, tuple(m.transpose() for m in rep.maps))


def jj_semidirect(rep: JJRep) -> Algebra:
    """Semidirect sum algebra on A + V with (x+u)(y+w) = xy + rho(x)w + rho(y)u.

    Requires a valid representation (the construction is only a JJ algebra in
    that case); raises ``PreconditionError`` otherwise.
    """
    require("jj_semidirect needs a valid representation", [("rho", check_jj_rep(rep))])
    return _semidirect_table(rep.algebra, rep.maps, rep.maps, rep.module_dim)


def _semidirect_table(alg, left_maps, right_maps, m) -> Algebra:
    # the block product with the zero algebra on V, which does not act on A
    zero = tuple(LinearMap.zeros(alg.field, alg.dim, alg.dim) for _ in range(m))
    module = Algebra.zero(alg.field, m, default_labels(m, "v"))
    return _block_product(alg, module, left_maps, right_maps, zero, zero)


def _left_condition_defects(alg: Algebra, m: int, l, tag: str):
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            # l_{xy} + l_x l_y + l_{yx} + l_y l_x
            d = _flat_sum(alg.field, m, ((l[i], l[j]), (l[j], l[i])),
                          ((alg.c[i][j], l), (alg.c[j][i], l)))
            yield (i, j), d, tag


def _bimodule_condition_defects(bm: PreJJBimodule):
    alg, m = bm.algebra, bm.module_dim
    f, n = alg.field, alg.dim
    l, r = _flat(bm.left), _flat(bm.right)
    yield from _left_condition_defects(alg, m, l, "left")
    mixed = []
    for i in range(n):
        for j in range(n):
            # r_y l_x + l_x r_y + r_y r_x + r_{xy}
            d = _flat_sum(f, m, ((r[j], l[i]), (l[i], r[j]), (r[j], r[i])),
                          ((alg.c[i][j], r),))
            mixed.append(((i, j), d))
            yield (i, j), d, "mixed"
    # the right condition is the same four terms, so its defects are these
    yield from ((ij, d, "right") for ij, d in mixed)


def check_prejj_bimodule(bm: PreJJBimodule,
                         max_witnesses: int = DEFAULT_MAX_WITNESSES) -> CheckReport:
    """Check the three semidirect-product bimodule conditions on basis pairs.

    The underlying algebra's ``left_pre_jj`` identity is folded into the
    verdict (tag ``"algebra"``); with that convention the check passes exactly
    when ``prejj_semidirect`` produces a left pre-JJ algebra, for completely
    arbitrary map families.
    """
    defects = itertools.chain(
        _algebra_defects(bm.algebra, "left_pre_jj"),
        _bimodule_condition_defects(bm),
    )
    return report_from_defects("prejj_bimodule", bm.algebra.field,
                               defects, max_witnesses)


def _bimodule_displayed_defects(bm: PreJJBimodule):
    alg, m = bm.algebra, bm.module_dim
    f, n = alg.field, alg.dim
    l, r = _flat(bm.left), _flat(bm.right)
    for i in range(n):
        for j in range(i, n):
            # l_x r_y + r_y l_x + l_y r_x + r_x l_y
            d = _flat_sum(f, m, ((l[i], r[j]), (r[j], l[i]),
                                 (l[j], r[i]), (r[i], l[j])))
            yield (i, j), d, "eqbimodule1"
    yield from _left_condition_defects(alg, m, l, "eqbimodule2")


def check_prejj_bimodule_displayed(bm: PreJJBimodule,
                                   max_witnesses: int = DEFAULT_MAX_WITNESSES,
                                   ) -> CheckReport:
    """Diagnostic check of the two displayed bimodule conditions only.

    This variant ([l_x, r_y] = -[l_y, r_x] plus the left condition) is weaker
    than the operational three-condition set: candidates exist that pass it
    while their semidirect sum is not pre-JJ.  It is exposed so the divergence
    can be observed rather than silently resolved.
    """
    defects = itertools.chain(
        _algebra_defects(bm.algebra, "left_pre_jj"),
        _bimodule_displayed_defects(bm),
    )
    return report_from_defects("prejj_bimodule_displayed", bm.algebra.field,
                               defects, max_witnesses)


def prejj_semidirect(bm: PreJJBimodule) -> Algebra:
    """Semidirect sum (x+u)(y+w) = xy + l_x w + r_y u on A + V.

    Deliberately not gated on the bimodule conditions: the result is left
    pre-JJ exactly when ``check_prejj_bimodule`` passes, and both directions
    of that equivalence are meant to be testable.
    """
    return _semidirect_table(bm.algebra, bm.left, bm.right, bm.module_dim)


def sum_rep(bm: PreJJBimodule) -> JJRep:
    """The representation l + r of the sub-adjacent algebra.

    Requires a valid bimodule; the result always passes ``check_jj_rep``.
    """
    require("sum_rep needs a valid bimodule", [("bimodule", check_prejj_bimodule(bm))])
    return JJRep(
        sub_adjacent(bm.algebra),
        tuple(li.add(ri) for li, ri in zip(bm.left, bm.right)),
    )


def dual_bimodule(bm: PreJJBimodule) -> PreJJBimodule:
    """The dual bimodule (r^T, l^T): transposes with the two families swapped.

    An involution; the bimodule check verdict is preserved exactly.
    """
    return PreJJBimodule(
        bm.algebra,
        tuple(m.transpose() for m in bm.right),
        tuple(m.transpose() for m in bm.left),
    )

"""Double constructions A + A* with the canonical invariant pairing.

Given an algebra structure on A and one on its dual basis A*, the transposed
multiplication operators, read off the two structure tables, furnish
matched-pair candidates; the bicrossed product on A + A* with the canonical
symmetric form

    B = [[0, I], [I, 0]],      B(x + a*, y + b*) = <x, b*> + <a*, y>

is the double construction.  Invariance B(uv, w) = B(u, vw) holds for every
assembled double, valid matched pair or not: it only uses the transpose
structure of the actions.  ``check_invariance`` reads it off M c, the form
matrix M times each ambient product, using the symmetry of M that
``BilinearForm`` enforces.  The catalogued cases and their conformance
reports live in ``catalog``; this module imports neither it nor ``formats``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    CheckReport,
    DEFAULT_MAX_WITNESSES,
    _left_transposes,
    check_identity,
    opposite,
    report_from_defects,
    sub_adjacent,
)
from .errors import ShapeError, require
from .fields import Field, require_same_field
from .linalg import LinearMap, combination
from .matched import (
    JJMatchedPair,
    PreJJMatchedPair,
    jj_bicross_product,
    prejj_bicross_product,
)


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric nondegenerate bilinear form B(u, v) = u^T M v."""

    matrix: LinearMap

    def __post_init__(self):
        m = self.matrix
        if not m.is_square():
            raise ShapeError("bilinear form matrix must be square")
        if m.transpose() != m:
            raise ShapeError("bilinear form must be symmetric")
        if m.det() == m.field.zero:
            raise ShapeError("bilinear form must be nondegenerate")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def value(self, u, v):
        f = self.matrix.field
        w = self.matrix.apply(v)
        acc = f.zero
        for a, b in zip(u, w, strict=True):
            if a != f.zero and b != f.zero:
                acc = f.add(acc, f.mul(a, b))
        return acc


@dataclass(frozen=True)
class DoubleConstruction:
    """An assembled double: ambient algebra, canonical form, and the sources."""

    ambient: Algebra
    form: BilinearForm
    primal: Algebra
    dual: Algebra
    kind: str  # "pre_jj" or "jj"

    def __post_init__(self):
        if self.ambient.dim != 2 * self.primal.dim:
            raise ShapeError("ambient dimension must be twice the source dimension")


def canonical_form(field: Field, n: int) -> BilinearForm:
    """The 2n x 2n swap form [[0, I], [I, 0]] pairing A with A*."""
    if n < 1:
        raise ShapeError("canonical form needs n >= 1")
    one, zero = field.one, field.zero
    rows = []
    for i in range(2 * n):
        partner = i + n if i < n else i - n
        rows.append(tuple(one if j == partner else zero for j in range(2 * n)))
    return BilinearForm(LinearMap(field, tuple(rows)))


def _require_dual_pair(primal: Algebra, dual: Algebra) -> None:
    require_same_field(primal.field, dual.field)
    if primal.dim != dual.dim:
        raise ShapeError("primal and dual algebras must have equal dimension")


def _double(ambient, primal, dual, kind) -> DoubleConstruction:
    return DoubleConstruction(ambient, canonical_form(primal.field, primal.dim),
                              primal, dual, kind)


def _gated(primal, dual, kind, label, assemble) -> DoubleConstruction:
    """``assemble(primal, dual)`` once both inputs satisfy the identity
    ``kind``; else ``PreconditionError`` naming the failing ones."""
    require(f"inputs are not {label}: {{names}}",
            [("primal", check_identity(primal, kind)),
             ("dual", check_identity(dual, kind))])
    return assemble(primal, dual)


def dual_structure_maps(primal: Algebra, dual: Algebra) -> PreJJMatchedPair:
    """Matched-pair candidate from the transposed multiplication operators.

    lA = R^T of the primal product, rA = L^T of the primal product (acting on
    the dual carrier); lB = R^T and rB = L^T of the dual product (acting back
    on the primal carrier).
    """
    _require_dual_pair(primal, dual)
    la, lb = _left_transposes(opposite(primal)), _left_transposes(opposite(dual))
    return PreJJMatchedPair(primal, dual, la=la, ra=_left_transposes(primal),
                            lb=lb, rb=_left_transposes(dual))


def assemble_prejj_double(primal: Algebra, dual: Algebra) -> DoubleConstruction:
    """Assemble the pre-JJ double without any identity gating.

    The ambient product comes from the bicrossed-product formula applied to
    ``dual_structure_maps``; the form is always the canonical one.  Used by
    the conformance reports, which must be computable even for catalogued
    inputs that fail the pre-JJ identity.
    """
    return _double(prejj_bicross_product(dual_structure_maps(primal, dual)),
                   primal, dual, "pre_jj")


def build_prejj_double(primal: Algebra, dual: Algebra) -> DoubleConstruction:
    """The double construction of a symmetric pre-JJ algebra.

    Requires both inputs to satisfy ``left_pre_jj``; the ambient then
    satisfies it exactly when the dual-maps matched-pair checker passes.
    """
    return _gated(primal, dual, "left_pre_jj", "pre-JJ", assemble_prejj_double)


def jj_matched_pair_from_duals(primal: Algebra, dual: Algebra) -> JJMatchedPair:
    """JJ matched-pair candidate (G(A), G(A*)) acting by -(L+R)^T.

    Negating a representation rho flips the representation condition by
    2*rho(x*y), so +(L+R)^T can only qualify alongside it when the lifted
    operators kill all products; that holds for every dim-2 pre-JJ algebra
    over the supported fields, where the two signs are therefore
    indistinguishable (the sign-guard test pins this down).
    """
    _require_dual_pair(primal, dual)
    lifted = (tuple(lt.add(rt).neg() for lt, rt in zip(_left_transposes(alg),
                                                        _left_transposes(opposite(alg))))
              for alg in (primal, dual))
    return JJMatchedPair(sub_adjacent(primal), sub_adjacent(dual), *lifted)


def assemble_jj_double(primal: Algebra, dual: Algebra) -> DoubleConstruction:
    """Assemble the JJ double; its actions are the operators L_{e_i}^T."""
    _require_dual_pair(primal, dual)
    ambient = jj_bicross_product(JJMatchedPair(primal, dual, _left_transposes(primal),
                                               _left_transposes(dual)))
    return _double(ambient, primal, dual, "jj")


def build_jj_double(primal: Algebra, dual: Algebra) -> DoubleConstruction:
    """The double construction of a symmetric JJ algebra.

    Requires both inputs to satisfy ``jj``; the ambient then satisfies ``jj``
    exactly when the JJ matched-pair checker passes on the dual lift.
    """
    return _gated(primal, dual, "jj", "JJ", assemble_jj_double)


def check_invariance(double: DoubleConstruction,
                     max_witnesses: int = DEFAULT_MAX_WITNESSES) -> CheckReport:
    """Check B(uv, w) = B(u, vw) over all basis triples of the ambient."""
    amb = double.ambient
    f = amb.field
    n = amb.dim
    # B(x, e_w) = (M x)_w for symmetric M, so B(uv, w) = t[u][v][w] and
    # B(u, vw) = t[v][w][u]
    t = [[double.form.matrix.apply(vec) for vec in row] for row in amb.c]

    def defects():
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    yield (u, v, w), (f.sub(t[u][v][w], t[v][w][u]),)

    return report_from_defects("form_invariance", f, defects(), max_witnesses)


def conformance_diff(double: DoubleConstruction, table) -> list[dict]:
    """Recompute each fixture entry from the ambient product and diff it.

    ``table`` rows are ((i, j), (k, l), expected) for the product
    (e_i + e_j*) (e_k + e_l*); expected coefficients live in the ambient
    coordinates.  Output rows keep the fixture order and carry the recomputed
    value, the fixture value and a match flag; the recomputation is the
    authority, the fixture is only being diffed.  An index outside the
    primal's basis or an expected vector of the wrong length raises
    ``ShapeError``.
    """
    amb = double.ambient
    f = amb.field
    c = amb.c
    n = double.primal.dim
    pl, dl = double.primal.labels, double.dual.labels
    rows = []
    for (i, j), (k, l), expected in table:
        if not all(0 <= t < n for t in (i, j, k, l)):
            raise ShapeError(f"fixture entry ({i}, {j}) * ({k}, {l}) has a "
                             f"basis index outside 0..{n - 1}")
        if len(expected) != 2 * n:
            raise ShapeError(f"fixture entry ({i}, {j}) * ({k}, {l}) expects "
                             f"{len(expected)} coordinates, not {2 * n}")
        recomputed = combination(f, 2 * n, (((f.one,) * 4, (
            c[i][k], c[i][n + l], c[n + j][k], c[n + j][n + l])),))
        exp = tuple(f.of(x) for x in expected)
        rows.append(
            {
                "left": (i, j),
                "right": (k, l),
                "lhs": f"({pl[i]}+{dl[j]})*({pl[k]}+{dl[l]})",
                "recomputed": recomputed,
                "expected": exp,
                "match": recomputed == exp,
            }
        )
    return rows

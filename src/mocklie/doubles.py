"""Double constructions A + A* with the canonical invariant pairing.

Given an algebra structure on A and one on its dual basis A*, the dual
multiplication operators (realized as plain matrix transposes in the
coordinate bases) furnish matched-pair candidates; the bicrossed product on
A + A* together with the canonical symmetric form

    B = [[0, I], [I, 0]],      B(x + a*, y + b*) = <x, b*> + <a*, y>

is the double construction.  Invariance B(uv, w) = B(u, vw) holds for every
assembled double, valid matched pair or not: it only uses the transpose
structure of the actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    CheckReport,
    DEFAULT_MAX_WITNESSES,
    check_identity,
    left_mult,
    product,
    report_from_defects,
    sub_adjacent,
)
from .catalog import case_inputs, case_table
from .errors import ShapeError, require
from .fields import Field, require_same_field
from .linalg import LinearMap, vec_sub
from .matched import (
    JJMatchedPair,
    PreJJMatchedPair,
    jj_bicross_product,
    prejj_bicross_product,
)
from .reps import dual_bimodule, PreJJBimodule


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


def dual_structure_maps(primal: Algebra, dual: Algebra) -> PreJJMatchedPair:
    """Matched-pair candidate from the transposed multiplication operators.

    lA = R^T of the primal product, rA = L^T of the primal product (acting on
    the dual carrier); lB = R^T and rB = L^T of the dual product (acting back
    on the primal carrier).
    """
    _require_dual_pair(primal, dual)
    reg_primal = dual_bimodule(PreJJBimodule.regular(primal))
    reg_dual = dual_bimodule(PreJJBimodule.regular(dual))
    return PreJJMatchedPair(
        primal, dual,
        la=reg_primal.left, ra=reg_primal.right,
        lb=reg_dual.left, rb=reg_dual.right,
    )


def assemble_prejj_double(primal: Algebra, dual: Algebra) -> DoubleConstruction:
    """Assemble the pre-JJ double without any identity gating.

    The ambient product comes from the bicrossed-product formula applied to
    ``dual_structure_maps``; the form is always the canonical one.  Used by
    the conformance reports, which must be computable even for catalogued
    inputs that fail the pre-JJ identity.
    """
    mp = dual_structure_maps(primal, dual)
    ambient = prejj_bicross_product(mp)
    return DoubleConstruction(
        ambient=ambient,
        form=canonical_form(primal.field, primal.dim),
        primal=primal,
        dual=dual,
        kind="pre_jj",
    )


def build_prejj_double(primal: Algebra, dual: Algebra) -> DoubleConstruction:
    """The double construction of a symmetric pre-JJ algebra.

    Requires both inputs to satisfy ``left_pre_jj``; the ambient then
    satisfies it exactly when the dual-maps matched-pair checker passes.
    """
    require("inputs are not pre-JJ: {names}",
            [("primal", check_identity(primal, "left_pre_jj")),
             ("dual", check_identity(dual, "left_pre_jj"))])
    return assemble_prejj_double(primal, dual)


def jj_matched_pair_from_duals(primal: Algebra, dual: Algebra,
                               sign: int = -1) -> JJMatchedPair:
    """JJ matched-pair candidate (G(A), G(A*)) acting by sign * (L+R)^T.

    The default ``sign=-1`` applies the negated-transpose convention
    literally.  Negating a representation rho flips the representation
    condition by 2*rho(x*y), so the two signs can only both qualify when the
    lifted operators kill all products; that holds for every dim-2 pre-JJ
    algebra over the supported fields, where the two conventions are
    therefore indistinguishable (the sign-guard tests pin this down).
    """
    _require_dual_pair(primal, dual)
    f = primal.field
    s = f.of(sign)

    def lifted(alg):
        reg = PreJJBimodule.regular(alg)
        return tuple(
            l.add(r).transpose().scale(s) for l, r in zip(reg.left, reg.right)
        )

    return JJMatchedPair(
        sub_adjacent(primal), sub_adjacent(dual), lifted(primal), lifted(dual)
    )


def assemble_jj_double(primal: Algebra, dual: Algebra) -> DoubleConstruction:
    """Assemble the JJ double (bracket via transposed left multiplications)."""
    _require_dual_pair(primal, dual)
    n = primal.dim
    rho = tuple(left_mult(primal, primal.basis(i)).transpose() for i in range(n))
    mu = tuple(left_mult(dual, dual.basis(a)).transpose() for a in range(n))
    ambient = jj_bicross_product(JJMatchedPair(primal, dual, rho, mu))
    return DoubleConstruction(
        ambient=ambient,
        form=canonical_form(primal.field, n),
        primal=primal,
        dual=dual,
        kind="jj",
    )


def build_jj_double(primal: Algebra, dual: Algebra) -> DoubleConstruction:
    """The double construction of a symmetric JJ algebra.

    Requires both inputs to satisfy ``jj``; the ambient then satisfies ``jj``
    exactly when the JJ matched-pair checker passes on the dual lift.
    """
    require("inputs are not JJ: {names}",
            [("primal", check_identity(primal, "jj")),
             ("dual", check_identity(dual, "jj"))])
    return assemble_jj_double(primal, dual)


def check_invariance(double: DoubleConstruction,
                     max_witnesses: int = DEFAULT_MAX_WITNESSES) -> CheckReport:
    """Check B(uv, w) = B(u, vw) over all basis triples of the ambient."""
    amb = double.ambient
    form = double.form
    f = amb.field
    n = amb.dim

    def defects():
        for u in range(n):
            eu = amb.basis(u)
            for v in range(n):
                prod_uv = amb.c[u][v]
                for w in range(n):
                    lhs = form.value(prod_uv, amb.basis(w))
                    rhs = form.value(eu, amb.c[v][w])
                    yield (u, v, w), (f.sub(lhs, rhs),)

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
    n = double.primal.dim
    rows = []
    for (i, j), (k, l), expected in table:
        if not all(0 <= t < n for t in (i, j, k, l)):
            raise ShapeError(f"fixture entry ({i}, {j}) * ({k}, {l}) has a "
                             f"basis index outside 0..{n - 1}")
        if len(expected) != 2 * n:
            raise ShapeError(f"fixture entry ({i}, {j}) * ({k}, {l}) expects "
                             f"{len(expected)} coordinates, not {2 * n}")
        u = tuple(
            f.one if t == i or t == n + j else f.zero for t in range(2 * n)
        )
        v = tuple(
            f.one if t == k or t == n + l else f.zero for t in range(2 * n)
        )
        recomputed = product(amb, u, v)
        exp = tuple(f.of(x) for x in expected)
        rows.append(
            {
                "left": (i, j),
                "right": (k, l),
                "lhs": _entry_label(double, i, j, k, l),
                "recomputed": recomputed,
                "expected": exp,
                "match": vec_sub(f, recomputed, exp) == tuple([f.zero] * (2 * n)),
            }
        )
    return rows


def case_conformance(case: str, field: Field) -> tuple[DoubleConstruction, list[dict]]:
    """Assemble a catalogued case's double and diff it against its table."""
    primal, dual = case_inputs(case, field)
    double = assemble_prejj_double(primal, dual)
    return double, conformance_diff(double, case_table(case))


def _entry_label(double: DoubleConstruction, i, j, k, l) -> str:
    pl = double.primal.labels
    dl = double.dual.labels
    return f"({pl[i]}+{dl[j]})*({pl[k]}+{dl[l]})"

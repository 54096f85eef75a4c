"""Matched pairs and bicrossed products, for JJ and for pre-JJ algebras.

A matched pair is two algebras with mutual actions whose compatibility
equations make the direct sum carry a product of the same type.  The
checkers verify the compatibility equations on all basis tuples and tag each
witness with the violated equation (``eqt1``/``eqt2`` for the JJ case,
``eqq1``..``eqq4`` for the pre-JJ case).  The bicrossed-product builders are
deliberately not gated on the checkers, so both directions of the
"checker passes iff the product satisfies the identity" equivalences stay
independently testable.

Basis convention: the product carrier is ordered first-algebra basis first,
then second-algebra basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    CheckReport,
    DEFAULT_MAX_WITNESSES,
    _basis_times_vec,
    _block_product,
    _vec_times_basis,
    check_identity,
    report_from_defects,
    sub_adjacent,
)
from .errors import ShapeError, require
from .fields import require_same_field
from .linalg import LinearMap, vec_add, vec_zero
from .reps import JJRep, PreJJBimodule, check_jj_rep, check_prejj_bimodule


def _validate_actions(src: Algebra, dst: Algebra, maps, what: str):
    maps = tuple(maps)
    if len(maps) != src.dim:
        raise ShapeError(f"{what}: need one map per basis element of the acting algebra")
    for m in maps:
        require_same_field(src.field, m.field)
        if m.rows != dst.dim or m.cols != dst.dim:
            raise ShapeError(f"{what}: maps must be {dst.dim}x{dst.dim}")
    return maps


@dataclass(frozen=True)
class JJMatchedPair:
    """Two JJ algebras with mutual action candidates rho: G -> gl(H), mu: H -> gl(G)."""

    G: Algebra
    H: Algebra
    rho: tuple[LinearMap, ...]
    mu: tuple[LinearMap, ...]

    def __post_init__(self):
        require_same_field(self.G.field, self.H.field)
        object.__setattr__(self, "rho", _validate_actions(self.G, self.H, self.rho, "rho"))
        object.__setattr__(self, "mu", _validate_actions(self.H, self.G, self.mu, "mu"))

    @classmethod
    def zero_actions(cls, G: Algebra, H: Algebra) -> "JJMatchedPair":
        zg = LinearMap.zeros(G.field, H.dim, H.dim)
        zh = LinearMap.zeros(G.field, G.dim, G.dim)
        return cls(G, H, tuple(zg for _ in range(G.dim)), tuple(zh for _ in range(H.dim)))


@dataclass(frozen=True)
class PreJJMatchedPair:
    """Two pre-JJ algebras with candidate actions (lA, rA) on B and (lB, rB) on A."""

    A: Algebra
    B: Algebra
    la: tuple[LinearMap, ...]
    ra: tuple[LinearMap, ...]
    lb: tuple[LinearMap, ...]
    rb: tuple[LinearMap, ...]

    def __post_init__(self):
        require_same_field(self.A.field, self.B.field)
        object.__setattr__(self, "la", _validate_actions(self.A, self.B, self.la, "lA"))
        object.__setattr__(self, "ra", _validate_actions(self.A, self.B, self.ra, "rA"))
        object.__setattr__(self, "lb", _validate_actions(self.B, self.A, self.lb, "lB"))
        object.__setattr__(self, "rb", _validate_actions(self.B, self.A, self.rb, "rB"))

    @classmethod
    def zero_actions(cls, A: Algebra, B: Algebra) -> "PreJJMatchedPair":
        zb = LinearMap.zeros(A.field, B.dim, B.dim)
        za = LinearMap.zeros(A.field, A.dim, A.dim)
        zbs = tuple(zb for _ in range(A.dim))
        zas = tuple(za for _ in range(B.dim))
        return cls(A, B, zbs, zbs, zas, zas)


def _act(maps, coeffs, vector, field):
    # (sum_k coeffs[k] maps[k])(vector)
    out = vec_zero(field, maps[0].rows)
    for ck, m in zip(coeffs, maps):
        if ck == field.zero:
            continue
        out = vec_add(field, out, tuple(field.mul(ck, x) for x in m.apply(vector)))
    return out


def _jj_pair_defects(mp: JJMatchedPair):
    G, H = mp.G, mp.H
    f = G.field
    ng, nh = G.dim, H.dim
    rho, mu = mp.rho, mp.mu
    eh = [H.basis(b) for b in range(nh)]
    eg = [G.basis(i) for i in range(ng)]
    # eqt1: rho(x)(ab) + rho(x)a.b + a.rho(x)b + rho(mu(a)x)b + rho(mu(b)x)a = 0
    for i in range(ng):
        for a in range(nh):
            for b in range(a, nh):
                d = rho[i].apply(H.c[a][b])
                d = vec_add(f, d, _vec_times_basis(H, rho[i].column(a), b))
                d = vec_add(f, d, _basis_times_vec(H, a, rho[i].column(b)))
                d = vec_add(f, d, _act(rho, mu[a].column(i), eh[b], f))
                d = vec_add(f, d, _act(rho, mu[b].column(i), eh[a], f))
                yield (i, a, b), d, "eqt1"
    # eqt2: mu(a)(xy) + mu(a)x.y + x.mu(a)y + mu(rho(x)a)y + mu(rho(y)a)x = 0
    for a in range(nh):
        for i in range(ng):
            for j in range(i, ng):
                d = mu[a].apply(G.c[i][j])
                d = vec_add(f, d, _vec_times_basis(G, mu[a].column(i), j))
                d = vec_add(f, d, _basis_times_vec(G, i, mu[a].column(j)))
                d = vec_add(f, d, _act(mu, rho[i].column(a), eg[j], f))
                d = vec_add(f, d, _act(mu, rho[j].column(a), eg[i], f))
                yield (a, i, j), d, "eqt2"


def check_jj_matched_pair(mp: JJMatchedPair,
                          max_witnesses: int = DEFAULT_MAX_WITNESSES) -> CheckReport:
    """Verify the two JJ matched-pair equations on all basis tuples.

    Preconditions (both algebras satisfy ``jj``, both action families are
    representations) are enforced: failures raise ``PreconditionError``
    naming each failing part.
    """
    require("matched-pair preconditions failed for: {names}", (
        ("G", check_identity(mp.G, "jj")),
        ("H", check_identity(mp.H, "jj")),
        ("rho", check_jj_rep(JJRep(mp.G, mp.rho))),
        ("mu", check_jj_rep(JJRep(mp.H, mp.mu))),
    ))
    return report_from_defects("jj_matched_pair", mp.G.field,
                               _jj_pair_defects(mp), max_witnesses)


def jj_bicross_product(mp: JJMatchedPair) -> Algebra:
    """The bicrossed product on G + H.

    (x+a)(y+b) = xy + mu(a)y + mu(b)x  +  ab + rho(x)b + rho(y)a.
    Not gated: the result satisfies ``jj`` exactly when the checker passes.
    """
    return _block_product(mp.G, mp.H, mp.rho, mp.rho, mp.mu, mp.mu)


def _prejj_pair_defects(mp: PreJJMatchedPair):
    A, B = mp.A, mp.B
    f = A.field
    na, nb = A.dim, B.dim
    la, ra, lb, rb = mp.la, mp.ra, mp.lb, mp.rb
    ea = [A.basis(i) for i in range(na)]
    eb = [B.basis(a) for a in range(nb)]
    # eqq1: rA(x)[a,b] + rA(lB(b)x)a + rA(lB(a)x)b + a(rA(x)b) + b(rA(x)a) = 0
    for i in range(na):
        for a in range(nb):
            for b in range(a, nb):
                bracket = vec_add(f, B.c[a][b], B.c[b][a])
                d = ra[i].apply(bracket)
                d = vec_add(f, d, _act(ra, lb[b].column(i), eb[a], f))
                d = vec_add(f, d, _act(ra, lb[a].column(i), eb[b], f))
                d = vec_add(f, d, _basis_times_vec(B, a, ra[i].column(b)))
                d = vec_add(f, d, _basis_times_vec(B, b, ra[i].column(a)))
                yield (i, a, b), d, "eqq1"
    # eqq2: lA(x)(ab) + lA(lB(a)x + rB(a)x)b + (lA(x)a + rA(x)a).b
    #       + rA(rB(b)x)a + a.(lA(x)b) = 0
    for i in range(na):
        for a in range(nb):
            for b in range(nb):
                d = la[i].apply(B.c[a][b])
                mixed = vec_add(f, lb[a].column(i), rb[a].column(i))
                d = vec_add(f, d, _act(la, mixed, eb[b], f))
                acted = vec_add(f, la[i].column(a), ra[i].column(a))
                d = vec_add(f, d, _vec_times_basis(B, acted, b))
                d = vec_add(f, d, _act(ra, rb[b].column(i), eb[a], f))
                d = vec_add(f, d, _basis_times_vec(B, a, la[i].column(b)))
                yield (i, a, b), d, "eqq2"
    # eqq3: rB(a)[x,y] + rB(lA(y)a)x + rB(lA(x)a)y + x(rB(a)y) + y(rB(a)x) = 0
    for a in range(nb):
        for i in range(na):
            for j in range(i, na):
                bracket = vec_add(f, A.c[i][j], A.c[j][i])
                d = rb[a].apply(bracket)
                d = vec_add(f, d, _act(rb, la[j].column(a), ea[i], f))
                d = vec_add(f, d, _act(rb, la[i].column(a), ea[j], f))
                d = vec_add(f, d, _basis_times_vec(A, i, rb[a].column(j)))
                d = vec_add(f, d, _basis_times_vec(A, j, rb[a].column(i)))
                yield (a, i, j), d, "eqq3"
    # eqq4: lB(a)(xy) + lB(lA(x)a)y + lB(rA(x)a)y + (lB(a)x)y + (rB(a)x)y
    #       + x(lB(a)y) + rB(rA(y)a)x = 0
    for a in range(nb):
        for i in range(na):
            for j in range(na):
                d = lb[a].apply(A.c[i][j])
                d = vec_add(f, d, _act(lb, la[i].column(a), ea[j], f))
                d = vec_add(f, d, _act(lb, ra[i].column(a), ea[j], f))
                d = vec_add(f, d, _vec_times_basis(A, lb[a].column(i), j))
                d = vec_add(f, d, _vec_times_basis(A, rb[a].column(i), j))
                d = vec_add(f, d, _basis_times_vec(A, i, lb[a].column(j)))
                d = vec_add(f, d, _act(rb, ra[j].column(a), ea[i], f))
                yield (a, i, j), d, "eqq4"


def check_prejj_matched_pair(mp: PreJJMatchedPair,
                             max_witnesses: int = DEFAULT_MAX_WITNESSES) -> CheckReport:
    """Verify the four pre-JJ matched-pair equations on all basis tuples.

    Preconditions ((lA, rA) is a bimodule of A on B's carrier, (lB, rB) one of
    B on A's carrier) are enforced; failures raise ``PreconditionError``
    naming the failing side.
    """
    require("matched-pair preconditions failed for: {names}", (
        ("(lA, rA) over A", check_prejj_bimodule(PreJJBimodule(mp.A, mp.la, mp.ra))),
        ("(lB, rB) over B", check_prejj_bimodule(PreJJBimodule(mp.B, mp.lb, mp.rb))),
    ))
    return report_from_defects("prejj_matched_pair", mp.A.field,
                               _prejj_pair_defects(mp), max_witnesses)


def prejj_bicross_product(mp: PreJJMatchedPair) -> Algebra:
    """The bicrossed product on A + B.

    (x+a)(y+b) = xy + lB(a)y + rB(b)x  +  ab + lA(x)b + rA(y)a.
    Not gated: the result is left pre-JJ exactly when the checker passes.
    """
    return _block_product(mp.A, mp.B, mp.la, mp.ra, mp.lb, mp.rb)


def subadjacent_matched_pair(mp: PreJJMatchedPair) -> JJMatchedPair:
    """Lift a valid pre-JJ matched pair to its sub-adjacent JJ matched pair.

    Uses rho = lA + rA and mu = lB + rB over the sub-adjacent algebras; the
    result passes the JJ matched-pair checker.  Raises ``PreconditionError``
    when the pre-JJ checker does not pass.
    """
    require("subadjacent_matched_pair needs a valid pre-JJ matched pair",
            [("matched_pair", check_prejj_matched_pair(mp))])
    return JJMatchedPair(
        sub_adjacent(mp.A),
        sub_adjacent(mp.B),
        tuple(l.add(r) for l, r in zip(mp.la, mp.ra)),
        tuple(l.add(r) for l, r in zip(mp.lb, mp.rb)),
    )

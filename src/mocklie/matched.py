"""Matched pairs and bicrossed products, for JJ and for pre-JJ algebras.

A matched pair is two algebras with mutual actions whose compatibility
equations make the direct sum carry a product of the same type.  The
checkers verify the compatibility equations on all basis tuples and tag each
witness with the violated equation (``eqt1``/``eqt2`` for the JJ case,
``eqq1``..``eqq4`` for the pre-JJ case).  The bicrossed-product builders are
deliberately not gated on the checkers, so both directions of the
"checker passes iff the product satisfies the identity" equivalences stay
independently testable.

Each equation term is one ``(coefficients, vectors)`` pair of
``linalg.combination``: the vectors are columns of the action maps and the
products of the algebras, taken once per checker call, so no term builds a
``LinearMap`` or applies one.

Basis convention: the product carrier is ordered first-algebra basis first,
then second-algebra basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    CheckReport,
    DEFAULT_MAX_WITNESSES,
    _block_product,
    _right_columns,
    check_identity,
    report_from_defects,
    sub_adjacent,
)
from .errors import require
from .fields import require_same_field
from .linalg import LinearMap, combination
from .reps import (JJRep, PreJJBimodule, _validate_map_family, check_jj_rep,
                   check_prejj_bimodule)


@dataclass(frozen=True)
class JJMatchedPair:
    """Two JJ algebras with mutual action candidates rho: G -> gl(H), mu: H -> gl(G)."""

    G: Algebra
    H: Algebra
    rho: tuple[LinearMap, ...]
    mu: tuple[LinearMap, ...]

    def __post_init__(self):
        require_same_field(self.G.field, self.H.field)
        object.__setattr__(self, "rho", tuple(self.rho))
        object.__setattr__(self, "mu", tuple(self.mu))
        _validate_map_family(self.G, self.rho, "rho", self.H.dim)
        _validate_map_family(self.H, self.mu, "mu", self.G.dim)

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
        A, B = self.A, self.B
        for name, what, src, dst in (("la", "lA", A, B), ("ra", "rA", A, B),
                                     ("lb", "lB", B, A), ("rb", "rB", B, A)):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            _validate_map_family(src, getattr(self, name), what, dst.dim)

    @classmethod
    def zero_actions(cls, A: Algebra, B: Algebra) -> "PreJJMatchedPair":
        zb = LinearMap.zeros(A.field, B.dim, B.dim)
        za = LinearMap.zeros(A.field, A.dim, A.dim)
        zbs = tuple(zb for _ in range(A.dim))
        zas = tuple(za for _ in range(B.dim))
        return cls(A, B, zbs, zbs, zas, zas)


def _columns(maps) -> tuple:
    # (cols, at): cols[s][k] and at[k][s] are both column k of maps[s]
    cols = tuple(tuple(zip(*m.entries)) for m in maps)
    return cols, tuple(zip(*cols))


def _jj_pair_defects(mp: JJMatchedPair):
    G, H = mp.G, mp.H
    f = G.field
    ng, nh = G.dim, H.dim
    rho, rho_at = _columns(mp.rho)
    mu, mu_at = _columns(mp.mu)
    g_right, h_right = _right_columns(G), _right_columns(H)
    # eqt1: rho(x)(ab) + rho(x)a.b + a.rho(x)b + rho(mu(a)x)b + rho(mu(b)x)a = 0
    for i in range(ng):
        for a in range(nh):
            for b in range(a, nh):
                d = combination(f, nh, (
                    (H.c[a][b], rho[i]), (rho[i][a], h_right[b]), (rho[i][b], H.c[a]),
                    (mu[a][i], rho_at[b]), (mu[b][i], rho_at[a])))
                yield (i, a, b), d, "eqt1"
    # eqt2: mu(a)(xy) + mu(a)x.y + x.mu(a)y + mu(rho(x)a)y + mu(rho(y)a)x = 0
    for a in range(nh):
        for i in range(ng):
            for j in range(i, ng):
                d = combination(f, ng, (
                    (G.c[i][j], mu[a]), (mu[a][i], g_right[j]), (mu[a][j], G.c[i]),
                    (rho[i][a], mu_at[j]), (rho[j][a], mu_at[i])))
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
    la, la_at = _columns(mp.la)
    ra, ra_at = _columns(mp.ra)
    lb, lb_at = _columns(mp.lb)
    rb, rb_at = _columns(mp.rb)
    a_right, b_right = _right_columns(A), _right_columns(B)
    # eqq1: rA(x)[a,b] + rA(lB(b)x)a + rA(lB(a)x)b + a(rA(x)b) + b(rA(x)a) = 0
    for i in range(na):
        for a in range(nb):
            for b in range(a, nb):
                d = combination(f, nb, (
                    (B.c[a][b], ra[i]), (B.c[b][a], ra[i]), (lb[b][i], ra_at[a]),
                    (lb[a][i], ra_at[b]), (ra[i][b], B.c[a]), (ra[i][a], B.c[b])))
                yield (i, a, b), d, "eqq1"
    # eqq2: lA(x)(ab) + lA(lB(a)x + rB(a)x)b + (lA(x)a + rA(x)a).b
    #       + rA(rB(b)x)a + a.(lA(x)b) = 0
    for i in range(na):
        for a in range(nb):
            for b in range(nb):
                d = combination(f, nb, (
                    (B.c[a][b], la[i]), (lb[a][i], la_at[b]), (rb[a][i], la_at[b]),
                    (la[i][a], b_right[b]), (ra[i][a], b_right[b]),
                    (rb[b][i], ra_at[a]), (la[i][b], B.c[a])))
                yield (i, a, b), d, "eqq2"
    # eqq3: rB(a)[x,y] + rB(lA(y)a)x + rB(lA(x)a)y + x(rB(a)y) + y(rB(a)x) = 0
    for a in range(nb):
        for i in range(na):
            for j in range(i, na):
                d = combination(f, na, (
                    (A.c[i][j], rb[a]), (A.c[j][i], rb[a]), (la[j][a], rb_at[i]),
                    (la[i][a], rb_at[j]), (rb[a][j], A.c[i]), (rb[a][i], A.c[j])))
                yield (a, i, j), d, "eqq3"
    # eqq4: lB(a)(xy) + lB(lA(x)a)y + lB(rA(x)a)y + (lB(a)x)y + (rB(a)x)y
    #       + x(lB(a)y) + rB(rA(y)a)x = 0
    for a in range(nb):
        for i in range(na):
            for j in range(na):
                d = combination(f, na, (
                    (A.c[i][j], lb[a]), (la[i][a], lb_at[j]), (ra[i][a], lb_at[j]),
                    (lb[a][i], a_right[j]), (rb[a][i], a_right[j]),
                    (lb[a][j], A.c[i]), (ra[j][a], rb_at[i])))
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

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

Exchanging the two algebras and their actions maps each equation onto its
partner, so only eqt1, eqq1 and eqq2 are transcribed: eqt2 is eqt1 run on
(H, G, mu, rho), and eqq3 and eqq4 are eqq1 and eqq2 run on (B, A, lB, rB,
lA, rA).

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


def _eqt(H: Algebra, rho, rho_at, mu, tag: str):
    # eqt1 of (G, H, rho, mu), the maps as ``_columns``; run on the exchanged
    # pair (H, G, mu, rho) it is eqt2
    nh, h_right = H.dim, _right_columns(H)
    # rho(x)(ab) + rho(x)a.b + a.rho(x)b + rho(mu(a)x)b + rho(mu(b)x)a = 0
    for i in range(len(rho)):
        for a in range(nh):
            for b in range(a, nh):
                d = combination(H.field, nh, (
                    (H.c[a][b], rho[i]), (rho[i][a], h_right[b]), (rho[i][b], H.c[a]),
                    (mu[a][i], rho_at[b]), (mu[b][i], rho_at[a])))
                yield (i, a, b), d, tag


def _jj_pair_defects(mp: JJMatchedPair):
    (rho, rho_at), (mu, mu_at) = _columns(mp.rho), _columns(mp.mu)
    yield from _eqt(mp.H, rho, rho_at, mu, "eqt1")
    yield from _eqt(mp.G, mu, mu_at, rho, "eqt2")


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


def _eqq(B: Algebra, la, la_at, ra, ra_at, lb, rb, tags):
    # eqq1 and eqq2 of (A, B, lA, rA, lB, rB), the maps as ``_columns``; run
    # on the exchanged pair (B, A, lB, rB, lA, rA) they are eqq3 and eqq4
    f, nb, b_right = B.field, B.dim, _right_columns(B)
    # rA(x)[a,b] + rA(lB(b)x)a + rA(lB(a)x)b + a(rA(x)b) + b(rA(x)a) = 0
    for i in range(len(la)):
        for a in range(nb):
            for b in range(a, nb):
                d = combination(f, nb, (
                    (B.c[a][b], ra[i]), (B.c[b][a], ra[i]), (lb[b][i], ra_at[a]),
                    (lb[a][i], ra_at[b]), (ra[i][b], B.c[a]), (ra[i][a], B.c[b])))
                yield (i, a, b), d, tags[0]
    # lA(x)(ab) + lA(lB(a)x + rB(a)x)b + (lA(x)a + rA(x)a).b
    # + rA(rB(b)x)a + a.(lA(x)b) = 0
    for i in range(len(la)):
        for a in range(nb):
            for b in range(nb):
                d = combination(f, nb, (
                    (B.c[a][b], la[i]), (lb[a][i], la_at[b]), (rb[a][i], la_at[b]),
                    (la[i][a], b_right[b]), (ra[i][a], b_right[b]),
                    (rb[b][i], ra_at[a]), (la[i][b], B.c[a])))
                yield (i, a, b), d, tags[1]


def _prejj_pair_defects(mp: PreJJMatchedPair):
    (la, la_at), (ra, ra_at) = _columns(mp.la), _columns(mp.ra)
    (lb, lb_at), (rb, rb_at) = _columns(mp.lb), _columns(mp.rb)
    yield from _eqq(mp.B, la, la_at, ra, ra_at, lb, rb, ("eqq1", "eqq2"))
    yield from _eqq(mp.A, lb, lb_at, rb, rb_at, la, ra, ("eqq3", "eqq4"))


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

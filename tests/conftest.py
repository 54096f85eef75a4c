"""Shared fixtures: reference algebras, censuses, random generators."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from mocklie.algebra import algebra_from_tuple
from mocklie.catalog import class_algebras
from mocklie.classify import enumerate_solutions
from mocklie.errors import PreconditionError
from mocklie.fields import QQ, prime_field
from mocklie.linalg import LinearMap
from mocklie.reps import JJRep, PreJJBimodule, dual_bimodule, dual_rep

GF2 = prime_field(2)
GF3 = prime_field(3)
GF5 = prime_field(5)


@pytest.fixture(scope="session")
def classes_qq():
    return class_algebras(QQ)


@pytest.fixture(scope="session")
def classes_f5():
    return class_algebras(GF5)


@pytest.fixture(scope="session")
def f5_prejj_algebras():
    sols = enumerate_solutions(2, GF5, "left_pre_jj")
    return tuple(algebra_from_tuple(GF5, 2, s) for s in sols)


@pytest.fixture(scope="session")
def f5_anti_solutions():
    return tuple(enumerate_solutions(2, GF5, "antiassociative"))


def outcome(thunk):
    """Map a checker call to a plain bool; precondition errors count as fail."""
    try:
        return thunk().passed
    except PreconditionError:
        return False


def rand_matrix(rng, field, n, m=None):
    m = n if m is None else m
    p = field.p
    return LinearMap(
        field, tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(n))
    )


def rand_table_algebra(rng, field, n):
    """A random dim-n algebra, about a third of its constants zero; over QQ
    some of the others are fractions."""
    def constant():
        if rng.randrange(3) == 0:
            return 0
        if field.characteristic:
            return rng.randrange(1, field.p)
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    return algebra_from_tuple(field, n, [constant() for _ in range(n ** 3)])


def rand_invertible(rng, field, n):
    while True:
        mat = rand_matrix(rng, field, n)
        if mat.is_invertible():
            return mat


def conjugate_maps(maps, phi):
    phi_inv = phi.inverse()
    return tuple(phi.mul(m).mul(phi_inv) for m in maps)


def random_valid_bimodule(rng, alg, module_dim=2):
    """A bimodule of ``alg`` known valid by construction (zero/regular/dual,
    conjugated by a random invertible map)."""
    choice = rng.randrange(4)
    if choice == 0:
        return PreJJBimodule.zero(alg, module_dim)
    assert module_dim == alg.dim
    base = PreJJBimodule.regular(alg)
    if choice >= 2:
        base = dual_bimodule(base)
    phi = rand_invertible(rng, alg.field, module_dim)
    return PreJJBimodule(
        alg, conjugate_maps(base.left, phi), conjugate_maps(base.right, phi)
    )


def random_valid_rep(rng, alg, module_dim=2):
    """A representation of a JJ algebra, valid by construction."""
    choice = rng.randrange(4)
    if choice == 0:
        return JJRep.zero(alg, module_dim)
    assert module_dim == alg.dim
    base = JJRep.adjoint(alg)
    if choice >= 2:
        base = dual_rep(base)
    phi = rand_invertible(rng, alg.field, module_dim)
    return JJRep(alg, conjugate_maps(base.maps, phi))


def random_candidate_bimodule(rng, alg, module_dim=2):
    maps = lambda: tuple(rand_matrix(rng, alg.field, module_dim) for _ in range(alg.dim))
    return PreJJBimodule(alg, maps(), maps())


def brute_force_antiassociative(p):
    """Independent oracle: all dim-2 antiassociative tuples over GF(p).

    Plain integer arithmetic on flat tuples, no library code in the loop.
    """
    sols = []
    for c in itertools.product(range(p), repeat=8):
        def prod(i, j):
            base = (i * 2 + j) * 2
            return c[base], c[base + 1]

        def times_basis(v, k):
            return tuple(
                (v[0] * prod(0, k)[t] + v[1] * prod(1, k)[t]) % p for t in (0, 1)
            )

        def basis_times(i, v):
            return tuple(
                (v[0] * prod(i, 0)[t] + v[1] * prod(i, 1)[t]) % p for t in (0, 1)
            )

        ok = True
        for i, j, k in itertools.product(range(2), repeat=3):
            left = times_basis(prod(i, j), k)
            right = basis_times(i, prod(j, k))
            if ((left[0] + right[0]) % p) or ((left[1] + right[1]) % p):
                ok = False
                break
        if ok:
            sols.append(c)
    return sols


@functools.lru_cache(maxsize=None)
def gl_matrices(p, n):
    """GL oracle: all invertible n x n matrices over GF(p), as flat row-major
    tuples in ``itertools.product`` order.

    A matrix is kept when its Leibniz determinant is nonzero mod p; no
    library elimination is involved.
    """
    signed = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        signed.append(((-1) ** inversions, [r * n + perm[r] for r in range(n)]))

    def det(flat):
        total = 0
        for sign, cells in signed:
            term = sign
            for cell in cells:
                term *= flat[cell]
            total += term
        return total % p

    return tuple(flat for flat in itertools.product(range(p), repeat=n * n)
                 if det(flat))


def seeded(n=0):
    return random.Random(987123 + n)

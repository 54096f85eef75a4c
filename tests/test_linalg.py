import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GF5, rand_invertible, rand_matrix, seeded
from mocklie.errors import ShapeError
from mocklie.fields import QQ
from mocklie.linalg import LinearMap


def test_apply_and_mul_agree():
    m = LinearMap.from_rows(QQ, [[1, 2], [3, 4]])
    n = LinearMap.from_rows(QQ, [[0, 1], [1, 0]])
    assert m.mul(n).apply((QQ.one, QQ.zero)) == m.apply(n.apply((QQ.one, QQ.zero)))


def test_identity_and_zeros():
    identity = LinearMap.identity(GF5, 3)
    z = LinearMap.zeros(GF5, 3, 3)
    assert identity.mul(identity) == identity
    assert identity.add(z) == identity
    assert z.is_zero()


def test_transpose_involution():
    rng = seeded(3)
    m = rand_matrix(rng, GF5, 3, 4)
    assert m.transpose().transpose() == m
    assert m.transpose().rows == 4


def test_inverse_round_trip_prime_field():
    rng = seeded(4)
    for _ in range(25):
        m = rand_invertible(rng, GF5, 3)
        assert m.mul(m.inverse()) == LinearMap.identity(GF5, 3)


def test_inverse_round_trip_rationals():
    m = LinearMap.from_rows(QQ, [[2, 1], [7, 4]])
    assert m.mul(m.inverse()) == LinearMap.identity(QQ, 2)


def test_singular_matrix_rejected():
    m = LinearMap.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.det() == QQ.zero
    with pytest.raises(ShapeError):
        m.inverse()


def test_det_values():
    assert LinearMap.from_rows(QQ, [[0, 1], [1, 0]]).det() == QQ.of(-1)
    assert LinearMap.from_rows(QQ, [[3, 0], [0, 5]]).det() == QQ.of(15)


def test_shape_errors():
    m = LinearMap.from_rows(QQ, [[1, 2]])
    with pytest.raises(ShapeError):
        m.mul(m)
    with pytest.raises(ShapeError):
        m.apply((QQ.one,))
    with pytest.raises(ShapeError):
        LinearMap.from_rows(QQ, [[1, 2], [1]])


def leibniz_det(field, rows):
    n = len(rows)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = field.one if inversions % 2 == 0 else field.neg(field.one)
        for r, c in enumerate(perm):
            term = field.mul(term, rows[r][c])
        total = field.add(total, term)
    return total


@st.composite
def square_matrices(draw):
    field = draw(st.sampled_from([QQ, GF5]))
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        rows[-1] = rows[0]  # repeated row: singular
    return LinearMap.from_rows(field, rows)


@settings(max_examples=300, deadline=None)
@given(m=square_matrices())
def test_elimination_matches_leibniz(m):
    det = m.det()
    assert det == leibniz_det(m.field, m.entries)
    assert m.is_invertible() == (det != m.field.zero)
    if det != m.field.zero:
        identity = LinearMap.identity(m.field, m.rows)
        assert m.mul(m.inverse()) == identity
        assert m.inverse().mul(m) == identity
    else:
        with pytest.raises(ShapeError):
            m.inverse()

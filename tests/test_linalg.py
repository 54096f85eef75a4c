import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GF2, GF5, rand_invertible, rand_matrix, seeded
from mocklie.algebra import Algebra
from mocklie.errors import ShapeError
from mocklie.fields import QQ, prime_field
from mocklie.linalg import LinearMap, basis_vector, combination


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


def test_basis_vector_refuses_an_index_outside_the_dimension():
    assert basis_vector(GF5, 3, 2) == (0, 0, 1)
    assert Algebra.zero(QQ, 2).basis(1) == (0, 1)
    for i in (5, 2, -1):
        with pytest.raises(ShapeError, match=f"basis index {i} out of range for dim 2"):
            Algebra.zero(QQ, 2).basis(i)


def test_column_refuses_an_index_outside_the_columns():
    m = LinearMap.from_rows(QQ, [[1, 2], [3, 4]])
    assert m.column(1) == (2, 4)
    for j in (-1, 2):
        with pytest.raises(ShapeError, match=f"column index {j} out of range for 2 columns"):
            m.column(j)


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
    # an integral inverse holds ints, not integral Fractions
    inverse = LinearMap.from_rows(QQ, [[2, 1], [1, 1]]).inverse()
    assert inverse.entries == ((1, -1), (-1, 2))
    assert all(type(x) is int for row in inverse.entries for x in row)


@pytest.mark.parametrize("field", [GF2, GF5, prime_field(7), QQ], ids=repr)
def test_combination_matches_field_arithmetic(field):
    # reference: one field.add(out, field.mul(c, x)) per term, zeros included
    def reference(size, terms):
        out = [field.zero] * size
        for coeffs, vectors in terms:
            for ck, vec in zip(coeffs, vectors):
                for t, x in enumerate(vec):
                    out[t] = field.add(out[t], field.mul(ck, x))
        return tuple(out)

    rng = seeded(26)

    def scalar():
        if field is QQ:   # negative ints, Fractions and zeros
            return QQ.of(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))))
        return rng.choice((0, rng.randrange(field.p)))

    for _ in range(200):
        size, count = rng.randint(1, 5), rng.randint(0, 4)
        terms = [(tuple(scalar() for _ in range(count)),
                  tuple(tuple(scalar() for _ in range(size)) for _ in range(count)))
                 for _ in range(rng.randint(0, 3))]
        out = combination(field, size, terms)
        assert out == reference(size, terms)
        if field is not QQ:
            assert all(type(x) is int and 0 <= x < field.p for x in out)


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

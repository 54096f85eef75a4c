"""Dense exact vectors and matrices over a single field.

Vectors are plain tuples of field elements; ``LinearMap`` is an immutable
dense matrix acting on coordinate vectors by ``apply``.  Everything is exact:
``det``, ``inverse`` and ``is_invertible`` share one Gauss-Jordan
elimination in the ambient field.

``combination`` is the one linear-combination loop: ``LinearMap.apply``
and ``mul``, ``product``, ``left_mult`` and the identity generators in ``algebra``, the
matched-pair equations in ``matched``, the linear part of
``reps._flat_sum`` and the isomorphism test in ``classify`` all sum
coefficients times vectors through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ShapeError
from .fields import Field, require_same_field

Vector = tuple


def vec_zero(field: Field, n: int) -> Vector:
    return (field.zero,) * n


def vec_add(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v, strict=True))


def vec_sub(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v, strict=True))


def vec_scale(field: Field, s, u: Vector) -> Vector:
    return tuple(field.mul(s, a) for a in u)


def vec_is_zero(field: Field, u: Vector) -> bool:
    z = field.zero
    return all(a == z for a in u)


def combination(field: Field, size: int, terms) -> Vector:
    """Sum of coeffs[k] * vectors[k] over every ``(coeffs, vectors)`` pair.

    Each vector has ``size`` entries.  Zero coefficients and zero entries
    are skipped, and only ``zero``, ``add``, ``mul`` and comparison with
    ``zero`` are used, so ``classify._Polynomials`` works as a field too.
    """
    add, mul, zero = field.add, field.mul, field.zero
    out = [zero] * size
    for coeffs, vectors in terms:
        for ck, vec in zip(coeffs, vectors):
            if ck != zero:
                for t, x in enumerate(vec):
                    if x != zero:
                        out[t] = add(out[t], mul(ck, x))
    return tuple(out)


def basis_vector(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one if k == i else field.zero for k in range(n))


@dataclass(frozen=True)
class LinearMap:
    """Dense ``rows x cols`` matrix of exact scalars.

    ``entries[r][c]`` is the coefficient in row ``r``, column ``c``;
    ``apply(v)`` computes the usual matrix-vector product.
    """

    field: Field
    entries: tuple[tuple, ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ShapeError("ragged matrix rows")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable]) -> "LinearMap":
        return cls(field, tuple(tuple(field.of(x) for x in row) for row in rows))

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "LinearMap":
        return cls(field, tuple((field.zero,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "LinearMap":
        return cls(
            field,
            tuple(
                tuple(field.one if i == j else field.zero for j in range(n))
                for i in range(n)
            ),
        )

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} map to "
                             f"vector of length {len(v)}")
        return combination(self.field, self.rows, ((v, zip(*self.entries)),))

    def add(self, other: "LinearMap") -> "LinearMap":
        self._check_same_shape(other)
        f = self.field
        return LinearMap(
            f,
            tuple(
                tuple(f.add(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def sub(self, other: "LinearMap") -> "LinearMap":
        return self.add(other.neg())

    def neg(self) -> "LinearMap":
        f = self.field
        return LinearMap(f, tuple(tuple(f.neg(a) for a in row) for row in self.entries))

    def scale(self, s) -> "LinearMap":
        f = self.field
        return LinearMap(f, tuple(tuple(f.mul(s, a) for a in row) for row in self.entries))

    def mul(self, other: "LinearMap") -> "LinearMap":
        require_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # row r of the product combines the rows of ``other``
        return LinearMap(self.field, tuple(
            combination(self.field, other.cols, ((row, other.entries),))
            for row in self.entries))

    def transpose(self) -> "LinearMap":
        return LinearMap(self.field, tuple(zip(*self.entries))) if self.entries else self

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def det(self):
        """Determinant (square matrices only)."""
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        return self._gauss_jordan()[0]

    def inverse(self) -> "LinearMap":
        """Exact inverse; raises ``ShapeError`` on singular input."""
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        inverse = self._gauss_jordan()[1]
        if inverse is None:
            raise ShapeError("matrix is singular")
        return LinearMap(self.field, inverse)

    def is_invertible(self) -> bool:
        return self.is_square() and self._gauss_jordan()[1] is not None

    def _gauss_jordan(self) -> tuple:
        """(determinant, rows of the inverse) of a square matrix, by
        Gauss-Jordan elimination; the rows are None when it is singular."""
        f = self.field
        n = self.rows
        m = [list(row) for row in self.entries]
        aug = [
            [f.one if i == j else f.zero for j in range(n)] for i in range(n)
        ]
        det = f.one
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != f.zero), None)
            if pivot is None:
                return f.zero, None
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                aug[col], aug[pivot] = aug[pivot], aug[col]
                det = f.neg(det)
            det = f.mul(det, m[col][col])
            inv = f.inv(m[col][col])
            m[col] = [f.mul(inv, x) for x in m[col]]
            aug[col] = [f.mul(inv, x) for x in aug[col]]
            for r in range(n):
                if r == col or m[r][col] == f.zero:
                    continue
                factor = m[r][col]
                m[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[r], m[col])]
                aug[r] = [f.sub(x, f.mul(factor, y)) for x, y in zip(aug[r], aug[col])]
        return det, tuple(tuple(row) for row in aug)

    def _check_same_shape(self, other: "LinearMap") -> None:
        require_same_field(self.field, other.field)
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

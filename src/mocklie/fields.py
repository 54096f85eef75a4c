"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Every computation in this package happens over one of these two fields; there
is no floating point anywhere.  Scalars are stored raw: an ``int`` in
``[0, p)`` for a prime field; for the rationals, an ``int`` when ``of``,
``parse`` or ``inv`` finds the value integral and a ``Fraction`` otherwise.
Arithmetic results are not re-normalised; an integral ``Fraction`` is still
exact, and equals and hashes as its ``int``; ``zero`` and ``one`` are the
ints 0 and 1 in both fields.  The field object owns the arithmetic and the
reduction, so hot loops pay no per-element wrapper cost, or sum natively
and ``reduce`` once.  All values in one computation share a single field
descriptor; mixing fields is an error.

String forms: rationals render as ``"a"`` or ``"a/b"``; prime-field elements
render as ``"k mod p"`` (plain ``"k"``, and ``"a/b"`` with b invertible mod p,
are accepted on input).  Unparsable text raises ``FieldError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldError, MixedFieldError

__all__ = [
    "Field",
    "RationalField",
    "PrimeField",
    "QQ",
    "prime_field",
    "SMALL_CHARACTERISTIC_WARNING",
]

# Attached to every CheckReport computed over a field of characteristic 2 or 3,
# where the standing hypotheses (characteristic != 2, 3) do not apply.
SMALL_CHARACTERISTIC_WARNING = (
    "characteristic 2/3 outside the supported hypotheses "
    "(characteristic != 2,3); results are exploratory"
)


# Miller-Rabin with the first 13 prime bases decides primality exactly below
# psi_13 (Sorenson and Webster, 2015); psi_13 itself passes all 13 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p >= _MR_LIMIT:
        raise FieldError(f"modulus too large: primality is decided exactly "
                         f"only below {_MR_LIMIT}")
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # p passes base a when a^d = 1 or a^(d 2^r) = -1 (mod p) for some r < s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in _MR_BASES)


@dataclass(frozen=True)
class RationalField:
    """The field of arbitrary-precision rationals (characteristic 0)."""

    characteristic = 0
    zero = 0
    one = 1

    def of(self, value):
        """Coerce an int, Fraction or string into a rational: an ``int`` when
        it is integral, a ``Fraction`` otherwise."""
        if isinstance(value, str):
            return self.parse(value)
        if not isinstance(value, (int, Fraction)):
            raise FieldError(f"cannot coerce {value!r} into the rational field")
        return int(value) if value.denominator == 1 else value

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.of(Fraction(1, a))

    def reduce(self, values) -> tuple:
        """Sums of products of scalars, as a tuple of scalars."""
        return tuple(values)

    def parse(self, text: str):
        return self.of(Fraction(*_parse_ratio(text, self)))

    def render(self, a) -> str:
        try:
            if a.denominator == 1:
                return str(a.numerator)
            return f"{a.numerator}/{a.denominator}"
        except ValueError:
            # str() refuses integers past the interpreter's digit limit
            raise FieldError("scalar has too many digits to render") from None

    def __repr__(self):
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime ``p``.

    Construction rejects non-prime moduli, so inversion is always defined for
    nonzero elements.
    """

    p: int
    zero = 0
    one = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise FieldError(f"modulus {self.p} is not prime")

    @property
    def characteristic(self) -> int:
        return self.p

    def of(self, value) -> int:
        if isinstance(value, bool):
            raise FieldError(f"cannot coerce {value!r} into GF({self.p})")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self._ratio(value.numerator, value.denominator)
        if isinstance(value, str):
            return self.parse(value)
        raise FieldError(f"cannot coerce {value!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, -1, self.p)

    def reduce(self, values) -> tuple:
        """Integer sums of products of scalars, as a tuple of scalars."""
        return tuple([x % self.p for x in values])

    def parse(self, text: str) -> int:
        text = text.strip()
        value, mod, modulus = text.partition("mod")
        if mod and _parse_ratio(modulus, self) != (self.p, 1):
            raise MixedFieldError(
                f"scalar {text!r} declares modulus {modulus.strip()}, "
                f"field is GF({self.p})"
            )
        return self._ratio(*_parse_ratio(value, self))

    def _ratio(self, num: int, den: int) -> int:
        if den % self.p == 0:
            raise FieldError(f"denominator of {num}/{den} is not invertible mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def render(self, a) -> str:
        return f"{a % self.p} mod {self.p}"

    def __repr__(self):
        return f"GF({self.p})"


Field = RationalField | PrimeField

QQ = RationalField()


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def _parse_ratio(text: str, field: Field) -> tuple[int, int]:
    """``"a"`` or ``"a/b"`` as the integer pair (a, b), b nonzero."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        ratio = int(num), int(den) if slash else 1
    except ValueError:
        ratio = 0, 0
    if ratio[1] == 0:
        raise FieldError(f"cannot parse {text!r} as a scalar of {field!r}")
    return ratio


def require_same_field(f1: Field, f2: Field) -> None:
    if f1 != f2:
        raise MixedFieldError(f"mixed fields: {f1!r} and {f2!r}")


def characteristic_warnings(field: Field) -> tuple[str, ...]:
    """Warnings attached to reports computed over this field."""
    if field.characteristic in (2, 3):
        return (SMALL_CHARACTERISTIC_WARNING,)
    return ()

import math
import time
from fractions import Fraction

import pytest

from conftest import GF2, GF3, GF5, seeded
from mocklie.errors import FieldError, MixedFieldError
from mocklie.fields import (
    QQ,
    PrimeField,
    _is_prime,
    prime_field,
    characteristic_warnings,
)


def test_normalize_gcd_reduction():
    assert QQ.parse("2/4") == Fraction(1, 2)


def test_normalize_sign_carried_by_numerator():
    r = QQ.parse("3/-6")
    assert r == Fraction(-1, 2)
    assert r.numerator == -1 and r.denominator == 2


def test_normalize_zero():
    r = QQ.parse("0/7")
    assert r.numerator == 0 and r.denominator == 1


def test_normalize_zero_denominator_rejected():
    with pytest.raises(FieldError):
        QQ.parse("1/0")


def test_field_inverse_rational():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_field_inverse_mod_5():
    assert GF5.inv(2) == 3


@pytest.mark.parametrize("field", [QQ, GF5])
def test_field_inverse_of_zero_rejected(field):
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero)


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15])
def test_non_prime_moduli_rejected(p):
    with pytest.raises(FieldError):
        prime_field(p)


PSI_13 = 3_317_044_064_679_887_385_961_981


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _strong_probable_prime(n, a):
    # n - 1 = d * 2^s with d odd; n passes base a when a^d = 1 or some
    # a^(d 2^r) = -1 (mod n), r < s
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def test_primality_agrees_with_trial_division_below_1e5():
    assert [n for n in range(-3, 10 ** 5) if _is_prime(n)] == \
        [n for n in range(-3, 10 ** 5) if _trial_division(n)]


def test_large_prime_modulus_is_fast():
    # trial division up to the square root would take hours here
    start = time.perf_counter()
    field = PrimeField(10 ** 24 + 7)
    assert time.perf_counter() - start < 0.01
    assert field.mul(field.inv(3), 3) == 1


def test_strong_pseudoprime_to_small_bases_rejected():
    n = 3_215_031_751  # = 151 * 751 * 28351
    assert n == 151 * 751 * 28351
    assert all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7))
    assert not _is_prime(n)
    with pytest.raises(FieldError, match="not prime"):
        PrimeField(n)


def test_moduli_from_psi_13_up_are_refused():
    # psi_13 passes Miller-Rabin for all 13 prime bases up to 41, and base
    # 43 shows it composite: the bases decide primality only below it
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    assert all(_strong_probable_prime(PSI_13, a) for a in bases)
    assert not _strong_probable_prime(PSI_13, 43)
    for p in (PSI_13, PSI_13 + 2, 10 ** 30):
        with pytest.raises(FieldError, match="too large"):
            PrimeField(p)


def test_prime_field_constructions_agree():
    assert prime_field(5) == PrimeField(5)
    assert prime_field(5) != prime_field(7)


def _random_scalars(field, rng, count):
    if field is QQ:
        return [
            Fraction(rng.randrange(-40, 41), rng.randrange(1, 20))
            for _ in range(count)
        ]
    return [rng.randrange(field.p) for _ in range(count)]


@pytest.mark.parametrize("field", [QQ, GF5, prime_field(7)])
def test_field_axioms_on_random_triples(field):
    rng = seeded(1)
    for _ in range(200):
        a, b, c = _random_scalars(field, rng, 3)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one


@pytest.mark.parametrize("field", [QQ, GF5, prime_field(11)])
def test_parse_render_round_trip(field):
    rng = seeded(2)
    for s in _random_scalars(field, rng, 100):
        assert field.parse(field.render(s)) == s


def test_rational_render_forms():
    assert QQ.render(Fraction(-3, 2)) == "-3/2"
    assert QQ.render(Fraction(4)) == "4"
    assert QQ.parse(" -3/2 ") == Fraction(-3, 2)


def test_prime_render_and_bare_parse():
    assert GF5.render(7) == "2 mod 5"
    assert GF5.parse("2 mod 5") == 2
    assert GF5.parse("12") == 2


def test_prime_parse_rejects_foreign_modulus():
    with pytest.raises(MixedFieldError):
        GF5.parse("3 mod 7")


def test_prime_coercion_of_fractions():
    assert GF5.of(Fraction(1, 2)) == 3
    with pytest.raises(FieldError):
        GF5.of(Fraction(1, 5))


def test_integral_rationals_are_ints():
    for value in (QQ.of(Fraction(6, 3)), QQ.parse("-8/4"), QQ.of("3"), QQ.inv(QQ.of(-1)),
                  QQ.inv(Fraction(1, 3)), QQ.of(True), QQ.zero, QQ.one):
        assert type(value) is int
    assert QQ.of(True) == 1
    assert type(QQ.of("1/2")) is Fraction
    assert QQ.inv(QQ.of(2)) == Fraction(1, 2)


def test_characteristic_warnings_only_for_2_and_3():
    assert characteristic_warnings(GF2)
    assert characteristic_warnings(GF3)
    assert not characteristic_warnings(GF5)
    assert not characteristic_warnings(QQ)

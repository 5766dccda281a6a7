import time
from fractions import Fraction

import pytest

from bigraded.rings import (
    PRIME_BOUND,
    ZZ,
    QQ,
    GF,
    BadParameter,
    RingSpec,
    _is_prime,
    ring_from_name,
)


def test_basic_arithmetic():
    assert ZZ.add(2, 3) == 5
    assert QQ.mul(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)
    F5 = GF(5)
    assert F5.add(3, 4) == 2
    assert F5.mul(2, 3) == 1
    assert F5.inv(2) == 3
    assert F5.neg(1) == 4


def test_field_flags():
    assert not ZZ.is_field
    assert QQ.is_field
    assert GF(7).is_field
    assert ZZ.char == 0 and QQ.char == 0 and GF(7).char == 7


def test_nonprime_modulus_rejected():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    for n in (4, 1, 561, 3215031751, 2**61 + 1):
        with pytest.raises(BadParameter):
            GF(n)
    with pytest.raises(BadParameter):
        RingSpec("X")


def test_ring_from_name():
    assert ring_from_name("Z") == ZZ
    assert ring_from_name("Q") == QQ
    assert ring_from_name("F3") == GF(3)
    assert ring_from_name("GF(11)") == GF(11)
    with pytest.raises(BadParameter):
        ring_from_name("R")


def test_scalar_text_round_trip():
    assert QQ.parse_scalar(QQ.format_scalar(Fraction(-7, 3))) == Fraction(-7, 3)
    assert ZZ.parse_scalar("-12") == -12
    assert GF(3).parse_scalar("5") == 2
    with pytest.raises(BadParameter):
        ZZ.parse_scalar("1/2")


# int() reads these too: digit separators, a plus sign, spaces, and
# digits of other scripts ("\u0663" is the Arabic-Indic three)
NOT_DECIMAL = ["1_000", "\u0663", "+5", " 7 ", "7\n", "", "-", "1/-2", "1/+2", "1/ 2", "1/2/3"]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=str)
def test_scalar_text_is_ascii_decimal(ring):
    for text in NOT_DECIMAL:
        with pytest.raises(BadParameter):
            ring.parse_scalar(text)
    assert ring.parse_scalar("-0") == 0
    assert ring.parse_scalar("-10") == ring.normalize(-10)
    assert ring.parse_scalar("0012") == ring.normalize(12)
    with pytest.raises(BadParameter, match="zero denominator" if ring == QQ else "fraction"):
        ring.parse_scalar("1/0")


def test_rational_scalar_text():
    assert QQ.parse_scalar("-6/4") == Fraction(-3, 2)
    assert QQ.parse_scalar("0/7") == 0
    for ring in (ZZ, GF(5)):
        with pytest.raises(BadParameter, match="fraction"):
            ring.parse_scalar("6/4")


def test_normalize():
    assert GF(3).normalize(-1) == 2
    assert QQ.normalize(2) == Fraction(2)
    assert ZZ.from_int(-4) == -4


def test_large_primes_construct_quickly():
    for p in (10**15 + 37, 2**61 - 1, 4294967311):
        t0 = time.perf_counter()
        assert GF(p).p == p
        assert time.perf_counter() - t0 < 0.1


def test_primality_agrees_with_sympy():
    import sympy

    for n in list(range(-3, 2000)) + list(range(10**12, 10**12 + 500)):
        assert _is_prime(n) == sympy.isprime(n), n


def test_primality_certified_up_to_bound():
    import sympy

    below = sympy.prevprime(PRIME_BOUND)
    assert GF(below).p == below
    # PRIME_BOUND is the least strong pseudoprime to all 13 bases, so it
    # and everything above it is refused rather than guessed
    for n in (PRIME_BOUND, sympy.nextprime(PRIME_BOUND)):
        with pytest.raises(BadParameter):
            GF(n)

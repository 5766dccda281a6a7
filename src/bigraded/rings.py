"""Exact coefficient rings: the integers, the rationals, and prime fields.

Scalars are plain Python objects: ``int`` for Z and F_p (normalized to
0..p-1), ``fractions.Fraction`` for Q.  A :class:`RingSpec` bundles the
arithmetic so matrices can stay ring-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class UnsupportedRing(Exception):
    """Raised when an operation needs a ring it does not support."""


class BadParameter(ValueError):
    """Raised on invalid constructor parameters."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the first 13 primes as bases has no strong
# pseudoprime below this bound (Sorenson and Webster, 2017).
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < PRIME_BOUND; larger p
    is refused rather than guessed."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= PRIME_BOUND:
        raise BadParameter(
            f"{p} is too large to certify as prime (bound {PRIME_BOUND})"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """One of Z, Q, or F_p (p prime).

    kind is "Z", "Q" or "F"; p is set only for prime fields.
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "F"):
            raise BadParameter(f"unknown ring kind {self.kind!r}")
        if self.kind == "F":
            if self.p is None or not _is_prime(self.p):
                raise BadParameter(f"{self.p} is not prime")
        elif self.p is not None:
            raise BadParameter("p is only meaningful for prime fields")

    # -- predicates ---------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def char(self) -> int:
        return self.p if self.kind == "F" else 0

    # -- arithmetic ---------------------------------------------------

    def normalize(self, x):
        if self.kind == "F":
            return int(x) % self.p
        if self.kind == "Q":
            return Fraction(x)
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise BadParameter(f"{x} is not an integer")
            return int(x)
        return int(x)

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "F" else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "F" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "F" else -a

    def inv(self, a):
        if self.kind == "F":
            return pow(a, self.p - 2, self.p)
        if self.kind == "Q":
            return 1 / Fraction(a)
        if a in (1, -1):
            return a
        raise UnsupportedRing(f"{a} is not invertible over Z")

    def from_int(self, n: int):
        return self.normalize(n)

    # -- text ----------------------------------------------------------

    def format_scalar(self, x) -> str:
        return str(x)

    def parse_scalar(self, s: str):
        s = s.strip()
        if "/" in s:
            if self.kind != "Q":
                raise BadParameter(f"fraction {s!r} not valid over {self}")
            num, den = s.split("/")
            num, den = int(num), int(den)
            if den == 0:
                raise BadParameter(f"zero denominator in {s!r}")
            return Fraction(num, den)
        return self.normalize(int(s))

    def __str__(self) -> str:
        return f"F{self.p}" if self.kind == "F" else self.kind


ZZ = RingSpec("Z")
QQ = RingSpec("Q")


def GF(p: int) -> RingSpec:
    return RingSpec("F", p)


def ring_from_name(name: str) -> RingSpec:
    name = name.strip()
    if name in ("Z", "ZZ", "int"):
        return ZZ
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        digits = name[3:-1]
    elif name.startswith("F"):
        digits = name[1:]
    else:
        digits = ""
    if not (digits.isascii() and digits.isdigit()):
        raise BadParameter(f"unknown ring {name!r}")
    # longer than any certifiable prime: refused before int() is asked to
    # convert it (int() counts leading zeros toward its limit, so do we)
    if len(digits) > len(str(PRIME_BOUND)):
        raise BadParameter(f"modulus of {len(digits)} digits is too large to certify")
    return GF(int(digits))

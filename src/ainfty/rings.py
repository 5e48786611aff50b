"""Coefficient rings: the integers and prime fields Z/p.

All arithmetic is exact. Coefficients are plain Python ints; a ring object
only knows how to normalize them (identity over Z, reduction mod p over Z/p)
and whether it is a field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPrime, TooLarge

# trial division up to sqrt(p) takes at most about 46 000 steps below this
MAX_PRIME = 2**31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CoefficientRing:
    """Either Z (p is None) or the prime field Z/p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and self.p > MAX_PRIME:
            raise TooLarge(f"modulus {self.p} is above the limit of {MAX_PRIME}")
        if self.p is not None and not _is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    @property
    def is_field(self) -> bool:
        return self.p is not None

    def normalize(self, c: int) -> int:
        return c if self.p is None else c % self.p

    def __str__(self) -> str:
        return "Z" if self.p is None else f"Z/{self.p}"


Z = CoefficientRing()


def Zp(p: int) -> CoefficientRing:
    return CoefficientRing(p)

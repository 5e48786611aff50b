"""Sign-exponent bookkeeping for graded words.

All exponents are integers; callers only ever use their parity. The central
quantity is the sum of reduced indices (degree minus one) over a 1-based
range of algebra-slot degrees.
"""

from __future__ import annotations

from typing import Sequence

from .errors import IndexOutOfRange


def maltese(degrees: Sequence[int], i: int, j: int) -> int:
    """Sum of reduced indices of slots i..j (1-based); empty ranges give 0."""
    if i > j:
        return 0
    if i < 1 or j > len(degrees):
        raise IndexOutOfRange(f"maltese range {i}..{j} on {len(degrees)} degrees")
    return sum(degrees[q] - 1 for q in range(i - 1, j))


def sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1

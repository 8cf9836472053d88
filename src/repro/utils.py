"""Small shared helpers used across the repro library."""

from __future__ import annotations

import itertools
import math
from typing import Hashable, Iterable, Iterator, Sequence, TypeVar

__all__ = [
    "db_to_power",
    "power_to_db",
    "pairs",
    "chunked",
    "stable_unique",
    "clamp",
    "ceil_div",
    "remember",
]

T = TypeVar("T")


def db_to_power(db: float) -> float:
    """Convert a decibel level to linear power (``10**(db/10)``)."""
    return 10.0 ** (db / 10.0)


def power_to_db(power: float, floor_db: float = -400.0) -> float:
    """Convert linear power to decibels.

    Zero or negative powers (possible for an exact implementation whose
    measured error is identically zero) are clamped to ``floor_db``
    instead of raising, so sweeps over very precise specifications do
    not explode.
    """
    if power <= 0.0:
        return floor_db
    return 10.0 * math.log10(power)


def pairs(items: Sequence[T]) -> Iterator[tuple[T, T]]:
    """Yield all unordered pairs of distinct elements of ``items``."""
    return itertools.combinations(items, 2)


def chunked(items: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield successive ``size``-length chunks of ``items``.

    The final chunk may be shorter.  ``size`` must be positive.
    """
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for start in range(0, len(items), size):
        yield items[start:start + size]


def stable_unique(items: Iterable[T]) -> list[T]:
    """Return items de-duplicated while preserving first-seen order."""
    seen: set[T] = set()
    out: list[T] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty clamp interval [{lo}, {hi}]")
    return max(lo, min(hi, value))


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def remember(memo: dict, key: Hashable, value: object, cap: int) -> None:
    """Store ``memo[key] = value``, first emptying a ``memo`` that holds
    ``cap`` entries.

    Unlocked on purpose: the memos sharing this policy hold pure
    answers, so a thread racing the clear can only compute one twice,
    never read a wrong one.
    """
    if len(memo) >= cap:
        memo.clear()
    memo[key] = value

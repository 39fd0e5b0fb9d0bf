"""Deterministic random-number utilities.

All stochastic behaviour in the library (workload synthesis, fault
injection, scheduler tie-breaking, simulated network jitter) flows
through :class:`RngRegistry`, which derives independent, reproducible
streams from a single seed.  Deriving named child streams means adding a
new consumer of randomness never perturbs existing streams — a property
the regression tests rely on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")

DEFAULT_SEED = 20131209  # Middleware 2013 conference date.


def derive_seed(seed: int, name: str) -> int:
    """Derive a child seed from ``seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is salted per-process and unusable here).
    """
    payload = f"{seed}:{name}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class RngRegistry:
    """A registry of named, independent :class:`random.Random` streams."""

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.seed, name))
        return self._streams[name]

    def fork(self, name: str) -> "RngRegistry":
        """Return a new registry whose root seed derives from ``name``.

        Useful to give each replica / node a whole sub-registry.
        """
        return RngRegistry(derive_seed(self.seed, name))


def zipf_sample(rng: random.Random, n: int, alpha: float = 1.2) -> int:
    """Sample an integer in ``[1, n]`` from a truncated Zipf distribution.

    Inverse-CDF sampling over the normalized harmonic weights; O(log n)
    per sample after an O(n) table build that is memoized per ``(n, alpha)``.
    """
    table = _zipf_cdf(n, alpha)
    u = rng.random()
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if table[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo + 1


_ZIPF_CACHE: dict[tuple[int, float], list[float]] = {}


def _zipf_cdf(n: int, alpha: float) -> list[float]:
    key = (n, alpha)
    if key not in _ZIPF_CACHE:
        weights = [1.0 / (k**alpha) for k in range(1, n + 1)]
        total = sum(weights)
        acc = 0.0
        cdf = []
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        _ZIPF_CACHE[key] = cdf
    return _ZIPF_CACHE[key]


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one of ``items`` with the given relative ``weights``."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    u = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if u < acc:
            return item
    return items[-1]


def shuffled(rng: random.Random, items: Sequence[T]) -> list[T]:
    """Return a shuffled copy of ``items`` without mutating the input."""
    copy = list(items)
    rng.shuffle(copy)
    return copy

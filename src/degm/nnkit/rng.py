"""Seeded random streams with stable named sub-streams.

Every source of randomness in the package flows through an :class:`Rng`.
``spawn(key)`` derives a child stream from (seed, key) only, so two runs that
reach the same key with the same base seed see identical draws no matter what
happened in between. That property is what makes per-task training
order-independent and evaluation reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive(seed: int, key: str) -> int:
    digest = hashlib.sha256(f"{seed}/{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1  # keep it positive


class Rng:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, key: str) -> "Rng":
        """Child stream determined by (seed, key) alone."""
        return Rng(_derive(self.seed, key))

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def bernoulli(self, probs: np.ndarray) -> np.ndarray:
        """0/1 float array with P(1) = probs, elementwise."""
        return (self._gen.random(size=np.shape(probs)) < probs).astype(np.float64)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=min(k, n), replace=False)

"""Deterministic named random-number streams.

Every stochastic component (flash latency jitter, workload generators,
access traces) draws from its own named stream derived from the system seed,
so adding a new consumer never perturbs existing ones and every experiment
is exactly reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stable_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer (independent of
    ``PYTHONHASHSEED``)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """Factory of independent, reproducible ``numpy`` generators."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name`` (created on first use)."""
        gen = self._cache.get(name)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_stable_key(name),)
            )
            gen = np.random.Generator(np.random.Philox(seq))
            self._cache[name] = gen
        return gen

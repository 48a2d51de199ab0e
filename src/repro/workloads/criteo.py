"""Synthetic Criteo-1TB-like click trace.

The paper builds its DLRM vocabulary from the first three days of the
Criteo 1TB click logs [12].  That dataset cannot ship with a reproduction,
so this module generates a categorically equivalent trace: 26 categorical
features whose vocabulary sizes span four orders of magnitude (as in
Criteo) and whose per-feature access frequencies follow a Zipf law — the
skew is what drives the cache behaviour the DLRM experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: Criteo has 26 categorical features; these scaled vocabulary sizes keep
#: its characteristic mix of a few huge tables and many tiny ones.
DEFAULT_VOCAB_SIZES = (
    40_000, 28_000, 16_000, 8_000, 6_000, 4_000, 3_000, 2_000,
    1_600, 1_200, 1_000, 800, 600, 500, 400, 300,
    250, 200, 150, 120, 100, 80, 60, 40, 20, 10,
)


@dataclass(frozen=True)
class CriteoTrace:
    """``indices[s, f]`` is the categorical id of feature ``f`` in sample
    ``s``."""

    indices: np.ndarray
    vocab_sizes: tuple[int, ...]

    @property
    def num_samples(self) -> int:
        return int(self.indices.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.indices.shape[1])

    def batch(self, epoch: int, batch_size: int) -> np.ndarray:
        """The samples of one inference epoch (wraps around the trace)."""
        start = (epoch * batch_size) % self.num_samples
        rows = np.arange(start, start + batch_size) % self.num_samples
        return self.indices[rows]


def _zipf_probabilities(vocab: int, a: float) -> np.ndarray:
    ranks = np.arange(1, vocab + 1, dtype=np.float64)
    p = ranks ** (-a)
    return p / p.sum()


def make_criteo_trace(
    num_samples: int,
    vocab_sizes: Optional[Sequence[int]] = None,
    zipf_a: float = 1.05,
    seed: int = 0,
) -> CriteoTrace:
    """Generate a trace of ``num_samples`` clicks.

    ``zipf_a`` controls the skew (Criteo categorical features are strongly
    head-heavy; ~1.05 reproduces the hot-head/long-tail split).  Each
    feature draws from its own permuted Zipf so hot ids of different
    features do not collide on the same embedding pages.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    sizes = tuple(vocab_sizes) if vocab_sizes is not None else DEFAULT_VOCAB_SIZES
    if any(v < 1 for v in sizes):
        raise ValueError("vocabulary sizes must be positive")
    rng = np.random.default_rng(seed)
    columns = []
    for vocab in sizes:
        probs = _zipf_probabilities(vocab, zipf_a)
        ids = rng.choice(vocab, size=num_samples, p=probs)
        # Scatter hot ids across the table (Criteo ids are hash-scattered).
        perm = rng.permutation(vocab)
        columns.append(perm[ids])
    indices = np.stack(columns, axis=1).astype(np.int64)
    return CriteoTrace(indices=indices, vocab_sizes=sizes)

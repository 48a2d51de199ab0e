"""Pluggable software-cache replacement policies.

The paper's flexibility claim (§3.4): users pick a built-in policy or write
their own.  Where the CUDA implementation uses CRTP for compile-time
polymorphism, Python uses plain subclassing of :class:`CachePolicy`; the
contract is identical — the policy owns per-set replacement metadata and
never touches line state directly.

``select_victim`` receives only the ways that are currently *evictable*
(not pinned, not BUSY).  Returning ``None`` tells the cache controller to
retry later, the "wait or find another cache line" decision from §3.4(d).
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np


class CachePolicy(abc.ABC):
    """Replacement policy for a set-associative software cache."""

    def attach(self, num_sets: int, ways: int) -> None:
        """Called once by the cache with its geometry."""
        self.num_sets = num_sets
        self.ways = ways

    @abc.abstractmethod
    def on_hit(self, set_idx: int, way: int) -> None:
        """A READY/MODIFIED line was accessed."""

    @abc.abstractmethod
    def on_fill(self, set_idx: int, way: int) -> None:
        """A line was (re)filled with new contents."""

    @abc.abstractmethod
    def select_victim(
        self, set_idx: int, candidates: Sequence[int]
    ) -> Optional[int]:
        """Pick a way to evict among ``candidates`` (never empty), or
        ``None`` to decline (caller will back off and retry)."""

    #: Extra device cycles one policy decision costs (lets experiments model
    #: heavier custom policies); built-ins are cheap.
    decision_cycles: float = 0.0


class ClockPolicy(CachePolicy):
    """CLOCK / second-chance replacement — the paper's default (it keeps
    the clock policy from Corbató [10] for all DLRM experiments)."""

    def attach(self, num_sets: int, ways: int) -> None:
        super().attach(num_sets, ways)
        self._ref = np.zeros((num_sets, ways), dtype=bool)
        self._hand = np.zeros(num_sets, dtype=np.int64)

    def on_hit(self, set_idx: int, way: int) -> None:
        self._ref[set_idx, way] = True

    def on_fill(self, set_idx: int, way: int) -> None:
        self._ref[set_idx, way] = True

    def select_victim(
        self, set_idx: int, candidates: Sequence[int]
    ) -> Optional[int]:
        allowed = set(candidates)
        hand = int(self._hand[set_idx])
        # Two full sweeps guarantee termination: the first clears ref bits,
        # the second must find an unreferenced candidate if one exists.
        for _ in range(2 * self.ways):
            way = hand
            hand = (hand + 1) % self.ways
            if way not in allowed:
                continue
            if self._ref[set_idx, way]:
                self._ref[set_idx, way] = False
                continue
            self._hand[set_idx] = hand
            return way
        self._hand[set_idx] = hand
        # Everything referenced and allowed got a second chance; take the
        # way at the hand among candidates.
        return next(iter(candidates), None)


class LruPolicy(CachePolicy):
    """Least-recently-used with exact per-set recency stacks."""

    def attach(self, num_sets: int, ways: int) -> None:
        super().attach(num_sets, ways)
        self._stacks: list[list[int]] = [list(range(ways)) for _ in range(num_sets)]

    def _touch(self, set_idx: int, way: int) -> None:
        stack = self._stacks[set_idx]
        stack.remove(way)
        stack.append(way)  # most recent at the tail

    def on_hit(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)

    def on_fill(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)

    def select_victim(
        self, set_idx: int, candidates: Sequence[int]
    ) -> Optional[int]:
        allowed = set(candidates)
        for way in self._stacks[set_idx]:  # least recent first
            if way in allowed:
                return way
        return None


class FifoPolicy(CachePolicy):
    """Evict in fill order, ignoring hits."""

    def attach(self, num_sets: int, ways: int) -> None:
        super().attach(num_sets, ways)
        self._order: list[list[int]] = [list(range(ways)) for _ in range(num_sets)]

    def on_hit(self, set_idx: int, way: int) -> None:
        pass  # FIFO ignores recency

    def on_fill(self, set_idx: int, way: int) -> None:
        order = self._order[set_idx]
        order.remove(way)
        order.append(way)

    def select_victim(
        self, set_idx: int, candidates: Sequence[int]
    ) -> Optional[int]:
        allowed = set(candidates)
        for way in self._order[set_idx]:
            if way in allowed:
                return way
        return None


class RandomPolicy(CachePolicy):
    """Uniform random eviction (deterministic via a seeded generator)."""

    def __init__(self, seed: int = 0):
        self._rng = np.random.Generator(np.random.Philox(seed))

    def on_hit(self, set_idx: int, way: int) -> None:
        pass

    def on_fill(self, set_idx: int, way: int) -> None:
        pass

    def select_victim(
        self, set_idx: int, candidates: Sequence[int]
    ) -> Optional[int]:
        if not candidates:
            return None
        return candidates[int(self._rng.integers(len(candidates)))]


_BUILTINS = {
    "clock": ClockPolicy,
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, **kwargs: object) -> CachePolicy:
    """Instantiate a built-in policy by name (``clock``/``lru``/``fifo``/
    ``random``)."""
    try:
        cls = _BUILTINS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown cache policy {name!r}; built-ins: {sorted(_BUILTINS)}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]

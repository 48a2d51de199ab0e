"""AGILE core: the paper's primary contribution.

- :mod:`repro.core.locks` — ``AgileLock``/``AgileLockChain`` and the
  compile-time-style deadlock-cycle detector (paper §3.5).
- :mod:`repro.core.issue` — the SQ serialization protocol (Algorithm 2).
- :mod:`repro.core.service` — the lightweight GPU service daemon performing
  warp-centric CQ polling (Algorithm 1) and lock release (§3.2).
- :mod:`repro.core.cache` / :mod:`repro.core.policies` — the flexible
  software cache with INVALID/BUSY/READY/MODIFIED lines (§3.4).
- :mod:`repro.core.sharetable` — MOESI-inspired coherency for user-
  specified buffers (§3.4.1).
- :mod:`repro.core.ctrl` — the user-facing ``AgileCtrl`` API: ``prefetch``,
  ``async_read``/``async_write``, and the array-like synchronous API (§3.5).
- :mod:`repro.core.host` — host-side orchestration (Listing 1).
"""

from repro.core.locks import AgileLock, AgileLockChain, DeadlockError, LockDebugger
from repro.core.buffers import AgileBuf, Transaction
from repro.core.policies import (
    CachePolicy,
    ClockPolicy,
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
)
from repro.core.cache import CacheLine, LineState, SoftwareCache
from repro.core.sharetable import BufState, ShareTable
from repro.core.issue import IssueEngine
from repro.core.service import AgileService
from repro.core.ctrl import AgileCtrl
from repro.core.host import AgileHost, GpuNode
from repro.core.multigpu import MultiGpuAgileHost

__all__ = [
    "AgileLock",
    "AgileLockChain",
    "DeadlockError",
    "LockDebugger",
    "AgileBuf",
    "Transaction",
    "CachePolicy",
    "ClockPolicy",
    "LruPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "make_policy",
    "LineState",
    "CacheLine",
    "SoftwareCache",
    "ShareTable",
    "BufState",
    "IssueEngine",
    "AgileService",
    "AgileCtrl",
    "AgileHost",
    "MultiGpuAgileHost",
    "GpuNode",
]

"""Baselines the paper compares against.

- :mod:`repro.baselines.bam` — BaM's GPU-centric *synchronous* model
  (Qureshi et al., ASPLOS'23) as its differences from AGILE's cache and
  enqueue path: threads hold the SQ entry and poll the completion queue
  inline, and the CLOCK-policy cache fills synchronously.
  :class:`BamHost` stacks them into AGILE's per-GPU node shape under
  AGILE's controller, with no service.
- :mod:`repro.baselines.naive_async` — the strawman asynchronous design of
  the paper's Figure 1: threads issue multiple commands while *holding*
  SQE locks and only later process completions; with more outstanding
  requests than SQ entries this deadlocks, which the AGILE lock-chain
  debugger detects and reports.
"""

from repro.baselines.bam import BAM_API, BamCache, BamIoEngine
from repro.baselines.harness import BamHost
from repro.baselines.naive_async import NaiveAsyncEngine

__all__ = [
    "BAM_API",
    "BamCache",
    "BamIoEngine",
    "BamHost",
    "NaiveAsyncEngine",
]

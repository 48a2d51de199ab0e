"""Deterministic, seed-driven fault injection (full-system SSD simulators
such as Amber/SimpleSSD model media errors and latency outliers as
first-class events; this package brings the same regime to the AGILE
reproduction).

A :class:`FaultInjector` is armed into the NVMe models by
:class:`~repro.core.host.AgileHost` whenever ``cfg.faults.active``; every
hook site in the hot path is guarded by an ``injector is None`` check, so a
fault-free configuration pays nothing and its golden traces stay
bit-identical.  Each fault class draws from its own named
:class:`~repro.sim.rng.RngStreams` stream, so plans are bit-reproducible
per seed and adding a fault class never perturbs the draws of another.

Fault classes:

- flash page read / program failures (surface as NVMe error-status CQEs);
- flash latency outliers (tail events on the channel servers);
- dropped / duplicated CQEs at the controller's posting stage;
- transient PCIe link stalls on DMA transfers.

The recovery machinery these force into existence lives in
:mod:`repro.core.recovery`; the chaos storms are the ``storm`` and
``pe-storm`` experiments of :mod:`repro.faults.storm`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import FaultConfig, RecoveryConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.telemetry import Counter


class FaultInjector:
    """Rolls per-decision fault dice from named deterministic streams."""

    def __init__(
        self,
        sim: Simulator,
        cfg: FaultConfig,
        rng: RngStreams,
        stats: Optional[Counter] = None,
    ):
        self.sim = sim
        self.cfg = cfg
        self.stats = stats if stats is not None else Counter()
        self._flash_read = rng.stream("faults.flash_read")
        self._flash_write = rng.stream("faults.flash_write")
        self._flash_latency = rng.stream("faults.flash_latency")
        self._flash_erase = rng.stream("faults.flash_erase")
        self._cqe_drop = rng.stream("faults.cqe_drop")
        self._cqe_dup = rng.stream("faults.cqe_dup")
        self._pcie = rng.stream("faults.pcie")
        #: Remaining count-based deterministic failures per outcome
        #: (targeted tests): they fire before any rate is rolled.
        self._budget = {
            "flash_read_errors": cfg.flash_read_fail_first,
            "flash_write_errors": cfg.flash_program_fail_first,
            "cqe_drops": cfg.cqe_drop_first,
        }

    def _roll(self, stream: np.random.Generator, rate: float, stat: str) -> bool:
        """One fault decision, counted under ``stat`` when it fires: the
        outcome's count budget first, then — with ``rate`` armed and the
        window open — one draw of ``stream``."""
        if self._budget.get(stat, 0) > 0:
            self._budget[stat] -= 1
        elif not (
            rate > 0.0
            and self.cfg.window_start_ns <= self.sim.now < self.cfg.window_end_ns
            and stream.random() < rate
        ):
            return False
        self.stats.add(stat)
        return True

    # -- flash media ---------------------------------------------------------

    def flash_read_fails(self, lba: int) -> bool:
        """Decide one page read's fate (called at flash service completion)."""
        return self._roll(
            self._flash_read, self.cfg.flash_read_error_rate, "flash_read_errors"
        )

    def flash_write_fails(self, lba: int) -> bool:
        """Decide one page program's fate (host and GC programs alike)."""
        return self._roll(
            self._flash_write, self.cfg.flash_write_error_rate, "flash_write_errors"
        )

    def flash_erase_fails(self, block: int) -> bool:
        """Decide one block erase's fate; a failed erase retires the block
        as bad (the FTL drops it from the free pool permanently)."""
        return self._roll(
            self._flash_erase, self.cfg.flash_erase_error_rate, "flash_erase_errors"
        )

    def flash_latency_mult(self, lba: int) -> float:
        """Service-time multiplier for one flash operation (1.0 = nominal)."""
        if self._roll(
            self._flash_latency,
            self.cfg.flash_latency_outlier_rate,
            "flash_latency_outliers",
        ):
            return self.cfg.flash_latency_outlier_mult
        return 1.0

    # -- completion path -----------------------------------------------------

    def drop_cqe(self, qid: int) -> bool:
        """Decide whether a completion is silently lost."""
        return self._roll(self._cqe_drop, self.cfg.cqe_drop_rate, "cqe_drops")

    def duplicate_cqe(self, qid: int) -> bool:
        """Decide whether a completion is posted twice."""
        return self._roll(
            self._cqe_dup, self.cfg.cqe_duplicate_rate, "cqe_duplicates"
        )

    # -- interconnect --------------------------------------------------------

    def pcie_stall_ns(self, link_name: str) -> float:
        """Extra stall (ns) to charge one DMA transfer; 0.0 = no fault."""
        if self._roll(self._pcie, self.cfg.pcie_stall_rate, "pcie_stalls"):
            return self.cfg.pcie_stall_ns
        return 0.0


#: The read-storm recovery policy (the storm experiment's and the tenancy
#: experiment's storm cells).  Its timeout sits below the worst
#: latency-outlier tail (mult can reach 40x the 83.8us flash program), so
#: storms genuinely exercise the timeout -> backoff -> resubmit path, not
#: just error CQEs.
STORM_RECOVERY = RecoveryConfig(
    enabled=True,
    command_timeout_ns=1_200_000.0,
    scan_interval_ns=150_000.0,
    max_retries=4,
    retry_backoff_ns=50_000.0,
    breaker_threshold=12,
)


def plan_from_seed(seed: int, intensity: float = 1.0) -> FaultConfig:
    """Derive a randomized-but-reproducible storm plan from a seed.

    Rates are drawn from a dedicated stream of the seed's ``RngStreams``,
    so printing the seed is enough to replay the exact storm.  ``intensity``
    scales every rate linearly (the weekly CI storm runs hotter).
    """
    draw = RngStreams(seed).stream("faults.plan")
    scale = max(0.0, intensity)
    return FaultConfig(
        flash_read_error_rate=min(1.0, float(draw.uniform(0.0, 0.05)) * scale),
        flash_write_error_rate=min(1.0, float(draw.uniform(0.0, 0.03)) * scale),
        flash_latency_outlier_rate=min(
            1.0, float(draw.uniform(0.0, 0.05)) * scale
        ),
        flash_latency_outlier_mult=float(draw.uniform(5.0, 40.0)),
        cqe_drop_rate=min(1.0, float(draw.uniform(0.0, 0.03)) * scale),
        cqe_duplicate_rate=min(1.0, float(draw.uniform(0.0, 0.03)) * scale),
        pcie_stall_rate=min(1.0, float(draw.uniform(0.0, 0.02)) * scale),
        pcie_stall_ns=float(draw.uniform(30_000.0, 200_000.0)),
    )


def program_erase_plan_from_seed(
    seed: int, intensity: float = 1.0
) -> FaultConfig:
    """Derive a write-path storm plan: program faults, erase faults, and
    latency outliers aimed at the FTL/GC machinery.

    Draws come from their own ``faults.pe_plan`` stream, so adding this
    storm class never perturbed the classic :func:`plan_from_seed` storms
    (same seed, same rates as before).  Read-side and completion-path rates
    are kept low: the class exists to hammer programs, erases, and the
    write-back recovery path.
    """
    draw = RngStreams(seed).stream("faults.pe_plan")
    scale = max(0.0, intensity)
    return FaultConfig(
        flash_write_error_rate=min(1.0, float(draw.uniform(0.01, 0.08)) * scale),
        flash_erase_error_rate=min(1.0, float(draw.uniform(0.0, 0.10)) * scale),
        flash_latency_outlier_rate=min(
            1.0, float(draw.uniform(0.0, 0.04)) * scale
        ),
        flash_latency_outlier_mult=float(draw.uniform(5.0, 30.0)),
        flash_read_error_rate=min(1.0, float(draw.uniform(0.0, 0.01)) * scale),
        cqe_drop_rate=min(1.0, float(draw.uniform(0.0, 0.01)) * scale),
    )


__all__ = ["FaultInjector", "plan_from_seed", "program_erase_plan_from_seed"]

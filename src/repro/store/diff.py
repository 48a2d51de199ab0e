"""Run comparison: per-metric relative deltas and the regression gate.

Two runs join on ``(axes, metric)``.  Each joined metric gets a relative
delta and a *direction* — whether bigger is better (goodput, bandwidth,
knee), worse (latency quantiles, skew, sheds, device errors), or neither
(counters and wall-clock measurements that describe the run without
judging it).  A **regression** is a directional metric moving the wrong
way by more than the tolerance; ``diff`` and ``gate`` exit non-zero when
any survive.

Wall-clock-derived metrics (``events_per_sec``, ``wall_s``) are
deliberately *informational*: they vary with the host machine, and the
CI ``perf-smoke`` floor already gates scheduler throughput on controlled
terms.  Simulated metrics are seed-deterministic, so between two runs of
the same config any delta at all is a real behaviour change — the
tolerance exists for cross-config and cross-version comparisons.  That
includes ``sim_events``, the simulator's own cost in machine-independent
units: an event-count blow-up on any cell is a regression.

``fifo_*`` scalars are a *control arm's* numbers (the tenancy headline):
a worse FIFO strengthens the claim and a better one weakens it, and the
claim itself is gated through ``headline_ok``, so they never gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.store.db import ResultStore, RunRecord

#: Substring rules, first match wins.  Checked against the *leaf* metric
#: name (the part after the last dot), so ``classes.point.p99_ns`` and
#: ``p99_ns`` classify identically.
_LOWER_IS_BETTER = (
    "p50_ns", "p95_ns", "p99_ns", "mean_latency_ns", "latency_ns",
    "skew_ratio", "shed", "aborted", "queue_timeout", "slo_miss",
    "device_errors", "waf", "gc_busy_ns", "gc_stall_ns",
    "writebacks_lost", "bad_blocks", "read_p99_inflation", "sim_events",
)
_HIGHER_IS_BETTER = (
    "goodput_rps", "bandwidth_gbps", "knee_rps", "slo_ok",
    "slo_attainment", "completed", "headline_ok",
)
_INFORMATIONAL = (
    "events_per_sec", "wall_s", "batches", "offered",
    "admitted", "duration_ns", "target_rps", "offered_rps", "num_ssds",
    "device_pages", "device_reads", "mean_batch_size", "seed",
    "generated_unix", "gc_runs", "erases", "invalidations", "gc_reads",
    "seeded_pages", "free_blocks", "live_pages", "host_programs",
    "gc_programs", "writebacks_acked", "host_gc_stalls",
)


def metric_direction(metric: str) -> int:
    """+1 when higher is better, -1 when lower is, 0 when informational."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf.startswith("fifo_"):
        return 0
    for token in _INFORMATIONAL:
        if token in leaf:
            return 0
    for token in _LOWER_IS_BETTER:
        if token in leaf:
            return -1
    for token in _HIGHER_IS_BETTER:
        if token in leaf:
            return +1
    return 0


@dataclass(frozen=True)
class Delta:
    """One metric's movement between run A (old) and run B (new)."""

    axes: str
    metric: str
    a: float
    b: float
    direction: int

    @property
    def rel(self) -> float:
        """Relative delta (B - A) / |A|; ±inf for a move off zero."""
        if self.a == self.b:
            return 0.0
        if self.a == 0.0:
            return math.copysign(math.inf, self.b)
        return (self.b - self.a) / abs(self.a)

    def regressed(self, tolerance: float) -> bool:
        if self.direction == 0:
            return False
        signed = self.rel * self.direction
        return signed < -tolerance

    def improved(self, tolerance: float) -> bool:
        if self.direction == 0:
            return False
        return self.rel * self.direction > tolerance

    def describe(self) -> str:
        arrow = {+1: "higher=better", -1: "lower=better", 0: "info"}
        rel = self.rel
        pct = f"{rel:+.1%}" if math.isfinite(rel) else f"{rel:+}"
        return (
            f"{self.metric} @ {self.axes}: "
            f"{self.a:g} -> {self.b:g} ({pct}, {arrow[self.direction]})"
        )


@dataclass(frozen=True)
class DiffResult:
    """The joined comparison of two runs."""

    run_a: str
    run_b: str
    tolerance: float
    deltas: List[Delta]
    only_a: List[Tuple[str, str]]
    only_b: List[Tuple[str, str]]

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed(self.tolerance)]

    @property
    def improvements(self) -> List[Delta]:
        return [d for d in self.deltas if d.improved(self.tolerance)]

    @property
    def changed(self) -> List[Delta]:
        return [d for d in self.deltas if d.rel != 0.0]

    @property
    def ok(self) -> bool:
        return not self.regressions


def diff_metrics(
    run_a: str,
    run_b: str,
    metrics_a: Dict[Tuple[str, str], float],
    metrics_b: Dict[Tuple[str, str], float],
    tolerance: float,
) -> DiffResult:
    """Join two metric maps on ``(axes, metric)`` and classify deltas."""
    shared = sorted(set(metrics_a) & set(metrics_b))
    deltas = [
        Delta(
            axes=axes,
            metric=metric,
            a=metrics_a[(axes, metric)],
            b=metrics_b[(axes, metric)],
            direction=metric_direction(metric),
        )
        for axes, metric in shared
    ]
    return DiffResult(
        run_a=run_a,
        run_b=run_b,
        tolerance=tolerance,
        deltas=deltas,
        only_a=sorted(set(metrics_a) - set(metrics_b)),
        only_b=sorted(set(metrics_b) - set(metrics_a)),
    )


def diff_runs(
    store: ResultStore, run_a: str, run_b: str, tolerance: float = 0.05
) -> DiffResult:
    """Compare two stored runs (A = baseline/old, B = candidate/new)."""
    id_a = store.resolve(run_a)
    id_b = store.resolve(run_b)
    return diff_metrics(
        id_a, id_b, store.metrics(id_a), store.metrics(id_b), tolerance
    )


# -- baseline selection -------------------------------------------------------


def run_score(metrics: Dict[Tuple[str, str], float]) -> float:
    """A run's one-number quality for "best baseline" selection.

    Total strict goodput when the run has any; else total read bandwidth
    (bench tables); else negative total p99 (lower tails score higher).
    Deterministic and schema-agnostic — good enough to pick which stored
    run a fresh one must beat.
    """
    goodput = [
        v for (_, m), v in metrics.items()
        if m.rsplit(".", 1)[-1] == "goodput_rps"
    ]
    if goodput:
        return sum(goodput)
    bandwidth = [
        v for (_, m), v in metrics.items()
        if m.rsplit(".", 1)[-1] == "bandwidth_gbps"
    ]
    if bandwidth:
        return sum(bandwidth)
    return -sum(
        v for (_, m), v in metrics.items() if m.rsplit(".", 1)[-1] == "p99_ns"
    )


def best_baseline(
    store: ResultStore, schema: str, config_hash: str
) -> Optional[RunRecord]:
    """The highest-scoring stored run with this schema and config."""
    candidates = store.runs(schema=schema, config_hash=config_hash)
    if not candidates:
        return None
    return max(
        candidates, key=lambda rec: (run_score(store.metrics(rec.run_id)),
                                     rec.created_at, rec.run_id)
    )

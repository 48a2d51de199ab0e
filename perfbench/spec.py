"""Declared names: workloads, metrics, layers, bounds.

Everything the benchmark may emit is declared here, so the self-tests can
hold ``BENCHMARK.json`` and the emitted keys to one list.  Three time
bases appear and every metric carries its own: ``host`` (what the
simulator costs to run), ``sim`` (what the modelled hardware would take)
and ``count`` (exact, machine-independent).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePath
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    #: One line, at most 200 characters (``BENCHMARK.json`` carries it).
    why: str


WORKLOADS = (
    Workload(
        "fig5-read",
        "closed, 64 GPU threads x 8 in flight",
        "Paper Fig. 5 path: 4096 raw 4 KB reads; SQ/CQ rings, flash channels,"
        " IssueEngine and busy polling warps do all the work, cache, serve"
        " and FTL GC none.",
    ),
    Workload(
        "dlrm-c1",
        "closed, 256 GPU threads",
        "DLRM config-1 on bam/agile_sync/agile_async, ~96% cache hits: cache,"
        " warp coalescing, HBM loads and the BaM baseline carry the cost, NVMe"
        " does little. Bit-real checksum anchors correctness.",
    ),
    Workload(
        "serve-tenancy",
        "open, 250k rps for 8 ms simulated",
        "Serve layer and cache paging under deliberate overload: five tenant"
        " classes, WFQ admission, 2 striped SSDs; the CI tenancy calm cell,"
        " so its wall cost is a tracked CI cost.",
    ),
    Workload(
        "serve-write-gc",
        "open, 30k rps for 20 ms simulated",
        "Writes beside reads: FTL GC relocation contends with point reads"
        " and long idle stretches make polling warps spin (~10k events per"
        " request); idle-poll and GC costs show only here.",
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Bound:
    """How much worse a candidate may read before ``compare`` calls it a
    regression: by more than ``rel`` of the baseline *and* more than
    ``abs`` in the metric's own unit."""

    rel: float = 0.0
    abs: float = 0.0

    def exceeded(self, base: float, worse_by: float) -> bool:
        return worse_by > max(self.rel * abs(base), self.abs)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    base: str  # "host" | "sim" | "count"
    meaning: str
    #: End-to-end metric this one should move, and on which workload
    #: (per-layer metrics only; written down before measuring).
    moves: str = ""
    #: Same-seed rule used by ``perfbench compare``; None = report only.
    bound: Optional[Bound] = None
    #: Repeats exactly for one seed on one commit.
    exact: bool = False


# -- end to end ---------------------------------------------------------------

END_TO_END = (
    Metric("wall_s", "s", "lower", "host",
           "median perf_counter time of the timed call over the repeats",
           bound=Bound(rel=0.10)),
    Metric("sim_events_per_op", "events", "lower", "count",
           "Simulator.event_count over the workload's hosts / ops attempted",
           bound=Bound(rel=0.01), exact=True),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "ru_maxrss of the measuring child process",
           bound=Bound(rel=0.10)),
    Metric("setup_s", "s", "lower", "host",
           "child start to inputs ready: import repro, generate inputs,"
           " build the host where the public API separates it (median)",
           bound=Bound(rel=0.25, abs=0.2)),
    Metric("sim_goodput_ops_s", "ops/s", "higher", "sim",
           "closed loop: completed ops / simulated makespan (dlrm-c1:"
           " agile_async lookups / its total_ns); open loop: SLO-meeting"
           " completions per second of offered window",
           bound=Bound(rel=0.005), exact=True),
    Metric("ok_frac", "ratio", "higher", "count",
           "ops completed OK / attempted (1 - failed_frac): refused, timed"
           " out, aborted, errored or wrong-data ops all count against it",
           bound=Bound(abs=0.001), exact=True),
)

# -- layers: where a profiled function's self time is booked ------------------

#: Packages of ``src/repro`` that get a key of their own.  A package's key
#: holds the files no module key below claims.
LAYER_PACKAGES = (
    "sim", "gpu", "mem", "nvme", "core", "placement", "serve", "workloads",
    "baselines", "telemetry", "faults", "config",
)
#: Hot modules split out of their package.
LAYER_MODULES = (
    "sim.engine", "sim.resources", "sim.sync",
    "core.issue", "core.service", "core.cache", "core.sharetable",
    "core.ctrl", "core.recovery",
    "nvme.queue", "nvme.device", "nvme.flash", "nvme.ftl",
    "serve.engine", "serve.admission", "serve.wfq", "serve.batcher",
    "serve.dispatch", "serve.backends", "serve.slo", "serve.arrival",
)
LAYER_EXTERNAL = ("ext.numpy", "ext.python")
LAYER_KEYS = LAYER_PACKAGES + LAYER_MODULES + LAYER_EXTERNAL

#: Parts of ``src/repro`` no workload measures, with the reason (README's
#: not-covered list).  Their profile rows are booked to no metric; the
#: result document carries their total so a leak shows.
NOT_COVERED = {
    "analysis": "checkers are off in every workload (one boolean per host)",
    "bench": "figure drivers; the only wall-clock readers inside src/",
    "kir": "static register estimator, not on any run path",
    "store": "results database and gate, runs after a measurement",
    "__init__": "import-time only",
    "version": "import-time only",
}


def layer_of_source(relpath: str) -> Optional[str]:
    """Layer key for a file path relative to ``src/repro``; None for a
    declared not-covered part.  An undeclared package raises ``KeyError``
    instead of falling into an "other" bucket."""
    parts = PurePath(relpath).with_suffix("").parts
    package = parts[0]
    if len(parts) > 1 and f"{package}.{parts[1]}" in LAYER_MODULES:
        return f"{package}.{parts[1]}"
    if package in LAYER_PACKAGES:
        return package
    if package in NOT_COVERED:
        return None
    raise KeyError(f"src/repro/{relpath}: no layer declared in perfbench/spec.py")


_LAYER_MOVES = {
    "sim": "wall_s on all four, most on fig5-read and serve-write-gc;"
           " every sim_* metric must not move",
    "gpu": "wall_s on dlrm-c1 (warp coalescing, syncwarp); none on the"
           " serve workloads",
    "mem": "wall_s on dlrm-c1 (hbm_load per lookup); small elsewhere",
    "nvme": "wall_s on fig5-read (rings, doorbells, flash channels) and"
            " serve-write-gc (FTL)",
    "core": "wall_s: core.service on serve-write-gc > serve-tenancy >"
            " fig5-read, least on dlrm-c1; core.cache/core.ctrl on dlrm-c1,"
            " none on fig5-read",
    "placement": "wall_s on dlrm-c1 (one place() per lookup) and the serve"
                 " workloads (one per page); one resolve per read on fig5-read",
    "serve": "under 2% of host time everywhere: a serve speed-up predicts"
             " no wall_s change; serve.wfq moves ok_frac on serve-tenancy",
    "workloads": "wall_s on dlrm-c1 (gather kernels) and fig5-read (the"
                 " perfbench kernel is booked here)",
    "baselines": "wall_s on dlrm-c1 only (the bam arm)",
    "telemetry": "none: end-to-end runs have telemetry off; guards"
                 " telemetry.overhead_frac",
    "faults": "none: no workload arms a fault plan",
    "config": "setup_s; a little wall_s on dlrm-c1 (page-size lookups)",
    "ext.numpy": "wall_s on dlrm-c1 (buffer views, checksum lanes)",
    "ext.python": "wall_s everywhere (heapq, deque, builtins): the"
                  " interpreter floor",
}


def _profile_metrics() -> list[Metric]:
    out = []
    for key in LAYER_KEYS:
        moves = _LAYER_MOVES[key if key in _LAYER_MOVES else key.split(".")[0]]
        out.append(Metric(
            f"{key}.self_s", "s", "lower", "host",
            f"cProfile self time (tottime, children excluded) in {key};"
            " shares are comparable across commits, not absolute",
            moves))
        out.append(Metric(
            f"{key}.calls", "count", "lower", "count",
            f"calls into {key}, generator resumes included", moves,
            exact=True))
    return out


# -- modelled counters (counters pass, telemetry on, profiler off) ------------

_FIG5 = "sim_goodput_ops_s and paper_rel_err on fig5-read"
_WGC = "sim_p95_ns, sim_goodput_ops_s, ok_frac on serve-write-gc; GC" \
       " counters exactly 0 and waf 1 on the other three (serve-tenancy" \
       " programs pages for kv_append/ckpt but never collects)"
_DLRM = "wall_s and sim_goodput_ops_s on dlrm-c1; untouched on fig5-read" \
        " (raw reads bypass the cache)"
_TEN = "sim_p95_ns and ok_frac on serve-tenancy"


def _c(name, unit, better, base, meaning, moves) -> Metric:
    return Metric(name, unit, better, base, meaning, moves, exact=True)


COUNTERS = (
    _c("sim.events", "events", "lower", "count",
       "events dispatched, summed over the workload's simulators",
       "sim_events_per_op and wall_s on all four"),
    _c("sim.now_ns", "ns", "lower", "sim",
       "simulated time at the end, summed over the workload's simulators",
       "sim_goodput_ops_s on the closed loops"),
    *(_c(f"gpu.stall_ns.{reason}", "ns", "lower", "sim",
         f"simulated ns GPU threads spent stalled on {reason}", moves)
      for reason, moves in (
          ("sq_full", _FIG5), ("doorbell", _FIG5), ("fill_wait", _DLRM),
          ("victim_wait", _WGC), ("warp_converge", _DLRM))),
    _c("mem.hbm.bytes", "B", "lower", "count",
       "HBM load + store bytes", _DLRM),
    _c("mem.pcie.dma_bytes", "B", "lower", "count",
       "SSD<->GPU DMA bytes over PCIe, both directions", _FIG5),
    _c("nvme.commands", "count", "lower", "count",
       "NVMe commands submitted", _FIG5),
    _c("nvme.doorbell_rings", "count", "lower", "count",
       "SQ doorbell writes", _FIG5),
    _c("nvme.doorbell_contended", "count", "lower", "count",
       "doorbell attempts that found the lock held", _FIG5),
    _c("nvme.sq_occupancy_mean", "entries", "higher", "sim",
       "time-weighted SQ occupancy, mean over queues", _FIG5),
    _c("nvme.cq_occupancy_max", "entries", "lower", "sim",
       "deepest any CQ got", "core.service.cqe_per_call"),
    _c("nvme.fetch_batch_mean", "cmds", "higher", "sim",
       "SQEs per controller fetch", _FIG5),
    _c("nvme.flash_busy_frac", "ratio", "higher", "sim",
       "flash channel busy time / (channels x simulated time)", _FIG5),
    _c("nvme.errors", "count", "lower", "count",
       "error-status completions", "ok_frac everywhere (must stay 0)"),
    _c("nvme.ftl.host_programs", "pages", "lower", "count",
       "host page programs", _WGC),
    _c("nvme.ftl.gc_programs", "pages", "lower", "count",
       "GC relocation programs", _WGC),
    _c("nvme.ftl.erases", "blocks", "lower", "count", "block erases", _WGC),
    _c("nvme.ftl.waf", "ratio", "lower", "count",
       "write amplification, mean over devices that saw host programs",
       _WGC),
    _c("nvme.ftl.gc_busy_ns", "ns", "lower", "sim",
       "simulated ns GC held flash channels", _WGC),
    _c("nvme.ftl.host_gc_stall_ns", "ns", "lower", "sim",
       "simulated ns host programs waited for GC to free a block", _WGC),
    _c("core.service.completions", "count", "higher", "count",
       "CQEs the polling warps processed", "sim_goodput_ops_s everywhere"),
    _c("core.service.cqe_per_call", "ratio", "higher", "count",
       "completions / core.service.calls: useful-to-attempted polling"
       " (0 without a profile pass)",
       "sim_events_per_op and wall_s: most on serve-write-gc (idle"
       " spinning), then serve-tenancy, modest on fig5-read and dlrm-c1"),
    _c("core.cache.hits", "count", "higher", "count", "cache hits", _DLRM),
    _c("core.cache.misses", "count", "lower", "count", "cache misses",
       _DLRM),
    _c("core.cache.busy_hits", "count", "lower", "count",
       "hits on a line still filling", _DLRM),
    _c("core.cache.hit_ratio", "ratio", "higher", "count",
       "hits / (hits + misses)", _DLRM),
    _c("core.cache.writebacks", "count", "lower", "count",
       "dirty evictions written back", _WGC),
    _c("core.cache.writebacks_lost", "count", "lower", "count",
       "write-backs never durably acked (must stay 0)",
       "correctness on serve-write-gc"),
    _c("placement.skew_ratio", "ratio", "lower", "count",
       "busiest device's completed reads over the even share", _TEN),
    *(_c(f"serve.{label}", "count", better, "count",
         f"requests {label}, all classes", _TEN)
      for label, better in (
          ("offered", "higher"), ("completed", "higher"), ("shed", "lower"),
          ("queue_timeout", "lower"), ("aborted", "lower"))),
    _c("serve.batches", "count", "lower", "count", "batches dispatched",
       _TEN),
    _c("serve.mean_batch_size", "reqs", "higher", "count",
       "requests per dispatched batch", _TEN),
)

# -- harness, probes, and the results no uniform end-to-end slot can hold -----

_PROBE = "none directly: an isolated reading of one layer's speed, to tell" \
         " a layer change from a workload change"

HARNESS = (
    Metric("harness.wall_iqr_frac", "ratio", "lower", "host",
           "(Q3 - Q1) / median of the wall_s repeats: the benchmark's own"
           " noise (0 with fewer than 3 repeats)",
           "none: decides whether a wall_s pair is resolved"),
    Metric("telemetry.overhead_frac", "ratio", "lower", "host",
           "counters-pass wall / wall_s - 1",
           "none: end-to-end runs have telemetry off (ROADMAP aim 4 guard)"),
    Metric("trace.overhead_x", "x", "lower", "host",
           "profile-pass wall / wall_s", "none: the profiler's own tax"),
    Metric("harness.cpu_s", "s", "lower", "host",
           "median process_time of the timed call", "wall_s (should track)"),
    Metric("sim.events_per_sec", "1/s", "higher", "host",
           "sim.events / wall_s; not end-to-end because eliding events can"
           " lower it while every run gets faster",
           "wall_s, read with sim_events_per_op"),
    Metric("probe.sim.engine.events_per_s", "1/s", "higher", "host",
           "256 processes on seeded timeouts plus an Event ping-pong",
           _PROBE),
    Metric("probe.sim.resources.jobs_per_s", "1/s", "higher", "host",
           "64 processes looping FairShareServer.process at the SM's rate"
           " and cap", _PROBE),
    Metric("probe.placement.places_per_s", "1/s", "higher", "host",
           "striped and tenant_affine place() calls", _PROBE),
)

#: The issue lists these end to end.  The driver's contract wants every
#: end-to-end metric from every workload, never 0, inside a relative bound
#: of at most 0.25 across seeds; these cannot meet it (see README), so they
#: are reported here, 0 where a workload has none, and still gated by
#: ``perfbench compare`` on a same-seed pair.
RELOCATED = (
    Metric("sim_p50_ns", "ns", "lower", "sim",
           "p50 latency: serve workloads, the latency-critical class"
           " (infer; point); fig5-read, one 4 KB read; dlrm-c1 has none",
           "read with sim_p95_ns", Bound(rel=0.005), exact=True),
    Metric("sim_p95_ns", "ns", "lower", "sim",
           "p95 of the same samples (~200-300 on the serve workloads:"
           " >= 10 beyond p95, only ~3 beyond p99)",
           "moved by nvme.ftl.* on serve-write-gc, serve.wfq on"
           " serve-tenancy", Bound(rel=0.005), exact=True),
    Metric("failed_frac", "ratio", "lower", "count",
           "(attempted - completed OK) / attempted = 1 - ok_frac",
           "is ok_frac", Bound(abs=0.001), exact=True),
    Metric("paper_rel_err", "ratio", "lower", "sim",
           "fig5-read: |GB/s - 3.7| / 3.7; dlrm-c1: max over sync/async of"
           " |speedup over BaM - paper 1.30/1.48| / paper; serve workloads"
           " 0: the paper gives no reference, the model is unvalidated",
           "moved by whatever moves sim_goodput_ops_s on the closed loops",
           Bound(abs=0.01), exact=True),
)

PER_LAYER = (*_profile_metrics(), *COUNTERS, *HARNESS, *RELOCATED)
METRICS = {m.name: m for m in (*END_TO_END, *PER_LAYER)}

#: Paper references for ``paper_rel_err``.
PAPER_FIG5_GBPS = 3.7
PAPER_DLRM_SPEEDUP = {"agile_sync": 1.30, "agile_async": 1.48}

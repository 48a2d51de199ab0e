"""The paper's evaluation (Figs. 4-12) and four ablations as experiments.

Each figure is one :class:`~repro.serve.experiment.Experiment`: the axes
are the figure's sweep variables, a cell runs the workload function that
models it and keeps its *simulated* numbers, ``derive`` adds what the
figure reports (speedups over BaM, peaks, saturated bandwidths,
reductions) as ``section=...`` rows, and ``checks`` are the paper-fidelity
table — each claim's ``detail`` carries the measured values, the paper's
value and the stated deviation (EXPERIMENTS.md has the prose).  ``python
-m repro.bench run figN`` runs one; default axes are scaled down from the
paper's testbed so every figure takes seconds, and ``--set`` reaches paper
scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import (
    CacheConfig, Checked, ServiceConfig, SsdConfig, SystemConfig, legal,
)
from repro.core import AgileHost, AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig
from repro.kir.kernels import figure12_registers
from repro.serve.experiment import Cell, Check, Experiment, Runner, pivot
from repro.workloads.bfs import run_bfs
from repro.workloads.criteo import CriteoTrace, make_criteo_trace
from repro.workloads.ctc import (
    calibrate_comm_cycles,
    ideal_speedup,
    run_ctc_experiment,
)
from repro.workloads.dlrm import DLRM_CONFIGS, run_dlrm
from repro.workloads.graphs import kronecker_graph, uniform_random_graph
from repro.workloads.io_sweep import run_bandwidth_sweep
from repro.workloads.spmv import run_spmv

Rows = Callable[[Any, Sequence[Cell]], List[Cell]]
#: One paper claim: the check's name, a predicate over the figure's view of
#: its cells, and the paper's value with the stated deviation.
Claim = Tuple[str, Callable[[Any], bool], str]


def _row(section: str, metrics: Mapping[str, Any], **axes: Any) -> Cell:
    return {"axes": {**axes, "section": section}, "metrics": dict(metrics)}


def _by(
    cells: Sequence[Cell], section: Optional[str], metric: str, *keys: str
) -> Dict[Any, Any]:
    """One metric of one section's rows (``section=None``: the measured
    cells), keyed by an axis — or, given several, by their values joined."""
    return {
        c["axes"][keys[0]] if len(keys) == 1
        else "-".join(str(c["axes"][k]) for k in keys): c["metrics"][metric]
        for c in cells
        if c["axes"].get("section") == section and metric in c["metrics"]
    }


def _only(cells: Sequence[Cell], section: str) -> Mapping[str, Any]:
    """The metrics of a section that has one row."""
    return {c["axes"].get("section"): c["metrics"] for c in cells}[section]


def _show(value: Any) -> str:
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{k}: {_show(v)}" for k, v in value.items()) + "}"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _claims(view: Callable[[Sequence[Cell]], Any], *claims: Claim):
    """``checks``: each claim judged on ``view(cells)``; a claim whose
    cells the axes were narrowed away from is skipped."""

    def checks(spec: Any, cells: Sequence[Cell]) -> List[Check]:
        out: List[Check] = []
        for name, holds, paper in claims:
            try:
                measured = view(cells)
                ok = bool(holds(measured))
            except KeyError:
                continue
            detail = f"measured {_show(measured)}; paper: {paper}"
            out.append({"name": name, "ok": ok, "detail": detail})
        return out

    return checks


def _need_positive(**values: float) -> None:
    for key, value in values.items():
        if value <= 0:
            raise ValueError(f"{key} must be positive, got {value}")


def _speedups(axis: str, baseline: str) -> Rows:
    """``derive``: one ``section=speedup`` row per group of cells that
    differ only in ``axis`` — the ``baseline`` arm's time over each other
    arm's (and AGILE's async over sync where both ran)."""

    def derive(spec: Any, cells: Sequence[Cell]) -> List[Cell]:
        rows = []
        for rest, arms in pivot(cells, axis).items():
            if baseline not in arms:
                continue
            base = arms[baseline]["metrics"]["total_ns"]
            gains = {
                arm: base / cell["metrics"]["total_ns"]
                for arm, cell in arms.items()
                if arm != baseline
            }
            if {"agile_sync", "agile_async"} <= set(gains):
                gains["async_over_sync"] = gains["agile_async"] / gains["agile_sync"]
            rows.append(_row("speedup", gains, **dict(rest)))
        return rows

    return derive


# -- Figure 4 ------------------------------------------------------------------


@dataclass(frozen=True)
class CtcSpec(Checked):
    num_threads: int = legal(128, ge=1)
    requests: int = legal(8, ge=1)


@lru_cache(maxsize=None)
def _comm_cycles(num_threads: int, requests: int) -> float:
    return calibrate_comm_cycles(num_threads, requests)


def _ctc_cell(spec: CtcSpec, cell: Mapping[str, Any]) -> Runner:
    ctc, ideal = cell["ctc"], ideal_speedup(cell["ctc"])

    def run() -> Mapping[str, Any]:
        (point,) = run_ctc_experiment(
            [ctc], spec.num_threads, spec.requests, _comm_cycles(**asdict(spec))
        )
        return {
            "sync_ns": point.sync_ns,
            "async_ns": point.async_ns,
            "speedup": point.speedup,
            "ideal_speedup": ideal,
        }

    return run


def _ctc_peak(spec: CtcSpec, cells: Sequence[Cell]) -> List[Cell]:
    peak = max(cells, key=lambda c: c["metrics"]["speedup"])
    return [
        _row("peak", {"speedup": peak["metrics"]["speedup"], "ctc": peak["axes"]["ctc"]})
    ]


FIG4 = Experiment(
    name="fig4",
    help="async vs sync speedup across computation-to-communication ratios",
    spec=CtcSpec(),
    axes={"ctc": (0.0, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0)},
    build=_ctc_cell,
    derive=_ctc_peak,
    checks=_claims(
        lambda cells: {
            "peak": _only(cells, "peak"),
            "over_eq1": max(
                c["metrics"]["speedup"] - c["metrics"]["ideal_speedup"]
                for c in cells
                if "ctc" in c["axes"]
            ),
        },
        (
            "peak_speedup_in_band",
            lambda m: 1.5 <= m["peak"]["speedup"] <= 2.1,
            "peak 1.88x; band 1.5-2.1x, since issue and prefetch overheads "
            "cannot be hidden and the simulator's are not the testbed's",
        ),
        (
            "peak_near_balanced_point",
            lambda m: 0.5 <= m["peak"]["ctc"] <= 1.25,
            "peak slightly below CTC = 1",
        ),
        (
            "never_above_eq1_envelope",
            lambda m: m["over_eq1"] <= 0.2,
            "speedup follows Eq. 1 (0.2 slack over the pipelined-ideal envelope)",
        ),
    ),
)


# -- Figures 5 and 6 -----------------------------------------------------------


@dataclass(frozen=True)
class BandwidthSpec(Checked):
    num_threads: int = legal(256, ge=1)


def _bandwidth_cell(op: str):
    def build(spec: BandwidthSpec, cell: Mapping[str, Any]) -> Runner:
        _need_positive(**cell)

        def run() -> Mapping[str, Any]:
            point = run_bandwidth_sweep(
                op, cell["num_ssds"], cell["total_requests"], spec.num_threads
            )
            return {
                "duration_ns": point.duration_ns,
                "bandwidth_gbps": point.bandwidth_gbps,
                "sim_events": point.sim_events,
                "events_per_request": point.sim_events / cell["total_requests"],
                "device_errors": point.device_errors,
            }

        return run

    return build


def _saturated(spec: BandwidthSpec, cells: Sequence[Cell]) -> List[Cell]:
    """Per array size, the bandwidth at the last (largest) request count."""
    return [
        _row(
            "saturated",
            {"bandwidth_gbps": list(curve.values())[-1]["metrics"]["bandwidth_gbps"]},
            **dict(rest),
        )
        for rest, curve in pivot(cells, "total_requests").items()
    ]


def _bandwidth_experiment(
    name: str, op: str, low: float, high: float, paper: str
) -> Experiment:
    scaling = f"saturates at {paper} GB/s on 1/2/3 SSDs (additive per SSD)"
    return Experiment(
        name=name,
        help=f"4 KB random {op} bandwidth vs concurrent requests on 1-3 SSDs",
        spec=BandwidthSpec(),
        axes={"num_ssds": (1, 2, 3), "total_requests": (256, 1024, 4096, 8192)},
        build=_bandwidth_cell(op),
        derive=_saturated,
        checks=_claims(
            lambda cells: _by(cells, "saturated", "bandwidth_gbps", "num_ssds"),
            (
                "one_ssd_approaches_the_flash_ceiling",
                lambda gbps: low <= gbps[1] <= high,
                f"{scaling} after ~32K requests per device; band {low}-{high} "
                "GB/s: at the scaled request counts the curve is still rising",
            ),
            ("2_ssds_scale_additively", lambda gbps: gbps[2] >= 1.7 * gbps[1], scaling),
            ("3_ssds_scale_additively", lambda gbps: gbps[3] >= 2.3 * gbps[1], scaling),
        ),
    )


FIG5 = _bandwidth_experiment("fig5", "read", 2.5, 3.8, "3.7/7.4/11.1")
FIG6 = _bandwidth_experiment("fig6", "write", 1.5, 2.3, "2.2/4.4/6.7")


# -- Figures 7-10 and the coalescing ablation: DLRM ------------------------------

#: Scaled vocabulary for the DLRM experiments: the hot working set fits the
#: default software cache the way Criteo's head fits the paper's 2 GB cache.
DLRM_VOCAB = (4000, 2800, 1600, 1200, 1000, 800, 700, 600,
              500, 450, 400, 350, 300, 280, 260, 240,
              220, 200, 180, 160, 140, 120, 100, 80, 60, 40)

DLRM_SYSTEMS = ("bam", "agile_sync", "agile_async")
COALESCING = ("warp+cache", "cache-only")


@dataclass(frozen=True)
class DlrmSpec(Checked):
    """The DLRM machine and trace; an axis named like a field overrides it."""

    samples: int = legal(8192, ge=1)
    trace_seed: int = legal(1, ge=0)
    batch: int = legal(128, ge=1)
    epochs: int = legal(5, ge=1)
    features: int = legal(13, ge=1)
    cache_lines: int = legal(2048, ge=1)
    num_threads: int = legal(256, ge=1)
    queue_pairs: int = legal(4, ge=1)
    queue_depth: int = legal(16, ge=2)


@lru_cache(maxsize=2)
def _dlrm_trace(samples: int, seed: int) -> CriteoTrace:
    return make_criteo_trace(samples, vocab_sizes=DLRM_VOCAB, zipf_a=1.2, seed=seed)


def _dlrm_cell(spec: DlrmSpec, cell: Mapping[str, Any]) -> Runner:
    """One ``run_dlrm`` point (Config-1 on AGILE sync with two-level
    coalescing unless an axis says otherwise)."""
    knobs = {**asdict(spec), **cell}
    samples, seed = knobs.pop("samples"), knobs.pop("trace_seed")
    config = DLRM_CONFIGS[knobs.pop("config", "config1")]()
    system = knobs.pop("system", "agile_sync")
    coalesce = knobs.pop("coalescing", COALESCING[0]) == COALESCING[0]
    # The axes that override spec fields, held to the fields' ranges.
    DlrmSpec(samples=samples, trace_seed=seed, **knobs)

    def run() -> Mapping[str, Any]:
        result = run_dlrm(
            system,
            config,
            trace=_dlrm_trace(samples, seed),
            warp_coalescing=coalesce,
            **knobs,
        )
        return {"total_ns": result.total_ns, "checksum": result.checksum}

    return run


def _dlrm_experiment(
    name: str,
    help: str,
    axis: str,
    values: Tuple,
    claims: Sequence[Claim],
    derive: Rows = _speedups("system", "bam"),
    **spec: int,
) -> Experiment:
    """One DLRM sweep against BaM; claims see ``{arm: {axis value: gain}}``."""
    return Experiment(
        name=name,
        help=help,
        spec=DlrmSpec(**spec),
        axes={axis: values, "system": DLRM_SYSTEMS},
        build=_dlrm_cell,
        derive=derive,
        checks=_claims(
            lambda cells: {
                arm: _by(cells, "speedup", arm, axis)
                for arm in ("agile_sync", "agile_async", "async_over_sync")
            },
            *claims,
        ),
    )


FIG7 = _dlrm_experiment(
    "fig7",
    "DLRM speedup over BaM across Configs 1-3 (sync and async modes)",
    "config",
    tuple(DLRM_CONFIGS),
    (
        (
            "agile_sync_beats_bam",
            lambda m: all(gain > 1.0 for gain in m["agile_sync"].values()),
            "sync 1.30/1.39/1.27x; the sync-mode magnitude under-reproduces "
            "in the simulator, the ordering holds",
        ),
        (
            "async_beats_sync",
            lambda m: all(gap > 1.0 for gap in m["async_over_sync"].values()),
            "async 1.48/1.63/1.32x, above sync on every config",
        ),
        (
            "compute_heavy_config3_is_not_the_overlap_winner",
            lambda m: m["agile_async"]["config3"]
            <= 1.05 * max(m["agile_async"]["config1"], m["agile_async"]["config2"]),
            "Config-3 gains least from async (1.32x); 5% slack for "
            "simulator-scale jitter",
        ),
        (
            "config1_async_in_band",
            lambda m: 1.15 <= m["agile_async"]["config1"] <= 1.9,
            "1.48x; band 1.15-1.9x",
        ),
    ),
)


def _batch_peak(spec: DlrmSpec, cells: Sequence[Cell]) -> List[Cell]:
    rows = _speedups("system", "bam")(spec, cells)
    gains = _by(rows, "speedup", "agile_async", "batch")
    if gains:
        peak = max(gains, key=gains.__getitem__)
        rows.append(_row("peak", {"agile_async": gains[peak], "batch": peak}))
    return rows


FIG8 = _dlrm_experiment(
    "fig8",
    "DLRM Config-1 speedup over BaM across batch sizes",
    "batch",
    (4, 16, 64, 256),
    (
        (
            "async_never_loses_to_bam",
            lambda m: all(gain >= 0.95 for gain in m["agile_async"].values()),
            "async ahead of BaM at every batch size (sync stable 1.18-1.30x)",
        ),
        (
            "peak_async_in_paper_band",
            lambda m: max(m["agile_async"].values()) > 1.3,
            "async peaks 1.75x at batch 16; at the scaled trace the peak "
            "shifts toward larger batches (the Zipf-hot head covers small "
            "ones), so only its magnitude (> 1.3x) is claimed",
        ),
        (
            "gain_is_batch_dependent",
            lambda m: max(m["agile_async"].values())
            / min(m["agile_async"].values())
            > 1.2,
            "the async gain varies strongly with batch size (max/min > 1.2)",
        ),
    ),
    derive=_batch_peak,
)

FIG9 = _dlrm_experiment(
    "fig9",
    "DLRM Config-1 speedup over BaM across NVMe queue pairs (depth 64)",
    "queue_pairs",
    (1, 4, 16),
    (
        (
            "async_gap_widens_with_queue_pairs",
            lambda m: m["async_over_sync"][max(m["async_over_sync"])]
            >= m["async_over_sync"][1],
            "async ~= sync at one queue pair (prefetch stalls on SQE "
            "recycling); the async advantage grows with queue pairs",
        ),
        (
            "async_never_collapses_below_sync",
            lambda m: m["async_over_sync"][1] >= 0.9,
            "async ~= sync at one queue pair",
        ),
    ),
    queue_depth=64,
)

FIG10 = _dlrm_experiment(
    "fig10",
    "DLRM Config-1 speedup over BaM across software-cache sizes",
    "cache_lines",
    (96, 256, 2048),
    (
        (
            "async_edge_grows_with_cache_size",
            lambda m: m["async_over_sync"][max(m["async_over_sync"])]
            > m["async_over_sync"][min(m["async_over_sync"])],
            "async lags sync below ~64 MB (prefetches evict data before "
            "use) and overtakes above: the crossover",
        ),
        (
            "async_beats_bam_at_the_largest_cache",
            lambda m: m["agile_async"][max(m["agile_async"])] > 1.0,
            "async stays ahead past the crossover",
        ),
    ),
)

ABL_COALESCING = Experiment(
    name="abl-coalescing",
    help="warp-level coalescing on/off (DLRM Config-1, sync mode)",
    spec=DlrmSpec(epochs=4),
    axes={"coalescing": COALESCING},
    build=_dlrm_cell,
    derive=_speedups("coalescing", COALESCING[1]),
    checks=_claims(
        lambda cells: _only(cells, "speedup"),
        (
            "two_level_coalescing_does_not_lose",
            lambda gain: gain[COALESCING[0]] >= 0.95,
            "two-level coalescing (§3.3.2) must not lose to cache-only "
            "dedup on a Zipf-hot gather",
        ),
    ),
)


# -- Figure 11 -------------------------------------------------------------------

#: The three-step methodology (paper §4.5): kernel only (native memory),
#: preloaded cache, full run.
STAGES = ("kernel", "preloaded", "full")


@dataclass(frozen=True)
class GraphSpec(Checked):
    n_vertices: int = legal(1024, ge=2)
    degree: int = legal(8, ge=1)
    cache_lines: int = legal(2048, ge=1)
    num_threads: int = legal(128, ge=1)


@lru_cache(maxsize=2)
def _graph_inputs(n_vertices: int, degree: int) -> Dict[str, Tuple]:
    """``{graph: (plain, weighted, x)}``; the ``x`` vectors are consecutive
    draws of one stream, uniform first."""
    scale = int(np.log2(n_vertices))
    graphs = {
        "U": (uniform_random_graph(n_vertices, degree, seed=3),
              uniform_random_graph(n_vertices, degree, seed=4, with_values=True)),
        "K": (kronecker_graph(scale, degree, seed=5),
              kronecker_graph(scale, degree, seed=6, with_values=True)),
    }
    rng = np.random.default_rng(7)
    return {
        name: (plain, weighted,
               rng.random(weighted.num_vertices).astype(np.float32))
        for name, (plain, weighted) in graphs.items()
    }


def _graph_cell(spec: GraphSpec, cell: Mapping[str, Any]) -> Runner:
    system = "native" if cell["stage"] == "kernel" else cell["system"]
    knobs = dict(
        preload=cell["stage"] == "preloaded",
        cache_lines=spec.cache_lines,
        num_threads=spec.num_threads,
    )

    def run() -> Mapping[str, Any]:
        plain, weighted, x = _graph_inputs(spec.n_vertices, spec.degree)[cell["graph"]]
        if cell["app"] == "bfs":
            return {"total_ns": run_bfs(system, plain, 0, **knobs).total_ns}
        return {"total_ns": run_spmv(system, weighted, x, **knobs).total_ns}

    return run


def _graph_breakdown(spec: GraphSpec, cells: Sequence[Cell]) -> List[Cell]:
    """Per workload and system, API overheads normalized to kernel time
    (``section=breakdown``); per workload, BaM's overhead over AGILE's
    (``section=reduction``)."""
    rows, overheads = [], {}
    for rest, stages in pivot(cells, "stage").items():
        if len(stages) < len(STAGES):
            continue
        axes = dict(rest)
        kernel, preloaded, full = (stages[s]["metrics"]["total_ns"] for s in STAGES)
        cache_api, io_api = max(preloaded - kernel, 0.0), max(full - preloaded, 0.0)
        normalized = {"kernel": 1.0, "cache_api": cache_api / kernel,
                      "io_api": io_api / kernel, "total": full / kernel}
        rows.append(_row("breakdown", normalized, **axes))
        workload = overheads.setdefault((axes["app"], axes["graph"]), {})
        workload[axes["system"]] = (cache_api, io_api, full)
    for (app, graph), by in overheads.items():
        if {"agile", "bam"} <= set(by):
            (a_cache, a_io, a_full), (b_cache, b_io, b_full) = by["agile"], by["bam"]
            reduction = {"cache_api": b_cache / max(a_cache, 1e-9),
                         "io_api": b_io / max(a_io, 1e-9), "total": b_full / a_full}
            rows.append(_row("reduction", reduction, app=app, graph=graph))
    return rows


FIG11 = Experiment(
    name="fig11",
    help="BFS/SpMV execution-time breakdown on uniform and Kronecker graphs",
    spec=GraphSpec(),
    axes={
        "app": ("bfs", "spmv"),
        "graph": ("U", "K"),
        "system": ("agile", "bam"),
        "stage": STAGES,
    },
    build=_graph_cell,
    derive=_graph_breakdown,
    checks=_claims(
        lambda cells: {
            part: _by(cells, "reduction", part, "app", "graph")
            for part in ("cache_api", "total")
        },
        (
            "agile_cuts_cache_api_overhead",
            lambda m: all(cut > 1.5 for cut in m["cache_api"].values()),
            "cache overhead cut 1.93-3.17x, I/O overhead 1.06-2.85x; only the "
            "cache-API part (> 1.5x) is robust at simulator scale",
        ),
        (
            "agile_total_below_bam",
            lambda m: all(ratio > 1.0 for ratio in m["total"].values()),
            "AGILE's total runtime is lower on every workload",
        ),
    ),
)


# -- Figure 12 -------------------------------------------------------------------

PAPER_REGISTER_REDUCTIONS = {"vector_mean": 1.04, "bfs": 1.22, "spmv": 1.32}


def _register_reductions(spec: Any, cells: Sequence[Cell]) -> List[Cell]:
    return [
        _row(
            "reduction",
            {"bam_over_agile": c["metrics"]["bam"] / c["metrics"]["agile"]},
            **c["axes"],
        )
        for c in cells
        if "bam" in c["metrics"]
    ]


FIG12 = Experiment(
    name="fig12",
    help="per-thread register usage, BaM vs AGILE (KIR estimator)",
    spec={},
    axes={"kernel": ("vector_mean", "bfs", "spmv", "service")},
    build=lambda spec, cell: lambda: figure12_registers()[cell["kernel"]],
    derive=_register_reductions,
    checks=_claims(
        lambda cells: {
            "agile_registers": _by(cells, None, "agile", "kernel"),
            "reduction": _by(cells, "reduction", "bam_over_agile", "kernel"),
        },
        (
            "service_kernel_registers",
            lambda m: m["agile_registers"]["service"] == 37,
            "the AGILE service kernel uses 37 registers",
        ),
        (
            "reductions_match_the_paper",
            lambda m: all(
                abs(m["reduction"][kernel] - paper) <= 0.06
                for kernel, paper in PAPER_REGISTER_REDUCTIONS.items()
            ),
            "1.04x/1.22x/1.32x on VectorMean/BFS/SpMV (+-0.06)",
        ),
        (
            "reduction_grows_with_kernel_complexity",
            lambda m: m["reduction"]["vector_mean"]
            < m["reduction"]["bfs"]
            < m["reduction"]["spmv"],
            "VectorMean < BFS < SpMV",
        ),
    ),
)


# -- Ablations on a one-SSD AGILE host ---------------------------------------------


@dataclass(frozen=True)
class PageStreamSpec(Checked):
    data_pages: int = legal(ge=1)


@dataclass(frozen=True)
class PollingSpec(Checked):
    total_requests: int = legal(2048, ge=1)


def _kernel_ns(
    cache: CacheConfig,
    threads: int,
    make_body: Callable[[AgileHost], Callable],
    **machine: Any,
) -> Tuple[float, Dict[str, Dict[str, float]]]:
    """One single-block kernel on a fresh one-SSD host: simulated ns and
    ``host.stats()``."""
    ssd = SsdConfig(name="ssd0", capacity_bytes=1 << 28)
    host = AgileHost(SystemConfig(cache=cache, ssds=(ssd,), **machine))
    kernel = KernelSpec(name="ablation", body=make_body(host), registers_per_thread=40)
    with host:
        total = host.run_kernel(kernel, LaunchConfig(1, threads))
        host.drain()
    return total, host.stats()


def _page_stream_ns(cache: CacheConfig, lbas: np.ndarray):
    """64 threads stride through ``lbas`` with cached page reads."""
    threads = 64

    def make_body(host: AgileHost) -> Callable:
        def body(tc, ctrl):
            chain = AgileLockChain(f"abl.t{tc.tid}")
            for k in range(tc.tid, len(lbas), threads):
                line = yield from ctrl.read_page(tc, chain, 0, int(lbas[k]))
                yield from tc.hbm_load(64)
                ctrl.cache.unpin(line)

        return body

    return _kernel_ns(cache, threads, make_body, queue_pairs=4, queue_depth=32)


def _policy_cell(spec: PageStreamSpec, cell: Mapping[str, Any]) -> Runner:
    cache = CacheConfig(num_lines=128, ways=8, policy=cell["policy"])

    def run() -> Mapping[str, Any]:
        # Zipf-skewed page accesses: policies differ under skewed reuse.
        lbas = np.random.default_rng(11).zipf(1.3, size=2048) % spec.data_pages
        total, stats = _page_stream_ns(cache, lbas)
        hits, misses = stats["cache"]["hits"], stats["cache"]["misses"]
        return {"total_ns": total, "hit_rate": hits / max(hits + misses, 1)}

    return run


ABL_POLICIES = Experiment(
    name="abl-policies",
    help="cache replacement policies on one Zipf page stream",
    spec=PageStreamSpec(data_pages=512),
    axes={"policy": ("clock", "lru", "fifo", "random")},
    build=_policy_cell,
    checks=_claims(
        lambda cells: _by(cells, None, "hit_rate", "policy"),
        (
            "hit_rates_are_fractions",
            lambda hit: all(0.0 <= rate <= 1.0 for rate in hit.values()),
            "pluggable policies (§3.4): all four built-ins run the same stream",
        ),
        (
            "recency_aware_beats_random",
            lambda hit: max(hit["clock"], hit["lru"]) >= hit["random"],
            "recency-aware policies (clock/lru) beat random under skewed reuse",
        ),
    ),
)


def _dram_tier_cell(spec: PageStreamSpec, cell: Mapping[str, Any]) -> Runner:
    tier_lines = spec.data_pages if cell["hierarchy"] == "hbm+dram" else 0
    cache = CacheConfig(num_lines=128, ways=8, dram_tier_lines=tier_lines)

    def run() -> Mapping[str, Any]:
        # Two scans of a set larger than the HBM cache: the second
        # re-reads pages the first evicted.
        total, stats = _page_stream_ns(cache, np.tile(np.arange(spec.data_pages), 2))
        hits = stats["cache"].get("dram_tier_hits", 0.0)
        return {"total_ns": total, "dram_tier_hits": hits}

    return run


ABL_DRAM_TIER = Experiment(
    name="abl-dram-tier",
    help="host-DRAM victim tier on/off under a repeated thrashing scan",
    spec=PageStreamSpec(data_pages=1024),
    axes={"hierarchy": ("hbm-only", "hbm+dram")},
    build=_dram_tier_cell,
    derive=_speedups("hierarchy", "hbm-only"),
    checks=_claims(
        lambda cells: _only(cells, "speedup"),
        (
            "dram_tier_speeds_up_the_rescan",
            lambda gain: gain["hbm+dram"] > 1.2,
            "§5 extension 1: the tier turns capacity misses into DRAM hits",
        ),
    ),
)


def _polling_cell(spec: PollingSpec, cell: Mapping[str, Any]) -> Runner:
    _need_positive(**cell)
    threads = 128

    def make_body(host: AgileHost) -> Callable:
        bufs = [host.alloc_view(4096) for _ in range(threads)]
        per = spec.total_requests // threads

        def body(tc, ctrl):
            chain = AgileLockChain(f"w{tc.tid}")
            pending = []
            for i in range(per):
                txn = yield from ctrl.raw_read(
                    tc, chain, 0, (tc.tid * per + i) % 1024, bufs[tc.tid]
                )
                pending.append(txn)
                if len(pending) > 8:
                    yield from pending.pop(0).wait()
            for txn in pending:
                yield from txn.wait()

        return body

    def run() -> Mapping[str, Any]:
        total, _ = _kernel_ns(
            CacheConfig(num_lines=64, ways=8),
            threads,
            make_body,
            queue_pairs=8,
            queue_depth=64,
            service=ServiceConfig(polling_warps=cell["polling_warps"]),
        )
        return {"total_ns": total}

    return run


ABL_POLLING_WARPS = Experiment(
    name="abl-polling-warps",
    help="AGILE service polling-warp scaling under 4 KB read pressure",
    spec=PollingSpec(),
    axes={"polling_warps": (1, 2, 4)},
    build=_polling_cell,
    checks=_claims(
        lambda cells: _by(cells, None, "total_ns", "polling_warps"),
        (
            "more_polling_warps_never_slow_completion_handling",
            lambda total_ns: total_ns[4] <= total_ns[1] * 1.1,
            "Algorithm 1: completion handling scales with polling warps "
            "(10% slack)",
        ),
    ),
)

EXPERIMENTS = (
    FIG4, FIG5, FIG6, FIG7, FIG8, FIG9, FIG10, FIG11, FIG12,
    ABL_COALESCING, ABL_POLICIES, ABL_DRAM_TIER, ABL_POLLING_WARPS,
)

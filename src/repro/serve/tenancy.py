"""The tenancy scenario matrix: tenant mixes × fault storms × placement.

The multi-tenant interference experiment the GPU-SSD allocation
literature asks for: latency-critical LLM inference (KV-cache paging
through the four-state cache), its causally-tied KV appends, throughput
batch-training reads, background checkpoint writes, and vector-search
beam walks — five tenant classes sharing one AGILE machine.  Every cell
of the matrix runs the *identical* offered timeline through two arms:

- **wfq** — :class:`~repro.serve.wfq.WeightedFairAdmission` with the
  shares declared here (inference weighted high and shed-guarded, batch
  training weighted low and shed-tolerant);
- **fifo** — the plain admission queue (the control arm).

The headline the CI smoke gate asserts: under overload with a fault
storm, the wfq arm keeps inference's completed-request p99 inside its
SLO budget while the fifo arm blows it, and the difference is absorbed
by batch-training *shedding* — bounded by its share's ``max_shed_frac``,
so no class starves.  ``TENANCY`` is the
:class:`~repro.serve.experiment.Experiment`: mix x storm x placement x
arm, a ``section=headline`` row per cell pair and one ``section=summary``.

Everything is seed-deterministic: arrival rng streams are named per
class, storm plans derive from the seed, and the workload traces are
pure functions of their specs — two runs of ``python -m repro.bench run
tenancy`` produce byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Sequence

from repro.config import (
    CacheConfig,
    Checked,
    PlacementConfig,
    SsdConfig,
    SystemConfig,
    legal,
)
from repro.faults import (
    STORM_RECOVERY,
    plan_from_seed,
    program_erase_plan_from_seed,
)
from repro.serve.arrival import ArrivalProcess, Poisson
from repro.serve.backends import ServeBackend
from repro.serve.experiment import (
    Cell,
    CellPlan,
    Check,
    Experiment,
    pivot,
    run_cell,
    serve_config,
    serve_runner,
)
from repro.serve.registry import (
    CKPT,
    INFER,
    KV_APPEND,
    TRAIN,
    VSEARCH,
    tenant_class,
)
from repro.serve.request import RequestClass
from repro.serve.slo import ServeReport
from repro.serve.wfq import TenancyConfig, TenantShare
from repro.workloads.checkpoint import CheckpointSpec, checkpoint_trace
from repro.workloads.kvcache import KvCacheSpec, kvcache_lba_space, kvcache_traces
from repro.workloads.vsearch import (
    VsearchSpec,
    vsearch_lba_space,
    vsearch_logical_trace,
)

#: Legal values of the matrix axes.
STORMS = ("none", "storm", "pe-storm")
TENANCY_PLACEMENTS = ("striped", "tenant_affine", "load_aware")
ARMS = ("wfq", "fifo")

#: Tenant mixes: fraction of the offered rate per class.  ``kv_append``
#: is absent on purpose — its rate is causally derived from the KV-cache
#: schedule (appends per decode read), not an independent dial.
#: The latency-critical classes are sized to fit comfortably inside the
#: machine's capacity on their own; the *page-heavy* batch classes are
#: what push the total offered load past it.  Interference — not
#: inference self-overload — is the object of study.
MIXES: Dict[str, Dict[str, float]] = {
    "inference_heavy": {INFER: 0.16, TRAIN: 0.46, CKPT: 0.08, VSEARCH: 0.30},
    "train_heavy": {INFER: 0.08, TRAIN: 0.62, CKPT: 0.08, VSEARCH: 0.22},
}


@dataclass(frozen=True)
class TenancySpec(Checked):
    """What the tenancy matrix holds fixed across its cells."""

    rate_rps: float = legal(250_000.0, gt=0)
    duration_ns: float = legal(8_000_000.0, gt=0)
    seed: int = legal(7, ge=0)
    num_ssds: int = legal(2, ge=1)
    #: Software-cache lines — deliberately far below the KV region, so
    #: paging pressure (faults + evictions of cold sequences) is real.
    cache_lines: int = legal(64, ge=1)
    #: Deep admission buffer: the fifo arm's p99 damage *is* this queue.
    admission_capacity: int = legal(768, ge=1)
    max_batch: int = legal(32, ge=1)
    max_wait_ns: float = legal(50_000.0, ge=0)
    storm_intensity: float = legal(1.0, ge=0)
    #: Per-class SLO budgets (ns).
    infer_slo_ns: float = legal(3_000_000.0, gt=0)
    #: Degraded-mode multiplier on the inference p99 budget in storm
    #: cells: fault-recovery tails (command timeouts + retries) inflate
    #: *everyone's* p99 by mechanics no admission scheduler can remove,
    #: so the storm-cell claim is "within the degraded budget" — the
    #: strict budget still governs calm cells and attainment accounting.
    storm_slo_factor: float = legal(3.0, ge=1)
    kv_append_slo_ns: float = legal(8_000_000.0, gt=0)
    train_slo_ns: float = legal(20_000_000.0, gt=0)
    ckpt_slo_ns: float = legal(50_000_000.0, gt=0)
    vsearch_slo_ns: float = legal(4_000_000.0, gt=0)
    #: Batch-training request shape and region.
    train_pages: int = legal(8, ge=1)
    train_space: int = legal(1024, ge=1)
    kv: KvCacheSpec = KvCacheSpec()
    ckpt: CheckpointSpec = CheckpointSpec(table_pages=128, shard_pages=4)
    vsearch: VsearchSpec = VsearchSpec(num_nodes=512)


def tenancy_shares() -> TenancyConfig:
    """The wfq arm's scheduling contract.

    Inference and its KV appends are latency-critical: high weight, high
    priority, tight shed guard (they must not be the overload's victim).
    Batch training is the explicit shock absorber: lowest priority and a
    near-open shed bound — but *near*-open, so the starvation guarantee
    stays a guarantee, not a vibe.
    """
    return TenancyConfig(
        (
            TenantShare(INFER, weight=6.0, priority=3, max_shed_frac=0.05),
            TenantShare(KV_APPEND, weight=4.0, priority=3, max_shed_frac=0.1),
            TenantShare(VSEARCH, weight=3.0, priority=2, max_shed_frac=0.3),
            TenantShare(CKPT, weight=1.0, priority=1, max_shed_frac=0.6),
            TenantShare(TRAIN, weight=1.0, priority=0, max_shed_frac=0.95),
        )
    )


# -- machine + workload construction -----------------------------------------


def _region_bases(spec: TenancySpec) -> Dict[str, int]:
    """Disjoint logical regions: KV blocks first (infer and kv_append
    share it — same tenant's data), then training data, the checkpoint
    table, and the vector index."""
    kv = kvcache_lba_space(spec.kv)
    bases = {
        INFER: 0,
        KV_APPEND: 0,
        TRAIN: kv,
        CKPT: kv + spec.train_space,
        VSEARCH: kv + spec.train_space + spec.ckpt.table_pages,
    }
    return bases


def tenancy_span(spec: TenancySpec) -> int:
    """Total logical pages across every class region."""
    return (
        kvcache_lba_space(spec.kv)
        + spec.train_space
        + spec.ckpt.table_pages
        + vsearch_lba_space(spec.vsearch)
    )


def tenancy_classes(spec: TenancySpec) -> List[RequestClass]:
    bases = _region_bases(spec)
    return [
        tenant_class(
            INFER,
            slo_ns=spec.infer_slo_ns,
            lba_space=kvcache_lba_space(spec.kv),
            lba_base=bases[INFER],
        ),
        tenant_class(
            KV_APPEND,
            slo_ns=spec.kv_append_slo_ns,
            lba_space=kvcache_lba_space(spec.kv),
            lba_base=bases[KV_APPEND],
        ),
        tenant_class(
            TRAIN,
            pages=spec.train_pages,
            slo_ns=spec.train_slo_ns,
            lba_space=spec.train_space,
            lba_base=bases[TRAIN],
        ),
        tenant_class(
            CKPT,
            pages=spec.ckpt.shard_pages,
            slo_ns=spec.ckpt_slo_ns,
            lba_space=spec.ckpt.table_pages,
            lba_base=bases[CKPT],
        ),
        tenant_class(
            VSEARCH,
            pages=spec.vsearch.beam_width,
            slo_ns=spec.vsearch_slo_ns,
            lba_space=vsearch_lba_space(spec.vsearch),
            lba_base=bases[VSEARCH],
        ),
    ]


def _system_config(
    spec: TenancySpec, storm: str, placement: str
) -> SystemConfig:
    if storm == "storm":
        faults = plan_from_seed(spec.seed, spec.storm_intensity)
    elif storm == "pe-storm":
        faults = program_erase_plan_from_seed(spec.seed, spec.storm_intensity)
    else:
        faults = None
    policy = placement if spec.num_ssds > 1 else "striped"
    cfg = SystemConfig(
        seed=spec.seed,
        cache=CacheConfig(num_lines=spec.cache_lines, ways=4),
        ssds=(SsdConfig(capacity_bytes=1 << 28),),
        queue_pairs=4,
        queue_depth=32,
        placement=PlacementConfig(
            policy=policy, stripe_pages=1, shard_span=tenancy_span(spec)
        ),
    )
    if faults is not None:
        cfg = replace(cfg, faults=faults, recovery=STORM_RECOVERY)
    return cfg.with_ssds(spec.num_ssds)


def tenancy_arrivals(
    spec: TenancySpec, mix_name: str, backend: ServeBackend
) -> Dict[str, ArrivalProcess]:
    """Arrival processes for one mix: KV traces are lock-step logical
    replays, checkpoints replay their shard schedule through placement,
    vector search replays its beam walks, training is Poisson."""
    mix = MIXES[mix_name]
    bases = _region_bases(spec)
    infer_rate = spec.rate_rps * mix[INFER]
    read_trace, append_trace = kvcache_traces(
        spec.kv, infer_rate, lba_base=bases[INFER]
    )
    return {
        INFER: read_trace,
        KV_APPEND: append_trace,
        TRAIN: Poisson(spec.rate_rps * mix[TRAIN]),
        CKPT: checkpoint_trace(
            spec.ckpt,
            spec.rate_rps * mix[CKPT],
            backend.place,
            lba_base=bases[CKPT],
            tenant=CKPT,
        ),
        VSEARCH: vsearch_logical_trace(
            spec.vsearch,
            spec.rate_rps * mix[VSEARCH],
            lba_base=bases[VSEARCH],
        ),
    }


# -- one cell -----------------------------------------------------------------


def tenancy_cell(spec: TenancySpec, cell: Mapping[str, Any]) -> CellPlan:
    """One arm of one (mix, storm, placement) cell: identical seed and
    arrival timeline across arms; only the admission policy differs."""
    return CellPlan(
        system="agile",
        config=_system_config(spec, cell["storm"], cell["placement"]),
        classes=tenancy_classes(spec),
        arrivals=lambda backend: tenancy_arrivals(spec, cell["mix"], backend),
        serve=serve_config(
            spec, tenancy_shares() if cell["arm"] == "wfq" else None
        ),
    )


def run_tenancy_arm(
    spec: TenancySpec, mix_name: str, storm: str, placement: str, arm: str
) -> ServeReport:
    """One arm of one cell on a fresh machine."""
    return run_cell(
        tenancy_cell(
            spec,
            {"mix": mix_name, "storm": storm, "placement": placement, "arm": arm},
        )
    )


# -- headline arithmetic ------------------------------------------------------


def _shed_frac(report: Mapping[str, Any], name: str) -> float:
    cls = report["classes"][name]
    return cls["shed"] / cls["offered"] if cls["offered"] else 0.0


def cell_headline(
    spec: TenancySpec,
    wfq: Mapping[str, Any],
    fifo: Mapping[str, Any],
    storm: str,
) -> Dict[str, object]:
    """The scalars the smoke gate and the store watch, per cell, from the
    two arms' report dicts.

    ``infer_slo_budget_ns`` is the p99 budget this cell is judged
    against: the strict SLO in calm cells, ``storm_slo_factor`` times it
    when a fault storm is armed (degraded-mode budget).  Attainment is
    always accounted against the strict SLO.
    """
    starved = sorted(
        name for name, cls in wfq["classes"].items() if cls["completed"] == 0
    )
    budget = spec.infer_slo_ns * (
        spec.storm_slo_factor if storm != "none" else 1.0
    )
    return {
        "infer_slo_ns": spec.infer_slo_ns,
        "infer_slo_budget_ns": budget,
        "wfq_infer_p99_ns": wfq["classes"][INFER]["p99_ns"],
        "fifo_infer_p99_ns": fifo["classes"][INFER]["p99_ns"],
        "wfq_infer_slo_attainment": wfq["classes"][INFER]["slo_attainment"],
        "fifo_infer_slo_attainment": fifo["classes"][INFER]["slo_attainment"],
        "wfq_infer_shed_frac": _shed_frac(wfq, INFER),
        "wfq_train_shed_frac": _shed_frac(wfq, TRAIN),
        "fifo_train_shed_frac": _shed_frac(fifo, TRAIN),
        "wfq_train_completed": wfq["classes"][TRAIN]["completed"],
        "starved_classes": starved,
    }


def _headline_ok(headline: Mapping[str, Any]) -> bool:
    """One cell's interference claim: wfq keeps inference inside the
    cell's budget, fifo does not, nobody starves, and the sheds that
    protect inference land on batch training."""
    budget = headline["infer_slo_budget_ns"]
    return (
        headline["wfq_infer_p99_ns"] <= budget
        and headline["fifo_infer_p99_ns"] > budget
        and not headline["starved_classes"]
        and headline["wfq_train_shed_frac"] >= headline["wfq_infer_shed_frac"]
    )


#: How the summary takes each headline scalar's worst case.
WORST = {
    "wfq_infer_p99_ns": max,
    "fifo_infer_p99_ns": min,
    "wfq_infer_slo_attainment": min,
    "fifo_infer_slo_attainment": max,
    "wfq_train_shed_frac": max,
}


def tenancy_rows(spec: TenancySpec, cells: Sequence[Cell]) -> List[Cell]:
    """A ``section=headline`` row per (mix, storm, placement) that ran
    both arms, then one ``section=summary``.

    ``summary.headline_ok`` is 1 iff *every* cell individually passes
    :func:`_headline_ok` — calm cells against the strict inference
    budget, storm cells against the degraded-mode budget.  The worst-case
    scalars are taken over the storm cells, the stress condition the store
    baseline watches (over every cell when the matrix has no storm cell).
    """
    rows: List[Cell] = [
        {
            "axes": {**dict(rest), "section": "headline"},
            "metrics": cell_headline(
                spec,
                arms["wfq"]["metrics"],
                arms["fifo"]["metrics"],
                dict(rest)["storm"],
            ),
        }
        for rest, arms in pivot(cells, "arm").items()
        if len(arms) == len(ARMS)
    ]
    if not rows:
        return []
    heads = [row["metrics"] for row in rows]
    stressed = [
        row["metrics"] for row in rows if row["axes"]["storm"] != "none"
    ] or heads
    summary = {
        "infer_slo_ns": spec.infer_slo_ns,
        **{key: worst(h[key] for h in stressed) for key, worst in WORST.items()},
        "min_train_completed": min(h["wfq_train_completed"] for h in stressed),
        "headline_ok": int(all(map(_headline_ok, heads))),
    }
    return [*rows, {"axes": {"section": "summary"}, "metrics": summary}]


def _headline_check(cell: Cell) -> Check:
    h = cell["metrics"]
    return {
        "name": "headline:" + ",".join(
            f"{k}={v}" for k, v in cell["axes"].items() if k != "section"
        ),
        "ok": _headline_ok(h),
        "detail": f"infer p99 wfq {h['wfq_infer_p99_ns'] / 1e6:.3f} ms "
        f"vs fifo {h['fifo_infer_p99_ns'] / 1e6:.3f} ms "
        f"(budget {h['infer_slo_budget_ns'] / 1e6:g} ms); "
        f"shed infer {h['wfq_infer_shed_frac']:.3f} "
        f"train {h['wfq_train_shed_frac']:.3f}; "
        f"starved {h['starved_classes']}",
    }


def _headline_checks(spec: TenancySpec, cells: Sequence[Cell]) -> List[Check]:
    """One check per cell: wfq inside budget, fifo outside, sheds on batch
    training, nobody starved."""
    return [
        _headline_check(c) for c in cells if c["axes"].get("section") == "headline"
    ]


TENANCY = Experiment(
    name="tenancy",
    help="multi-tenant scenario matrix: wfq vs fifo admission per cell",
    spec=TenancySpec(),
    axes={
        "mix": tuple(MIXES),
        "storm": ("none", "storm"),
        "placement": ("striped", "tenant_affine"),
        "arm": ARMS,
    },
    choices={"storm": STORMS, "placement": TENANCY_PLACEMENTS},
    build=lambda spec, cell: serve_runner(tenancy_cell(spec, cell)),
    derive=tenancy_rows,
    checks=_headline_checks,
    # The CI-sized matrix: one mix, calm + classic storm, one placement.
    quick=("mix=inference_heavy", "placement=striped"),
)


def quick_spec(seed: int = 7) -> TenancySpec:
    """The matrix spec at ``seed`` (the perf harness's entry point)."""
    return replace(TENANCY.spec, seed=seed)

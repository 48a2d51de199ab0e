"""Write-heavy serving: GC pauses bend the tail, and the sweep shows it.

The read-only saturation sweep holds the device's write path idle; this
module turns it on.  Three tenants share a deliberately small machine:

- ``ckpt`` — DLRM-checkpoint-style streaming writes
  (:mod:`repro.workloads.checkpoint`): sequential shard sweeps over an
  embedding-table region with cycling hot-head rewrites, issued as
  cache-bypassing device writes (``op="write"``);
- ``hot`` — read-modify-write traffic (``op="modify"``) over a compact
  region through the software cache, so eviction pressure turns dirty
  lines into device programs on the write-back path;
- ``point`` — latency-sensitive 1-page reads, the tenant whose p99 the
  experiment watches.

The device geometry is shrunk (few hundred pages per device, small erase
blocks, modest over-provisioning) so sustained writes wrap the flash
within a simulated window of tens of milliseconds: the FTL runs out of
free blocks, garbage-collects, and GC's relocation reads, programs, and
erases contend with ``point``'s reads on the same flash channels.  The
headline comparison runs the identical offered timeline twice — GC
enabled vs disabled (in-place updates, no erases) — and the delta in
read p99 *is* the GC pause tail.  ``WRITE_PATH`` is the
:class:`~repro.serve.experiment.Experiment`: GC arm x offered load, one
knee row per arm, and the summary scalars the store gate watches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Mapping, Sequence

from repro.config import (
    CacheConfig, Checked, ConfigError, PlacementConfig, SsdConfig, SystemConfig, legal,
)
from repro.serve.arrival import Poisson
from repro.serve.experiment import (
    Cell,
    CellPlan,
    Check,
    Experiment,
    knee_cells,
    pivot,
    run_cell,
    serve_config,
    serve_runner,
)
from repro.serve.registry import CKPT, HOT, POINT, tenant_class
from repro.serve.request import RequestClass
from repro.serve.slo import ServeReport
from repro.workloads.checkpoint import CheckpointSpec, checkpoint_trace

#: Tenant mix (fractions of the offered request rate; sum to 1).
READ_FRACTION = 0.5
MODIFY_FRACTION = 0.3
CKPT_FRACTION = 0.2

#: The ``system`` axis: the FTL with out-of-place updates and GC, or with
#: in-place updates (no erases) on the identical arrival timeline.
GC_ARMS = ("gc_on", "gc_off")


@dataclass(frozen=True)
class WritePathSpec(Checked):
    """One write-path experiment's fixed parameters.

    The device geometry is the experiment: small enough that the offered
    write stream wraps the flash inside ``duration_ns``, realistic enough
    (block erase >> page program) that GC pauses are visible.
    """

    duration_ns: float = legal(20_000_000.0, gt=0)
    seed: int = legal(7, ge=0)
    num_ssds: int = legal(2, ge=1)
    #: Logical pages per device (the shrunk geometry).
    device_pages: int = legal(256, ge=1)
    pages_per_block: int = legal(8, ge=1)
    op_ratio: float = legal(0.25, ge=0, lt=1)
    gc_policy: str = legal("greedy", choices=("greedy", "cost_benefit"))
    gc_low_water_blocks: int = legal(6, ge=1)
    gc_high_water_blocks: int = legal(10, ge=1)
    #: Software-cache lines — far below ``modify_space``, so nearly every
    #: read-modify-write misses, evicts a dirty line, and the write-back
    #: lands a live hot page amid the checkpoint churn (mixed-validity
    #: blocks are what make GC relocate instead of just erasing).
    cache_lines: int = legal(16, ge=1)
    #: Logical regions (disjoint; must fit ``num_ssds * device_pages``).
    table_pages: int = legal(128, ge=1)
    modify_space: int = legal(96, ge=1)
    read_space: int = legal(128, ge=1)
    shard_pages: int = legal(4, ge=1)
    admission_capacity: int = legal(256, ge=1)
    max_batch: int = legal(32, ge=1)
    max_wait_ns: float = legal(50_000.0, ge=0)
    read_slo_ns: float = legal(2_000_000.0, gt=0)
    modify_slo_ns: float = legal(5_000_000.0, gt=0)
    ckpt_slo_ns: float = legal(20_000_000.0, gt=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        span = self.table_pages + self.modify_space + self.read_space
        if span > self.num_ssds * self.device_pages:
            raise ConfigError(
                f"logical regions ({span} pages) exceed the array "
                f"({self.num_ssds} x {self.device_pages} pages)"
            )


def write_path_classes(spec: WritePathSpec) -> List[RequestClass]:
    """The three-tenant mix on disjoint logical regions (ckpt at the
    bottom, then the modify region, then the read region)."""
    return [
        tenant_class(
            CKPT,
            pages=spec.shard_pages,
            slo_ns=spec.ckpt_slo_ns,
            weight=CKPT_FRACTION,
            lba_space=spec.table_pages,
            lba_base=0,
        ),
        tenant_class(
            HOT,
            pages=1,
            slo_ns=spec.modify_slo_ns,
            weight=MODIFY_FRACTION,
            queue_timeout_ns=spec.modify_slo_ns,
            lba_space=spec.modify_space,
            lba_base=spec.table_pages,
        ),
        tenant_class(
            POINT,
            pages=1,
            slo_ns=spec.read_slo_ns,
            weight=READ_FRACTION,
            queue_timeout_ns=spec.read_slo_ns,
            lba_space=spec.read_space,
            lba_base=spec.table_pages + spec.modify_space,
        ),
    ]


def _system_config(spec: WritePathSpec, gc_enabled: bool) -> SystemConfig:
    page_size = 4096
    ssd = SsdConfig(
        capacity_bytes=spec.device_pages * page_size,
        page_size=page_size,
        pages_per_block=spec.pages_per_block,
        op_ratio=spec.op_ratio,
        gc_policy=spec.gc_policy,
        gc_low_water_blocks=spec.gc_low_water_blocks,
        gc_high_water_blocks=spec.gc_high_water_blocks,
        gc_enabled=gc_enabled,
    )
    return SystemConfig(
        seed=spec.seed,
        ssds=(ssd,),
        cache=CacheConfig(num_lines=spec.cache_lines),
        placement=PlacementConfig(policy="striped", stripe_pages=1),
    ).with_ssds(spec.num_ssds)


def write_path_cell(spec: WritePathSpec, cell: Mapping[str, Any]) -> CellPlan:
    """One offered load on one GC arm; both arms replay the *identical*
    arrival timeline (same seed, same rng streams)."""
    rate_rps = cell["target_rps"]
    ckpt_spec = CheckpointSpec(
        table_pages=spec.table_pages, shard_pages=spec.shard_pages
    )
    return CellPlan(
        system="agile",
        config=_system_config(spec, gc_enabled=cell["system"] == "gc_on"),
        classes=write_path_classes(spec),
        arrivals=lambda backend: {
            CKPT: checkpoint_trace(
                ckpt_spec,
                rate_rps * CKPT_FRACTION,
                backend.place,
                lba_base=0,
                tenant=CKPT,
            ),
            HOT: Poisson(rate_rps * MODIFY_FRACTION),
            POINT: Poisson(rate_rps * READ_FRACTION),
        },
        serve=serve_config(spec),
    )


@dataclass(frozen=True)
class ServePoint:
    """One offered-load sample and its report."""

    system: str
    offered_rps: float
    report: ServeReport


def run_write_path_point(
    rate_rps: float, spec: WritePathSpec, gc_enabled: bool = True
) -> ServePoint:
    """Serve one offered-load point on a fresh machine."""
    arm = "gc_on" if gc_enabled else "gc_off"
    report = run_cell(write_path_cell(spec, {"system": arm, "target_rps": rate_rps}))
    return ServePoint("agile" if gc_enabled else "agile-gc-off", rate_rps, report)


def _read_p99(cell: Cell) -> float:
    return cell["metrics"]["classes"][POINT]["p99_ns"]


def write_path_rows(spec: WritePathSpec, cells: Sequence[Cell]) -> List[Cell]:
    """A knee per GC arm plus the ``section=summary`` scalars the store
    gate watches: worst WAF and GC stall over the GC-on loads, the worst
    GC-on / GC-off read-p99 ratio, and eviction write-backs lost."""
    knees = knee_cells(cells)
    knee = {k["axes"]["system"]: k["metrics"]["knee_rps"] for k in knees}
    gc_on = [
        c["metrics"]["write_path"] for c in cells if c["axes"]["system"] == "gc_on"
    ]
    inflation = [
        _read_p99(arm["gc_on"]) / _read_p99(arm["gc_off"])
        if _read_p99(arm["gc_off"]) > 0
        else 1.0
        for arm in pivot(cells, "system").values()
        if len(arm) == 2
    ]
    summary = {
        "mean_waf": max((wp["mean_waf"] for wp in gc_on), default=1.0),
        "gc_stall_ns": max((wp["gc_stall_ns"] for wp in gc_on), default=0.0),
        "read_p99_inflation": max(inflation, default=1.0),
        "knee_rps_gc_on": knee.get("gc_on", 0.0),
        "knee_rps_gc_off": knee.get("gc_off", 0.0),
        "writebacks_lost": sum(wp["writebacks_lost"] for wp in gc_on),
    }
    return [*knees, {"axes": {"section": "summary"}, "metrics": summary}]


def _no_writeback_lost(spec: WritePathSpec, cells: Sequence[Cell]) -> List[Check]:
    lost = sum(
        c["metrics"]["writebacks_lost"]
        for c in cells
        if c["axes"] == {"section": "summary"}
    )
    return [
        {
            "name": "no_writeback_lost",
            "ok": lost == 0,
            "detail": f"{lost} eviction write-back(s) lost without a fault plan",
        }
    ]


WRITE_PATH = Experiment(
    name="write-path",
    help="write-heavy serving, GC on vs off (WAF, GC stall, read-p99 inflation)",
    spec=WritePathSpec(),
    # Three loads straddling the write knee.
    axes={"system": GC_ARMS, "target_rps": (10_000.0, 30_000.0, 60_000.0)},
    build=lambda spec, cell: serve_runner(write_path_cell(spec, cell)),
    derive=write_path_rows,
    checks=_no_writeback_lost,
)


def quick_spec(seed: int = 7) -> WritePathSpec:
    """The CI-sized spec at ``seed`` (the perf harness's entry point)."""
    return replace(WRITE_PATH.spec, seed=seed)

"""The standard two-tenant mix and the two experiments that serve it.

The serving-layer headline experiment: fix the machine, sweep the offered
request rate across a range that straddles capacity, and plot goodput and
p99 against offered load for AGILE, BaM, and the naive-async strawman.
Below the knee all systems track the offered line; past it the curves
separate — AGILE's asynchronous issue keeps the GPU threads cheap per I/O
and the knee arrives later, while the shed/abort counters show exactly
where each system starts refusing work instead of silently queueing.

Workload: two tenant classes sharing the machine — ``point`` (1-page
lookups, tight SLO, 80 % of traffic) and ``scan`` (4-page reads, looser
SLO, 20 %).  Identical seeds produce identical arrival timelines on every
system, so curves are directly comparable point by point and
bit-identical across runs.

Two :class:`~repro.serve.experiment.Experiment` definitions share the
mix and one cell builder:

- ``serve-sweep`` — array size x placement x system x offered load, one
  ``knee_rps`` row per curve;
- ``placement-smoke`` — every placement policy head to head on a 4-SSD
  hotspot trace; claims striping spreads the hot head better than static
  sharding (lower ``skew_ratio``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Sequence

from repro.config import Checked, PlacementConfig, SystemConfig, legal
from repro.serve.arrival import Poisson
from repro.serve.experiment import (
    SYSTEMS,
    Cell,
    CellPlan,
    Check,
    Experiment,
    knee_cells,
    serve_config,
    serve_runner,
)
from repro.serve.registry import POINT, SCAN, tenant_class
from repro.serve.request import RequestClass

#: Placement policies the ``placement`` / ``policy`` axes accept (1-SSD
#: cells run ``identity`` so single-device traces stay bit-exact).
PLACEMENTS = ("shard", "striped", "load_aware", "tenant_affine")

#: Tenant mix used by the standard sweep (fractions sum to 1).
POINT_FRACTION = 0.8
SCAN_FRACTION = 0.2


@dataclass(frozen=True)
class SweepSpec(Checked):
    """What the standard-mix experiments hold fixed across their cells."""

    duration_ns: float = legal(10_000_000.0, gt=0)
    seed: int = legal(7, ge=0)
    lba_space: int = legal(2048, ge=1)
    admission_capacity: int = legal(256, ge=1)
    max_batch: int = legal(64, ge=1)
    max_wait_ns: float = legal(50_000.0, ge=0)
    point_slo_ns: float = legal(2_000_000.0, gt=0)
    scan_slo_ns: float = legal(5_000_000.0, gt=0)
    stripe_pages: int = legal(1, ge=1)
    #: Hotspot skew applied to both tenant classes (0.0 = uniform draws,
    #: which also keeps the pre-placement rng streams unchanged).
    skew: float = legal(0.0, ge=0, le=1)
    hot_fraction: float = legal(0.125, gt=0, le=1)


def standard_classes(spec: SweepSpec) -> List[RequestClass]:
    """The two-tenant mix on disjoint logical regions: ``point`` at the
    bottom of the space, ``scan`` directly above it (disjoint regions are
    what make tenant-affine placement meaningful)."""
    return [
        tenant_class(
            POINT,
            pages=1,
            slo_ns=spec.point_slo_ns,
            weight=POINT_FRACTION,
            queue_timeout_ns=spec.point_slo_ns,
            lba_space=spec.lba_space,
            lba_base=0,
            skew=spec.skew,
            hot_fraction=spec.hot_fraction,
        ),
        tenant_class(
            SCAN,
            pages=4,
            slo_ns=spec.scan_slo_ns,
            weight=SCAN_FRACTION,
            queue_timeout_ns=spec.scan_slo_ns,
            lba_space=spec.lba_space,
            lba_base=spec.lba_space,
            skew=spec.skew,
            hot_fraction=spec.hot_fraction,
        ),
    ]


def standard_cell(spec: SweepSpec, cell: Mapping[str, Any]) -> CellPlan:
    """One standard-mix cell.  ``ssds`` devices sit behind the cell's
    placement policy; a shard policy spans exactly the two class regions
    (``2 * lba_space``), so contiguous regions land on contiguous devices —
    the layout striping is supposed to beat under a hotspot."""
    ssds = cell["ssds"]
    cfg = SystemConfig(
        seed=spec.seed,
        placement=PlacementConfig(
            policy=cell["placement"] if ssds > 1 else "identity",
            stripe_pages=spec.stripe_pages,
            shard_span=2 * spec.lba_space,
        ),
    )
    classes = standard_classes(spec)
    arrivals = {
        cls.name: Poisson(cell["target_rps"] * cls.weight) for cls in classes
    }
    return CellPlan(
        system=cell["system"],
        config=cfg.with_ssds(ssds),
        classes=classes,
        arrivals=lambda backend: arrivals,
        serve=serve_config(spec),
    )


def _striped_beats_shard(spec: SweepSpec, cells: Sequence[Cell]) -> List[Check]:
    skew = {c["axes"]["policy"]: c["metrics"]["skew_ratio"] for c in cells}
    if not {"striped", "shard"} <= set(skew):
        return []
    return [
        {
            "name": "striped_spreads_the_hotspot",
            "ok": skew["striped"] < skew["shard"],
            "detail": f"striped skew {skew['striped']:.3f} vs "
            f"shard skew {skew['shard']:.3f}",
        }
    ]


SERVE_SWEEP = Experiment(
    name="serve-sweep",
    help="offered-load saturation curves per system (goodput, p99, knee)",
    spec=SweepSpec(),
    # Loads straddle every system's knee on the 2-SSD machine at 10 ms.
    axes={
        "ssds": (2,),
        "placement": ("striped",),
        "system": SYSTEMS,
        "target_rps": (
            10_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0, 320_000.0,
        ),
    },
    choices={"placement": PLACEMENTS},
    build=lambda spec, cell: serve_runner(standard_cell(spec, cell)),
    derive=lambda spec, cells: knee_cells(cells),
    quick=("target_rps=20000,80000",),
)

PLACEMENT_SMOKE = Experiment(
    name="placement-smoke",
    help="placement policies head to head on a 4-SSD hotspot trace",
    spec=SweepSpec(duration_ns=5_000_000.0, skew=0.8),
    # 80k rps is past the sharded machine's knee under the hotspot and
    # inside the striped one's.
    axes={
        "policy": PLACEMENTS,
        "ssds": (4,),
        "system": ("agile",),
        "target_rps": (80_000.0,),
    },
    pinned=("ssds", "system", "target_rps"),
    choices={"system": SYSTEMS},
    build=lambda spec, cell: serve_runner(
        standard_cell(spec, {**cell, "placement": cell["policy"]}),
        keep=("goodput_rps", "p99_ns", "completed", "skew_ratio", "device_reads"),
    ),
    checks=_striped_beats_shard,
)

EXPERIMENTS = (SERVE_SWEEP, PLACEMENT_SMOKE)

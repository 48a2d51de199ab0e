"""CLI: ``python -m repro.serve`` — saturation curves and placement smoke.

``sweep`` drives offered load across AGILE / BaM / naive-async on an
identical seed-deterministic arrival timeline and prints goodput + tail
latency per point, optionally writing the full curve set as JSON (schema
``agile-serve-sweep/3``).  ``--ssds`` and ``--placement`` accept comma
lists and expand into a grid: one saturation curve per (array size,
placement policy) cell.

``placement-smoke`` runs the head-to-head policy comparison on a skewed
trace and exits non-zero unless striping spreads the hotspot better than
static sharding — the CI guard for the placement layer.

``tenancy`` runs the multi-tenant scenario matrix (tenant mixes × fault
storms × placement policies, wfq vs fifo admission per cell; schema
``agile-tenancy/1``) and exits non-zero unless every cell shows the
interference headline: wfq keeps inference's p99 inside its budget,
fifo blows it, and the protective sheds land on batch training.

Examples::

    python -m repro.serve sweep --seed 7
    python -m repro.serve sweep --quick --systems agile,bam
    python -m repro.serve sweep --ssds 1,2,4 --placement shard,striped
    python -m repro.serve sweep --ssds 4 --placement striped --skew 0.6
    python -m repro.serve placement-smoke --out placement_smoke.json
    python -m repro.serve tenancy --quick --out tenancy.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.config import stable_hash
from repro.serve.sweep import (
    PLACEMENTS,
    SYSTEMS,
    SweepSpec,
    grid_as_dict,
    grid_label,
    knee_rps,
    placement_comparison,
    run_placement_grid,
)

#: Default offered loads (requests/s) — chosen to straddle every system's
#: knee at the default 2-SSD machine and 10 ms window.
DEFAULT_LOADS = (10_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0, 320_000.0)
QUICK_LOADS = (20_000.0, 80_000.0)

#: Offered load the placement smoke compares policies at — past the
#: sharded machine's knee under the hotspot, inside the striped one's.
SMOKE_RATE_RPS = 80_000.0
SMOKE_SKEW = 0.8


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Online-serving saturation sweeps (open-loop).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="offered-load saturation sweep")
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument(
        "--systems",
        default=",".join(SYSTEMS),
        help="comma-separated subset of: " + ", ".join(SYSTEMS),
    )
    sweep.add_argument(
        "--loads",
        default="",
        help="comma-separated offered loads in requests/s "
        "(default: a knee-straddling ladder)",
    )
    sweep.add_argument(
        "--duration-ms",
        type=float,
        default=10.0,
        help="offered-traffic window per point (simulated ms)",
    )
    sweep.add_argument(
        "--ssds",
        default="2",
        help="comma-separated SSD array sizes (a sweep axis)",
    )
    sweep.add_argument(
        "--placement",
        default="striped",
        help="comma-separated placement policies (a sweep axis); "
        "one of: " + ", ".join(PLACEMENTS),
    )
    sweep.add_argument(
        "--stripe-pages", type=int, default=1,
        help="stripe chunk size in pages (striped placement)",
    )
    sweep.add_argument(
        "--skew", type=float, default=0.0,
        help="fraction of page draws redirected to the hot head of each "
        "class region (0 = uniform)",
    )
    sweep.add_argument("--num-gpus", type=int, default=1)
    sweep.add_argument(
        "--quick", action="store_true",
        help="two loads instead of the full ladder (CI smoke)",
    )
    sweep.add_argument("--out", default="", help="write curves JSON here")

    smoke = sub.add_parser(
        "placement-smoke",
        help="striped-vs-shard skew guard on a hotspot trace (CI)",
    )
    smoke.add_argument("--seed", type=int, default=7)
    smoke.add_argument("--ssds", type=int, default=4)
    smoke.add_argument("--rate", type=float, default=SMOKE_RATE_RPS)
    smoke.add_argument("--skew", type=float, default=SMOKE_SKEW)
    smoke.add_argument("--duration-ms", type=float, default=5.0)
    smoke.add_argument("--out", default="", help="write comparison JSON here")

    wp = sub.add_parser(
        "write-path",
        help="write-heavy GC-on/GC-off tail-latency comparison",
    )
    wp.add_argument("--seed", type=int, default=7)
    wp.add_argument(
        "--loads",
        default="",
        help="comma-separated offered loads in requests/s "
        "(default: a GC-knee-straddling ladder)",
    )
    wp.add_argument("--out", default="", help="write comparison JSON here")

    ten = sub.add_parser(
        "tenancy",
        help="multi-tenant scenario matrix (wfq vs fifo per cell)",
    )
    ten.add_argument("--seed", type=int, default=7)
    ten.add_argument(
        "--quick", action="store_true",
        help="CI-sized matrix: one mix, calm + storm, one placement",
    )
    ten.add_argument("--out", default="", help="write matrix JSON here")
    return parser.parse_args(argv)


def _format_point(pt) -> str:
    rep = pt.report
    return (
        f"    {pt.offered_rps:>9,.0f} rps offered | "
        f"goodput {rep.goodput_rps:>9,.0f} rps | "
        f"p99 {rep.p99_ns / 1e6:7.3f} ms | "
        f"completed {rep.completed:>5d} shed {rep.shed:>4d} "
        f"aborted {rep.aborted:>4d} | "
        f"mean batch {rep.mean_batch_size:5.1f} | "
        f"skew {rep.skew_ratio:4.2f}"
    )


def _cmd_sweep(args) -> int:
    systems = tuple(s for s in args.systems.split(",") if s)
    for system in systems:
        if system not in SYSTEMS:
            print(f"unknown system {system!r}; want one of {SYSTEMS}",
                  file=sys.stderr)
            return 2
    ssd_counts = tuple(int(tok) for tok in args.ssds.split(",") if tok)
    placements = tuple(p for p in args.placement.split(",") if p)
    for placement in placements:
        if placement not in PLACEMENTS and placement != "identity":
            print(
                f"unknown placement {placement!r}; want one of {PLACEMENTS}",
                file=sys.stderr,
            )
            return 2
    if args.loads:
        loads = tuple(float(tok) for tok in args.loads.split(",") if tok)
    else:
        loads = QUICK_LOADS if args.quick else DEFAULT_LOADS
    spec = SweepSpec(
        loads_rps=loads,
        duration_ns=args.duration_ms * 1e6,
        seed=args.seed,
        stripe_pages=args.stripe_pages,
        skew=args.skew,
    )
    print(
        f"serve saturation sweep: seed={spec.seed} "
        f"window={args.duration_ms:g} ms "
        f"ssds={','.join(str(n) for n in ssd_counts)} "
        f"placement={','.join(placements)} skew={args.skew:g} "
        f"gpus={args.num_gpus}"
    )
    print(f"replay: python -m repro.serve sweep --seed {spec.seed} "
          f"--systems {','.join(systems)} "
          f"--loads {','.join(f'{ld:g}' for ld in loads)} "
          f"--duration-ms {args.duration_ms:g} "
          f"--ssds {','.join(str(n) for n in ssd_counts)} "
          f"--placement {','.join(placements)} "
          f"--skew {args.skew:g}")
    grid = run_placement_grid(
        spec, ssd_counts, placements, systems=systems, num_gpus=args.num_gpus
    )
    for count in ssd_counts:
        for placement in placements:
            label = grid_label(count, placement)
            curves = grid[label]
            print(f"  [{label}]")
            for system in systems:
                points = curves[system]
                print(f"  {system}: knee ~{knee_rps(points):,.0f} rps")
                for pt in points:
                    print(_format_point(pt))
    if args.out:
        from repro.store.meta import SERVE_SWEEP_SCHEMA, stamp

        doc = {
            "seed": spec.seed,
            "duration_ns": spec.duration_ns,
            "ssd_counts": list(ssd_counts),
            "placements": list(placements),
            "skew": args.skew,
            "num_gpus": args.num_gpus,
            "loads_rps": list(loads),
            "config_hash": stable_hash(
                {
                    "family": "agile-serve-sweep",
                    "spec": spec,
                    "ssd_counts": list(ssd_counts),
                    "placements": list(placements),
                    "systems": list(systems),
                    "num_gpus": args.num_gpus,
                }
            ),
            "grid": grid_as_dict(grid),
        }
        stamp(doc, SERVE_SWEEP_SCHEMA)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_placement_smoke(args) -> int:
    spec = SweepSpec(
        loads_rps=(args.rate,),
        duration_ns=args.duration_ms * 1e6,
        seed=args.seed,
        num_ssds=args.ssds,
        skew=args.skew,
    )
    from repro.store.meta import PLACEMENT_SMOKE_SCHEMA, stamp

    doc = placement_comparison(spec, args.rate, placements=("shard", "striped"))
    stamp(doc, PLACEMENT_SMOKE_SCHEMA)
    shard = doc["policies"]["shard"]
    striped = doc["policies"]["striped"]
    for name in ("shard", "striped"):
        pol = doc["policies"][name]
        print(
            f"  {name:>8s}: goodput {pol['goodput_rps']:>9,.0f} rps | "
            f"p99 {pol['p99_ns'] / 1e6:7.3f} ms | "
            f"skew {pol['skew_ratio']:4.2f} | "
            f"device reads {pol['device_reads']}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if striped["skew_ratio"] >= shard["skew_ratio"]:
        print(
            "FAIL: striped placement did not reduce per-device skew "
            f"(striped {striped['skew_ratio']:.3f} >= "
            f"shard {shard['skew_ratio']:.3f})",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: striped skew {striped['skew_ratio']:.3f} < "
        f"shard skew {shard['skew_ratio']:.3f}"
    )
    return 0


def _cmd_write_path(args) -> int:
    from repro.serve.writepath import quick_spec, write_path_comparison
    from repro.store.meta import WRITE_PATH_SCHEMA, stamp

    loads = (
        tuple(float(tok) for tok in args.loads.split(",") if tok)
        if args.loads
        else None
    )
    spec = quick_spec(loads, seed=args.seed)
    print(
        f"write-path comparison: seed={spec.seed} "
        f"window={spec.duration_ns / 1e6:g} ms "
        f"loads={','.join(f'{ld:g}' for ld in spec.loads_rps)} "
        f"device={spec.device_pages}p/{spec.pages_per_block}ppb "
        f"op={spec.op_ratio:g}"
    )
    doc = write_path_comparison(spec)
    stamp(doc, WRITE_PATH_SCHEMA)
    for curve in ("gc_on", "gc_off"):
        print(f"  [{curve}] knee ~{doc[curve]['knee_rps']:,.0f} rps")
        for point in doc[curve]["points"]:
            wp = point["write_path"]
            read_cls = point["classes"]["point"]
            print(
                f"    {point['target_rps']:>9,.0f} rps | "
                f"goodput {point['goodput_rps']:>9,.0f} | "
                f"read p99 {read_cls['p99_ns'] / 1e6:7.3f} ms | "
                f"waf {wp['mean_waf']:5.3f} | "
                f"gc busy {wp['gc_busy_ns'] / 1e6:6.2f} ms | "
                f"wb {wp['writebacks_acked']}/{wp['writebacks']}"
                f" lost {wp['writebacks_lost']}"
            )
    summary = doc["summary"]
    print(
        f"  summary: waf {summary['mean_waf']:.3f} | "
        f"read p99 inflation x{summary['read_p99_inflation']:.1f} | "
        f"knee {summary['knee_rps_gc_on']:,.0f} (gc on) vs "
        f"{summary['knee_rps_gc_off']:,.0f} (gc off) rps"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if summary["writebacks_lost"]:
        print(
            f"FAIL: {summary['writebacks_lost']} eviction write-back(s) "
            "lost without a fault plan",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_tenancy(args) -> int:
    from repro.serve.tenancy import (
        TenancySpec,
        _headline_ok,
        quick_spec,
        tenancy_matrix,
    )
    from repro.store.meta import TENANCY_SCHEMA, stamp

    spec = quick_spec(seed=args.seed) if args.quick else TenancySpec(
        seed=args.seed
    )
    print(
        f"tenancy matrix: seed={spec.seed} "
        f"rate={spec.rate_rps:,.0f} rps "
        f"window={spec.duration_ns / 1e6:g} ms ssds={spec.num_ssds} "
        f"mixes={','.join(spec.mixes)} storms={','.join(spec.storms)} "
        f"placements={','.join(spec.placements)}"
    )
    doc = tenancy_matrix(spec)
    stamp(doc, TENANCY_SCHEMA)
    for label, cell in doc["cells"].items():
        h = cell["headline"]
        verdict = "ok" if _headline_ok(h) else "FAIL"
        print(
            f"  [{label}] {verdict}: "
            f"infer p99 wfq {h['wfq_infer_p99_ns'] / 1e6:6.3f} ms vs "
            f"fifo {h['fifo_infer_p99_ns'] / 1e6:6.3f} ms "
            f"(budget {h['infer_slo_budget_ns'] / 1e6:g} ms) | "
            f"shed infer {h['wfq_infer_shed_frac']:.3f} "
            f"train {h['wfq_train_shed_frac']:.3f} | "
            f"train completed {h['wfq_train_completed']}"
        )
        if h["starved_classes"]:
            print(f"    starved: {h['starved_classes']}", file=sys.stderr)
    summary = doc["summary"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if not summary["headline_ok"]:
        print(
            "FAIL: at least one cell lost the interference headline "
            "(wfq inside budget, fifo outside, sheds on batch training, "
            "nobody starved)",
            file=sys.stderr,
        )
        return 1
    print(
        "OK: every cell holds the headline "
        f"(worst storm-cell wfq infer p99 "
        f"{summary['wfq_infer_p99_ns'] / 1e6:.3f} ms, best fifo "
        f"{summary['fifo_infer_p99_ns'] / 1e6:.3f} ms)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if args.command == "placement-smoke":
        return _cmd_placement_smoke(args)
    if args.command == "write-path":
        return _cmd_write_path(args)
    if args.command == "tenancy":
        return _cmd_tenancy(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line figure regeneration.

Usage::

    python -m repro.bench list            # available figures/ablations
    python -m repro.bench fig4 fig12      # regenerate specific figures
    python -m repro.bench all             # everything (minutes)
    python -m repro.bench perf            # scheduler throughput smoke
    python -m repro.bench perf --min-eps 60000   # fail below the floor
    python -m repro.bench export --out BENCH.json   # CI trend artifact
    python -m repro.bench --trace out.json fig4     # + Perfetto timeline

``--trace FILE`` works with any target: every host built during the run
records telemetry (spans, counters, occupancy series) and the merged
Chrome-trace document is written to FILE — load it at
https://ui.perfetto.dev or chrome://tracing.
"""

from __future__ import annotations

import json
import platform
import sys
import time

from repro.bench.figures import ALL_ABLATIONS, ALL_FIGURES


def perf(argv: list[str]) -> int:
    """Scheduler-throughput smoke: one Fig. 5 point, report events/sec.

    ``--min-eps N`` turns the report into a regression gate (exit 1 below
    the floor).  ``--requests N`` / ``--threads N`` scale the workload.
    """
    from repro.workloads.io_sweep import run_bandwidth_sweep

    min_eps = 0.0
    requests = 4096
    threads = 64
    it = iter(argv)
    for arg in it:
        if arg == "--min-eps":
            min_eps = float(next(it, "0"))
        elif arg == "--requests":
            requests = int(next(it, "4096"))
        elif arg == "--threads":
            threads = int(next(it, "64"))
        else:
            print(f"perf: unknown option {arg!r}", file=sys.stderr)
            return 2
    start = time.perf_counter()
    point = run_bandwidth_sweep(
        "read", num_ssds=1, total_requests=requests, num_threads=threads
    )
    wall = time.perf_counter() - start
    eps = point.sim_events / wall if wall > 0 else 0.0
    print(
        f"perf: {point.sim_events:,} events in {wall:.2f} s "
        f"-> {eps:,.0f} events/s "
        f"({point.total_requests} requests, {point.bandwidth_gbps:.2f} GB/s)"
    )
    if min_eps and eps < min_eps:
        print(
            f"perf: FAIL - {eps:,.0f} events/s below floor {min_eps:,.0f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve_saturation_section(quick: bool) -> dict:
    """Serve sweep results in the BENCH.json trend shape."""
    from repro.serve.__main__ import DEFAULT_LOADS, QUICK_LOADS
    from repro.serve.sweep import SweepSpec, curves_as_dict, run_saturation_sweep

    spec = SweepSpec(
        loads_rps=QUICK_LOADS if quick else DEFAULT_LOADS,
        duration_ns=2_000_000.0 if quick else 10_000_000.0,
    )
    curves = run_saturation_sweep(spec)
    return {
        "seed": spec.seed,
        "duration_ns": spec.duration_ns,
        "loads_rps": list(spec.loads_rps),
        "curves": curves_as_dict(curves),
    }


def _placement_section(quick: bool) -> dict:
    """Placement-policy comparison in the BENCH.json trend shape: every
    policy head-to-head on a 4-SSD hotspot trace, with per-device read
    counts and the max/mean utilization skew ratio per policy."""
    from repro.serve.__main__ import SMOKE_RATE_RPS, SMOKE_SKEW
    from repro.serve.sweep import PLACEMENTS, SweepSpec, placement_comparison

    spec = SweepSpec(
        loads_rps=(SMOKE_RATE_RPS,),
        duration_ns=1_000_000.0 if quick else 3_000_000.0,
        num_ssds=4,
        skew=SMOKE_SKEW,
    )
    return placement_comparison(spec, SMOKE_RATE_RPS, placements=PLACEMENTS)


def export(argv: list[str]) -> int:
    """Machine-readable bench snapshot for the CI trend artifact.

    Writes one JSON document holding a Fig. 5-style read-bandwidth table,
    the scheduler-throughput (events/sec) measurement, per-point device
    error counts (zero on every fault-free run — a nonzero value here is a
    regression even when bandwidth looks fine), the serving-layer
    saturation curves (goodput + p99 vs offered load per system), and the
    placement-policy comparison (per-device utilization + skew ratio per
    policy on a hotspot trace).
    """
    from repro.workloads.io_sweep import run_bandwidth_sweep

    out = "BENCH.json"
    quick = False
    it = iter(argv)
    for arg in it:
        if arg == "--out":
            out = next(it, out)
        elif arg == "--quick":
            quick = True
        else:
            print(f"export: unknown option {arg!r}", file=sys.stderr)
            return 2
    if quick:
        table_points = [(1, 512), (2, 512)]
        perf_requests = 1024
    else:
        table_points = [(1, 1024), (1, 4096), (2, 4096), (4, 4096)]
        perf_requests = 4096

    table = []
    for num_ssds, total_requests in table_points:
        point = run_bandwidth_sweep(
            "read", num_ssds=num_ssds, total_requests=total_requests,
            telemetry=True,
        )
        table.append(
            {
                "op": "read",
                "num_ssds": point.num_ssds,
                "total_requests": point.total_requests,
                "duration_ns": point.duration_ns,
                "bandwidth_gbps": point.bandwidth_gbps,
                "sim_events": point.sim_events,
                "device_errors": point.device_errors,
                "telemetry": point.telemetry,
            }
        )

    start = time.perf_counter()
    point = run_bandwidth_sweep(
        "read", num_ssds=1, total_requests=perf_requests, num_threads=64
    )
    wall = time.perf_counter() - start
    from repro.config import stable_hash
    from repro.store.meta import BENCH_TREND_SCHEMA, stamp

    # /2 adds git_sha + config_hash (the store's baseline key); the
    # store's ingest adapters keep a compat reader for /1 artifacts.
    doc = {
        "generated_unix": time.time(),
        "python": platform.python_version(),
        "quick": quick,
        "config_hash": stable_hash(
            {
                "family": "agile-bench-trend",
                "quick": quick,
                "table_points": table_points,
                "perf_requests": perf_requests,
            }
        ),
        "fig5_read_bandwidth": table,
        "perf": {
            "sim_events": point.sim_events,
            "wall_s": wall,
            "events_per_sec": point.sim_events / wall if wall > 0 else 0.0,
            "total_requests": point.total_requests,
            "bandwidth_gbps": point.bandwidth_gbps,
            "device_errors": point.device_errors,
        },
        "serve_saturation": _serve_saturation_section(quick),
        "placement": _placement_section(quick),
    }
    stamp(doc, BENCH_TREND_SCHEMA)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"export: wrote {out} ({len(table)} table points, "
        f"{doc['perf']['events_per_sec']:,.0f} events/s, "
        f"{sum(r['device_errors'] for r in table)} device errors)"
    )
    return 0


def _dispatch(argv: list[str]) -> int:
    registry = {**ALL_FIGURES, **{f"abl_{k}": v for k, v in ALL_ABLATIONS.items()}}
    if argv and argv[0] == "perf":
        return perf(argv[1:])
    if argv and argv[0] == "export":
        return export(argv[1:])
    if not argv or argv[0] in ("-h", "--help", "list"):
        print("available targets:")
        for name in registry:
            print(f"  {name}")
        print("  all")
        print("  perf [--min-eps N] [--requests N] [--threads N]")
        print("  export [--out FILE] [--quick]")
        print("  --trace FILE <target>   (Chrome-trace timeline of the run)")
        return 0
    targets = list(registry) if argv == ["all"] else argv
    unknown = [t for t in targets if t not in registry]
    if unknown:
        print(f"unknown target(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in targets:
        start = time.time()
        registry[name]().show()
        print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")
    return 0


def main(argv: list[str]) -> int:
    argv = list(argv)
    trace_out = None
    if "--trace" in argv:
        i = argv.index("--trace")
        rest = argv[i + 1 : i + 2]
        if not rest or rest[0].startswith("-"):
            print("--trace requires an output path", file=sys.stderr)
            return 2
        trace_out = rest[0]
        del argv[i : i + 2]
    if trace_out is None:
        return _dispatch(argv)

    from repro import telemetry

    with telemetry.capture() as cap:
        rc = _dispatch(argv)
    if not cap.sessions:
        print("trace: no telemetry sessions recorded", file=sys.stderr)
        return rc
    doc = cap.chrome_trace()
    telemetry.export.write_chrome_trace(trace_out, doc)
    print(
        f"trace: wrote {trace_out} "
        f"({doc['otherData']['recorded_events']} events from "
        f"{len(cap.sessions)} run(s))"
    )
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

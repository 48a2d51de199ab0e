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


def _perf_point(requests: int, threads: int = 64):
    """One timed Fig. 5 read point -> (point, wall seconds, events/sec)."""
    from repro.workloads.io_sweep import run_bandwidth_sweep

    start = time.perf_counter()
    point = run_bandwidth_sweep(
        "read", num_ssds=1, total_requests=requests, num_threads=threads
    )
    wall = time.perf_counter() - start
    return point, wall, point.sim_events / wall if wall > 0 else 0.0


def perf(argv: list[str]) -> int:
    """Scheduler-throughput smoke: one Fig. 5 point, report events/sec.

    ``--min-eps N`` turns the report into a regression gate (exit 1 below
    the floor).  ``--requests N`` / ``--threads N`` scale the workload.
    """
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
    point, wall, eps = _perf_point(requests, threads)
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


def export(argv: list[str]) -> int:
    """Machine-readable bench snapshot for the CI trend artifact.

    Writes one ``agile-experiment/1`` document holding what only the
    bench measures: a Fig. 5-style read-bandwidth table (``section=fig5``
    cells, each with its telemetry snapshot as ``detail``) and the
    scheduler-throughput measurement (``section=perf``), with per-point
    device error counts (zero on every fault-free run — a nonzero value
    here is a regression even when bandwidth looks fine).  The serving
    experiments have their own artifacts (``python -m repro.serve run``).
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

    cells = []
    for num_ssds, total_requests in table_points:
        point = run_bandwidth_sweep(
            "read", num_ssds=num_ssds, total_requests=total_requests,
            telemetry=True,
        )
        cells.append(
            {
                "axes": {
                    "section": "fig5",
                    "op": "read",
                    "num_ssds": point.num_ssds,
                    "total_requests": point.total_requests,
                },
                "metrics": {
                    "duration_ns": point.duration_ns,
                    "bandwidth_gbps": point.bandwidth_gbps,
                    "sim_events": point.sim_events,
                    "device_errors": point.device_errors,
                },
                "detail": {"telemetry": point.telemetry},
            }
        )

    point, wall, eps = _perf_point(perf_requests)
    cells.append(
        {
            "axes": {"section": "perf"},
            "metrics": {
                "sim_events": point.sim_events,
                "wall_s": wall,
                "events_per_sec": eps,
                "total_requests": point.total_requests,
                "bandwidth_gbps": point.bandwidth_gbps,
                "device_errors": point.device_errors,
            },
        }
    )
    from repro.config import stable_hash
    from repro.store.meta import experiment_document

    doc = experiment_document(
        "bench",
        stable_hash(
            {
                "experiment": "bench",
                "quick": quick,
                "table_points": table_points,
                "perf_requests": perf_requests,
            }
        ),
        cells,
        checks=[],
        generated_unix=time.time(),
        python=platform.python_version(),
        quick=quick,
    )
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    errors = sum(cell["metrics"]["device_errors"] for cell in cells)
    print(
        f"export: wrote {out} ({len(table_points)} table points, "
        f"{eps:,.0f} events/s, {errors} device errors)"
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

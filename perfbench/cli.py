"""``python -m perfbench run`` and ``python -m perfbench compare``.

``run`` has two shapes.  Without ``--trace`` it is the full benchmark: the three probes,
then for each workload an untraced timed child (the end-to-end numbers), a
profile pass and a counters pass (the per-layer numbers); it prints every
metric and writes the result document.  With ``--trace
0|1`` it is one driver run of one workload and its last output line is the
JSON object ``BENCHMARK.json``'s contract asks for: ``--trace 0`` measures
end to end only, ``--trace 1`` makes the two traced passes beside one
untraced reference run.

Children run one after another: the box has two cores and nothing here
may run in parallel with a timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional

import perfbench
from perfbench import compare, spec

RESULTS = perfbench.ROOT / "perfbench" / "results"
SCHEMA = "perfbench-result/1"
#: A child that takes longer than this is hung, not slow (the slowest
#: pass, serve-write-gc under cProfile, takes about a minute).
CHILD_TIMEOUT_S = 600


@dataclass(frozen=True)
class Plan:
    """Which children one workload gets."""

    #: Setup-only children beside the measuring one (setup_s is a median).
    setup_samples: int = 2
    #: Exact timed repeats; 0 fills ``--seconds`` (at least 3 repeats).
    timed_repeats: int = 0
    profile: bool = True
    counters: bool = True
    #: One pass only, with telemetry on: a smoke run whose host times
    #: include telemetry cost and are not comparable.
    quick: bool = False


FULL = Plan()
DRIVER_UNTRACED = Plan(profile=False, counters=False)
DRIVER_TRACED = Plan(setup_samples=0, timed_repeats=1)
QUICK = Plan(setup_samples=0, profile=False, quick=True)


def spawn(mode: str, seed: int, **options: Any) -> dict[str, Any]:
    """Run one child to completion and return its JSON record."""
    argv = [sys.executable, "-m", "perfbench.child", mode, "--seed", str(seed),
            "--spawned-at", repr(time.time())]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    done = subprocess.run(
        argv, cwd=perfbench.ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"perfbench child {mode} {options} exited"
                           f" {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 3:
        mid = statistics.median(values)
        return mid, mid, mid
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def measure_workload(
    name: str, seed: int, seconds: float, plan: Plan,
    probes: Optional[dict[str, float]] = None,
) -> dict[str, Any]:
    """Run one workload's children and derive every declared metric."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    common = {"workload": name}
    setups = [
        spawn("setup", seed, **common)["setup_s"]
        for _ in range(plan.setup_samples)
    ]
    counted = profiled = None
    if plan.counters:
        counted = spawn(
            "counters", seed, **common,
            trace_out=RESULTS / f"trace-{name}.json",
        )
    if plan.quick:
        timed = dict(counted, walls=[counted["wall_s"]], cpus=[0.0])
    else:
        timed = spawn(
            "timed", seed, **common, seconds=seconds,
            repeats=plan.timed_repeats,
        )
    if plan.profile:
        profiled = spawn("profile", seed, **common)
    setups.append(timed["setup_s"])

    sim = timed["sim"]
    walls = timed["walls"]
    q1, wall_s, q3 = _quartiles(walls)
    attempted = sim["attempted"]
    end_to_end = {
        "wall_s": wall_s,
        "sim_events_per_op": sim["events"] / attempted,
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "sim_goodput_ops_s": sim["sim_goodput_ops_s"],
        "ok_frac": sim["ok"] / attempted,
    }

    per_layer = {m.name: 0.0 for m in spec.PER_LAYER}
    checks = list(timed["checks"])
    for other in (profiled, None if plan.quick else counted):
        if other is None:
            continue
        checks += other["checks"]
        same = other["sim"] == sim
        checks.append([
            f"{other['mode']}_pass_matches_untraced", same,
            "" if same else f"{other['sim']} vs {sim}",
        ])
    if profiled is not None:
        for key, (self_s, calls) in profiled["layers"].items():
            per_layer[f"{key}.self_s"] = self_s
            per_layer[f"{key}.calls"] = float(calls)
        per_layer["trace.overhead_x"] = profiled["wall_s"] / wall_s
    if counted is not None:
        per_layer.update(counted["counters"])
        service_calls = per_layer["core.service.calls"]
        if service_calls:
            per_layer["core.service.cqe_per_call"] = (
                per_layer["core.service.completions"] / service_calls
            )
        if not plan.quick:
            per_layer["telemetry.overhead_frac"] = (
                counted["wall_s"] / wall_s - 1.0
            )
    per_layer["harness.wall_iqr_frac"] = (q3 - q1) / wall_s
    per_layer["harness.cpu_s"] = statistics.median(timed["cpus"])
    per_layer["sim.events_per_sec"] = sim["events"] / wall_s
    per_layer["sim_p50_ns"] = sim["sim_p50_ns"]
    per_layer["sim_p95_ns"] = sim["sim_p95_ns"]
    per_layer["failed_frac"] = 1.0 - sim["ok"] / attempted
    per_layer["paper_rel_err"] = sim["paper_rel_err"]
    per_layer.update(probes or {})

    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "correct": all(passed for _, passed, _ in checks),
        "attempted": attempted,
        "failed": sim["errored"],
        "checks": checks,
        "raw": {
            "walls_s": walls,
            "wall_quartiles_s": [q1, wall_s, q3],
            "cpus_s": timed["cpus"],
            "setup_samples_s": setups,
            "latency_samples": sim["latency_samples"],
            "profile_wall_s": profiled and profiled["wall_s"],
            "counters_wall_s": counted and counted["wall_s"],
            "not_covered_self_s": profiled and profiled["not_covered_self_s"],
        },
    }


# -- printing -----------------------------------------------------------------


def _line(metric: spec.Metric, value: float, note: str = "") -> str:
    return (f"  {metric.name:34s} {value:>18.6g} {metric.unit:8s}"
            f" [{metric.base}]{note}")


def print_workload(name: str, result: dict[str, Any]) -> None:
    workload = next(w for w in spec.WORKLOADS if w.name == name)
    raw = result["raw"]
    repeats = len(raw["walls_s"])
    print(f"\n== {name} ({workload.loop}; {repeats} timed repeats) ==")
    print("end to end (telemetry and profiler off):")
    for metric in spec.END_TO_END:
        note = ""
        if metric.name == "wall_s":
            q1, _, q3 = raw["wall_quartiles_s"]
            note = f"  Q1 {q1:.4g} Q3 {q3:.4g} n={repeats}"
        print(_line(metric, result["end_to_end"][metric.name], note))
    print("per layer (profile pass, counters pass, harness):")
    zero = []
    for metric in spec.PER_LAYER:
        value = result["per_layer"][metric.name]
        if value == 0:
            zero.append(metric.name)
            continue
        note = ""
        if metric.name in ("sim_p50_ns", "sim_p95_ns"):
            note = f"  n={raw['latency_samples']}"
        print(_line(metric, value, note))
    print(f"  read 0: {' '.join(zero)}")
    for check, passed, detail in result["checks"]:
        if not passed:
            print(f"  CHECK FAILED {check}: {detail}")
    print(f"outputs {'verified' if result['correct'] else 'WRONG'}"
          f" ({len(result['checks'])} checks),"
          f" {result['failed']} of {result['attempted']} ops errored")


# -- run ----------------------------------------------------------------------


def _probes(seed: int) -> dict[str, float]:
    record = spawn("probes", seed)
    del record["mode"]
    return record


def run(args: argparse.Namespace) -> int:
    perfbench.require_repro()
    names = args.workload or list(spec.WORKLOAD_NAMES)
    if args.trace is not None:
        return _driver_run(names, args)
    plan = QUICK if args.quick else FULL
    probes = _probes(args.seed)
    workloads = {}
    for name in names:
        workloads[name] = measure_workload(
            name, args.seed, args.seconds, plan, probes
        )
        print_workload(name, workloads[name])
    from repro.store.meta import git_sha

    document = {
        "schema": SCHEMA,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "generated_unix": time.time(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": workloads,
    }
    out = args.out or RESULTS / (
        f"run-seed{args.seed}{'-quick' if args.quick else ''}.json"
    )
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    correct = all(r["correct"] for r in workloads.values())
    print(f"\nwrote {out}; outputs {'verified' if correct else 'WRONG'}")
    return 0 if correct else 1


def _driver_run(names: list[str], args: argparse.Namespace) -> int:
    """One workload, one pass kind, one JSON line (``BENCHMARK.json``)."""
    if len(names) != 1:
        print("perfbench: --trace needs exactly one --workload",
              file=sys.stderr)
        return 2
    traced = args.trace == 1
    result = measure_workload(
        names[0], args.seed, args.seconds,
        DRIVER_TRACED if traced else DRIVER_UNTRACED,
        _probes(args.seed) if traced else None,
    )
    print_workload(names[0], result)
    declared = spec.PER_LAYER if traced else spec.END_TO_END
    values = result["per_layer" if traced else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in declared
        },
    }))
    return 0 if result["correct"] else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run_p = commands.add_parser("run", help="measure")
    run_p.add_argument("--seed", type=int, default=7)
    run_p.add_argument(
        "--seconds", type=float, default=15.0,
        help="timed repeats of a workload continue until they have taken"
             " this long (never fewer than 3 repeats)",
    )
    run_p.add_argument(
        "--workload", action="append", choices=spec.WORKLOAD_NAMES,
        help="only this workload (repeatable); default all four",
    )
    run_p.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver run of one workload: 0 end to end, 1 per layer",
    )
    run_p.add_argument(
        "--quick", action="store_true",
        help="smoke run: one pass per workload with telemetry on, no"
             " profile pass; host times not comparable",
    )
    run_p.add_argument("--out", help="result document path")
    cmp_p = commands.add_parser(
        "compare", help="judge candidate B against baseline A"
    )
    cmp_p.add_argument("baseline")
    cmp_p.add_argument("candidate")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare.main(args.baseline, args.candidate)
    return run(args)

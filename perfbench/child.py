"""One measurement in one process: ``python -m perfbench.child MODE ...``.

The parent (``perfbench.cli``) starts a fresh interpreter per measurement
so that ``setup_s`` includes the imports, ``peak_rss_mb`` belongs to one
workload, and a profiled run cannot warm or tax a timed one.  The last
line of standard output is one JSON object.

Modes: ``setup`` (inputs only), ``timed`` (untraced repeats: the
end-to-end numbers), ``profile`` (one run under cProfile), ``counters``
(one run inside ``telemetry.capture()``), ``probes``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import json
import resource
import sys
import time
from contextlib import contextmanager
from typing import Any, Iterator

import perfbench

#: Timed repeats are never fewer (a median of fewer is no median) and never
#: more than this (the workloads differ 6x in cost; the cheap one stops here).
MIN_REPEATS, MAX_REPEATS = 3, 15


@contextmanager
def simulators_built() -> Iterator[list[Any]]:
    """Collect every ``Simulator`` constructed inside the block.

    ``run_dlrm`` builds its hosts internally and returns no event count;
    reading ``event_count`` off the simulators themselves gives every
    workload one rule.  The wrapper costs one call per simulator built
    (at most three per run) and touches nothing the engine dispatches.
    """
    from repro.sim.engine import Simulator

    built: list[Any] = []
    original = Simulator.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    Simulator.__init__ = recording_init
    try:
        yield built
    finally:
        Simulator.__init__ = original


def _sim_record(outcome, sims: list[Any]) -> dict[str, Any]:
    """The deterministic half of a run: identical on every repeat."""
    events = sum(s.event_count for s in sims)
    if outcome.api_sim_events is not None:
        outcome.check(
            "api_event_count_parity", outcome.api_sim_events == events,
            f"API {outcome.api_sim_events}, simulators {events}",
        )
    record = dataclasses.asdict(outcome)
    del record["checks"], record["api_sim_events"]
    record.update(events=events, now_ns=sum(s.now for s in sims))
    return record


def _timed(workload, args, record, sims):
    """Untraced repeats: telemetry and profiler off."""
    walls, cpus, runs = [], [], []
    while True:
        if walls:
            workload.arm()
        gc.collect()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        workload.run()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        outcome = workload.outcome()
        runs.append(_sim_record(outcome, sims))
        sims.clear()
        if args.repeats:
            if len(walls) >= args.repeats:
                break
        elif len(walls) >= MIN_REPEATS and (
            sum(walls) >= args.seconds or len(walls) >= MAX_REPEATS
        ):
            break
    outcome.check(
        "repeats_identical", all(r == runs[0] for r in runs),
        f"{len(runs)} repeats",
    )
    record.update(walls=walls, cpus=cpus, sim=runs[0])
    return outcome


def _profiled(workload, args, record, sims):
    from perfbench import layers

    profile = cProfile.Profile()
    gc.collect()
    wall0 = time.perf_counter()
    profile.runcall(workload.run)
    record["wall_s"] = time.perf_counter() - wall0
    outcome = workload.outcome()
    record["layers"], record["not_covered_self_s"] = layers.book(profile)
    record["sim"] = _sim_record(outcome, sims)
    return outcome


def _counted(workload, args, record, sims):
    from perfbench import counters
    from repro import telemetry

    sims.clear()
    with telemetry.capture() as cap:
        workload.arm()  # hosts must be built inside the capture
        gc.collect()
        wall0 = time.perf_counter()
        workload.run()
        record["wall_s"] = time.perf_counter() - wall0
    outcome = workload.outcome()
    record["counters"] = counters.extract(cap.sessions)
    record["sim"] = _sim_record(outcome, sims)
    outcome.check(
        "telemetry_event_parity",
        record["counters"]["sim.events"] == record["sim"]["events"],
        f"telemetry {record['counters']['sim.events']:.0f},"
        f" simulators {record['sim']['events']}",
    )
    if args.trace_out:
        cap.write_chrome_trace(args.trace_out)
    return outcome


_MODES = {"timed": _timed, "profile": _profiled, "counters": _counted}


def measure(args: argparse.Namespace) -> dict[str, Any]:
    from perfbench.workloads import REGISTRY

    workload = REGISTRY[args.workload]()
    record: dict[str, Any] = {
        "mode": args.mode, "workload": args.workload, "seed": args.seed,
    }
    with simulators_built() as sims:
        workload.prepare(args.seed)
        workload.arm()
        record["setup_s"] = time.time() - args.spawned_at
        if args.mode == "setup":
            return record
        outcome = _MODES[args.mode](workload, args, record, sims)
    record["checks"] = [list(c) for c in outcome.checks]
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.child")
    parser.add_argument(
        "mode", choices=("setup", "timed", "profile", "counters", "probes")
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument(
        "--repeats", type=int, default=0,
        help="exact timed repeats; 0 = fill --seconds, at least "
             f"{MIN_REPEATS}, at most {MAX_REPEATS}",
    )
    parser.add_argument("--spawned-at", type=float, default=time.time())
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    perfbench.require_repro()
    if args.mode == "probes":
        from perfbench import probes

        record: dict[str, Any] = {"mode": "probes", **probes.run_all(args.seed)}
    else:
        record = measure(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

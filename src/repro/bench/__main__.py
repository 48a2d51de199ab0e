"""CLI: ``python -m repro.bench`` — list and run every experiment.

``list`` prints every registered :class:`~repro.serve.experiment.Experiment`
with its axes; ``run NAME`` runs one, prints a ``replay:`` line built from
the arguments it was given, and exits non-zero iff one of its checks
fails (2 on a bad ``--set``).  ``--set key=v1,v2`` reaches any axis (comma
list) or spec field (one value; ``a.b`` for a nested spec) by name;
``--quick`` is the CI-sized variant and ``--seed N`` is short for ``--set
seed=N``.  ``--out`` writes the ``agile-experiment/1`` document, which
``python -m repro.store gate`` compares with its committed golden.
``--trace FILE`` records telemetry (spans, counters, occupancy series) on
every host built during the run and writes the merged Chrome-trace
document — load it at https://ui.perfetto.dev or chrome://tracing.

Examples::

    python -m repro.bench list
    python -m repro.bench run fig7 --out fig7.json
    python -m repro.bench run fig5 --set num_ssds=1,2 --trace chrome_trace.json
    python -m repro.bench run serve-sweep --quick --out serve-sweep.json
    python -m repro.bench run tenancy --quick --set storm=none,pe-storm
    python -m repro.bench run storm --seed 3 --set intensity=2.0
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

from repro import telemetry
from repro.bench import figures
from repro.faults import storm
from repro.serve import sweep, tenancy, writepath
from repro.serve.experiment import Cell, Experiment, ExperimentError

EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        *sweep.EXPERIMENTS,
        writepath.WRITE_PATH,
        tenancy.TENANCY,
        *figures.EXPERIMENTS,
        *storm.EXPERIMENTS,
    )
}


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Every experiment in the repo: one runner, one document.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="registered experiments and their axes")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("name", choices=sorted(EXPERIMENTS))
    run.add_argument("--quick", action="store_true", help="CI-sized variant")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--set", action="append", default=[], metavar="KEY=V1,V2",
        help="override an axis or a spec field (repeatable)",
    )
    run.add_argument("--out", default="", help="write the document here")
    run.add_argument("--trace", default="", help="write a Chrome trace here")
    return parser.parse_args(argv)


def _scalars(metrics: Dict[str, Any]) -> str:
    return " ".join(
        f"{key}={value:g}"
        for key, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )


def _print_cell(cell: Cell) -> None:
    axes = " ".join(f"{k}={v}" for k, v in cell["axes"].items())
    print(f"  [{axes}] {_scalars(cell['metrics'])}", flush=True)


def _cmd_list() -> int:
    for exp in EXPERIMENTS.values():
        print(f"{exp.name}: {exp.help}")
        for key, values in exp.axes.items():
            pinned = " (pinned: one value)" if key in exp.pinned else ""
            print(f"    {key} = {','.join(str(v) for v in values)}{pinned}")
        if exp.quick:
            print(f"    --quick = --set {' --set '.join(exp.quick)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    exp = EXPERIMENTS[args.name]
    given = [exp.name, *(["--quick"] if args.quick else [])]
    sets = list(args.set)
    if args.seed is not None:
        given.append(f"--seed {args.seed}")
        sets.append(f"seed={args.seed}")
    given += [f"--set {item}" for item in args.set]
    print("replay: python -m repro.bench run " + " ".join(given))
    try:
        spec, axes = exp.configure(sets, quick=args.quick)
        print(f"{exp.name}: config {exp.config_hash(spec, axes)}")
        with telemetry.capture() if args.trace else nullcontext() as cap:
            doc = exp.run(spec, axes, on_cell=_print_cell)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.trace:
        trace = cap.chrome_trace()
        telemetry.export.write_chrome_trace(args.trace, trace)
        print(
            f"trace: wrote {args.trace} "
            f"({trace['otherData']['recorded_events']} events from "
            f"{len(cap.sessions)} run(s))"
        )
    failed = [check for check in doc["checks"] if not check["ok"]]
    for check in doc["checks"]:
        verdict = "OK" if check["ok"] else "FAIL"
        stream = sys.stdout if check["ok"] else sys.stderr
        print(f"{verdict}: {check['name']}: {check['detail']}", file=stream)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    return _cmd_list() if args.command == "list" else _cmd_run(args)


if __name__ == "__main__":
    raise SystemExit(main())

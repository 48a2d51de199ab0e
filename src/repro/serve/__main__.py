"""CLI: ``python -m repro.serve`` — list and run the serving experiments.

``list`` prints every registered :class:`~repro.serve.experiment.Experiment`
with its axes; ``run NAME`` runs one and exits non-zero iff one of its
checks fails.  ``--set key=v1,v2`` reaches any axis (comma list) or spec
field (one value; ``a.b`` for a nested spec) by name; ``--quick`` is the
CI-sized variant and ``--seed N`` is short for ``--set seed=N``.
``--out`` writes the ``agile-experiment/1`` document, which ``python -m
repro.store ingest/gate`` reads.

Examples::

    python -m repro.serve list
    python -m repro.serve run serve-sweep --quick --out serve-sweep.json
    python -m repro.serve run serve-sweep --set ssds=1,2,4 --set placement=shard,striped
    python -m repro.serve run placement-smoke --out placement-smoke.json
    python -m repro.serve run tenancy --quick --set storm=none,pe-storm
    python -m repro.serve run explore --set arrival=poisson,mmpp --seed 11
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.serve import sweep, tenancy, writepath
from repro.serve.experiment import Cell, Experiment, ExperimentError

EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (*sweep.EXPERIMENTS, writepath.WRITE_PATH, tenancy.TENANCY)
}


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Open-loop serving experiments (one runner, one document).",
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
    sets = list(args.set)
    if args.seed is not None:
        sets.append(f"seed={args.seed}")
    try:
        spec, axes = exp.configure(sets, quick=args.quick)
        print(f"{exp.name}: config {exp.config_hash(spec, axes)}")
        doc = exp.run(spec, axes, on_cell=_print_cell)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
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

"""CLI: ``python -m repro.store`` — grow, inspect, and gate on the store.

Subcommands::

    ingest FILES...                 # artifacts -> store (idempotent)
    ls                              # stored runs, oldest first
    show RUN [--limit N]            # one run's header + points
    diff RUN_A RUN_B [--tolerance]  # per-metric deltas; exit 1 on regression
    gate FILES... --baseline DB     # fresh artifacts vs best stored baseline

Run ids are content hashes; any unique prefix works wherever a RUN is
expected.  ``--db`` names the store (default ``store.db``); ``gate``
reads and updates the ``--baseline`` store instead.

Examples::

    python -m repro.store --db store.db ingest BENCH_*.json serve-sweep.json
    python -m repro.store --db store.db diff 3f2a 9c41 --tolerance 0.05
    python -m repro.store gate serve-sweep.json --baseline baselines/store-baseline.db
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.store.db import Point, ResultStore, RunRecord
from repro.store.diff import DiffResult, best_baseline, diff_runs
from repro.store.ingest import UnknownSchemaError, ingest_document


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="SQLite experiment store: ingest, diff, gate.",
    )
    parser.add_argument(
        "--db", default="store.db", help="store path (default: store.db)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="ingest artifact JSON files")
    ingest.add_argument("files", nargs="+")

    sub.add_parser("ls", help="list stored runs")

    show = sub.add_parser("show", help="print one run's points")
    show.add_argument("run")
    show.add_argument(
        "--limit", type=int, default=40,
        help="max points to print (0 = all)",
    )
    show.add_argument(
        "--raw", action="store_true",
        help="print the stored artifact JSON instead of the points",
    )

    diff = sub.add_parser(
        "diff", help="compare two runs; exit 1 on regression"
    )
    diff.add_argument("run_a", help="baseline (old) run id prefix")
    diff.add_argument("run_b", help="candidate (new) run id prefix")
    diff.add_argument("--tolerance", type=float, default=0.05)
    diff.add_argument(
        "--all", action="store_true",
        help="print unchanged metrics too",
    )

    gate = sub.add_parser(
        "gate",
        help="gate fresh artifacts against the best stored baseline",
    )
    gate.add_argument("files", nargs="+")
    gate.add_argument(
        "--baseline", required=True,
        help="baseline store path (created and seeded when missing)",
    )
    gate.add_argument("--tolerance", type=float, default=0.1)

    return parser.parse_args(argv)


def _load(path: Path) -> Tuple[RunRecord, List[Point]]:
    """One artifact file as its run row and points (not yet stored)."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    created = doc.get("generated_unix") or path.stat().st_mtime
    return ingest_document(doc, source=path.name, created_at=float(created))


def _cmd_ingest(args: argparse.Namespace) -> int:
    with ResultStore(args.db) as store:
        for path in args.files:
            try:
                record, points = _load(Path(path))
            except (UnknownSchemaError, json.JSONDecodeError) as exc:
                print(f"ingest: {path}: {exc}", file=sys.stderr)
                return 2
            store.put_run(record, points)
            print(
                f"ingested {Path(path).name}: run {record.run_id[:12]} "
                f"schema {record.schema} config {record.config_hash[:12]} "
                f"({len(points)} points)"
            )
    return 0


def _cmd_ls(args: argparse.Namespace) -> int:
    with ResultStore(args.db) as store:
        records = store.runs()
        if not records:
            print("(no stored runs)")
            return 0
        print(
            f"{'run':12s}  {'experiment':16s}  {'config':12s}  "
            f"{'points':>6s}  {'git':10s}  source"
        )
        for rec in records:
            n = len(store.points(rec.run_id))
            print(
                f"{rec.run_id[:12]:12s}  "
                f"{str(rec.raw.get('experiment', '')):16s}  "
                f"{rec.config_hash[:12]:12s}  {n:6d}  "
                f"{rec.git_sha[:10]:10s}  {rec.source}"
            )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    with ResultStore(args.db) as store:
        rec = store.run(args.run)
        if args.raw:
            print(json.dumps(store.raw(rec.run_id), indent=2, sort_keys=True))
            return 0
        points = store.points(rec.run_id)
        print(f"run        {rec.run_id}")
        print(f"schema     {rec.schema}")
        print(f"config     {rec.config_hash}")
        print(f"git_sha    {rec.git_sha or '(unknown)'}")
        print(f"source     {rec.source or '(direct)'}")
        print(f"points     {len(points)}")
        shown = points if args.limit <= 0 else points[: args.limit]
        for pt in shown:
            axes = json.dumps(pt.axes, sort_keys=True)
            print(f"  {pt.metric:40s} {pt.value:>16g}  {axes}")
        if len(shown) < len(points):
            print(f"  ... {len(points) - len(shown)} more (--limit 0 for all)")
    return 0


def _print_diff(result: DiffResult, show_all: bool) -> None:
    print(
        f"diff {result.run_a[:12]} -> {result.run_b[:12]} "
        f"(tolerance {result.tolerance:.1%}): "
        f"{len(result.deltas)} shared metrics, "
        f"{len(result.changed)} changed, "
        f"{len(result.regressions)} regressed, "
        f"{len(result.improvements)} improved"
    )
    for delta in result.regressions:
        print(f"  REGRESSED  {delta.describe()}")
    for delta in result.improvements:
        print(f"  improved   {delta.describe()}")
    if show_all:
        for delta in result.deltas:
            if not (
                delta.regressed(result.tolerance)
                or delta.improved(result.tolerance)
            ):
                print(f"             {delta.describe()}")
    if result.only_a:
        print(f"  only in A: {len(result.only_a)} metrics")
    if result.only_b:
        print(f"  only in B: {len(result.only_b)} metrics")


def _cmd_diff(args: argparse.Namespace) -> int:
    with ResultStore(args.db) as store:
        result = diff_runs(
            store, args.run_a, args.run_b, tolerance=args.tolerance
        )
    _print_diff(result, args.all)
    if not result.ok:
        print(
            f"diff: FAIL - {len(result.regressions)} metric(s) regressed "
            f"beyond {args.tolerance:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    failures = 0
    with ResultStore(args.baseline) as store:
        for path in args.files:
            p = Path(path)
            record, points = _load(p)
            baseline = best_baseline(store, record.schema, record.config_hash)
            # The fresh run joins the store either way: history should
            # show regressions, and a better run becomes the new bar.
            store.put_run(record, points)
            if baseline is None:
                print(
                    f"gate: {p.name}: no stored baseline for config "
                    f"{record.config_hash[:12]} - seeded as "
                    f"{record.run_id[:12]}"
                )
                continue
            result = diff_runs(
                store, baseline.run_id, record.run_id,
                tolerance=args.tolerance,
            )
            # Point-for-point equal (the commit stamp may still differ).
            if not (result.changed or result.only_a or result.only_b):
                print(f"gate: {p.name}: identical to stored baseline - OK")
                continue
            _print_diff(result, show_all=False)
            if result.ok:
                print(f"gate: {p.name}: OK vs baseline {baseline.run_id[:12]}")
            else:
                failures += 1
                print(
                    f"gate: {p.name}: FAIL - "
                    f"{len(result.regressions)} regression(s) vs "
                    f"baseline {baseline.run_id[:12]}",
                    file=sys.stderr,
                )
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    handlers = {
        "ingest": _cmd_ingest,
        "ls": _cmd_ls,
        "show": _cmd_show,
        "diff": _cmd_diff,
        "gate": _cmd_gate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

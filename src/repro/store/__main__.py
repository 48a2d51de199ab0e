"""CLI: ``python -m repro.store`` — compare experiment documents.

Subcommands::

    gate FILES... [--baseline DIR]   # each vs DIR/<basename>
    diff A.json B.json               # B vs A

Both run :func:`repro.store.diff.compare`: any moved leaf is a difference.
Exit status is 0 when every document reproduces its golden, 1 on any
difference or a missing golden (never a silent seed), 2 when a document
cannot be read or is not ``agile-experiment/1``.

Examples::

    python -m repro.store gate fig5.json storm-1.json
    python -m repro.store diff baselines/fig5.json fig5.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.store.diff import UnknownSchemaError, compare


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Check experiment documents against committed goldens.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gate = sub.add_parser(
        "gate", help="compare each document with the golden of the same name"
    )
    gate.add_argument("files", nargs="+")
    gate.add_argument(
        "--baseline", default="baselines",
        help="directory holding the goldens (default: baselines)",
    )
    diff = sub.add_parser("diff", help="compare two documents")
    diff.add_argument("golden")
    diff.add_argument("fresh")
    return parser.parse_args(argv)


def _judge(golden: Path, fresh: Path) -> int:
    """Compare one pair, print the verdict, return its exit status."""
    if not golden.exists():
        print(
            f"{fresh.name}: FAIL - no golden {golden}: write it with "
            f"`python -m repro.bench run ... --out {golden}` and commit it",
            file=sys.stderr,
        )
        return 1
    try:
        docs = [
            json.loads(path.read_text(encoding="utf-8")) for path in (golden, fresh)
        ]
        differences = compare(*docs)
    except (OSError, json.JSONDecodeError, UnknownSchemaError) as exc:
        print(f"{fresh.name}: {exc}", file=sys.stderr)
        return 2
    for line in differences:
        print(f"  {line}")
    if differences:
        print(
            f"{fresh.name}: FAIL - {len(differences)} difference(s) vs {golden}",
            file=sys.stderr,
        )
        return 1
    print(f"{fresh.name}: identical to {golden} - OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if args.command == "diff":
        return _judge(Path(args.golden), Path(args.fresh))
    return max(
        _judge(Path(args.baseline) / Path(path).name, Path(path))
        for path in args.files
    )


if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m repro.analysis`` — run the static analysis stack.

``lint`` runs the static simulation-safety lint (same as
``python -m repro.analysis.lint``).

The runtime half — a representative workload with every invariant checker
and the held-lock map attached — is ``python -m
repro.bench run storm --set intensity=0`` (or any storm: the analysis
session is always attached there).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AGILE static analysis: the simulation-safety lint",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lint = sub.add_parser("lint", help="run the simulation-safety lint")
    lint.add_argument("paths", nargs="*", default=["src/repro"])
    args = parser.parse_args(argv)
    from repro.analysis.lint import main as lint_main

    return lint_main(args.paths)


if __name__ == "__main__":
    sys.exit(main())

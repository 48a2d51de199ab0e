"""``python -m repro.analysis`` — run the static analysis stack.

``lint`` runs the static simulation-safety lint (same as
``python -m repro.analysis.lint``).
``flow`` runs the CFG/dataflow static analysis (determinism taint,
unit consistency, lock-release paths) with SARIF and baseline support
(same as ``python -m repro.analysis.flow``; see ``flow --help``).

The runtime half — a representative workload with every invariant checker
attached and the offline race/lock-order replay — is ``python -m
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
        description="AGILE static analysis: simulation-safety lint and "
        "the CFG/dataflow rule packs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lint = sub.add_parser("lint", help="run the simulation-safety lint")
    lint.add_argument("paths", nargs="*", default=["src/repro"])
    sub.add_parser(
        "flow",
        help="run the CFG/dataflow analysis (AGL009-AGL012); "
        "arguments follow, see `flow --help`",
        add_help=False,
    )
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["flow"]:
        from repro.analysis.flow import main as flow_main

        return flow_main(argv[1:])
    args = parser.parse_args(argv)
    from repro.analysis.lint import main as lint_main

    return lint_main(args.paths)


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.analysis flow`` — the dataflow rule packs, wired up.

Runs the three CFG/dataflow rule packs (determinism taint AGL009/AGL010,
unit consistency AGL011, lock-release AGL012) over a shared
:class:`~repro.analysis.source.SourceSession`, filters the result through
the committed baseline, and reports as text and/or SARIF.

Exit status: 0 when every finding is baselined (or none), 1 on any *new*
finding, so CI gates only on regressions.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lockflow import StaticLockGraph, analyze_lockflow
from repro.analysis.sarif import Baseline, write_sarif
from repro.analysis.source import (
    Finding,
    SourceSession,
    sort_findings,
)
from repro.analysis.taint import analyze_taint
from repro.analysis.units import analyze_units

DEFAULT_BASELINE = "flow-baseline.json"


@dataclass
class FlowResult:
    """Everything one flow run produced."""

    findings: List[Finding] = field(default_factory=list)
    lock_graph: StaticLockGraph = field(default_factory=StaticLockGraph)
    files_analyzed: int = 0


def run_flow(
    paths: Sequence[str],
    session: Optional[SourceSession] = None,
    packs: Optional[Sequence[str]] = None,
) -> FlowResult:
    """Run the dataflow rule packs over ``paths`` (files or directories).

    ``session`` lets callers share one parsed-AST cache with other passes
    (the AGL lint); ``packs`` restricts to a subset of
    ``("taint", "units", "lockflow")``.
    """
    session = session or SourceSession()
    active = set(packs) if packs is not None else {"taint", "units", "lockflow"}
    files = session.files(paths)
    result = FlowResult(files_analyzed=len(files))
    result.findings.extend(session.errors)
    if "taint" in active:
        result.findings.extend(analyze_taint(files))
    if "units" in active:
        result.findings.extend(analyze_units(files))
    if "lockflow" in active:
        lock_findings, graph = analyze_lockflow(files)
        result.findings.extend(lock_findings)
        result.lock_graph = graph
    result.findings = sort_findings(result.findings)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis flow",
        description="CFG/dataflow static analysis: determinism taint "
        "(AGL009/AGL010), unit consistency (AGL011), lock-release paths "
        "(AGL012)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--pack", action="append", choices=["taint", "units", "lockflow"],
        help="run only the given pack(s); default: all",
    )
    parser.add_argument(
        "--sarif", metavar="FILE",
        help="write a SARIF 2.1.0 log (use '-' for stdout)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report and gate on every finding",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover current findings (existing "
        "justifications preserved; new entries get a TODO placeholder)",
    )
    parser.add_argument(
        "--lock-graph", metavar="FILE",
        help="also dump the static lock-order graph as JSON",
    )
    parser.add_argument(
        "--with-lint", action="store_true",
        help="also run the syntactic AGL lint off the same parsed ASTs",
    )
    args = parser.parse_args(argv)

    session = SourceSession()
    result = run_flow(args.paths, session=session, packs=args.pack)
    findings = list(result.findings)

    if args.with_lint:
        from repro.analysis.lint import lint_files

        findings.extend(lint_files(session.files(args.paths)))
        findings = sort_findings(findings)

    baseline_path = Path(args.baseline)
    baseline = (
        Baseline() if args.no_baseline else Baseline.load(baseline_path)
    )

    if args.update_baseline:
        baseline.updated(findings).save(baseline_path)
        print(
            f"baseline updated: {baseline_path} now covers "
            f"{len({f.fingerprint() for f in findings})} finding(s)"
        )
        return 0

    new, old, stale = baseline.split(findings)

    if args.sarif:
        import json as _json

        from repro.analysis.sarif import to_sarif

        if args.sarif == "-":
            print(_json.dumps(to_sarif(findings, baseline), indent=2))
        else:
            write_sarif(findings, Path(args.sarif), baseline)

    if args.lock_graph:
        import json as _json

        Path(args.lock_graph).write_text(
            _json.dumps(result.lock_graph.to_dict(), indent=2) + "\n",
            encoding="utf-8",
        )

    for f in new:
        print(f)
    summary = (
        f"flow: {result.files_analyzed} file(s), "
        f"{len(findings)} finding(s): {len(new)} new, "
        f"{len(old)} baselined"
    )
    if stale:
        summary += (
            f", {len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'} (refresh with "
            f"--update-baseline)"
        )
    print(summary)
    if new:
        print(
            "new findings fail the gate; fix them or baseline with a "
            "justification (--update-baseline)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Reach pass: which functions of ``src/repro`` does no gated run enter?

Not part of tier-1.  Run from the repo root::

    PYTHONPATH=src python -m tests.support.reach [--no-tier1]

The universe is every function, method and lambda code object compiled
from ``src/repro/**/*.py`` (module and class bodies run on import and are
left out).  A stdlib ``sys.settrace`` hook books each code object's first
entry, function granularity only (no line events).  Three passes, in one
process:

1. *gated* — every document command ``ci.yml`` writes (the same workflow
   regex ``tests/store/test_goldens.py`` reads), plus ``storm --set
   intensity=0``, the simulation-safety lint over ``src/repro``, the
   tolerance-0 golden gate of each document, and perfbench's quick pass
   (each workload once inside ``telemetry.capture()``).  Recording starts
   before ``repro`` is imported, so import-time calls count;
2. *tier-1* — ``pytest -x -q`` in-process, its progress on stderr
   (skipped by ``--no-tier1``);
3. the report: one row per function no gated run entered, ``tier-1-only``
   if tier-1 entered it and ``none`` if nothing did, then the totals.

Every row is either deleted or kept for a stated reason; run it at every
re-anchor and before a change that claims code is unreached.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import tempfile
from contextlib import contextmanager, redirect_stdout
from pathlib import Path
from types import CodeType, FrameType
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).parents[2]
SRC = ROOT / "src" / "repro"

Key = Tuple[str, int, str]  # (file, first line, name)


def _functions(code: CodeType) -> Iterator[CodeType]:
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if not const.co_name.startswith("<") or const.co_name == "<lambda>":
                if const.co_flags & inspect.CO_NEWLOCALS:  # not a class body
                    yield const
            yield from _functions(const)


def _last_line(code: CodeType) -> int:
    last = max((line for *_, line in code.co_lines() if line), default=0)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            last = max(last, _last_line(const))
    return last


def universe() -> Dict[Key, Tuple[str, int]]:
    """Every function under ``src/repro``: key -> (qualname, lines)."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        filename = str(path)
        module = compile(path.read_text(encoding="utf-8"), filename, "exec")
        for code in _functions(module):
            lines = _last_line(code) - code.co_firstlineno + 1
            found[(filename, code.co_firstlineno, code.co_name)] = (
                code.co_qualname, lines,
            )
    return found


@contextmanager
def recording() -> Iterator[Set[Key]]:
    entered: Set[Key] = set()
    seen: Set[CodeType] = set()
    prefix = str(SRC)

    def hook(frame: FrameType, event: str, arg: object) -> None:
        code = frame.f_code
        if code not in seen:
            seen.add(code)
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return None

    sys.settrace(hook)
    try:
        yield entered
    finally:
        sys.settrace(None)


def document_commands() -> List[Tuple[str, List[str]]]:
    """(document, ``repro.bench`` argv) for everything ``ci.yml`` writes."""
    from tests.store.test_goldens import ci_documents

    commands = []
    for doc in sorted(ci_documents()):
        stem = doc[: -len(".json")]
        name, _, seed = stem.rpartition("-")
        if name in ("storm", "pe-storm") and seed.isdigit():
            commands.append((doc, ["run", name, "--seed", seed]))
        else:
            commands.append((doc, ["run", stem, "--quick"]))
    return commands


def perfbench_quick() -> None:
    """perfbench's quick pass in-process: every workload once, its hosts
    built inside ``telemetry.capture()``, then its output checks."""
    from perfbench import counters
    from perfbench.workloads import REGISTRY
    from repro import telemetry

    for name, factory in REGISTRY.items():
        workload = factory()
        workload.prepare(7)
        with telemetry.capture() as cap:
            workload.arm()
            workload.run()
        failed = [c for c in workload.outcome().checks if not c[1]]
        counters.extract(cap.sessions)
        if failed:
            raise SystemExit(f"perfbench {name}: failed {failed}")


def gated_pass(workdir: Path) -> Tuple[Set[Key], List[str]]:
    """Enter everything CI gates; returns (entered, gate verdict lines)."""
    docs = []
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull), \
            recording() as entered:
        from repro.analysis.lint import main as lint_main
        from repro.bench.__main__ import main as bench_main
        from repro.store.__main__ import main as store_main

        for doc, argv in document_commands():
            out = workdir / doc
            bench_main([*argv, "--out", str(out)])
            docs.append(out)
        bench_main(["run", "storm", "--set", "intensity=0"])
        lint_main([str(SRC)])
        perfbench_quick()
        gate = workdir / "gate.txt"
        with open(gate, "w", encoding="utf-8") as fh, redirect_stdout(fh):
            store_main(["gate", *map(str, docs), "--baseline",
                        str(ROOT / "baselines")])
    return entered, gate.read_text(encoding="utf-8").splitlines()


def tier1_pass() -> Set[Key]:
    import pytest

    with recording() as entered, redirect_stdout(sys.stderr):
        code = pytest.main(
            ["-x", "-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
        )
    if code != 0:
        raise SystemExit(f"tier-1 failed (exit {code}); the table needs it green")
    return entered


def table(
    funcs: Dict[Key, Tuple[str, int]], gated: Set[Key],
    tier1: Optional[Set[Key]],
) -> str:
    rows = []
    unreached = [key for key in sorted(funcs) if key not in gated]
    for key in unreached:
        qualname, lines = funcs[key]
        verdict = "?" if tier1 is None else (
            "tier-1-only" if key in tier1 else "none"
        )
        where = f"{os.path.relpath(key[0], SRC)}:{key[1]}"
        rows.append(f"{where:<30} {qualname:<48} {lines:>5}  {verdict}")
    total = sum(funcs[key][1] for key in unreached)
    out = [f"{'file:line':<30} {'function':<48} {'lines':>5}  entered by", *rows]
    out.append(
        f"{len(unreached)} of {len(funcs)} functions ({total} lines) entered"
        " by no gated run"
    )
    if tier1 is not None:
        none = [key for key in unreached if key not in tier1]
        out.append(
            f"{len(none)} functions ({sum(funcs[k][1] for k in none)} lines)"
            " entered by tier-1 neither"
        )
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.support.reach")
    parser.add_argument("--no-tier1", action="store_true",
                        help="skip the tier-1 pass (no tier-1-only column)")
    args = parser.parse_args(argv)
    funcs = universe()
    with tempfile.TemporaryDirectory() as tmp:
        gated, verdicts = gated_pass(Path(tmp))
    tier1 = None if args.no_tier1 else tier1_pass()
    print("\n".join(line for line in verdicts if line.strip()))
    print(table(funcs, gated, tier1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""perfbench — the repository's performance benchmark, measured from outside.

Four named workloads run the simulator through its public functions only;
every number is taken by timing or profiling those calls, nothing under
``src/`` is edited.  ``python -m perfbench run`` prints every metric by
name with its unit and time base (host vs simulated) and verifies the
outputs; ``python -m perfbench compare A.json B.json`` judges two result
documents.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent


def require_repro() -> None:
    """Put ``src/`` on ``sys.path`` so ``import repro`` finds this checkout.

    Exits with status 2 when the program under test is not there (the
    benchmark's files copied somewhere without the repository).
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

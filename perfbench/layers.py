"""Book a cProfile run to the declared layers.

Each profiled function belongs to exactly one layer key, decided by its
file path.  Self time is ``tottime``, so a layer never pays for the layers
it calls; ``calls`` is cProfile's total call count, which counts every
generator resume as a call — the unit ROADMAP's "polling visits" uses.
"""

from __future__ import annotations

import cProfile
import pstats

import perfbench
from perfbench import spec

_REPRO = str(perfbench.ROOT / "src" / "repro") + "/"
_PERFBENCH = str(perfbench.ROOT / "perfbench") + "/"


def layer_of_function(filename: str, funcname: str) -> str | None:
    """Layer key of one cProfile row; None for a declared not-covered part
    of ``src/repro``."""
    if filename.startswith(_REPRO):
        return spec.layer_of_source(filename[len(_REPRO):])
    if filename.startswith(_PERFBENCH):
        # The perfbench-owned fig5 kernel is workload code, the twin of
        # repro.workloads.io_sweep.
        return "workloads"
    # Built-ins carry no file ("~"); their owner is in the function name.
    if "numpy" in filename or (filename == "~" and "numpy" in funcname):
        return "ext.numpy"
    return "ext.python"


def book(profile: cProfile.Profile) -> tuple[dict[str, list[float]], float]:
    """-> ({layer key: [self seconds, calls]}, not-covered self seconds)."""
    layers = {key: [0.0, 0] for key in spec.LAYER_KEYS}
    not_covered = 0.0
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, funcname), (_cc, calls, tottime, _ct, _callers) in (
        stats.items()
    ):
        key = layer_of_function(filename, funcname)
        if key is None:
            not_covered += tottime
            continue
        layers[key][0] += tottime
        layers[key][1] += calls
    return layers, not_covered

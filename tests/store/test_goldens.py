"""The committed goldens are live (a fresh run reproduces them), well
formed, and complete (one per document CI writes)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from repro.bench.__main__ import main as bench_main
from repro.store.__main__ import main as store_main

from tests.store.helpers import SCHEMA

ROOT = Path(__file__).parents[2]
GOLDENS = sorted((ROOT / "baselines").glob("*.json"))


def ci_documents():
    """The file names ``ci.yml`` writes: the ``experiment-smoke`` matrix
    plus ``chaos``'s storm x seed matrix."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    smoke = re.search(r"\n +experiment:\n((?: +- \S+\n)+)", text).group(1)
    seeds, storms = (
        re.search(rf"\n +{key}: \[(.*)\]\n", text).group(1).split(", ")
        for key in ("seed", "storm")
    )
    return {f"{name}.json" for name in re.findall(r"- (\S+)", smoke)} | {
        f"{storm}-{seed}.json" for storm in storms for seed in seeds
    }


#: The four cheapest CI documents (~5 s together), ``write-path`` (~2.5 s:
#: serving, FTL GC and ``sim_events``) and ``fig7`` (~6 s: the DLRM headline,
#: all cache hits and HBM atomics), gated before CI runs.
@pytest.mark.parametrize(
    "name",
    ["fig12", "abl-coalescing", "abl-dram-tier", "abl-policies", "write-path",
     "fig7"],
)
def test_fresh_run_reproduces_the_golden_exactly(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert bench_main(["run", name, "--quick", "--out", str(out)]) == 0
    assert store_main(["gate", str(out), "--baseline", str(ROOT / "baselines")]) == 0
    assert f"{name}.json: identical" in capsys.readouterr().out


def test_document_is_the_same_bytes_under_two_hash_seeds(tmp_path):
    """Determinism across processes, stated once: nothing on a simulated
    path may walk a set or key on ``hash()``/``id()``.  The tests above run
    under whatever hash seed pytest got; this one pins two.  ``for ev in
    set(waiters): ev.trigger()`` planted in ``Signal.fire`` fails the
    ``write-path`` and ``fig7`` gates above."""
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}.json"
        cmd = [sys.executable, "-m", "repro.bench", "run", "abl-coalescing",
               "--quick", "--out", str(out)]
        env = {**os.environ, "PYTHONHASHSEED": seed}
        runs.append(
            (out, subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL))
        )
    assert [proc.wait() for _, proc in runs] == [0, 0]
    first, second = (out.read_bytes() for out, _ in runs)
    assert first == second


def test_every_golden_validates_against_the_schema():
    for path in GOLDENS:
        jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), SCHEMA)


def test_goldens_are_exactly_the_documents_ci_writes():
    # An experiment added to CI without a golden fails here, not on the
    # first CI run that would otherwise have nothing to compare against.
    assert {path.name for path in GOLDENS} == ci_documents()

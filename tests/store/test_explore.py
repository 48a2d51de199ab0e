"""Explore: the design-space grid experiment, end to end through the gate."""

import json

import pytest

from repro.bench.__main__ import main as serve_main
from repro.serve.experiment import ExperimentError
from repro.serve.sweep import EXPLORE
from repro.store import points
from repro.store.__main__ import main

#: One tiny grid: 2 cells, sub-second total, still crossing two axes.
TINY = [
    "cache_lines=256", "queue_depth=32", "ssds=1,2", "arrival=poisson",
    "target_rps=20000", "duration_ns=300000", "seed=11",
]


def run_tiny(*extra: str):
    return EXPLORE.run(*EXPLORE.configure([*TINY, *extra]))


class TestSpec:
    def test_cells_cross_every_axis_in_order(self):
        spec, axes = EXPLORE.configure(
            ["cache_lines=128,256", "queue_depth=32", "arrival=poisson,mmpp"]
        )
        cells = [axes for axes, _ in EXPLORE.plans(spec, axes)]
        assert len(cells) == 8
        assert cells[0] == {
            "cache_lines": 128, "queue_depth": 32,
            "ssds": 1, "arrival": "poisson",
        }

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ExperimentError, match="explore.*'arrival'.*pareto"):
            run_tiny("arrival=pareto")

    def test_spec_hash_tracks_axes(self):
        # Only the seed differs.
        assert EXPLORE.config_hash(*EXPLORE.configure(TINY)) != (
            EXPLORE.config_hash(*EXPLORE.configure([*TINY, "seed=12"]))
        )


class TestDeterminism:
    def test_same_spec_same_document_bit_for_bit(self):
        # The property the golden gate rests on: explore output has no
        # wall-clock or ordering noise.
        assert run_tiny() == run_tiny()

    def test_mmpp_cells_differ_from_poisson_cells(self):
        doc = run_tiny("ssds=1", "arrival=poisson,mmpp")
        by_arrival = {
            c["axes"]["arrival"]: c["metrics"] for c in doc["cells"]
        }
        assert by_arrival["poisson"] != by_arrival["mmpp"]


class TestStorePopulation:
    def test_explore_document_ingests(self):
        doc = run_tiny()
        # Every cell contributes its metric set, keyed by grid axes.
        goodput = [json.loads(axes) for axes, m in points(doc) if m == "goodput_rps"]
        assert len(goodput) == len(doc["cells"])
        assert {axes["ssds"] for axes in goodput} == {1, 2}

    def test_cli_explore_document_gates_against_its_golden(self, tmp_path, capsys):
        sets = [arg for item in [*TINY, "ssds=1"] for arg in ("--set", item)]
        for out in (tmp_path / "golden" / "grid.json", tmp_path / "grid.json"):
            out.parent.mkdir(exist_ok=True)
            assert serve_main(["run", "explore", *sets, "--out", str(out)]) == 0
        assert main([
            "gate", str(tmp_path / "grid.json"),
            "--baseline", str(tmp_path / "golden"),
        ]) == 0
        assert "grid.json: identical" in capsys.readouterr().out

    def test_cli_rejects_bad_arrival(self, capsys):
        assert serve_main(["run", "explore", "--set", "arrival=pareto"]) == 2
        assert "pareto" in capsys.readouterr().err

"""Saturation sweep: determinism, AGILE-vs-BaM ordering, knee detection."""

from __future__ import annotations

import pytest

from repro.serve.experiment import build_backend, knee_cells, knee_rps
from repro.serve.sweep import SweepSpec

from tests.serve.helpers import serve_point

# One modest load on a small window: enough traffic to batch and complete,
# cheap enough that the sweep tests stay inside the tier-1 budget.
SPEC = SweepSpec(duration_ns=1_000_000.0, seed=7)


def _cell(target_rps: float, goodput_rps: float, system: str = "x"):
    return {
        "axes": {"system": system, "target_rps": target_rps},
        "metrics": {"offered_rps": target_rps, "goodput_rps": goodput_rps},
    }


class TestKnee:
    def test_knee_is_last_tracking_point(self):
        cells = [
            _cell(10_000.0, 10_000.0),   # tracks
            _cell(20_000.0, 19_000.0),   # tracks (95 %)
            _cell(40_000.0, 21_000.0),   # collapsed
        ]
        assert knee_rps(cells) == 20_000.0

    def test_knee_zero_when_nothing_tracks(self):
        assert knee_rps([_cell(10_000.0, 100.0)]) == 0.0
        # One knee row per curve, keyed by the axes that are not the load.
        rows = knee_cells([_cell(10_000.0, 100.0), _cell(10_000.0, 1e4, "y")])
        assert rows == [
            {"axes": {"system": "x"}, "metrics": {"knee_rps": 0.0}},
            {"axes": {"system": "y"}, "metrics": {"knee_rps": 10_000.0}},
        ]


class TestBuildBackend:
    def test_known_systems(self):
        for system in ("agile", "bam", "naive"):
            assert build_backend(system).system == system

    def test_unknown_system_raises(self):
        with pytest.raises(ValueError, match="unknown serve system"):
            build_backend("mystery")


class TestSweepPoints:
    def test_point_is_bit_deterministic(self):
        a, b = serve_point("agile", SPEC), serve_point("agile", SPEC)
        assert a.as_dict() == b.as_dict()

    def test_agile_goodput_at_least_bam(self):
        agile, bam = serve_point("agile", SPEC), serve_point("bam", SPEC)
        assert agile.goodput_rps >= bam.goodput_rps

    def test_identical_arrival_timelines_across_systems(self):
        """The seed contract: every system serves the *same* offered
        traffic, so curves are comparable point by point."""
        assert serve_point("agile", SPEC).offered == serve_point("bam", SPEC).offered

"""Arrival processes: determinism, mean gap, trace replay."""

from __future__ import annotations

from itertools import islice

import pytest

from repro.serve.arrival import Poisson, TraceReplay
from repro.sim.rng import RngStreams


def _take(process, n, seed=7, stream="serve.arrival.point"):
    rng = RngStreams(seed).stream(stream)
    return list(islice(process.gaps(rng), n))


class TestPoisson:
    def test_same_stream_same_gaps(self):
        a = _take(Poisson(50_000.0), 200)
        b = _take(Poisson(50_000.0), 200)
        assert a == b

    def test_different_seed_different_gaps(self):
        a = _take(Poisson(50_000.0), 50, seed=7)
        b = _take(Poisson(50_000.0), 50, seed=8)
        assert a != b

    def test_different_stream_name_different_gaps(self):
        a = _take(Poisson(50_000.0), 50, stream="serve.arrival.point")
        b = _take(Poisson(50_000.0), 50, stream="serve.arrival.scan")
        assert a != b

    def test_mean_gap_matches_rate(self):
        proc = Poisson(100_000.0)  # mean gap 10_000 ns
        gaps = _take(proc, 4000)
        mean = sum(gaps) / len(gaps)
        assert 0.9 * proc.mean_gap_ns < mean < 1.1 * proc.mean_gap_ns

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Poisson(0.0)


class TestTraceReplay:
    def test_cycles_and_scales(self):
        proc = TraceReplay([100.0, 200.0, 300.0], scale=0.5)
        gaps = _take(proc, 7)
        assert gaps == [50.0, 100.0, 150.0, 50.0, 100.0, 150.0, 50.0]

    def test_page_sequence_cycles_in_lockstep(self):
        pages = [((0, 1),), ((1, 2), (0, 3))]
        proc = TraceReplay([10.0, 20.0], pages=pages)
        seq = list(islice(proc.page_sequence(), 5))
        assert seq == [pages[0], pages[1], pages[0], pages[1], pages[0]]

    def test_page_sequence_requires_pages(self):
        with pytest.raises(ValueError):
            next(TraceReplay([10.0]).page_sequence())

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceReplay([])
        with pytest.raises(ValueError):
            TraceReplay([10.0, -1.0])
        with pytest.raises(ValueError):
            TraceReplay([10.0], pages=[((0, 1),), ((0, 2),)])

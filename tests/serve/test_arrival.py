"""Arrival processes: determinism, mean rates, trace replay."""

from __future__ import annotations

from itertools import islice

import pytest

from repro.serve.arrival import Mmpp, Poisson, TraceReplay
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
        assert proc.mean_rate_rps == 100_000.0

    def test_scaled(self):
        assert Poisson(10_000.0).scaled(2.0).rate_rps == 20_000.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Poisson(0.0)


class TestMmpp:
    def test_deterministic(self):
        proc = Mmpp(20_000.0, 200_000.0)
        assert _take(proc, 300) == _take(proc, 300)

    def test_mean_rate_is_dwell_weighted(self):
        proc = Mmpp(
            10_000.0, 100_000.0, calm_dwell_ns=3_000_000.0,
            burst_dwell_ns=1_000_000.0,
        )
        expected = (10_000.0 * 3.0 + 100_000.0 * 1.0) / 4.0
        assert proc.mean_rate_rps == pytest.approx(expected)

    def test_empirical_rate_between_calm_and_burst(self):
        proc = Mmpp(20_000.0, 200_000.0)
        gaps = _take(proc, 8000)
        rate = 1e9 * len(gaps) / sum(gaps)
        assert 20_000.0 < rate < 200_000.0

    def test_rejects_burst_below_calm(self):
        with pytest.raises(ValueError):
            Mmpp(100_000.0, 50_000.0)


class TestTraceReplay:
    def test_cycles_and_scales(self):
        proc = TraceReplay([100.0, 200.0, 300.0], scale=0.5)
        gaps = _take(proc, 7)
        assert gaps == [50.0, 100.0, 150.0, 50.0, 100.0, 150.0, 50.0]

    def test_mean_rate_accounts_for_scale(self):
        proc = TraceReplay([1000.0, 3000.0], scale=2.0)  # mean gap 4000 ns
        assert proc.mean_rate_rps == pytest.approx(1e9 / 4000.0)

    def test_scaled_divides_scale(self):
        proc = TraceReplay([1000.0], scale=1.0).scaled(4.0)
        assert proc.scale == 0.25

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

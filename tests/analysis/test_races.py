"""Pin-discipline data-race analysis over cache access streams."""

from __future__ import annotations

from repro.analysis import DataRaceAnalyzer
from repro.core.cache import LineState
from repro.sim.probe import Probe
from repro.sim.trace import EventLog

import pytest


@pytest.fixture
def probe(sim):
    return Probe(sim)


@pytest.fixture
def log(probe):
    return EventLog().attach(probe)


def access(probe, line, tid, rw, pinned, tag=(0, 5)):
    probe.emit(
        "cache.access", src=None, line=line, tag=tag, tid=tid, rw=rw,
        pinned=pinned,
    )


def claim(probe, line):
    probe.emit(
        "cache.state", src=None, line=line, set=0, way=line,
        old=LineState.READY, new=LineState.BUSY, tag=(0, 9), reason="claim",
    )


def test_unpinned_write_vs_read_is_a_race(probe, log):
    access(probe, 3, tid=0, rw="w", pinned=False)
    access(probe, 3, tid=1, rw="r", pinned=True)
    races = DataRaceAnalyzer().feed(log.events()).races()
    assert len(races) == 1
    race = races[0]
    assert race.line == 3
    assert {race.first[0], race.second[0]} == {0, 1}
    assert "UNPINNED" in race.describe()


def test_both_pinned_is_synchronized(probe, log):
    access(probe, 3, tid=0, rw="w", pinned=True)
    access(probe, 3, tid=1, rw="r", pinned=True)
    assert DataRaceAnalyzer().feed(log.events()).races() == []


def test_read_read_is_never_a_race(probe, log):
    access(probe, 3, tid=0, rw="r", pinned=False)
    access(probe, 3, tid=1, rw="r", pinned=False)
    assert DataRaceAnalyzer().feed(log.events()).races() == []


def test_same_thread_is_never_a_race(probe, log):
    access(probe, 3, tid=0, rw="w", pinned=False)
    access(probe, 3, tid=0, rw="r", pinned=False)
    assert DataRaceAnalyzer().feed(log.events()).races() == []


def test_reclaim_separates_incarnations(probe, log):
    """An unpinned write before a line is re-claimed (-> BUSY) cannot race
    with accesses to the line's next tenant: the generation counter keeps
    the incarnations apart."""
    access(probe, 3, tid=0, rw="w", pinned=False)
    claim(probe, 3)
    access(probe, 3, tid=1, rw="r", pinned=False)
    assert DataRaceAnalyzer().feed(log.events()).races() == []


def test_duplicate_pairs_reported_once(probe, log):
    access(probe, 3, tid=0, rw="w", pinned=False)
    access(probe, 3, tid=1, rw="r", pinned=False)
    access(probe, 3, tid=1, rw="r", pinned=False)
    races = DataRaceAnalyzer().feed(log.events()).races()
    assert len(races) == 1

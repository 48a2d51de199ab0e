"""Pin-discipline data-race analysis over cache access streams, and the
analysis session judging records as they arrive."""

from __future__ import annotations

from repro.analysis import AnalysisSession, DataRaceAnalyzer
from repro.core.cache import LineState
from repro.sim.engine import Timeout
from repro.sim.probe import Probe

import pytest


@pytest.fixture
def probe(sim):
    return Probe(sim)


@pytest.fixture
def analyzer(probe):
    return DataRaceAnalyzer().attach(probe)


def access(probe, line, tid, rw, pinned, tag=(0, 5)):
    probe.emit(
        "cache.access", src=None, line=line, tag=tag, tid=tid, rw=rw,
        pinned=pinned,
    )


def claim(probe, line, tag=(0, 9)):
    probe.emit(
        "cache.state", src=None, line=line, set=0, way=line,
        old=LineState.READY, new=LineState.BUSY, tag=tag, reason="claim",
    )


def test_unpinned_write_vs_read_is_a_race(probe, analyzer):
    access(probe, 3, tid=0, rw="w", pinned=False)
    access(probe, 3, tid=1, rw="r", pinned=True)
    races = analyzer.races()
    assert len(races) == 1
    race = races[0]
    assert race.line == 3
    assert {race.first[0], race.second[0]} == {0, 1}
    assert "UNPINNED" in race.describe()


def test_both_pinned_is_synchronized(probe, analyzer):
    access(probe, 3, tid=0, rw="w", pinned=True)
    access(probe, 3, tid=1, rw="r", pinned=True)
    assert analyzer.races() == []


def test_read_read_is_never_a_race(probe, analyzer):
    access(probe, 3, tid=0, rw="r", pinned=False)
    access(probe, 3, tid=1, rw="r", pinned=False)
    assert analyzer.races() == []


def test_same_thread_is_never_a_race(probe, analyzer):
    access(probe, 3, tid=0, rw="w", pinned=False)
    access(probe, 3, tid=0, rw="r", pinned=False)
    assert analyzer.races() == []


def test_reclaim_separates_incarnations(probe, analyzer):
    """An unpinned write before a line is re-claimed (-> BUSY) cannot race
    with accesses to the line's next tenant: the re-claim judges the old
    incarnation and starts a new one."""
    access(probe, 3, tid=0, rw="w", pinned=False)
    claim(probe, 3)
    access(probe, 3, tid=1, rw="r", pinned=False)
    assert analyzer.races() == []


def test_duplicate_pairs_reported_once(probe, analyzer):
    access(probe, 3, tid=0, rw="w", pinned=False)
    access(probe, 3, tid=1, rw="r", pinned=False)
    access(probe, 3, tid=1, rw="r", pinned=False)
    races = analyzer.races()
    assert len(races) == 1


def test_reclaim_judges_the_incarnation_and_drops_its_accesses(probe, analyzer):
    """A race found before the line is re-claimed stays reported after its
    accesses are gone; only the new incarnation's accesses stay open."""
    access(probe, 3, tid=0, rw="w", pinned=False)
    access(probe, 3, tid=1, rw="r", pinned=True)
    claim(probe, 3)
    assert analyzer._open == {}
    access(probe, 3, tid=2, rw="r", pinned=True)
    assert analyzer._open == {3: ((0, 5), [(2, "r", True, 0.0)])}
    assert [(r.first[0], r.second[0]) for r in analyzer.races()] == [(0, 1)]


#: What replaying the records of :func:`_mixed` through both analyzers
#: after the run reported: the session, judging each record as it arrives,
#: must report the same findings in the same order.
REPLAYED = """\
analyzed 30 events: 1 lock-order inversion(s), 2 acquisition cycle(s), 3 potential data race(s)
  - lock-order inversion between 'A' and 'B': [c1 (t=0)] acquired A -> B but [c2 (t=100)] acquired B -> A
  - acquisition cycle: A -> B -> A
  - acquisition cycle: C -> D -> E -> C
  - potential race on cache line 1 (tag (0, 1)): t4 write (UNPINNED, t=300) vs t5 read (UNPINNED, t=400)
  - potential race on cache line 3 (tag (0, 6)): t0 write (UNPINNED, t=300) vs t1 read (pinned, t=300)
  - potential race on cache line 3 (tag (0, 9)): t2 write (pinned, t=400) vs t3 write (UNPINNED, t=400)
  - lock 'F' acquired by leaker at t=400 was never released"""


def _mixed(probe):
    """Lock and cache-access records holding one inversion, two cycles,
    three races (one in an incarnation judged at its re-claim) and one
    leak."""

    def acquire(name, chain, held=()):
        probe.emit("lock.acquire", src=None, lock=name, chain=chain,
                   held_before=list(held))

    def nest(chain, outer, inner):
        acquire(outer, chain)
        acquire(inner, chain, [outer])
        for name in (inner, outer):
            probe.emit("lock.release", src=None, lock=name, chain=chain)

    nest("c1", "A", "B")
    yield Timeout(100.0)
    nest("c2", "B", "A")
    for i, (outer, inner) in enumerate((("C", "D"), ("D", "E"), ("E", "C"))):
        yield Timeout(100.0 if i == 0 else 10.0)
        nest(f"k{i}", outer, inner)
    yield Timeout(80.0)
    access(probe, 3, tid=0, rw="w", pinned=False, tag=(0, 5))
    access(probe, 3, tid=1, rw="r", pinned=True, tag=(0, 6))
    access(probe, 1, tid=4, rw="w", pinned=False, tag=(0, 1))
    claim(probe, 3)
    yield Timeout(100.0)
    access(probe, 3, tid=2, rw="w", pinned=True, tag=(0, 9))
    access(probe, 3, tid=3, rw="w", pinned=False, tag=(0, 9))
    access(probe, 3, tid=3, rw="r", pinned=False, tag=(0, 9))
    access(probe, 1, tid=5, rw="r", pinned=False, tag=(0, 1))
    acquire("F", "leaker")
    probe.emit("mmio.deliver", src=None, name="db", value=1)


def test_online_report_matches_the_replayed_one(sim, probe):
    session = AnalysisSession().attach(probe)
    sim.spawn(_mixed(probe))
    sim.run()
    assert session.report().summary() == REPLAYED
    assert session.report().summary() == REPLAYED  # reading changes nothing

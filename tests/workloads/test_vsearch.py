"""Vector-search beam-walk workload: deterministic walks that start at
the medoid, converge toward seeded targets, and package as serve traces."""

from __future__ import annotations

import pytest

from repro.workloads.vsearch import (
    VsearchSpec,
    vsearch_lba_space,
    vsearch_logical_trace,
    vsearch_walks,
)

SPEC = VsearchSpec(num_nodes=128, num_queries=8, seed=3)


def test_walks_are_deterministic():
    assert vsearch_walks(SPEC) == vsearch_walks(SPEC)
    other = VsearchSpec(num_nodes=128, num_queries=8, seed=4)
    assert vsearch_walks(SPEC) != vsearch_walks(other)


def test_every_walk_starts_at_the_medoid():
    walks = vsearch_walks(SPEC)
    # Each query contributes `hops` consecutive beams, the first of which
    # is the entry beam — exactly the medoid.
    assert walks[0] == (SPEC.medoid,)
    medoid_beams = sum(1 for beam in walks if beam == (SPEC.medoid,))
    assert medoid_beams == SPEC.num_queries


def test_beams_stay_inside_the_index():
    n = vsearch_lba_space(SPEC)
    for beam in vsearch_walks(SPEC):
        assert 1 <= len(beam) <= SPEC.beam_width
        assert all(0 <= node < n for node in beam)


def test_logical_trace_offsets_and_pacing():
    base = 4096
    trace = vsearch_logical_trace(SPEC, rate_rps=50_000.0, lba_base=base)
    walks = vsearch_walks(SPEC)
    assert len(trace.gaps_ns) == len(walks)
    assert len(set(trace.gaps_ns)) == 1  # evenly paced
    assert trace.logical[0] == tuple(base + node for node in walks[0])


def test_spec_validation():
    with pytest.raises(ValueError):
        VsearchSpec(num_nodes=128, medoid=999)
    with pytest.raises(ValueError):
        vsearch_logical_trace(SPEC, rate_rps=0.0)

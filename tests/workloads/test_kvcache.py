"""KV-cache paging workload: deterministic schedule, slot-local access,
lock-step trace pacing."""

from __future__ import annotations

import pytest

from repro.workloads.kvcache import (
    KvCacheSpec,
    build_schedule,
    kvcache_lba_space,
    kvcache_traces,
)

SPEC = KvCacheSpec(num_slots=4, blocks_per_seq=8, events=256, seed=11)


def test_schedule_is_deterministic():
    assert build_schedule(SPEC) == build_schedule(SPEC)


def test_different_seed_changes_the_schedule():
    other = KvCacheSpec(num_slots=4, blocks_per_seq=8, events=256, seed=12)
    assert build_schedule(SPEC) != build_schedule(other)


def test_every_block_stays_inside_the_region():
    sched = build_schedule(SPEC)
    space = kvcache_lba_space(SPEC)
    for req in sched.reads + sched.appends:
        assert req, "empty request"
        assert all(0 <= lba < space for lba in req)


def test_requests_are_slot_local():
    # Each read/append touches exactly one sequence slot's block range —
    # the paged-KV-allocator contract the region layout encodes.
    sched = build_schedule(SPEC)
    for req in sched.reads + sched.appends:
        slots = {lba // SPEC.blocks_per_seq for lba in req}
        assert len(slots) == 1


def test_reads_include_the_landmark_block():
    # Every decode step re-attends to the sequence's first block.
    sched = build_schedule(SPEC)
    for req in sched.reads:
        slot_base = (req[0] // SPEC.blocks_per_seq) * SPEC.blocks_per_seq
        assert req[0] == slot_base


def test_attention_window_bounds_read_size():
    sched = build_schedule(SPEC)
    assert all(
        len(req) <= SPEC.attention_window + 1 for req in sched.reads
    )


def test_sequence_accounting():
    sched = build_schedule(SPEC)
    assert sched.sequences_started >= sched.sequences_finished
    assert sched.sequences_started >= SPEC.num_slots
    assert 2 <= sched.mean_target_blocks <= SPEC.blocks_per_seq
    assert sched.max_target_blocks <= SPEC.blocks_per_seq


def test_traces_are_lockstep_and_offset():
    base = 1000
    reads, appends = kvcache_traces(SPEC, read_rate_rps=100_000.0,
                                    lba_base=base)
    sched = build_schedule(SPEC)
    assert len(reads.gaps_ns) == len(sched.reads)
    assert len(appends.gaps_ns) == len(sched.appends)
    # Both traces span one schedule pass in the same simulated time.
    assert sum(reads.gaps_ns) == pytest.approx(sum(appends.gaps_ns))
    # Logical LBAs are the schedule's blocks shifted to the region base.
    assert reads.logical[0] == tuple(base + b for b in sched.reads[0])
    assert appends.logical[0] == tuple(base + b for b in sched.appends[0])


def test_spec_validation():
    with pytest.raises(ValueError):
        KvCacheSpec(events=2)  # < 2 * num_slots
    with pytest.raises(ValueError):
        kvcache_traces(SPEC, read_rate_rps=0.0)

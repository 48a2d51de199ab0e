"""Tests for the physical-address bump allocator."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.mem import AddressSpaceError, BumpAllocator


def test_alloc_respects_alignment():
    alloc = BumpAllocator(4096)
    a = alloc.alloc(10, align=64)
    b = alloc.alloc(10, align=256)
    assert a.addr % 64 == 0
    assert b.addr % 256 == 0
    assert b.addr >= a.end


def test_out_of_memory_raises():
    alloc = BumpAllocator(100)
    alloc.alloc(90, align=1)
    with pytest.raises(AddressSpaceError):
        alloc.alloc(20, align=1)


def test_invalid_args():
    alloc = BumpAllocator(100)
    with pytest.raises(ValueError):
        alloc.alloc(0)
    with pytest.raises(ValueError):
        alloc.alloc(10, align=3)
    with pytest.raises(ValueError):
        BumpAllocator(0)


def test_used_and_remaining_track():
    """After 100 B, exactly the remaining 900 B still fit."""
    alloc = BumpAllocator(1000)
    alloc.alloc(100, align=1)
    with pytest.raises(AddressSpaceError):
        alloc.alloc(901, align=1)
    assert alloc.alloc(900, align=1).end == 1000


def test_allocation_contains():
    """An allocation spans exactly ``[addr, addr + size)``."""
    alloc = BumpAllocator(1000)
    a = alloc.alloc(64, align=64)
    assert (a.addr, a.end) == (0, 64)
    assert alloc.alloc(1, align=1).addr == a.end


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=50),
    aligns=st.lists(st.sampled_from([1, 2, 8, 64, 4096]), min_size=50, max_size=50),
)
def test_allocations_never_overlap(sizes, aligns):
    alloc = BumpAllocator(1 << 20)
    regions = []
    for size, align in zip(sizes, aligns):
        r = alloc.alloc(size, align=align)
        assert r.addr % align == 0
        regions.append(r)
    regions.sort(key=lambda r: r.addr)
    for prev, nxt in zip(regions, regions[1:]):
        assert prev.end <= nxt.addr

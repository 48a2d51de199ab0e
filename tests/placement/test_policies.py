"""Placement-policy contract tests: bijection, determinism, attach rules.

The contract (see ``repro/placement/policy.py``): every policy is a
bijection onto the array's logical capacity, the mapping is a pure
function of (constructor args, geometry, place-call order), and attach
refuses parameters that could not keep the bijection.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PlacementConfig, SystemConfig
from repro.placement import (
    ArrayGeometry,
    LoadAwarePlacement,
    StripedPlacement,
    TenantAffinePlacement,
    make_placement,
    placement_for_config,
)

POLICIES = ("shard", "striped", "load_aware", "tenant_affine")


def attached(policy: str, num_ssds: int, pages_per_ssd: int, **kw):
    return make_placement(policy, **kw).attach(
        ArrayGeometry(num_ssds, pages_per_ssd)
    )


# -- the headline property ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    num_ssds=st.integers(min_value=1, max_value=5),
    stripes_per_ssd=st.integers(min_value=1, max_value=8),
    stripe_pages=st.integers(min_value=1, max_value=7),
    shard_span=st.integers(min_value=0, max_value=90),
)
def test_every_policy_is_a_bijection_onto_capacity(
    policy, num_ssds, stripes_per_ssd, stripe_pages, shard_span
):
    """Placing every logical LBA in [0, capacity) yields capacity distinct
    in-bounds physical coordinates — no aliasing, no overflow, for every
    policy at every array shape that attach accepts."""
    # Striping requires the stripe to divide device capacity (attach
    # rejects anything else), so build the geometry from whole stripes.
    pages_per_ssd = stripe_pages * stripes_per_ssd
    capacity = num_ssds * pages_per_ssd
    shard = -(-(shard_span or capacity) // num_ssds)
    if policy == "shard" and pages_per_ssd % shard:
        # The only refusal: shards that do not tile the device.
        with pytest.raises(ValueError, match="shard_span"):
            attached(policy, num_ssds, pages_per_ssd, shard_span=shard_span)
        return
    pol = attached(
        policy, num_ssds, pages_per_ssd, stripe_pages=stripe_pages,
        shard_span=shard_span,
    )
    tenants = ("alpha", "beta", None)
    seen = set()
    for lba in range(capacity):
        ssd, device_lba = pol.place(lba, tenant=tenants[lba % 3])
        assert 0 <= ssd < num_ssds
        assert 0 <= device_lba < pages_per_ssd
        seen.add((ssd, device_lba))
    assert len(seen) == capacity
    # Sticky or arithmetic, a second pass resolves identically.
    for lba in range(capacity):
        assert pol.place(lba, tenant=tenants[lba % 3]) in seen


# -- arithmetic policies ------------------------------------------------------


class TestIdentity:
    def test_passthrough(self):
        """Striping over one device is the identity map."""
        pol = attached("striped", 1, 16, stripe_pages=4)
        assert [pol.place(lba) for lba in range(6)] == [
            (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)
        ]


class TestStriped:
    def test_stripe_of_one_matches_legacy_interleave(self):
        """The paper's layout: page % n device, page // n row."""
        pol = attached("striped", 3, 32)
        for page in range(96):
            assert pol.place(page) == (page % 3, page // 3)

    def test_wide_stripes_keep_chunks_contiguous(self):
        pol = attached("striped", 2, 32, stripe_pages=4)
        # First chunk on ssd0 rows 0-3, second chunk on ssd1 rows 0-3.
        assert [pol.place(lba) for lba in range(8)] == [
            (0, 0), (0, 1), (0, 2), (0, 3),
            (1, 0), (1, 1), (1, 2), (1, 3),
        ]

    def test_describe_reports_stripe(self):
        pol = attached("striped", 2, 8, stripe_pages=4)
        assert pol.stripe_pages == 4

    def test_stripe_must_divide_device_capacity(self):
        with pytest.raises(ValueError, match="divide the device capacity"):
            attached("striped", 2, 10, stripe_pages=4)


class TestShard:
    def test_contiguous_blocks_per_device(self):
        pol = attached("shard", 4, 16)
        # Capacity 64, block 16: logical 0-15 -> ssd0, 16-31 -> ssd1, ...
        assert pol.place(0) == (0, 0)
        assert pol.place(15) == (0, 15)
        assert pol.place(16) == (1, 0)
        assert pol.place(63) == (3, 15)

    def test_explicit_span_overrides_capacity(self):
        pol = attached("shard", 2, 64, shard_span=8)
        assert pol.place(0) == (0, 0)
        assert pol.place(4) == (1, 0)

    def test_shards_must_tile_the_device(self):
        """A span whose per-device shard does not divide the device would
        leave high logical LBAs nowhere to go; attach refuses it, whether
        the span is narrower or wider than the array."""
        for span in (5, 100):
            with pytest.raises(ValueError, match="must divide the device"):
                attached("shard", 2, 4, shard_span=span)
        assert attached("shard", 2, 4, shard_span=3).place(7) == (1, 3)

    def test_shard_equals_block_striping(self):
        """Sharding is striping with a block of ceil(span/n) — addresses
        past the span wrap as coarse stripes instead of aliasing."""
        shard = attached("shard", 2, 8)
        striped = StripedPlacement(stripe_pages=8).attach(
            ArrayGeometry(2, 8)
        )
        for lba in range(16):
            assert shard.place(lba) == striped.place(lba)


# -- sticky policies ----------------------------------------------------------


class TestLoadAware:
    def test_defaults_to_count_balancing(self):
        pol = attached("load_aware", 3, 8)
        lanes = [pol.place(lba)[0] for lba in range(6)]
        assert lanes == [0, 1, 2, 0, 1, 2]

    def test_load_feed_steers_allocation(self):
        pol = LoadAwarePlacement(load=lambda: [5.0, 0.0]).attach(
            ArrayGeometry(2, 8)
        )
        assert pol.place(0)[0] == 1
        assert pol.place(1)[0] == 1

    def test_unhealthy_devices_are_avoided(self):
        pol = LoadAwarePlacement(healthy=lambda: [False, True]).attach(
            ArrayGeometry(2, 8)
        )
        assert [pol.place(lba)[0] for lba in range(4)] == [1, 1, 1, 1]

    def test_health_never_invalidates_existing_mappings(self):
        health = [True, True]
        pol = LoadAwarePlacement(healthy=lambda: list(health)).attach(
            ArrayGeometry(2, 8)
        )
        before = pol.place(0)
        health[before[0]] = False
        assert pol.place(0) == before  # advisory, not retroactive


class TestTenantAffine:
    def test_affinity_is_crc_not_salted_hash(self):
        import zlib

        pol = attached("tenant_affine", 4, 16)
        home = zlib.crc32(b"point") % 4
        assert pol.affinity("point") == home
        assert pol.place(0, tenant="point")[0] == home

    def test_tenants_split_across_devices(self):
        pol = attached("tenant_affine", 4, 16)
        homes = {
            t: pol.place(i, tenant=t)[0]
            for i, t in enumerate(("point", "scan"))
        }
        assert homes["point"] != homes["scan"]

    def test_spills_to_next_device_when_home_fills(self):
        pol = attached("tenant_affine", 2, 2)
        home = pol.affinity("t")
        lanes = [pol.place(lba, tenant="t")[0] for lba in range(4)]
        assert lanes[:2] == [home, home]
        assert set(lanes[2:]) == {1 - home}


# -- config plumbing ----------------------------------------------------------


class TestConfigPlumbing:
    def test_placement_for_config_attaches_array_geometry(self):
        cfg = SystemConfig().with_ssds(2)
        pol = placement_for_config(cfg)
        assert pol.name == "striped"
        assert pol.geometry.num_ssds == 2
        assert pol.geometry.pages_per_ssd == cfg.ssds[0].num_pages

    def test_single_device_default_matches_identity(self):
        """The default policy on one device maps logical == physical, so
        single-SSD workloads address flash exactly as they stage it."""
        pol = placement_for_config(SystemConfig())
        for lba in (0, 1, 2, 63, pol.geometry.logical_capacity - 1):
            assert pol.place(lba) == (0, lba)

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            make_placement("raid6")

    def test_config_policy_selection(self):
        cfg = SystemConfig(
            placement=PlacementConfig(policy="tenant_affine")
        ).with_ssds(3)
        assert isinstance(placement_for_config(cfg), TenantAffinePlacement)

    def test_use_before_attach_raises(self):
        with pytest.raises(RuntimeError, match="attach"):
            StripedPlacement().place(0)

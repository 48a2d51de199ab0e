"""Tests for configuration dataclasses, validation, and calibration."""

from __future__ import annotations

import pytest

from repro.config import (
    CacheConfig,
    GpuConfig,
    PcieConfig,
    PlacementConfig,
    ServiceConfig,
    SsdConfig,
    SystemConfig,
    default_config,
    gbps_to_bytes_per_ns,
)


class TestCalibration:
    def test_flash_read_ceiling_matches_paper(self):
        """45 channels x 4 KiB / 49.8 us ~= 3.70 GB/s (paper Fig. 5)."""
        ssd = SsdConfig()
        assert ssd.peak_read_bw == pytest.approx(3.70, abs=0.05)

    def test_flash_write_ceiling_matches_paper(self):
        ssd = SsdConfig()
        assert ssd.peak_write_bw == pytest.approx(2.20, abs=0.05)

    def test_pcie_x4_not_binding_for_flash(self):
        """The SSD link must exceed the flash ceiling, as on the testbed."""
        ssd = SsdConfig()
        assert ssd.pcie.bytes_per_ns > ssd.peak_read_bw

    def test_gpu_pcie_x16_covers_three_ssds(self):
        gpu = GpuConfig()
        three_ssds = 3 * SsdConfig().peak_read_bw
        assert gpu.pcie.bytes_per_ns > three_ssds

    def test_bandwidth_conversion(self):
        assert gbps_to_bytes_per_ns(1.0) == pytest.approx(1.0)

    def test_gpu_cycle_helpers(self):
        gpu = GpuConfig(clock_ghz=2.0)
        assert gpu.cycle_ns == 0.5
        assert gpu.cycles(10) == 5.0


class TestValidation:
    def test_default_config_valid(self):
        default_config().validate()

    def test_queue_pairs_over_device_limit(self):
        cfg = SystemConfig(queue_pairs=200)
        with pytest.raises(ValueError, match="queue pairs"):
            cfg.validate()

    def test_queue_depth_over_device_limit(self):
        cfg = SystemConfig(queue_depth=4096)
        with pytest.raises(ValueError, match="queue depth"):
            cfg.validate()

    def test_queue_depth_minimum(self):
        cfg = SystemConfig(queue_depth=1)
        with pytest.raises(ValueError, match="at least 2"):
            cfg.validate()

    def test_line_size_must_match_page_size(self):
        cfg = SystemConfig(cache=CacheConfig(line_size=8192))
        with pytest.raises(ValueError, match="line size"):
            cfg.validate()

    def test_no_ssds_rejected(self):
        cfg = SystemConfig(ssds=())
        with pytest.raises(ValueError, match="at least one SSD"):
            cfg.validate()

    def test_heterogeneous_page_sizes_rejected(self):
        cfg = SystemConfig(
            ssds=(
                SsdConfig(name="ssd0"),
                SsdConfig(name="ssd1", page_size=8192),
            ),
            cache=CacheConfig(line_size=8192),
        )
        with pytest.raises(ValueError, match="heterogeneous"):
            cfg.validate()

    def test_identity_placement_rejected_on_arrays(self):
        cfg = SystemConfig(
            ssds=(SsdConfig(name="ssd0"), SsdConfig(name="ssd1")),
            placement=PlacementConfig(policy="identity"),
        )
        with pytest.raises(ValueError, match="identity placement"):
            cfg.validate()

    def test_unknown_placement_policy_rejected(self):
        cfg = SystemConfig(placement=PlacementConfig(policy="raid6"))
        with pytest.raises(ValueError, match="unknown placement"):
            cfg.validate()

    def test_stripe_must_divide_device_pages(self):
        cfg = SystemConfig(
            placement=PlacementConfig(policy="striped", stripe_pages=3)
        )
        with pytest.raises(ValueError, match="divide the device capacity"):
            cfg.validate()

    @pytest.mark.parametrize(
        "section, field",
        [
            # No warp would ever retire a CQE.
            (ServiceConfig(polling_warps=0), "service.polling_warps"),
            # One more warp than the service SM has issue slots (4 x 32).
            (ServiceConfig(polling_warps=129), "service.polling_warps"),
            # With idle_poll_ns=0 the poll loop never advances time.
            (ServiceConfig(poll_iteration_cycles=0.0),
             "service.poll_iteration_cycles"),
            (ServiceConfig(idle_poll_ns=-1.0), "service.idle_poll_ns"),
            # Ways that do not divide the lines built fewer lines than
            # capacity_bytes reports (8 of 12, 96 of 100); 0 divided by 0.
            (CacheConfig(num_lines=12, ways=8), "cache.ways"),
            (CacheConfig(num_lines=100, ways=8), "cache.ways"),
            (CacheConfig(ways=0), "cache.ways"),
        ],
    )
    def test_config_section_is_validated(self, section, field):
        prefix = field.split(".")[0]
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{prefix: section}).validate()

    def test_service_config_limits_are_inclusive(self):
        SystemConfig(
            service=ServiceConfig(polling_warps=128, idle_poll_ns=0.0)
        ).validate()


class TestHelpers:
    def test_with_ssds_clones_base(self):
        cfg = SystemConfig().with_ssds(3)
        assert [s.name for s in cfg.ssds] == ["ssd0", "ssd1", "ssd2"]
        assert all(s.channels == cfg.ssds[0].channels for s in cfg.ssds)

    def test_with_ssds_names_are_unique_and_ordered(self):
        cfg = SystemConfig().with_ssds(5)
        names = [s.name for s in cfg.ssds]
        assert names == [f"ssd{i}" for i in range(5)]
        assert len(set(names)) == 5

    def test_with_ssds_revalidates_queue_limits_per_device(self):
        """Growing the array re-runs validation against every device's
        queue limits, not just the template's."""
        base = SystemConfig(queue_pairs=200)
        with pytest.raises(ValueError, match="queue pairs"):
            base.with_ssds(4)

    def test_with_ssds_promotes_identity_to_striped(self):
        cfg = SystemConfig(
            placement=PlacementConfig(policy="identity")
        ).with_ssds(2)
        assert cfg.placement.policy == "striped"

    def test_with_ssds_policy_and_stripe_overrides(self):
        cfg = SystemConfig().with_ssds(4, policy="shard")
        assert cfg.placement.policy == "shard"
        striped = SystemConfig().with_ssds(2, stripe_pages=4)
        assert striped.placement.stripe_pages == 4

    def test_cache_geometry(self):
        cache = CacheConfig(num_lines=128, ways=8)
        assert cache.num_sets == 16
        assert cache.capacity_bytes == 128 * 4096

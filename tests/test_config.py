"""Tests for configuration dataclasses, validation, and calibration."""

from __future__ import annotations

import math
import re
import sys
from dataclasses import fields, is_dataclass, replace

import pytest

from repro.config import (
    CacheConfig,
    ConfigError,
    GpuConfig,
    PlacementConfig,
    ServiceConfig,
    SsdConfig,
    SystemConfig,
    gbps_to_bytes_per_ns,
)

from tests.support.legal import checked_classes, declared, ends, past


def flash_bw(ssd: SsdConfig, latency_ns: float) -> float:
    """Aggregate flash bandwidth in bytes/ns: every channel moving one
    page per ``latency_ns``."""
    return ssd.channels * ssd.page_size / latency_ns


class TestCalibration:
    def test_flash_read_ceiling_matches_paper(self):
        """45 channels x 4 KiB / 49.8 us ~= 3.70 GB/s (paper Fig. 5)."""
        ssd = SsdConfig()
        assert flash_bw(ssd, ssd.read_latency_ns) == pytest.approx(3.70, abs=0.05)

    def test_flash_write_ceiling_matches_paper(self):
        ssd = SsdConfig()
        assert flash_bw(ssd, ssd.write_latency_ns) == pytest.approx(2.20, abs=0.05)

    def test_pcie_x4_not_binding_for_flash(self):
        """The SSD link must exceed the flash ceiling, as on the testbed."""
        ssd = SsdConfig()
        assert ssd.pcie.bytes_per_ns > flash_bw(ssd, ssd.read_latency_ns)

    def test_gpu_pcie_x16_covers_three_ssds(self):
        gpu = GpuConfig()
        ssd = SsdConfig()
        assert gpu.pcie.bytes_per_ns > 3 * flash_bw(ssd, ssd.read_latency_ns)

    def test_bandwidth_conversion(self):
        assert gbps_to_bytes_per_ns(1.0) == pytest.approx(1.0)

    def test_gpu_cycle_helpers(self):
        gpu = GpuConfig(clock_ghz=2.0)
        assert gpu.cycle_ns == 0.5


# -- each field's declared range ----------------------------------------------

#: Where a class's boundary cases start: the required fields of a class
#: without defaults, and room for a cross-field rule that would refuse one
#: field alone at its bound (shard_pages <= table_pages, events >= 2 x
#: num_slots, the logical regions fit the array).
BASES = {
    "RequestClass": dict(name="t"),
    "TenantShare": dict(name="t"),
    "StormSpec": dict(threads=1, requests=1),
    "PageStreamSpec": dict(data_pages=1),
    "CheckpointSpec": dict(shard_pages=1),
    "KvCacheSpec": dict(num_slots=1),
    "WritePathSpec": dict(
        num_ssds=3, table_pages=1, modify_space=1, read_space=1
    ),
}

#: Dataclasses named like configuration that are not checked: per-operation
#: records keep their own checks, and fixed model constants are set by name.
NOT_CHECKED = {
    "KernelSpec": "one kernel's body and footprint; checks its registers",
    "LaunchConfig": "one launch's grid and block; checks its dims",
    "DlrmConfig": "the paper's three MLP shapes, built only by name",
}

CASES = [
    pytest.param(cls, field, rule, id=f"{cls.__name__}.{field.name}")
    for cls in checked_classes()
    for field, rule in declared(cls)
]


@pytest.mark.parametrize("cls, field, rule", CASES)
def test_declared_bounds_are_enforced(cls, field, rule):
    """Each closed bound (and each choice) constructs; one step past each
    bound, NaN, and a value that is no choice raise a ``ConfigError``
    naming the field."""
    base = cls(**BASES.get(cls.__name__, {}))
    if isinstance(rule, tuple):
        for choice in rule:
            replace(base, **{field.name: choice})
        illegal = ["no-such-choice"]
    else:
        illegal = [math.nan] if field.type == "float" else []
        for end, closed, outward in ends(rule):
            if closed:
                replace(base, **{field.name: end})
            beyond = past(field, end, closed, outward)
            if beyond is not None:
                illegal.append(beyond)
    named = re.escape(f"{cls.__name__}.{field.name} ")
    for value in illegal:
        with pytest.raises(ConfigError, match=named):
            replace(base, **{field.name: value})


def test_every_numeric_field_declares_its_legal_range():
    classes = checked_classes()
    undeclared = [
        f"{cls.__name__}.{f.name}"
        for cls in classes
        for f in fields(cls)
        if f.type in ("int", "float") and "legal" not in f.metadata
    ]
    assert not undeclared
    unchecked = {
        name
        for module, mod in list(sys.modules.items())
        if module.startswith("repro.")
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and is_dataclass(obj)
        and obj.__module__ == module
        and name.endswith(("Config", "Spec")) and obj not in classes
    }
    assert unchecked == set(NOT_CHECKED)


class TestValidation:
    """The cross-field rules: each relates fields a declaration cannot."""

    def test_default_config_valid(self):
        SystemConfig()

    def test_queue_pairs_over_device_limit(self):
        with pytest.raises(ConfigError, match="queue pairs"):
            SystemConfig(queue_pairs=200)

    def test_queue_depth_over_device_limit(self):
        with pytest.raises(ConfigError, match="queue depth"):
            SystemConfig(queue_depth=4096)

    def test_line_size_must_match_page_size(self):
        with pytest.raises(ConfigError, match="line size"):
            SystemConfig(cache=CacheConfig(line_size=8192))

    def test_no_ssds_rejected(self):
        with pytest.raises(ConfigError, match="at least one SSD"):
            SystemConfig(ssds=())

    def test_heterogeneous_page_sizes_rejected(self):
        with pytest.raises(ConfigError, match="heterogeneous"):
            SystemConfig(
                ssds=(
                    SsdConfig(name="ssd0"),
                    SsdConfig(name="ssd1", page_size=8192),
                ),
                cache=CacheConfig(line_size=8192),
            )

    def test_stripe_must_divide_device_pages(self):
        with pytest.raises(ConfigError, match="divide the device capacity"):
            SystemConfig(
                placement=PlacementConfig(policy="striped", stripe_pages=3)
            )

    def test_shard_span_shards_must_divide_device_pages(self):
        """A span of 5 on two devices gives shards of 3 pages, which leave
        the top logical pages of a 4-page device nowhere to go."""
        ssds = tuple(
            SsdConfig(name=f"ssd{i}", capacity_bytes=4 * 4096,
                      pages_per_block=4)
            for i in range(2)
        )
        for span in (5, 100):
            with pytest.raises(ConfigError, match="PlacementConfig.shard_span"):
                SystemConfig(
                    ssds=ssds,
                    placement=PlacementConfig(policy="shard", shard_span=span),
                )
        for span in (0, 3, 8):
            SystemConfig(
                ssds=ssds,
                placement=PlacementConfig(policy="shard", shard_span=span),
            )

    @pytest.mark.parametrize(
        "section, field",
        [
            # One more warp than the service SM has issue slots (4 x 32).
            (dict(service=ServiceConfig(polling_warps=129)),
             "service.polling_warps"),
            # Ways that do not divide the lines built fewer lines than
            # capacity_bytes reports (8 of 12, 96 of 100).
            (dict(cache=CacheConfig(num_lines=12, ways=8)), "cache.ways"),
            (dict(cache=CacheConfig(num_lines=100, ways=8)), "cache.ways"),
            # A device smaller than one page has no block to erase.
            (dict(ssds=(SsdConfig(capacity_bytes=4095),)), "pages_per_block"),
            (dict(ssds=(SsdConfig(gc_low_water_blocks=9),)),
             "gc_high_water_blocks"),
        ],
        ids=["polling-warps-over-slots", "ways-8-of-12", "ways-8-of-100",
             "capacity-under-one-page", "gc-water-marks-crossed"],
    )
    def test_cross_field_rule_names_the_fields(self, section, field):
        with pytest.raises(ConfigError, match=field):
            SystemConfig(**section)

    def test_service_config_limits_are_inclusive(self):
        SystemConfig(service=ServiceConfig(polling_warps=128, idle_poll_ns=0.0))


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
        """Every copy checks every device's queue limits, grown ones too."""
        with pytest.raises(ConfigError, match="queue pairs"):
            SystemConfig(queue_pairs=200).with_ssds(4)

    def test_cache_geometry(self):
        cache = CacheConfig(num_lines=128, ways=8)
        assert cache.num_sets == 16
        assert cache.capacity_bytes == 128 * 4096

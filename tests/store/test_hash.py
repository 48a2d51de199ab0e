"""Canonical config hashing: stability is the whole contract."""

from dataclasses import replace

import pytest

from repro.config import SsdConfig, SystemConfig, canonical_payload, stable_hash


class TestStableHash:
    def test_dict_order_permutation_is_invisible(self):
        a = {"cache": 1024, "depth": 64, "seed": 7, "nested": {"x": 1, "y": 2}}
        b = {"nested": {"y": 2, "x": 1}, "seed": 7, "depth": 64, "cache": 1024}
        assert list(a) != list(b)  # genuinely permuted insertion order
        assert stable_hash(a) == stable_hash(b)

    def test_tuple_and_list_spellings_agree(self):
        assert stable_hash({"loads": (1, 2, 3)}) == stable_hash(
            {"loads": [1, 2, 3]}
        )

    def test_sets_are_order_free(self):
        assert stable_hash({"axes": {3, 1, 2}}) == stable_hash(
            {"axes": [1, 2, 3]}
        )

    def test_value_changes_change_the_hash(self):
        base = {"cache": 1024, "depth": 64}
        assert stable_hash(base) != stable_hash({"cache": 1024, "depth": 32})
        assert stable_hash(base) != stable_hash({"cache": 1024})

    def test_unhashable_types_raise(self):
        with pytest.raises(TypeError):
            stable_hash({"fn": stable_hash})

    def test_canonical_payload_sorts_keys(self):
        assert list(canonical_payload({"b": 1, "a": 2})) == ["a", "b"]


class TestSystemConfigHash:
    def test_equal_configs_hash_equal(self):
        spelled_out = SystemConfig(ssds=(SsdConfig(name="ssd0"),), seed=0xA617E)
        assert stable_hash(SystemConfig()) == stable_hash(spelled_out)

    def test_rebuilt_config_hashes_equal(self):
        cfg = SystemConfig()
        assert stable_hash(replace(cfg)) == stable_hash(cfg)

    def test_any_field_change_changes_the_hash(self):
        cfg = SystemConfig()
        assert (
            stable_hash(replace(cfg, queue_depth=32)) != stable_hash(cfg)
        )
        # A nested change (inside the frozen sub-dataclass) must show too.
        grown = cfg.with_ssds(2)
        assert stable_hash(grown) != stable_hash(cfg)

    def test_hash_is_16_hex_chars(self):
        digest = stable_hash(SystemConfig())
        assert len(digest) == 16
        int(digest, 16)  # parses as hex

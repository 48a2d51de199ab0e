"""The tenancy scenario matrix: registry discipline, bit-determinism,
headline logic, the calm-only matrix, and store ingest."""

from __future__ import annotations

import json

import pytest

from repro.serve.registry import (
    CKPT,
    INFER,
    KNOWN_TENANTS,
    KV_APPEND,
    TRAIN,
    VSEARCH,
    tenant_class,
)
from repro.serve.tenancy import (
    TENANCY,
    TenancySpec,
    _headline_ok,
    run_tenancy_arm,
    tenancy_shares,
)
from repro.store import points
from repro.workloads.checkpoint import CheckpointSpec
from repro.workloads.kvcache import KvCacheSpec
from repro.workloads.vsearch import VsearchSpec


def mini_spec(**overrides) -> TenancySpec:
    """A seconds-not-minutes matrix: tiny traces, short window."""
    defaults = dict(
        rate_rps=150_000.0,
        duration_ns=1_200_000.0,
        num_ssds=2,
        cache_lines=32,
        admission_capacity=64,
        kv=KvCacheSpec(num_slots=4, blocks_per_seq=8, events=64),
        ckpt=CheckpointSpec(table_pages=32, shard_pages=2),
        vsearch=VsearchSpec(num_nodes=64, num_queries=8),
        train_space=256,
    )
    defaults.update(overrides)
    return TenancySpec(**defaults)


#: One mix on one placement; tests pick the storms.
MINI_AXES = {"mix": ("inference_heavy",), "placement": ("striped",)}


def run_cell_pair(spec: TenancySpec) -> dict:
    """Both arms of the calm striped inference-heavy cell, as dicts."""
    return {
        arm: run_tenancy_arm(
            spec, "inference_heavy", "none", "striped", arm
        ).as_dict()
        for arm in ("wfq", "fifo")
    }


class TestRegistry:
    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            tenant_class("mystery_tenant")

    def test_name_override_rejected(self):
        with pytest.raises(ValueError):
            tenant_class(INFER, name="sneaky")

    def test_op_override_rejected(self):
        with pytest.raises(ValueError):
            tenant_class(TRAIN, op="write")

    def test_quantity_overrides_apply(self):
        cls = tenant_class(TRAIN, pages=16, lba_space=512)
        assert cls.name == TRAIN
        assert cls.pages == 16
        assert cls.lba_space == 512

    def test_shares_cover_the_tenancy_classes(self):
        names = {s.name for s in tenancy_shares().shares}
        assert names == {INFER, KV_APPEND, TRAIN, CKPT, VSEARCH}
        assert names <= set(KNOWN_TENANTS)


class TestCellDeterminism:
    def test_same_spec_same_cell_bit_for_bit(self):
        spec = mini_spec()
        a, b = run_cell_pair(spec), run_cell_pair(spec)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_arms_actually_differ(self):
        # wfq and fifo are different schedulers on the same arrivals: the
        # cell must not accidentally run the same arm twice.
        cell = run_cell_pair(mini_spec(admission_capacity=8))
        assert cell["wfq"] != cell["fifo"]

    def test_every_tenant_is_offered_traffic(self):
        cell = run_cell_pair(mini_spec())
        for name in (INFER, KV_APPEND, TRAIN, CKPT, VSEARCH):
            assert cell["wfq"]["classes"][name]["offered"] > 0


class TestMatrix:
    def test_matrix_document_shape_and_ingest(self):
        doc = TENANCY.run(
            mini_spec(), axes={**MINI_AXES, "storm": ("none", "storm")}
        )
        assert doc["experiment"] == "tenancy" and doc["config_hash"]
        sections = [c["axes"].get("section") for c in doc["cells"]]
        assert sections == [None] * 4 + ["headline"] * 2 + ["summary"]
        assert "headline_ok" in doc["cells"][-1]["metrics"]
        assert len(doc["checks"]) == 2  # one claim per (mix, storm, placement)
        axes_seen = [json.loads(axes) for axes, _ in points(doc) if axes != "checks"]
        assert {"none", "storm"} <= {axes.get("storm") for axes in axes_seen}
        assert {"section": "summary"} in axes_seen

    def test_calm_only_matrix_summarises_the_cells_it_has(self):
        # No storm cell: the worst-case summary falls back to the calm
        # cells instead of failing after every cell has been simulated.
        doc = TENANCY.run(mini_spec(), axes={**MINI_AXES, "storm": ("none",)})
        (headline,) = (
            c["metrics"] for c in doc["cells"]
            if c["axes"].get("section") == "headline"
        )
        summary = doc["cells"][-1]
        assert summary["axes"] == {"section": "summary"}
        assert (
            summary["metrics"]["wfq_infer_p99_ns"] == headline["wfq_infer_p99_ns"]
        )
        assert summary["metrics"]["headline_ok"] == int(_headline_ok(headline))

    def test_config_hash_tracks_the_spec(self):
        spec, axes = TENANCY.configure(["storm=storm"])
        a = TENANCY.config_hash(spec, axes)
        assert a != TENANCY.config_hash(mini_spec(), axes)
        assert a != TENANCY.config_hash(spec, {**axes, "storm": ("none",)})


class TestHeadline:
    BASE = {
        "infer_slo_budget_ns": 3e6,
        "wfq_infer_p99_ns": 1e6,
        "fifo_infer_p99_ns": 9e6,
        "wfq_infer_shed_frac": 0.0,
        "wfq_train_shed_frac": 0.4,
        "starved_classes": [],
    }

    def test_good_cell_passes(self):
        assert _headline_ok(dict(self.BASE))

    def test_wfq_over_budget_fails(self):
        assert not _headline_ok({**self.BASE, "wfq_infer_p99_ns": 4e6})

    def test_fifo_inside_budget_fails(self):
        assert not _headline_ok({**self.BASE, "fifo_infer_p99_ns": 2e6})

    def test_starvation_fails(self):
        assert not _headline_ok({**self.BASE, "starved_classes": ["train"]})

    def test_sheds_landing_on_inference_fail(self):
        assert not _headline_ok(
            {**self.BASE, "wfq_infer_shed_frac": 0.5}
        )

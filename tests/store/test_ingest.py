"""``points()``: the one place a document from outside enters the gate."""

import copy

import pytest

from repro.store import UnknownSchemaError, axes_key, points

from tests.store.helpers import ALL_DOCS, experiment_doc


def at(doc, **axes):
    """``{metric: leaf}`` of the cell at exactly ``axes``."""
    key = axes_key(axes)
    return {m: leaf for (a, m), leaf in points(doc).items() if a == key}


class TestSchemaDetection:
    def test_unknown_shape_raises(self):
        # No tag, a retired tag, a cell-less body, a cell or check of the
        # wrong shape: nothing is inferred.
        good = experiment_doc()
        for breakage in (
            {"schema": None},
            {"schema": "agile-serve-sweep/3"},
            {"cells": None},
            {"cells": "abc"},
            {"cells": [{"axes": {}}]},
            {"checks": None},
            {"checks": [{"name": "x"}]},
        ):
            with pytest.raises(UnknownSchemaError):
                points({**good, **breakage})
        with pytest.raises(UnknownSchemaError):
            points({"mystery": 1})

    def test_repeated_point_is_a_typed_error(self):
        # A document from outside may repeat a cell (the runner itself
        # rejects a repeated axis value).
        repeated = experiment_doc()
        repeated["cells"].append(copy.deepcopy(repeated["cells"][0]))
        with pytest.raises(UnknownSchemaError, match="appears twice"):
            points(repeated)


class TestConfigFingerprint:
    def test_producer_stamp_is_authoritative(self):
        unstamped = experiment_doc()
        del unstamped["config_hash"]
        with pytest.raises(UnknownSchemaError, match="config_hash"):
            points(unstamped)


class TestProjection:
    def test_serve_points_carry_grid_axes(self):
        doc = experiment_doc()
        curve = {"ssds": 2, "placement": "striped", "system": "agile"}
        cell = at(doc, **curve, target_rps=20_000.0)
        assert cell["goodput_rps"] == 20_000.0
        assert at(doc, **curve) == {"knee_rps": 20_000.0}
        # Nested sections flatten with dotted names, lists element-wise.
        assert cell["classes.point.p99_ns"] == 300_000.0
        assert cell["write_path.mean_waf"] == 1.2
        assert cell["placement.device_reads.1"] == 19
        assert cell["write_path.device_waf.1"] == 1.2
        # Every leaf is a point, strings included.
        assert cell["system"] == "agile"
        assert cell["classes.point.name"] == "point"

    def test_bench_points_cover_every_section(self):
        doc = ALL_DOCS["bench"]
        assert at(doc, section="perf")["wall_s"] == 0.61
        for n, gbps in ((1, 3.64), (2, 6.9)):
            cell = at(doc, section="fig5", op="read", num_ssds=n, total_requests=512)
            assert cell["bandwidth_gbps"] == gbps

    def test_telemetry_blobs_stay_in_raw_not_points(self):
        # A cell's ``detail`` payload is not comparable content.
        assert not any("telemetry" in m for _, m in points(ALL_DOCS["bench"]))

    def test_placement_points_keyed_by_policy(self):
        doc = ALL_DOCS["placement-smoke"]
        assert at(doc, policy="shard")["skew_ratio"] == 1.9
        assert at(doc, policy="striped")["skew_ratio"] == 1.1

    def test_write_path_curves_and_summary_project(self):
        doc = ALL_DOCS["write-path"]
        # The GC toggle plays the system-axis role for the two curves.
        assert at(doc, system="gc_on") == {"knee_rps": 10_000.0}
        assert at(doc, system="gc_off") == {"knee_rps": 30_000.0}
        summary = at(doc, section="summary")
        assert summary["mean_waf"] == 1.3
        assert summary["read_p99_inflation"] == 4.0
        assert summary["writebacks_lost"] == 0

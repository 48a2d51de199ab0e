"""The ingest adapter: every document round-trips losslessly into the store."""

import copy

import pytest

from repro.store import (
    ResultStore,
    UnknownSchemaError,
    detect_schema,
    ingest_document,
)

from tests.store.helpers import ALL_DOCS, experiment_doc


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "store.db") as s:
        yield s


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(ALL_DOCS))
    def test_raw_document_survives_byte_for_byte(self, store, name):
        doc = ALL_DOCS[name]
        record, points = ingest_document(doc, source=f"{name}.json")
        store.put_run(record, points)
        assert store.raw(record.run_id) == doc  # lossless: nothing dropped
        assert points, "every document must project at least one point"

    @pytest.mark.parametrize("name", sorted(ALL_DOCS))
    def test_reingest_is_idempotent(self, store, name):
        doc = ALL_DOCS[name]
        record, points = ingest_document(doc)
        store.put_run(record, points)
        store.put_run(*ingest_document(doc))
        assert len(store.runs()) == 1
        assert len(store.points(record.run_id)) == len(points)


class TestSchemaDetection:
    def test_explicit_tags_win(self):
        for doc in ALL_DOCS.values():
            assert detect_schema(doc) == "agile-experiment/1"

    def test_unknown_shape_raises(self):
        # No tag, a retired tag, a cell-less body: nothing is inferred.
        with pytest.raises(UnknownSchemaError):
            detect_schema({"mystery": 1})
        with pytest.raises(UnknownSchemaError):
            detect_schema({"schema": "agile-serve-sweep/3", "grid": {}})
        broken = experiment_doc()
        del broken["cells"]
        with pytest.raises(UnknownSchemaError):
            ingest_document(broken)

    def test_repeated_point_is_a_typed_error(self):
        # A document from outside may repeat a cell (the runner itself
        # rejects a repeated axis value): the store's UNIQUE(run, axes,
        # metric) must surface as the typed error, not a sqlite traceback.
        repeated = experiment_doc()
        repeated["cells"].append(copy.deepcopy(repeated["cells"][0]))
        with pytest.raises(UnknownSchemaError, match="two cells yield the point"):
            ingest_document(repeated)


class TestConfigFingerprint:
    def test_producer_stamp_is_authoritative(self):
        record, _ = ingest_document(experiment_doc())
        assert record.config_hash == "feedbeeffeedbeef"
        unstamped = experiment_doc()
        del unstamped["config_hash"]
        with pytest.raises(UnknownSchemaError):
            ingest_document(unstamped)


class TestProjection:
    def test_serve_points_carry_grid_axes(self, store):
        record, points = ingest_document(experiment_doc())
        goodput = [
            p for p in points
            if p.metric == "goodput_rps" and "target_rps" in p.axes
        ]
        assert len(goodput) == 1
        assert goodput[0].axes == {
            "ssds": 2,
            "placement": "striped",
            "system": "agile",
            "target_rps": 20_000.0,
        }
        knees = [p for p in points if p.metric == "knee_rps"]
        assert len(knees) == 1
        # Nested sections flatten with dotted names.
        assert any(p.metric == "classes.point.p99_ns" for p in points)
        waf = [p for p in points if p.metric == "write_path.mean_waf"]
        assert [p.value for p in waf] == [1.2]
        # Device lists index element-wise.
        assert any(p.metric == "placement.device_reads.1" for p in points)
        assert any(p.metric == "write_path.device_waf.1" for p in points)
        # Strings are coordinates or payload, never points.
        assert not any(p.metric.endswith((".name", "system")) for p in points)

    def test_bench_points_cover_every_section(self):
        _, points = ingest_document(ALL_DOCS["bench"])
        sections = {p.axes.get("section") for p in points}
        assert sections == {"fig5", "perf"}
        fig5 = [
            p for p in points
            if p.axes.get("section") == "fig5"
            and p.metric == "bandwidth_gbps"
        ]
        assert {p.axes["num_ssds"] for p in fig5} == {1, 2}

    def test_telemetry_blobs_stay_in_raw_not_points(self):
        _, points = ingest_document(ALL_DOCS["bench"])
        assert not any("telemetry" in p.metric for p in points)

    def test_placement_points_keyed_by_policy(self):
        _, points = ingest_document(ALL_DOCS["placement-smoke"])
        skews = {
            p.axes["policy"]: p.value
            for p in points
            if p.metric == "skew_ratio"
        }
        assert skews == {"shard": 1.9, "striped": 1.1}

    def test_write_path_curves_and_summary_project(self):
        _, points = ingest_document(ALL_DOCS["write-path"])
        # The GC toggle plays the system-axis role for the two curves.
        knees = {
            p.axes["system"]: p.value for p in points if p.metric == "knee_rps"
        }
        assert knees == {"gc_on": 10_000.0, "gc_off": 30_000.0}
        summary = {
            p.metric: p.value
            for p in points
            if p.axes.get("section") == "summary"
        }
        assert summary["mean_waf"] == 1.3
        assert summary["read_p99_inflation"] == 4.0
        assert summary["writebacks_lost"] == 0

    def test_metadata_lands_on_the_run_row(self):
        record, _ = ingest_document(
            experiment_doc(), source="serve-sweep.json", created_at=123.0
        )
        assert record.git_sha.startswith("c0ffee")
        assert record.source == "serve-sweep.json"
        assert record.created_at == 123.0
        assert record.schema == "agile-experiment/1"

"""Diff and gate: the regression semantics the CI job relies on."""

import json

import pytest

from repro.store import (
    ResultStore,
    best_baseline,
    diff_runs,
    ingest_document,
    metric_direction,
    run_score,
)
from repro.store.__main__ import main

from tests.store.helpers import ALL_DOCS, experiment_doc, scale_metric


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "store.db"


@pytest.fixture()
def diff_docs(store_path):
    """Store two documents and diff them (A = old, B = new)."""

    def run(doc_a, doc_b, tolerance=0.05):
        with ResultStore(store_path) as store:
            ids = []
            for doc in (doc_a, doc_b):
                record, points = ingest_document(doc)
                store.put_run(record, points)
                ids.append(record.run_id)
            return diff_runs(store, *ids, tolerance=tolerance)

    return run


class TestDirections:
    def test_conventions(self):
        assert metric_direction("goodput_rps") == +1
        assert metric_direction("classes.point.goodput_rps") == +1
        assert metric_direction("bandwidth_gbps") == +1
        assert metric_direction("knee_rps") == +1
        assert metric_direction("p99_ns") == -1
        assert metric_direction("classes.scan.mean_latency_ns") == -1
        assert metric_direction("placement.skew_ratio") == -1
        assert metric_direction("shed") == -1
        assert metric_direction("device_errors") == -1
        # Write-path health: amplification, stalls, and losses are all
        # lower-is-better; ack counts are volume, not quality.
        assert metric_direction("mean_waf") == -1
        assert metric_direction("write_path.mean_waf") == -1
        assert metric_direction("gc_stall_ns") == -1
        assert metric_direction("read_p99_inflation") == -1
        assert metric_direction("writebacks_lost") == -1
        assert metric_direction("writebacks_acked") == 0
        # Wall-clock and volume metrics never gate.
        assert metric_direction("events_per_sec") == 0
        assert metric_direction("wall_s") == 0
        assert metric_direction("offered") == 0

    def test_event_count_gates_lower_is_better(self, diff_docs):
        # Seed-deterministic simulator cost: a blow-up on any cell is a
        # regression; its wall-clock cousins stay informational.
        assert metric_direction("sim_events") == -1
        assert metric_direction("events_per_sec") == 0
        good = experiment_doc()
        assert not diff_docs(good, scale_metric(good, "sim_events", 1.5)).ok

    def test_control_arm_scalars_never_gate(self, diff_docs):
        # A worse FIFO control arm strengthens the tenancy headline; the
        # claim itself is gated through headline_ok.
        for leaf in ("fifo_infer_p99_ns", "fifo_train_shed_frac",
                     "fifo_infer_slo_attainment"):
            assert metric_direction(leaf) == 0
        assert metric_direction("wfq_infer_p99_ns") == -1
        assert metric_direction("headline_ok") == +1
        headline = {"fifo_infer_p99_ns": 9e6, "wfq_infer_p99_ns": 1e6}
        doc = experiment_doc(
            "tenancy", [{"axes": {"section": "summary"}, "metrics": headline}]
        )
        assert diff_docs(doc, scale_metric(doc, "fifo_infer_p99_ns", 2.0)).ok


class TestDiff:
    def test_ten_percent_goodput_regression_exits_nonzero(
        self, store_path, tmp_path, capsys
    ):
        good = experiment_doc()
        bad = scale_metric(good, "goodput_rps", 0.9)
        assert main([
            "--db", str(store_path), "ingest",
            _write(tmp_path / "a.json", good),
            _write(tmp_path / "b.json", bad),
        ]) == 0
        with ResultStore(store_path) as store:
            id_a, id_b = [r.run_id for r in store.runs()]
        capsys.readouterr()
        rc = main([
            "--db", str(store_path), "diff", id_a, id_b,
            "--tolerance", "0.05",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "goodput_rps" in captured.out  # names the offending metric
        assert "REGRESSED" in captured.out
        assert "FAIL" in captured.err

    def test_regression_within_tolerance_passes(self, store_path, tmp_path):
        good = experiment_doc()
        bad = scale_metric(good, "goodput_rps", 0.97)
        main([
            "--db", str(store_path), "ingest",
            _write(tmp_path / "a.json", good),
            _write(tmp_path / "b.json", bad),
        ])
        with ResultStore(store_path) as store:
            id_a, id_b = [r.run_id for r in store.runs()]
            rc = main([
                "--db", str(store_path), "diff", id_a, id_b,
                "--tolerance", "0.05",
            ])
        assert rc == 0

    def test_p99_increase_is_a_regression(self, diff_docs):
        good = experiment_doc()
        result = diff_docs(good, scale_metric(good, "p99_ns", 1.5))
        assert not result.ok
        assert all("p99_ns" in d.metric for d in result.regressions)

    def test_improvement_is_not_a_regression(self, diff_docs):
        good = experiment_doc()
        result = diff_docs(good, scale_metric(good, "goodput_rps", 1.2))
        assert result.ok
        assert result.improvements

    def test_wall_clock_noise_never_gates(self, diff_docs):
        # events_per_sec halving is runner noise, not a regression.
        doc = ALL_DOCS["bench"]
        assert diff_docs(doc, scale_metric(doc, "events_per_sec", 0.5)).ok

    def test_waf_increase_is_a_regression(self, diff_docs):
        good = ALL_DOCS["write-path"]
        result = diff_docs(good, scale_metric(good, "mean_waf", 1.25))
        assert not result.ok
        assert any("mean_waf" in d.metric for d in result.regressions)

    def test_prefix_resolution(self, store_path):
        with ResultStore(store_path) as store:
            rec, pts = ingest_document(experiment_doc())
            store.put_run(rec, pts)
            assert store.resolve(rec.run_id[:8]) == rec.run_id
            with pytest.raises(KeyError):
                store.resolve("zzzz")


class TestGate:
    def test_seed_then_pass_then_fail(self, tmp_path, capsys):
        baseline = tmp_path / "base.db"
        good = _write(tmp_path / "good.json", experiment_doc())
        bad = _write(
            tmp_path / "bad.json",
            scale_metric(experiment_doc(), "goodput_rps", 0.9),
        )
        # First run seeds the baseline and passes.
        assert main(["gate", good, "--baseline", str(baseline)]) == 0
        assert "seeded" in capsys.readouterr().out
        # Re-gating the identical artifact passes trivially.
        assert main(["gate", good, "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        # A 10% goodput drop against the stored baseline fails the gate.
        rc = main([
            "gate", bad, "--baseline", str(baseline), "--tolerance", "0.05",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "goodput_rps" in captured.out

    def test_gate_compares_against_best_stored_run(self, tmp_path):
        baseline = tmp_path / "base.db"
        ok = experiment_doc()
        better = scale_metric(ok, "goodput_rps", 1.2)
        main([
            "gate",
            _write(tmp_path / "ok.json", ok),
            _write(tmp_path / "better.json", better),
            "--baseline", str(baseline),
        ])
        with ResultStore(baseline) as store:
            rec_better, _ = ingest_document(better)
            best = best_baseline(
                store, "agile-experiment/1", rec_better.config_hash
            )
            assert best is not None
            assert best.run_id == rec_better.run_id
            # And re-presenting the merely-ok run now fails the gate.
        rc = main([
            "gate", _write(tmp_path / "ok2.json", ok),
            "--baseline", str(baseline), "--tolerance", "0.05",
        ])
        assert rc == 1

    def test_run_score_prefers_goodput_then_bandwidth(self):
        _, serve_pts = ingest_document(experiment_doc())
        serve_metrics = {p.key: p.value for p in serve_pts}
        assert run_score(serve_metrics) > 0
        _, bench_pts = ingest_document(ALL_DOCS["bench"])
        bench_metrics = {p.key: p.value for p in bench_pts}
        assert run_score(bench_metrics) == pytest.approx(3.64 + 6.9 + 2.39)


class TestCliSmoke:
    def test_ls_and_show(self, store_path, tmp_path, capsys):
        main([
            "--db", str(store_path), "ingest",
            _write(tmp_path / "a.json", experiment_doc()),
        ])
        assert main(["--db", str(store_path), "ls"]) == 0
        out = capsys.readouterr().out
        assert "serve-sweep" in out
        with ResultStore(store_path) as store:
            run_id = store.runs()[0].run_id
        assert main(["--db", str(store_path), "show", run_id[:10]]) == 0
        out = capsys.readouterr().out
        assert "goodput_rps" in out
        # --raw prints the stored artifact itself, byte-losslessly.
        assert main([
            "--db", str(store_path), "show", run_id[:10], "--raw",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == experiment_doc()

    def test_ingest_rejects_unknown_schema(self, store_path, tmp_path, capsys):
        bogus = _write(tmp_path / "x.json", {"mystery": 1})
        assert main(["--db", str(store_path), "ingest", bogus]) == 2
        assert "x.json" in capsys.readouterr().err

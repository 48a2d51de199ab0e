"""compare and gate: the regression semantics the CI steps rely on."""

import copy
import json

import pytest

from repro.store import compare
from repro.store.__main__ import main

from tests.store.helpers import ALL_DOCS, experiment_doc, scale_metric

#: A figure-shaped miniature: Fig. 12's register table, whose ``agile`` /
#: ``bam`` leaves no direction rule ever matched, one directional leaf, one
#: string leaf and one check.
GOLDEN = experiment_doc(
    "fig12",
    [
        {"axes": {"kernel": "bfs"},
         "metrics": {"agile": 37, "bam": 45, "p99_ns": 300_000.0, "tier": "hbm"}},
        {"axes": {"kernel": "spmv"}, "metrics": {"agile": 42, "bam": 56}},
    ],
)
GOLDEN["checks"] = [{"name": "bfs_reduction", "ok": True, "detail": "45 -> 37"}]


#: tamper -> the text the gate must name it by.  ``None`` as the tamper
#: leaves the document honest and removes the golden instead.
TAMPERS = {
    "config_hash": (
        lambda doc: doc.update(config_hash="f" * 16),
        "config_hash: feedbeeffeedbeef -> ffffffffffffffff",
    ),
    "missing_golden": (None, "no golden"),
    "dropped_cell": (
        lambda doc: doc["cells"].pop(1),
        'only in golden: agile @ {"kernel":"spmv"}',
    ),
    "extra_metric": (
        lambda doc: doc["cells"][0]["metrics"].update(events_per_request=12.5),
        'only in fresh: events_per_request @ {"kernel":"bfs"}',
    ),
    "undirected_moved": (
        lambda doc: doc["cells"][0]["metrics"].update(agile=370),
        'agile @ {"kernel":"bfs"}: 37 -> 370',
    ),
    "improved": (
        lambda doc: doc["cells"][0]["metrics"].update(p99_ns=150_000.0),
        'p99_ns @ {"kernel":"bfs"}: 300000.0 -> 150000.0',
    ),
    "check_flipped": (
        lambda doc: doc["checks"][0].update(ok=False),
        "bfs_reduction @ checks: True -> False",
    ),
    "string_changed": (
        lambda doc: doc["cells"][0]["metrics"].update(tier="dram"),
        "tier @ {\"kernel\":\"bfs\"}: 'hbm' -> 'dram'",
    ),
}


def _write(path, doc):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))
    return str(path)


def gate(tmp_path, golden, fresh, *flags):
    """Run the CLI gate on ``fresh`` against a golden directory holding
    ``golden`` (none when ``None``)."""
    if golden is not None:
        _write(tmp_path / "goldens" / "doc.json", golden)
    return main([
        "gate", _write(tmp_path / "doc.json", fresh),
        "--baseline", str(tmp_path / "goldens"), *flags,
    ])


class TestGate:
    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_every_tamper_fails_and_is_named(self, name, tmp_path, capsys):
        tamper, named = TAMPERS[name]
        fresh = copy.deepcopy(GOLDEN)
        if tamper is not None:
            tamper(fresh)
        rc = gate(tmp_path, GOLDEN if tamper else None, fresh)
        captured = capsys.readouterr()
        assert rc == 1
        assert named in captured.out + captured.err
        assert "FAIL" in captured.err

    def test_honest_rerun_is_identical_whatever_the_commit(self, tmp_path, capsys):
        fresh = {**copy.deepcopy(GOLDEN), "git_sha": "0" * 40}
        assert gate(tmp_path, GOLDEN, fresh) == 0
        assert "identical" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"mystery": 1}),
            json.dumps({**GOLDEN, "schema": "agile-serve-sweep/3"}),
            "{not json",
        ],
        ids=["no-tag", "retired-tag", "not-json"],
    )
    def test_unreadable_or_unknown_document_exits_two(self, text, tmp_path, capsys):
        _write(tmp_path / "goldens" / "doc.json", GOLDEN)
        (tmp_path / "doc.json").write_text(text)
        assert main([
            "gate", str(tmp_path / "doc.json"),
            "--baseline", str(tmp_path / "goldens"),
        ]) == 2
        assert "doc.json" in capsys.readouterr().err

    def test_worst_file_decides_the_exit_status(self, tmp_path):
        goldens = tmp_path / "goldens"
        good = _write(tmp_path / "good.json", GOLDEN)
        _write(goldens / "good.json", GOLDEN)
        bad = _write(tmp_path / "bad.json", scale_metric(GOLDEN, "agile", 2.0))
        _write(goldens / "bad.json", GOLDEN)
        assert main(["gate", good, bad, "--baseline", str(goldens)]) == 1
        assert main(["gate", good, "--baseline", str(goldens)]) == 0


class TestDiff:
    def test_ten_percent_goodput_regression_exits_nonzero(self, tmp_path, capsys):
        good = experiment_doc()
        rc = main([
            "diff", _write(tmp_path / "a.json", good),
            _write(tmp_path / "b.json", scale_metric(good, "goodput_rps", 0.9)),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "goodput_rps" in captured.out  # names the offending metric
        assert "-10.0%" in captured.out
        assert "FAIL" in captured.err

    def test_p99_increase_is_a_regression(self):
        good = experiment_doc()
        differences = compare(good, scale_metric(good, "p99_ns", 1.5))
        assert differences and all("p99_ns" in line for line in differences)

    def test_waf_increase_is_a_regression(self):
        good = ALL_DOCS["write-path"]
        differences = compare(good, scale_metric(good, "mean_waf", 1.25))
        assert differences and all("mean_waf" in line for line in differences)

    def test_a_move_off_zero_is_named_without_a_percentage(self):
        good = ALL_DOCS["write-path"]
        lossy = copy.deepcopy(good)
        lossy["cells"][-1]["metrics"]["writebacks_lost"] = 1
        (line,) = compare(good, lossy)
        assert "writebacks_lost" in line and line.endswith("0 -> 1")

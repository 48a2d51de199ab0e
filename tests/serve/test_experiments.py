"""Every registered experiment, at a mini spec, through the one runner.

What each experiment used to assert per runner is asserted once here:
bit-deterministic documents, a config hash that tracks every override,
one store point per numeric leaf, schema-valid output, checks that flip
(with the CLI exit code) when a metric is tampered with, and axes
rejected before the first cell is simulated.
"""

from __future__ import annotations

import json
from dataclasses import replace

import jsonschema
import pytest

from repro.serve import experiment
from repro.serve.__main__ import EXPERIMENTS, main
from repro.serve.registry import INFER
from repro.store import ingest_document

from tests.store.helpers import SCHEMA, reference_points

#: Seconds-not-minutes variants, in ``--set`` syntax; every item moves the
#: experiment off its default so the config hash must track it.
MINI = {
    "serve-sweep": [
        "duration_ns=1e6", "system=agile,bam", "target_rps=20000",
    ],
    "placement-smoke": [
        "duration_ns=1e6", "lba_space=256", "target_rps=400000",
        "policy=shard,striped",
    ],
    "explore": [
        "duration_ns=3e5", "cache_lines=256", "queue_depth=32",
        "target_rps=20000", "seed=11",
    ],
    "write-path": [
        "duration_ns=4e6", "table_pages=64", "modify_space=48",
        "read_space=64", "device_pages=128", "cache_lines=8",
        "target_rps=20000",
    ],
    # Overloaded enough (and the fifo queue deep enough) that the calm
    # cell's interference headline genuinely holds.
    "tenancy": [
        "rate_rps=500000", "duration_ns=1.5e6", "cache_lines=32",
        "admission_capacity=384", "train_space=256", "kv.num_slots=4",
        "kv.blocks_per_seq=8", "kv.events=64", "ckpt.table_pages=32",
        "ckpt.shard_pages=2", "vsearch.num_nodes=64",
        "vsearch.num_queries=8", "mix=inference_heavy", "placement=striped",
        "storm=none",
    ],
}

#: One report-level tamper per experiment that makes a claim; the value is
#: (the check it must flip, the tamper).
TAMPER = {
    "placement-smoke": (
        "striped_spreads_the_hotspot",
        lambda report: replace(report, device_reads=(1, 1, 1, 1)),
    ),
    "write-path": (
        "no_writeback_lost",
        lambda report: replace(report, writebacks_lost=1),
    ),
    "tenancy": (
        "headline:mix=inference_heavy,storm=none,placement=striped",
        lambda report: replace(
            report,
            classes={
                **report.classes,
                INFER: replace(report.classes[INFER], p99_ns=1e12),
            },
        ),
    ),
}


def cli_args(name: str) -> list:
    return ["run", name, *(a for item in MINI[name] for a in ("--set", item))]


def test_mini_specs_cover_the_registry():
    assert set(MINI) == set(EXPERIMENTS)


@pytest.fixture(scope="module", params=sorted(EXPERIMENTS))
def run(request, tmp_path_factory):
    """(name, CLI exit code, the document text the CLI wrote)."""
    name = request.param
    out = tmp_path_factory.mktemp(name) / f"{name}.json"
    rc = main([*cli_args(name), "--out", str(out)])
    return name, rc, out.read_text(encoding="utf-8")


class TestEveryExperiment:
    def test_two_runs_give_byte_identical_documents(self, run):
        name, rc, text = run
        assert rc == 0
        exp = EXPERIMENTS[name]
        again = exp.run(*exp.configure(MINI[name]))
        assert json.dumps(again, indent=2, sort_keys=True) + "\n" == text

    def test_document_validates_against_the_schema(self, run):
        jsonschema.validate(json.loads(run[2]), SCHEMA)

    def test_ingest_yields_one_point_per_numeric_leaf(self, run):
        doc = json.loads(run[2])
        _, points = ingest_document(doc)
        assert len({p.key for p in points}) == len(points)
        assert {(*p.key, p.value) for p in points} == reference_points(doc)

    def test_config_hash_tracks_the_spec_and_every_override(self, run):
        name, _, text = run
        exp = EXPERIMENTS[name]
        full = exp.config_hash(*exp.configure(MINI[name]))
        assert json.loads(text)["config_hash"] == full
        hashes = {
            exp.config_hash(*exp.configure([s for s in MINI[name] if s != drop]))
            for drop in MINI[name]
        }
        assert full not in hashes and len(hashes) == len(MINI[name])
        if exp.quick:
            assert exp.config_hash(*exp.configure()) != exp.config_hash(
                *exp.configure(quick=True)
            )


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
class TestClaims:
    def test_tampered_metric_flips_the_check_and_the_exit_code(
        self, name, monkeypatch, tmp_path
    ):
        exp = EXPERIMENTS[name]
        if name not in TAMPER:
            # Nothing claimed, nothing to flip — and no claim may go untested.
            assert exp.checks(exp.spec, []) == []
            return
        check_name, tamper = TAMPER[name]
        honest = experiment.run_cell
        monkeypatch.setattr(
            experiment, "run_cell", lambda plan: tamper(honest(plan))
        )
        out = tmp_path / "tampered.json"
        assert main([*cli_args(name), "--out", str(out)]) == 1
        checks = {c["name"]: c["ok"] for c in json.loads(out.read_text())["checks"]}
        assert checks[check_name] is False

    def test_bad_axes_are_rejected_before_the_first_cell(
        self, name, monkeypatch, capsys
    ):
        def no_simulation(plan):
            raise AssertionError("a cell ran before validation finished")

        monkeypatch.setattr(experiment, "run_cell", no_simulation)
        exp = EXPERIMENTS[name]
        axis = next(iter(exp.choices))
        for bad, named in (
            (f"{axis}=no-such-value", repr(axis)),
            (f"{axis}=", repr(axis)),
            ("no_such_knob=1", "'no_such_knob'"),
            ("duration_ns=-1", "duration_ns"),
        ):
            assert main(["run", name, "--quick", "--set", bad]) == 2
            err = capsys.readouterr().err
            assert name in err and named in err, err

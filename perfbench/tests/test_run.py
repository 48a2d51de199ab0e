"""The benchmark run end to end: emitted keys, determinism, verification,
exit codes.  These start child interpreters and take about two minutes."""

import argparse
import json
import shutil
import subprocess
import sys
import time

import perfbench
from perfbench import child, cli, spec, workloads


def _child(mode, seed, workload="fig5-read"):
    return cli.spawn(mode, seed, workload=workload)


def _driver(*argv, cwd=perfbench.ROOT):
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done.returncode, done.stdout


def _exact(record, names):
    return {name: record[name] for name in names}


def test_driver_runs_emit_exactly_the_declared_keys():
    for trace, declared in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        code, out = _driver("--workload", "fig5-read", "--seed", "5",
                            "--seconds", "1", "--trace", str(trace))
        assert code == 0
        result = json.loads(out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] == 4096 and result["failed"] == 0
        assert list(result["metrics"]) == [m.name for m in declared]
        for metric in declared:
            assert result["metrics"][metric.name]["unit"] == metric.unit
        if trace == 0:
            assert all(v["value"] != 0 for v in result["metrics"].values())
        else:
            values = {k: v["value"] for k, v in result["metrics"].items()}
            assert values["sim.events"] > 0
            assert values["core.service.calls"] > 0
            assert values["core.service.cqe_per_call"] > 0
            assert values["probe.sim.engine.events_per_s"] > 0


def test_same_seed_repeats_exactly_and_another_seed_differs():
    first, again, other = (_child("counters", s) for s in (11, 11, 12))
    assert first["counters"] == again["counters"]
    assert first["sim"] == again["sim"]
    assert first["counters"]["sim.events"] != other["counters"]["sim.events"]
    assert all(passed for _, passed, _ in first["checks"])


def test_profile_call_counts_repeat_exactly():
    first, again = (_child("profile", 11) for _ in range(2))
    calls = lambda rec: {k: v[1] for k, v in rec["layers"].items()}  # noqa: E731
    assert calls(first) == calls(again)
    assert first["not_covered_self_s"] < 0.01 * first["wall_s"]


def test_corrupted_expected_checksum_exits_nonzero(monkeypatch, capsys):
    # A small DLRM shape keeps this a test of the verification path, not
    # of the workload; the expected checksum is then nudged by one.
    monkeypatch.setattr(
        workloads.DlrmC1, "KW",
        dict(workloads.DlrmC1.KW, batch=32, epochs=1, num_threads=64),
    )
    prepare = workloads.DlrmC1.prepare

    def corrupted(self, seed):
        prepare(self, seed)
        self.expected += 1.0

    def in_process(mode, seed, **options):
        args = argparse.Namespace(
            mode=mode, seed=seed, spawned_at=time.time(), repeats=1,
            seconds=0.0, trace_out="", workload=options["workload"],
        )
        return child.measure(args)

    monkeypatch.setattr(cli, "spawn", in_process)
    argv = ["run", "--workload", "dlrm-c1", "--seed", "3", "--trace", "0"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"]

    monkeypatch.setattr(workloads.DlrmC1, "prepare", corrupted)
    assert cli.main(argv) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_quick_run_verifies_everything_in_under_a_minute(tmp_path):
    out = tmp_path / "quick.json"
    start = time.perf_counter()
    code, _ = _driver("--quick", "--seed", "7", "--out", str(out))
    assert time.perf_counter() - start < 60
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["quick"] is True and doc["seed"] == 7
    assert set(doc["workloads"]) == set(spec.WORKLOAD_NAMES)
    for key in ("git_sha", "python", "nproc", "platform"):
        assert doc[key]
    layers = {n: w["per_layer"] for n, w in doc["workloads"].items()}
    for name, values in layers.items():
        assert set(values) == {m.name for m in spec.PER_LAYER}
        assert doc["workloads"][name]["raw"]["walls_s"]
    # The known shape (sanity anchors, seed 7).
    gc_programs = {n: v["nvme.ftl.gc_programs"] for n, v in layers.items()}
    assert gc_programs["serve-write-gc"] > 0
    assert sum(gc_programs.values()) == gc_programs["serve-write-gc"]
    assert layers["dlrm-c1"]["core.cache.hit_ratio"] > 0.9
    assert layers["fig5-read"]["core.cache.hits"] == 0
    per_op = doc["workloads"]["serve-write-gc"]["end_to_end"]
    assert 3e3 < per_op["sim_events_per_op"] < 3e4


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(
        perfbench.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    shutil.copy(perfbench.ROOT / "BENCHMARK.json", tmp_path)
    code, out = _driver("--workload", "fig5-read", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not out.strip()

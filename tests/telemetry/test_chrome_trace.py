"""Chrome-trace export: document structure, multi-run capture merging,
and the bench CLI's ``run --trace`` integration path.

The acceptance bar for the trace file is that Perfetto can load it and
shows spans/counters from at least four modelled layers; these tests pin
the structural half of that (valid phases, metadata blocks, µs
timestamps, per-layer processes) so a regression fails here rather than
as a silently-blank timeline.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.bench.__main__ import main as bench_main
from repro.sim.probe import armed
from repro.workloads.io_sweep import run_bandwidth_sweep

VALID_PHASES = {"X", "i", "C", "M"}


def _run_point(**kw):
    return run_bandwidth_sweep(
        "read", num_ssds=1, total_requests=64, num_threads=16, **kw
    )


class TestDocumentStructure:
    def test_trace_covers_four_layers_with_valid_events(self):
        with telemetry.capture() as cap:
            _run_point()
        doc = cap.chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ns"
        assert doc["otherData"]["recorded_events"] > 0
        assert "dropped_events" not in doc["otherData"]
        events = doc["traceEvents"]
        cats = {e.get("cat") for e in events if e["ph"] != "M"}
        assert {"gpu", "nvme", "mem", "core"} <= cats
        for e in events:
            assert e["ph"] in VALID_PHASES
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
            elif e["ph"] == "i":
                assert e["s"] == "t"

    def test_metadata_names_processes_and_threads(self):
        with telemetry.capture() as cap:
            _run_point()
        events = cap.chrome_trace()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        process_names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        assert {"gpu", "nvme", "mem", "core"} <= process_names
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert "kernels" in thread_names  # the GPU launch track

    def test_timestamps_are_microseconds(self):
        with telemetry.capture() as cap:
            point = _run_point()
        events = cap.chrome_trace()["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        # Simulated time is ns; trace ts is µs, so every span must end at
        # or before the makespan / 1000.
        horizon_us = point.duration_ns / 1000.0
        assert spans and all(
            e["ts"] + e["dur"] <= horizon_us * 1.001 for e in spans
        )


class TestCaptureMerging:
    def test_sessions_outside_capture_are_not_collected(self):
        _run_point()  # no capture active, default telemetry=None
        with telemetry.capture() as cap:
            pass
        assert cap.sessions == []
        assert "telemetry" not in dict(armed())

    def test_multi_run_merge_prefixes_layers(self):
        with telemetry.capture() as cap:
            _run_point()
            _run_point()
        assert len(cap.sessions) == 2
        doc = cap.chrome_trace()
        assert doc["otherData"]["runs"] == 2
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"run0.gpu", "run1.gpu", "run0.nvme", "run1.nvme"} <= names

    def test_nested_capture_restores_outer_state(self):
        with telemetry.capture() as outer:
            with telemetry.capture() as inner:
                _run_point()
            assert "telemetry" in dict(armed())  # outer block still active
            _run_point()
        assert len(inner.sessions) == 1
        assert len(outer.sessions) == 1
        assert "telemetry" not in dict(armed())


class TestBenchIntegration:
    def test_cli_trace_flag_writes_perfetto_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "chrome_trace.json"
        rc = bench_main(
            ["run", "fig5", "--set", "num_ssds=2", "--set", "total_requests=64",
             "--set", "num_threads=16", "--trace", str(out)]
        )
        assert rc == 0
        assert "trace: wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ns"
        cats = {
            e.get("cat") for e in doc["traceEvents"] if e["ph"] != "M"
        }
        assert {"gpu", "nvme", "mem", "core"} <= cats

    def test_cli_trace_requires_a_path(self, capsys):
        for argv in (["run", "fig5", "--trace"], ["run", "fig5", "--trace", "--oops"]):
            with pytest.raises(SystemExit) as exit_info:
                bench_main(argv)
            assert exit_info.value.code == 2

    def test_sweep_point_embeds_snapshot_when_forced(self):
        point = _run_point(telemetry=True)
        snap = point.telemetry
        assert snap is not None
        assert snap["spans"]["recorded"] > 0
        metrics = snap["metrics"]
        assert metrics["counters"]["gpu.stall_ns"] is not None
        assert metrics["collected"]["sim"]["event_count"] > 0
        # Without the flag (and no capture), the point stays lean.
        assert _run_point().telemetry is None

"""The declared names, the layer map and ``BENCHMARK.json`` agree."""

import json
import re

import pytest

import perfbench
from perfbench import layers, spec
from perfbench.workloads import REGISTRY

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(perfbench.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_every_source_file_has_exactly_one_layer():
    root = perfbench.ROOT / "src" / "repro"
    files = [str(p.relative_to(root)) for p in root.rglob("*.py")]
    assert len(files) > 100
    booked = {spec.layer_of_source(f) for f in files}
    assert booked - {None} <= set(spec.LAYER_KEYS)
    # Every key that names a module or package of src/repro is reachable.
    assert booked - {None} == set(spec.LAYER_KEYS) - set(spec.LAYER_EXTERNAL)


def test_undeclared_package_is_an_error_not_other():
    with pytest.raises(KeyError):
        spec.layer_of_source("newpkg/thing.py")
    assert spec.layer_of_source("analysis/lint.py") is None
    assert spec.layer_of_source("serve/wfq.py") == "serve.wfq"
    assert spec.layer_of_source("serve/tenancy.py") == "serve"
    assert spec.layer_of_source("config.py") == "config"


def test_profile_rows_outside_the_program():
    assert layers.layer_of_function("~", "<built-in method numpy.array>") == "ext.numpy"
    assert layers.layer_of_function("~", "<built-in method heappush>") == "ext.python"
    kernel = str(perfbench.ROOT / "perfbench" / "workloads.py")
    assert layers.layer_of_function(kernel, "_kernel") == "workloads"


def test_names_units_and_caps():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = [w.name for w in spec.WORKLOADS]
    names += [m.name for m in (*spec.END_TO_END, *spec.PER_LAYER)]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in (*spec.END_TO_END, *spec.PER_LAYER):
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
        assert metric.base in ("host", "sim", "count")
    for workload in spec.WORKLOADS:
        assert len(workload.why) <= 200 and "\n" not in workload.why
    for metric in spec.PER_LAYER:
        assert metric.moves, f"{metric.name} names no end-to-end target"


def test_issue_counts():
    assert len(spec.LAYER_KEYS) == 35
    assert len(spec.COUNTERS) == 39
    assert len(spec.HARNESS) == 8
    assert len(spec.PER_LAYER) == 70 + 39 + 8 + len(spec.RELOCATED)
    assert tuple(REGISTRY) == spec.WORKLOAD_NAMES


def test_benchmark_json_matches_the_declarations(benchmark_json):
    doc = benchmark_json
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert doc["command"][:1] == ["python3"]
    assert 1 <= doc["run_seconds"] <= 60
    assert doc["workloads"] == [
        {"name": w.name, "why": w.why} for w in spec.WORKLOADS
    ]
    assert [
        {k: v for k, v in m.items() if k != "bound"} for m in doc["end_to_end"]
    ] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())

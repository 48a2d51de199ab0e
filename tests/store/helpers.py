"""Synthetic ``agile-experiment/1`` documents for the store tests.

One builder (:func:`experiment_doc`) and hand-built miniature cell lists
in the real experiments' shapes — small enough that every test
constructs, mutates, and round-trips them in microseconds, complete
enough to exercise every flattening branch (per-class nests, device
lists, derived rows with fewer axes, ``detail`` payloads).
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.store import axes_key, points

SCHEMA = json.loads(
    (Path(__file__).parents[2] / "schemas" / "agile-experiment-1.schema.json")
    .read_text(encoding="utf-8")
)


def serve_metrics(goodput: float, p99: float, waf: float = 1.2) -> Dict:
    """One cell's metrics in ``ServeReport.as_dict()`` shape."""
    return {
        "system": "agile",
        "duration_ns": 2_000_000.0,
        "offered_rps": 20_000.0,
        "offered": 40,
        "completed": 38,
        "shed": 1,
        "aborted": 1,
        "goodput_rps": goodput,
        "p99_ns": p99,
        "sim_events": 12_345,
        "batches": 6,
        "mean_batch_size": 6.3,
        "placement": {
            "policy": "striped",
            "num_ssds": 2,
            "device_pages": [20, 21],
            "device_reads": [19, 19],
            "skew_ratio": 1.0,
        },
        "write_path": {
            "device_writes": [30, 31],
            "device_waf": [waf, waf],
            "mean_waf": waf,
            "gc_busy_ns": 800_000.0,
            "gc_stall_ns": 120_000.0,
            "writebacks": 40,
            "writebacks_acked": 40,
            "writebacks_lost": 0,
        },
        "classes": {
            "point": {
                "name": "point",
                "offered": 32,
                "completed": 31,
                "shed": 1,
                "queue_timeout": 0,
                "aborted": 0,
                "slo_ok": 30,
                "slo_attainment": 0.94,
                "p50_ns": 90_000.0,
                "p95_ns": 220_000.0,
                "p99_ns": p99,
                "mean_latency_ns": 110_000.0,
                "goodput_rps": goodput * 0.8,
            },
        },
    }


def experiment_doc(
    experiment: str = "serve-sweep",
    cells: Optional[List[Dict]] = None,
    goodput: float = 20_000.0,
    **header: object,
) -> Dict:
    """An ``agile-experiment/1`` document; the default cells are a
    one-point serve-sweep curve plus its knee row."""
    curve = {"ssds": 2, "placement": "striped", "system": "agile"}
    if cells is None:
        cells = [
            {
                "axes": {**curve, "target_rps": 20_000.0},
                "metrics": serve_metrics(goodput, p99=300_000.0),
            },
            {"axes": curve, "metrics": {"knee_rps": 20_000.0}},
        ]
    return {
        "schema": "agile-experiment/1",
        "experiment": experiment,
        "git_sha": "c0ffee" * 6 + "c0ff",
        "config_hash": "feedbeeffeedbeef",
        **header,
        "cells": cells,
        "checks": [],
    }


#: Miniatures of the other artifacts, as cell lists for the one builder.
PLACEMENT_CELLS = [
    {
        "axes": {"policy": "shard"},
        "metrics": {
            "goodput_rps": 70_000.0, "p99_ns": 450_000.0, "completed": 350,
            "skew_ratio": 1.9, "device_reads": [270, 29, 307, 33],
        },
    },
    {
        "axes": {"policy": "striped"},
        "metrics": {
            "goodput_rps": 76_000.0, "p99_ns": 380_000.0, "completed": 380,
            "skew_ratio": 1.1, "device_reads": [156, 177, 137, 169],
        },
    },
]
WRITE_PATH_CELLS = [
    {
        "axes": {"system": "gc_on", "target_rps": 10_000.0},
        "metrics": serve_metrics(9_500.0, p99=1_200_000.0, waf=1.3),
    },
    {"axes": {"system": "gc_on"}, "metrics": {"knee_rps": 10_000.0}},
    {
        "axes": {"system": "gc_off", "target_rps": 10_000.0},
        "metrics": serve_metrics(9_900.0, p99=300_000.0, waf=1.0),
    },
    {"axes": {"system": "gc_off"}, "metrics": {"knee_rps": 30_000.0}},
    {
        "axes": {"section": "summary"},
        "metrics": {
            "mean_waf": 1.3, "gc_stall_ns": 2_000_000.0,
            "read_p99_inflation": 4.0, "knee_rps_gc_on": 10_000.0,
            "knee_rps_gc_off": 30_000.0, "writebacks_lost": 0,
        },
    },
]
BENCH_CELLS = [
    {
        "axes": {"section": "fig5", "op": "read", "num_ssds": n,
                 "total_requests": 512},
        "metrics": {"duration_ns": 7.5e6 / n, "bandwidth_gbps": gbps,
                    "sim_events": 123_456, "device_errors": 0},
        "detail": {"telemetry": {"metrics": {"gpu.stall_ns": 42}, "spans": []}},
    }
    for n, gbps in ((1, 3.64), (2, 6.9))
] + [
    {
        "axes": {"section": "perf"},
        "metrics": {"sim_events": 246_244, "wall_s": 0.61,
                    "events_per_sec": 401_682.9, "total_requests": 1024,
                    "bandwidth_gbps": 2.39, "device_errors": 0},
    },
]

ALL_DOCS = {
    "serve-sweep": experiment_doc(),
    "placement-smoke": experiment_doc("placement-smoke", PLACEMENT_CELLS),
    "write-path": experiment_doc("write-path", WRITE_PATH_CELLS),
    "bench": experiment_doc(
        "bench", BENCH_CELLS, generated_unix=1_700_000_000.0, quick=True
    ),
}


def reference_points(doc: Dict) -> set:
    """``{(axes key, dotted metric, leaf)}`` by the schema's prose rule,
    plus ``("checks", name, ok)`` — an independent flattener
    :func:`repro.store.points` is checked against."""

    def walk(prefix, node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield from walk(f"{prefix}.{key}" if prefix else key, value)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                yield from walk(f"{prefix}.{i}", item)
        else:
            yield prefix, node

    cells = {
        (axes_key(cell["axes"]), metric, value)
        for cell in doc["cells"]
        for metric, value in walk("", cell["metrics"])
    }
    return cells | {("checks", c["name"], c["ok"]) for c in doc["checks"]}


def point_set(doc: Dict) -> set:
    """:func:`repro.store.points` in :func:`reference_points`' shape."""
    return {(*key, leaf) for key, leaf in points(doc).items()}


def scale_metric(doc: Dict, metric: str, factor: float) -> Dict:
    """A deep copy of ``doc`` with every ``metric`` leaf scaled."""
    out = copy.deepcopy(doc)

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == metric and isinstance(value, (int, float)):
                    node[key] = value * factor
                else:
                    walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(out)
    return out

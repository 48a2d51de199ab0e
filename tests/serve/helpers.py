"""Shared builders for serving-layer tests: small fast machines."""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.serve.arrival import ArrivalProcess, Poisson
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.experiment import build_backend, run_cell
from repro.serve.request import RequestClass
from repro.serve.slo import ServeReport
from repro.serve.sweep import SweepSpec, standard_cell
from repro.serve.wfq import TenancyConfig

from tests.helpers import small_config


def small_serve_engine(
    system: str = "agile",
    rate_rps: float = 40_000.0,
    duration_ns: float = 500_000.0,
    seed: int = 7,
    classes: Optional[Sequence[RequestClass]] = None,
    arrivals: Optional[Dict[str, ArrivalProcess]] = None,
    admission_capacity: int = 32,
    config_overrides: Optional[Dict[str, Any]] = None,
    tenancy: Optional[TenancyConfig] = None,
) -> ServeEngine:
    backend = build_backend(system, small_config(**(config_overrides or {})))
    if classes is None:
        classes = [
            RequestClass(name="point", pages=1, slo_ns=1_500_000.0,
                         lba_space=256),
        ]
    if arrivals is None:
        arrivals = {cls.name: Poisson(rate_rps) for cls in classes}
    backend.load_pattern(classes)
    return ServeEngine(
        backend,
        classes,
        arrivals,
        ServeConfig(
            duration_ns=duration_ns,
            admission_capacity=admission_capacity,
            batch=BatchPolicy(max_batch=8, max_wait_ns=20_000.0),
            tenancy=tenancy,
        ),
        seed=seed,
    )


def serve_point(system: str, spec: SweepSpec, **cell: Any) -> ServeReport:
    """One standard-mix cell (2 striped SSDs at 20k rps unless overridden)."""
    coords = {"ssds": 2, "placement": "striped", "target_rps": 20_000.0}
    return run_cell(standard_cell(spec, {**coords, "system": system, **cell}))

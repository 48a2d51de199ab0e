"""repro.serve — online request serving on top of the AGILE/BaM hosts.

Open-loop load generation (Poisson / trace replay), bounded
admission with explicit load shedding — FIFO or weighted-fair with
per-class shed guards (:mod:`repro.serve.wfq`) — dynamic batching into
kernel launches, fair-share dispatch across one or more simulated GPUs,
per-class SLO accounting on the telemetry spine, and the one declarative
experiment runner (:mod:`repro.serve.experiment`); the serving
experiments are defined in :mod:`repro.serve.sweep`,
:mod:`repro.serve.writepath` and :mod:`repro.serve.tenancy`, and
``python -m repro.bench`` runs them.  Tenant classes come from the registry
(:mod:`repro.serve.registry`): construct them with :func:`tenant_class`,
never ad hoc.

Entirely additive: nothing here runs unless a :class:`ServeEngine` is
constructed, so closed-loop benchmarks and golden traces are untouched.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.arrival import (
    ArrivalProcess,
    Poisson,
    TraceReplay,
)
from repro.serve.backends import (
    AgileServeBackend,
    BamServeBackend,
    NaiveServeBackend,
    ServeBackend,
)
from repro.serve.batcher import Batch, BatchPolicy, DynamicBatcher
from repro.serve.dispatch import Dispatcher
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.experiment import Experiment, run_cell
from repro.serve.registry import KNOWN_TENANTS, tenant_class
from repro.serve.request import (
    LEGAL_TRANSITIONS,
    Request,
    RequestClass,
    RequestState,
    ServeStateError,
    TERMINAL_STATES,
)
from repro.serve.slo import ClassReport, ServeReport, SloAccountant
from repro.serve.wfq import TenancyConfig, TenantShare, WeightedFairAdmission

__all__ = [
    "AdmissionQueue",
    "AgileServeBackend",
    "ArrivalProcess",
    "BamServeBackend",
    "Batch",
    "BatchPolicy",
    "ClassReport",
    "Dispatcher",
    "DynamicBatcher",
    "Experiment",
    "KNOWN_TENANTS",
    "LEGAL_TRANSITIONS",
    "NaiveServeBackend",
    "Poisson",
    "Request",
    "RequestClass",
    "RequestState",
    "ServeBackend",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "ServeStateError",
    "SloAccountant",
    "TERMINAL_STATES",
    "TenancyConfig",
    "TenantShare",
    "TraceReplay",
    "WeightedFairAdmission",
    "run_cell",
    "tenant_class",
]

"""The tenant-class registry: every serving tenant label is minted here.

One module owns the universe of tenant / request-class labels and their
canonical shapes.  Everything else — sweeps, the write-path experiment,
the tenancy matrix, tests — builds classes via :func:`tenant_class` with
a name constant exported here, and keys its arrival maps and reports on
the same constants.  The lint rule AGL015 enforces the monopoly: a
``RequestClass(...)`` construction (or a string-literal label handed to
``tenant_class``) anywhere else in ``src/repro`` is a finding.  The
payoff is the same as AGL008's for request states: per-class accounting,
scheduling shares, and store-side metric names can trust that a label
seen anywhere in the system is one of these, spelled one way.

The registry entry fixes the *identity* of a tenant (its label, its op,
its default request shape); experiment specs still own the *quantities*
(SLO budgets, weights, region sizes) and pass them as overrides —
``tenant_class`` is ``dataclasses.replace`` over the canonical template,
so every override is held to ``RequestClass``'s declared ranges.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro.serve.request import RequestClass

# -- the label universe -------------------------------------------------------

#: 1-page latency-critical point lookups (the saturation sweep's tight-SLO
#: tenant; also the write-path experiment's watched reader).
POINT = "point"
#: 4-page scans, looser SLO (the saturation sweep's second tenant).
SCAN = "scan"
#: DLRM-checkpoint streaming writes (cache-bypassing ``op="write"``).
CKPT = "ckpt"
#: Read-modify-write traffic through the software cache (``op="modify"``).
HOT = "hot"
#: LLM-inference KV-cache paging reads (``op="paged"``): decode-step
#: attention-window reads through the four-state cache + Share Table.
INFER = "infer"
#: The inference workload's KV appends (``op="modify"``): prefill bursts
#: and decode tail-block writes that become MODIFIED lines.
KV_APPEND = "kv_append"
#: Throughput batch-training input reads: big multi-page requests, loose
#: SLO, the tenant SLO-aware shedding is allowed to lean on.
TRAIN = "train"
#: DiskANN-style vector-search beam walks (:mod:`repro.workloads.vsearch`).
VSEARCH = "vsearch"

#: Canonical template per label: the tenant's identity (label + op) and
#: default request shape.  Quantities (SLOs, weights, regions) are
#: experiment-spec business, overridden per call site.
TENANTS: Dict[str, RequestClass] = {
    POINT: RequestClass(name=POINT, op="read", pages=1),
    SCAN: RequestClass(name=SCAN, op="read", pages=4),
    CKPT: RequestClass(name=CKPT, op="write", pages=4),
    HOT: RequestClass(name=HOT, op="modify", pages=1),
    INFER: RequestClass(name=INFER, op="paged", pages=4),
    KV_APPEND: RequestClass(name=KV_APPEND, op="modify", pages=1),
    TRAIN: RequestClass(name=TRAIN, op="read", pages=8),
    VSEARCH: RequestClass(name=VSEARCH, op="read", pages=4),
}

#: Every label the system may use (lint AGL015 and store adapters read
#: this; iteration order is the registry's declaration order).
KNOWN_TENANTS: Tuple[str, ...] = tuple(TENANTS)


def tenant_class(label: str, **overrides: object) -> RequestClass:
    """Build a :class:`RequestClass` from the registry template for
    ``label``, with experiment-specific fields overridden.  Unknown labels
    are a hard error — mint new tenants here, not at call sites."""
    try:
        template = TENANTS[label]
    except KeyError:
        raise ValueError(
            f"unknown tenant label {label!r}; known: "
            f"{', '.join(KNOWN_TENANTS)}"
            " (mint new tenants in repro.serve.registry)"
        ) from None
    if "name" in overrides or "op" in overrides:
        raise ValueError(
            f"tenant {label!r}: 'name' and 'op' are registry identity, "
            "not per-experiment overrides"
        )
    return replace(template, **overrides)  # type: ignore[arg-type]

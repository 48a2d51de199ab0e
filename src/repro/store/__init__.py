"""repro.store — the SQLite experiment store and regression gate.

Every bench / serve / chaos artifact the repo emits is a one-shot JSON
document; this package turns the pile into a queryable perf trajectory.
Runs are keyed by a canonical config hash (:func:`repro.config.stable_hash`)
so "the same experiment on a different commit" is a database join, and
``python -m repro.store`` grows the store (``ingest``), inspects it
(``ls``, ``show``), and gates on it (``diff``, ``gate``).

See DESIGN.md §10 for the schema and EXPERIMENTS.md for the tolerance
conventions.
"""

from repro.store.db import (
    AmbiguousRunError,
    Point,
    ResultStore,
    RunRecord,
    axes_key,
)
from repro.store.diff import (
    Delta,
    DiffResult,
    best_baseline,
    diff_metrics,
    diff_runs,
    metric_direction,
    run_score,
)
from repro.store.ingest import (
    UnknownSchemaError,
    detect_schema,
    ingest_document,
)
from repro.store.meta import EXPERIMENT_SCHEMA, experiment_document, git_sha

__all__ = [
    "AmbiguousRunError",
    "Delta",
    "DiffResult",
    "EXPERIMENT_SCHEMA",
    "Point",
    "ResultStore",
    "RunRecord",
    "UnknownSchemaError",
    "axes_key",
    "best_baseline",
    "detect_schema",
    "diff_metrics",
    "diff_runs",
    "experiment_document",
    "git_sha",
    "ingest_document",
    "metric_direction",
    "run_score",
]

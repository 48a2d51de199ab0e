"""repro.store — the experiment document and its regression gate.

Every experiment the repo runs emits one bit-deterministic
``agile-experiment/1`` document (:mod:`repro.store.meta`); CI's copy of
each is committed as a text golden under ``baselines/``.
:func:`~repro.store.diff.compare` names every point on which two
documents differ, and ``python -m repro.store gate`` fails a run whose
document does not reproduce its golden — so a behaviour change is a
reviewable diff of ``baselines/*.json`` in the PR that caused it.

See DESIGN.md §10 and ``baselines/README.md``.
"""

from repro.store.diff import UnknownSchemaError, axes_key, compare, points
from repro.store.meta import EXPERIMENT_SCHEMA, experiment_document, git_sha

__all__ = [
    "EXPERIMENT_SCHEMA",
    "UnknownSchemaError",
    "axes_key",
    "compare",
    "experiment_document",
    "git_sha",
    "points",
]

"""The one artifact shape: ``agile-experiment/1`` and its provenance stamp.

Every JSON artifact the repo emits — each ``python -m repro.bench run``
experiment — is assembled by
:func:`experiment_document`, so the fields the golden gate reads are
always present and always spelled the same way:

- ``schema``   — :data:`EXPERIMENT_SCHEMA` (the machine-readable contract
  is ``schemas/agile-experiment-1.schema.json``);
- ``experiment`` — which experiment produced the document;
- ``git_sha``  — the commit that produced the run (CI's ``GITHUB_SHA``
  when set, else ``git rev-parse HEAD``, else ``""`` outside a repo);
- ``config_hash`` — the :func:`~repro.config.stable_hash` fingerprint of
  the knobs that make two runs comparable;
- ``cells`` — ``[{axes, metrics}]``, one row per measured or derived
  coordinate; ``checks`` — ``[{name, ok, detail}]``, the run's claims.
"""

from __future__ import annotations

import os
import subprocess
from typing import Dict, Mapping, Sequence

EXPERIMENT_SCHEMA = "agile-experiment/1"


def git_sha() -> str:
    """The producing commit, or ``""`` when unknowable.

    Prefers CI's ``GITHUB_SHA`` (checkouts may be detached or shallow),
    falls back to asking git, and degrades to empty rather than raising —
    an artifact without provenance is still worth comparing.
    """
    sha = os.environ.get("GITHUB_SHA", "")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def experiment_document(
    experiment: str,
    config_hash: str,
    cells: Sequence[Mapping[str, object]],
    checks: Sequence[Mapping[str, object]],
    **header: object,
) -> Dict[str, object]:
    """Assemble one ``agile-experiment/1`` document.  ``header`` carries
    whatever else describes the run (spec, axes); ``config_hash`` is its
    fingerprint."""
    return {
        "schema": EXPERIMENT_SCHEMA,
        "experiment": experiment,
        "git_sha": git_sha(),
        "config_hash": config_hash,
        **header,
        "cells": list(cells),
        "checks": list(checks),
    }

"""Artifact → store: one adapter for the one document shape.

:func:`ingest_document` turns an ``agile-experiment/1`` document into a
:class:`RunRecord` plus a flat list of :class:`Point` rows.  Ingestion is
**lossless** by construction: the full document is kept verbatim in
``run.raw`` (cell ``detail`` payloads, header fields and checks
round-trip untouched), while the points are a queryable *projection* —
exactly one point per numeric leaf of every cell's ``metrics``, keyed by
the cell's ``axes``.

A document without a known ``schema`` tag raises
:class:`UnknownSchemaError`, as does one whose cells yield the same
``(axes, metric)`` point twice; nothing is inferred from its shape.
"""

from __future__ import annotations

import numbers
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.config import stable_hash
from repro.store.db import Point, RunRecord
from repro.store.meta import EXPERIMENT_SCHEMA


class UnknownSchemaError(ValueError):
    """The document is not one this store knows how to ingest."""


def _numeric(value: object) -> Optional[float]:
    """The value as a float when it is a real number (bools excluded)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, numbers.Real):
        return float(value)
    return None


def _flatten_metrics(record: Mapping[str, object]) -> Iterator[Tuple[str, float]]:
    """Every numeric leaf of ``record`` as dotted ``(metric, value)``.

    Nested dicts gain a dotted prefix (``classes.point.goodput_rps``),
    numeric lists index element-wise (``device_reads.2``); strings and
    other non-numeric leaves stay in the raw document only.
    """
    for key in sorted(record, key=str):
        value = record[key]
        num = _numeric(value)
        if num is not None:
            yield str(key), num
        elif isinstance(value, Mapping):
            for sub, subval in _flatten_metrics(value):
                yield f"{key}.{sub}", subval
        elif isinstance(value, Sequence) and not isinstance(value, str):
            for i, item in enumerate(value):
                num = _numeric(item)
                if num is not None:
                    yield f"{key}.{i}", num


def _experiment_points(doc: Mapping[str, object]) -> List[Point]:
    cells = doc.get("cells")
    if not isinstance(cells, Sequence) or isinstance(cells, str):
        raise UnknownSchemaError("document has no 'cells' list")
    out: List[Point] = []
    for i, cell in enumerate(cells):
        axes = cell.get("axes") if isinstance(cell, Mapping) else None
        metrics = cell.get("metrics") if isinstance(cell, Mapping) else None
        if not isinstance(axes, Mapping) or not isinstance(metrics, Mapping):
            raise UnknownSchemaError(f"cells[{i}] is not {{axes, metrics}}")
        out.extend(
            Point(axes=dict(axes), metric=metric, value=value)
            for metric, value in _flatten_metrics(metrics)
        )
    seen = set()
    for point in out:
        if point.key in seen:
            raise UnknownSchemaError(
                f"two cells yield the point {point.metric!r} at axes "
                f"{point.key[0]} (a repeated axis value?)"
            )
        seen.add(point.key)
    return out


_ADAPTERS: Dict[str, Callable[[Mapping[str, object]], List[Point]]] = {
    EXPERIMENT_SCHEMA: _experiment_points,
}


def detect_schema(doc: Mapping[str, object]) -> str:
    """The document's ``schema`` tag; a missing or unknown one is an error."""
    tag = doc.get("schema")
    if tag not in _ADAPTERS:
        raise UnknownSchemaError(
            f"no ingest adapter for schema {tag!r} "
            f"(known: {', '.join(_ADAPTERS)})"
        )
    return str(tag)


def ingest_document(
    doc: Mapping[str, object],
    source: str = "",
    created_at: Optional[float] = None,
) -> Tuple[RunRecord, List[Point]]:
    """One artifact document → its run row and flattened points.

    ``run_id`` is the stable hash of the whole document, so re-ingesting
    the same artifact replaces rather than duplicates.  ``created_at``
    defaults to the artifact's own ``generated_unix`` stamp when present
    (callers pass file mtimes for artifacts without one).
    """
    schema = detect_schema(doc)
    config_hash = doc.get("config_hash")
    if not isinstance(config_hash, str) or not config_hash:
        raise UnknownSchemaError("document has no 'config_hash'")
    if created_at is None:
        created_at = _numeric(doc.get("generated_unix")) or 0.0
    record = RunRecord(
        run_id=stable_hash(doc),
        schema=schema,
        config_hash=config_hash,
        created_at=created_at,
        git_sha=str(doc.get("git_sha", "") or ""),
        source=source,
        raw=dict(doc),
    )
    return record, _ADAPTERS[schema](doc)

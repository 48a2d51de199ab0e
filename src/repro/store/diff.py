"""Document comparison: one ``agile-experiment/1`` document against another.

Every experiment document is a pure function of its spec and axes (no
wall-clock metric is in any of them), so between a committed golden and a
fresh run of the same experiment *any* delta is a behaviour change.  The
comparison is therefore two-sided and has no notion of a metric's
direction: an improvement that is not committed as the new golden is a
bar that did not move, and a metric added tomorrow gates the day it
appears in a document.

:func:`points` flattens a document into ``{(axes, metric): leaf}`` —
every leaf of every cell's ``metrics`` plus each check's verdict — and
rejects anything that is not a well-formed ``agile-experiment/1``
document with the typed :class:`UnknownSchemaError`; nothing is inferred
from a document's shape.  :func:`compare` joins two point maps and names
every point that differs.  ``git_sha`` is the only field ignored: the
header's ``experiment``, ``spec`` and ``axes`` are what ``config_hash``
fingerprints.
"""

from __future__ import annotations

import json
import numbers
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.store.meta import EXPERIMENT_SCHEMA

#: ``(canonical-JSON axes, dotted metric)``, or ``("checks", name)`` for a
#: check's verdict (no cell collides: axes keys are JSON objects).
PointKey = Tuple[str, str]


class UnknownSchemaError(ValueError):
    """The document is not a well-formed ``agile-experiment/1`` document."""


def axes_key(axes: Mapping[str, object]) -> str:
    """Canonical JSON text for an axes dict."""
    return json.dumps(axes, sort_keys=True, separators=(",", ":"))


def _leaves(prefix: str, node: Any) -> Iterator[Tuple[str, Any]]:
    """Every leaf under ``node`` as ``(dotted name, value)``: nested
    objects gain a dotted prefix (``classes.point.p99_ns``), arrays index
    element-wise (``device_reads.2``)."""
    if isinstance(node, Mapping):
        for key, value in node.items():
            yield from _leaves(f"{prefix}.{key}" if prefix else str(key), value)
    elif isinstance(node, Sequence) and not isinstance(node, str):
        for i, item in enumerate(node):
            yield from _leaves(f"{prefix}.{i}", item)
    else:
        yield prefix, node


def _describe(point: PointKey) -> str:
    return f"{point[1]} @ {point[0]}"


def _rows(doc: Mapping[str, Any], name: str) -> Sequence[Any]:
    rows = doc.get(name)
    if not isinstance(rows, Sequence) or isinstance(rows, str):
        raise UnknownSchemaError(f"document has no {name!r} list")
    return rows


def points(doc: Mapping[str, Any]) -> Dict[PointKey, Any]:
    """The document's comparable content, one entry per leaf.

    Raises :class:`UnknownSchemaError` for a missing or unknown ``schema``
    tag, a missing ``config_hash``, a cell that is not ``{axes, metrics}``,
    a check without a name and verdict, and the same point twice.
    """
    if doc.get("schema") != EXPERIMENT_SCHEMA:
        raise UnknownSchemaError(
            f"schema is {doc.get('schema')!r}, not {EXPERIMENT_SCHEMA!r}"
        )
    if not isinstance(doc.get("config_hash"), str) or not doc["config_hash"]:
        raise UnknownSchemaError("document has no 'config_hash'")
    found: List[Tuple[PointKey, Any]] = []
    for i, cell in enumerate(_rows(doc, "cells")):
        axes = cell.get("axes") if isinstance(cell, Mapping) else None
        metrics = cell.get("metrics") if isinstance(cell, Mapping) else None
        if not isinstance(axes, Mapping) or not isinstance(metrics, Mapping):
            raise UnknownSchemaError(f"cells[{i}] is not {{axes, metrics}}")
        key = axes_key(axes)
        found.extend(((key, metric), leaf) for metric, leaf in _leaves("", metrics))
    for i, check in enumerate(_rows(doc, "checks")):
        if not isinstance(check, Mapping) or not {"name", "ok"} <= set(check):
            raise UnknownSchemaError(f"checks[{i}] is not {{name, ok, detail}}")
        found.append((("checks", str(check["name"])), check["ok"]))
    out: Dict[PointKey, Any] = {}
    for point, leaf in found:
        if point in out:
            raise UnknownSchemaError(
                f"the point {_describe(point)} appears twice "
                f"(a repeated axis value?)"
            )
        out[point] = leaf
    return out


def _numeric(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def compare(golden: Mapping[str, Any], fresh: Mapping[str, Any]) -> List[str]:
    """Every difference between two documents, one line each; empty when
    ``fresh`` reproduces ``golden``.

    A leaf or check verdict differs when it is not equal; a moved numeric
    leaf is named with its relative change (none for a move off zero).
    """
    a, b = points(golden), points(fresh)
    out: List[str] = []
    if golden["config_hash"] != fresh["config_hash"]:
        out.append(
            f"config_hash: {golden['config_hash']} -> {fresh['config_hash']} "
            f"(spec or axes changed: regenerate the golden in this PR)"
        )
    out.extend(f"only in golden: {_describe(p)}" for p in sorted(a.keys() - b.keys()))
    out.extend(f"only in fresh: {_describe(p)}" for p in sorted(b.keys() - a.keys()))
    for point in sorted(a.keys() & b.keys()):
        old, new = a[point], b[point]
        if old == new:
            continue
        rel = ""
        if _numeric(old) and _numeric(new) and old:
            rel = f" ({(new - old) / abs(old):+.1%})"
        out.append(f"{_describe(point)}: {old!r} -> {new!r}{rel}")
    return out

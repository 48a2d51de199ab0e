"""The SQLite results store: runs and points.

Layout follows the issue's two-table schema, which is also Beadloom's
shape (an indexed local store, incrementally grown, one row per fact):

- ``run(run_id, created_at, git_sha, schema, config_hash, source, raw)``
  — one row per ingested artifact.  ``run_id`` is the
  :func:`~repro.config.stable_hash` of the artifact document itself, so
  ingestion is idempotent: re-ingesting the same file is a no-op replace,
  never a duplicate.  ``raw`` holds the complete original JSON document,
  which is what makes ingestion *lossless* — anything the flattener does
  not model (embedded telemetry snapshots, future keys) survives verbatim
  and round-trips byte-for-byte through :meth:`ResultStore.raw`.
- ``point(run_id, axes, metric, value)`` — the queryable projection: one
  row per numeric leaf, keyed by a canonical-JSON ``axes`` dict (the
  sweep coordinates: section, system, offered load, policy, …) and a
  metric name.  ``diff``/``gate`` join runs on ``(axes, metric)``.

All writes go through one transaction per run; the connection is opened
lazily and the store is a context manager so CLI one-shots stay tidy.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.config import canonical_payload

_DDL = """
CREATE TABLE IF NOT EXISTS run (
    run_id      TEXT PRIMARY KEY,
    created_at  REAL NOT NULL DEFAULT 0,
    git_sha     TEXT NOT NULL DEFAULT '',
    schema      TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    source      TEXT NOT NULL DEFAULT '',
    raw         TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS point (
    run_id TEXT NOT NULL REFERENCES run(run_id) ON DELETE CASCADE,
    axes   TEXT NOT NULL,
    metric TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, axes, metric)
);
CREATE INDEX IF NOT EXISTS idx_run_baseline ON run(schema, config_hash);
CREATE INDEX IF NOT EXISTS idx_point_metric ON point(metric);
"""


def axes_key(axes: Mapping[str, object]) -> str:
    """Canonical JSON text for an axes dict (the ``point.axes`` column)."""
    return json.dumps(
        canonical_payload(axes), sort_keys=True, separators=(",", ":")
    )


@dataclass(frozen=True)
class Point:
    """One numeric observation at one coordinate of a run's sweep."""

    axes: Mapping[str, object]
    metric: str
    value: float

    @property
    def key(self) -> Tuple[str, str]:
        return (axes_key(self.axes), self.metric)


@dataclass(frozen=True)
class RunRecord:
    """One ingested artifact's identity row."""

    run_id: str
    schema: str
    config_hash: str
    created_at: float = 0.0
    git_sha: str = ""
    source: str = ""
    raw: Mapping[str, object] = field(default_factory=dict)


class AmbiguousRunError(LookupError):
    """A run-id prefix matched more than one stored run."""


class ResultStore:
    """A SQLite-backed store of experiment runs and their metric points."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.executescript(_DDL)
        self._conn.commit()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- writes --------------------------------------------------------------

    def put_run(self, record: RunRecord, points: Iterable[Point]) -> None:
        """Insert (or replace) a run and its full point set atomically."""
        raw_text = json.dumps(record.raw, sort_keys=True, separators=(",", ":"))
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO run "
                "(run_id, created_at, git_sha, schema, config_hash, source, raw)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    record.run_id,
                    record.created_at,
                    record.git_sha,
                    record.schema,
                    record.config_hash,
                    record.source,
                    raw_text,
                ),
            )
            self._conn.execute(
                "DELETE FROM point WHERE run_id = ?", (record.run_id,)
            )
            self._conn.executemany(
                "INSERT INTO point (run_id, axes, metric, value)"
                " VALUES (?, ?, ?, ?)",
                [
                    (record.run_id, axes_key(p.axes), p.metric, float(p.value))
                    for p in points
                ],
            )

    # -- reads ---------------------------------------------------------------

    def resolve(self, prefix: str) -> str:
        """Expand a run-id prefix to the unique full id (error otherwise)."""
        rows = self._conn.execute(
            "SELECT run_id FROM run WHERE run_id LIKE ? ORDER BY run_id",
            (prefix + "%",),
        ).fetchall()
        if not rows:
            raise KeyError(f"no stored run matches {prefix!r}")
        if len(rows) > 1:
            raise AmbiguousRunError(
                f"{prefix!r} matches {len(rows)} runs: "
                + ", ".join(r[0][:12] for r in rows)
            )
        return str(rows[0][0])

    def _record(self, row: sqlite3.Row | Tuple) -> RunRecord:
        run_id, created_at, git_sha, schema, config_hash, source, raw = row
        return RunRecord(
            run_id=run_id,
            created_at=created_at,
            git_sha=git_sha,
            schema=schema,
            config_hash=config_hash,
            source=source,
            raw=json.loads(raw),
        )

    def run(self, run_id: str) -> RunRecord:
        row = self._conn.execute(
            "SELECT run_id, created_at, git_sha, schema, config_hash, "
            "source, raw FROM run WHERE run_id = ?",
            (self.resolve(run_id),),
        ).fetchone()
        return self._record(row)

    def runs(
        self,
        schema: Optional[str] = None,
        config_hash: Optional[str] = None,
    ) -> List[RunRecord]:
        """All stored runs, oldest first, optionally filtered."""
        clauses, params = [], []
        if schema is not None:
            clauses.append("schema = ?")
            params.append(schema)
        if config_hash is not None:
            clauses.append("config_hash = ?")
            params.append(config_hash)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        rows = self._conn.execute(
            "SELECT run_id, created_at, git_sha, schema, config_hash, "
            f"source, raw FROM run{where} ORDER BY created_at, run_id",
            params,
        ).fetchall()
        return [self._record(r) for r in rows]

    def raw(self, run_id: str) -> Mapping[str, object]:
        """The original artifact document, exactly as ingested."""
        return self.run(run_id).raw

    def points(self, run_id: str) -> List[Point]:
        rows = self._conn.execute(
            "SELECT axes, metric, value FROM point WHERE run_id = ?"
            " ORDER BY axes, metric",
            (self.resolve(run_id),),
        ).fetchall()
        return [
            Point(axes=json.loads(axes), metric=metric, value=value)
            for axes, metric, value in rows
        ]

    def metrics(self, run_id: str) -> Dict[Tuple[str, str], float]:
        """The run's points as an ``(axes_json, metric) -> value`` mapping."""
        return {p.key: p.value for p in self.points(run_id)}

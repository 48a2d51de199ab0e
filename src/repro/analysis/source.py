"""Shared source loading for every static pass (parse each file once).

All static analyses — the syntactic AGL lint (:mod:`repro.analysis.lint`)
and the dataflow engine (:mod:`repro.analysis.flow`) — operate on the same
parsed ASTs.  Parsing dominates lint wall time, so a shared
:class:`SourceSession` caches one :class:`SourceFile` (text + AST) per
path and every pass reuses it.  The session also owns the canonical
*display path* (repo-relative where possible) that findings, baselines,
and SARIF locations all key on.
"""

from __future__ import annotations

import ast
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding, shared by all rule packs.

    Ordering is (path, line, col, rule, message) so reports and baselines
    diff cleanly across runs — see ISSUE satellite "deterministic output
    ordering".
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def fingerprint(self) -> str:
        """Stable identity for baseline matching: rule + path + message,
        *excluding* the line number so unrelated edits above a finding do
        not invalidate the baseline entry."""
        blob = f"{self.rule}|{self.path}|{self.message}".encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def display_path(path: Path) -> str:
    """Canonical path for reports: relative to the repo/cwd when possible
    (so ``src/repro/...`` is stable between CI and local runs), else the
    ``src/repro``-anchored suffix, else the absolute path."""
    resolved = path.resolve()
    cwd = Path.cwd().resolve()
    try:
        return resolved.relative_to(cwd).as_posix()
    except ValueError:
        pass
    parts = resolved.parts
    for i in range(len(parts) - 1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return "/".join(parts[i:])
    return resolved.as_posix()


@dataclass
class SourceFile:
    """One parsed source file, shared by every analysis pass."""

    path: Path
    display: str
    text: str
    tree: ast.Module


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` paths."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


class SourceSession:
    """Parse-once AST cache shared across analysis passes.

    Syntax errors become ``AGL000`` findings (recorded once per path) so
    every pass reports them identically without re-parsing.
    """

    def __init__(self) -> None:
        self._cache: Dict[Path, Optional[SourceFile]] = {}
        self.errors: List[Finding] = []
        self.parses = 0

    def load(self, path: Path) -> Optional[SourceFile]:
        key = Path(os.path.normpath(path))
        if key in self._cache:
            return self._cache[key]
        display = display_path(key)
        source: Optional[SourceFile]
        try:
            text = key.read_text(encoding="utf-8")
            tree = ast.parse(text)
            source = SourceFile(path=key, display=display, text=text, tree=tree)
            self.parses += 1
        except SyntaxError as exc:
            self.errors.append(
                Finding(display, exc.lineno or 0, 0, "AGL000",
                        f"syntax error: {exc.msg}")
            )
            source = None
        self._cache[key] = source
        return source

    def files(self, paths: Sequence[str]) -> List[SourceFile]:
        out: List[SourceFile] = []
        for path in iter_python_files(paths):
            source = self.load(path)
            if source is not None:
                out.append(source)
        return out


def dotted_name(node: ast.AST) -> Optional[str]:
    """Reconstruct ``a.b.c`` from a Name/Attribute chain (else None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """The one canonical report order: (path, line, col, rule, message)."""
    return sorted(findings, key=Finding.sort_key)


__all__ = [
    "Finding",
    "SourceFile",
    "SourceSession",
    "display_path",
    "dotted_name",
    "iter_python_files",
    "sort_findings",
]

"""Source loading for the static lint: findings, file discovery, parsing."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding; field order (path, line, col, rule, message) is
    the report order, so reports diff cleanly across runs."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` paths."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def parse_files(
    paths: Sequence[str],
) -> Tuple[List[Tuple[Path, ast.Module]], List[Finding]]:
    """Parse every file under ``paths`` into ``(path, tree)``; a syntax
    error becomes an ``AGL000`` finding instead."""
    files, errors = [], []
    for path in iter_python_files(paths):
        try:
            files.append((path, ast.parse(path.read_text(encoding="utf-8"))))
        except SyntaxError as exc:
            errors.append(
                Finding(path.as_posix(), exc.lineno or 0, 0, "AGL000",
                        f"syntax error: {exc.msg}")
            )
    return files, errors


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

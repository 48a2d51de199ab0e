"""Lock/slot-release path checking and the static lock-order graph (AGL012).

For every function, a forward may-analysis over the CFG tracks the set of
*held resources*: receivers of ``.acquire(...)``
(including the ``yield from`` forms) and the true branch of
``if <recv>.try_acquire(...)`` / loop exit of
``while not <recv>.try_acquire(...)``.  A resource is released by
``.release(...)`` / ``.unpin(...)`` on the same receiver expression.

**AGL012** fires when some *non-exception* path (``ex`` CFG edges are
skipped; paths ending in ``raise`` are exempt) reaches the function exit
with a resource still held — unless ownership escapes the function: the
receiver is returned/yielded, stored into an attribute/container, or
passed to another call.  Escape marks transfer of the release obligation,
the idiom used by ``read_page``-style APIs that hand a pinned line to the
caller.

The same pass records every ``acquire`` performed while other resources
are held, building a **static lock-order graph** (edges ``held ->
acquired`` keyed by receiver expression).  Cycles in that graph are
latent deadlocks and also fire AGL012.  :func:`cross_validate` compares
this graph against the *dynamic* acquisition-order graph that
:class:`repro.analysis.races.LockOrderAnalyzer` builds from a recorded
run: dynamic edges whose normalized lock classes have no static
counterpart indicate the static view is missing a code path (or lock
names do not map onto receiver expressions — the default normalizer
strips indices/digits; pass your own for custom naming schemes).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import (
    Block,
    Cfg,
    Edge,
    ForBind,
    Item,
    Test,
    WithBind,
    build_cfg,
    iter_functions,
)
from repro.analysis.dataflow import Env, ForwardSolver
from repro.analysis.races import simple_cycles
from repro.analysis.source import Finding, SourceFile, dotted_name

ACQUIRE_METHODS = {"acquire"}
TRY_ACQUIRE_METHODS = {"try_acquire"}
RELEASE_METHODS = {"release", "unpin"}

#: Held-resource lattice value: acquire line numbers for the receiver.
Sites = FrozenSet[int]


def _receiver_key(call: ast.Call) -> Optional[str]:
    """Canonical receiver-expression key of a lock-protocol call."""
    if not isinstance(call.func, ast.Attribute):
        return None
    try:
        return ast.unparse(call.func.value)
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return None


def _protocol_call(node: ast.expr) -> Optional[Tuple[str, str, ast.Call]]:
    """Unwrap ``(yield from)? <recv>.<verb>(...)`` into (verb, key, call)."""
    expr = node
    if isinstance(expr, (ast.Await, ast.YieldFrom)):
        expr = expr.value
    if isinstance(expr, ast.Yield) and expr.value is not None:
        expr = expr.value
    if not isinstance(expr, ast.Call) or not isinstance(expr.func, ast.Attribute):
        return None
    verb = expr.func.attr
    if verb not in ACQUIRE_METHODS | TRY_ACQUIRE_METHODS | RELEASE_METHODS:
        return None
    key = _receiver_key(expr)
    if key is None:
        return None
    return verb, key, expr


def _try_acquire_test(expr: ast.expr) -> Optional[Tuple[str, bool]]:
    """Recognize ``<recv>.try_acquire(...)`` tests, possibly negated.
    Returns (receiver key, value-of-branch-that-holds)."""
    negated = False
    while isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        negated = not negated
        expr = expr.operand
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in TRY_ACQUIRE_METHODS
    ):
        key = _receiver_key(expr)
        if key is not None:
            return key, not negated
    return None


def _base_name(key: str) -> Optional[str]:
    """Leftmost identifier of a receiver key (``self.cache.lock`` ->
    ``self``; ``lock`` -> ``lock``)."""
    m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", key)
    return m.group(0) if m else None


@dataclass(frozen=True)
class LockOrderEdge:
    """``held`` was held while ``acquired`` was acquired."""

    held: str
    acquired: str
    path: str
    line: int


@dataclass
class StaticLockGraph:
    """Acquisition-order edges collected across every analyzed function."""

    edges: List[LockOrderEdge] = field(default_factory=list)
    _seen: Set[LockOrderEdge] = field(default_factory=set)

    def add(self, edge: LockOrderEdge) -> None:
        if edge not in self._seen:
            self._seen.add(edge)
            self.edges.append(edge)

    def edge_pairs(self) -> Set[Tuple[str, str]]:
        return {(e.held, e.acquired) for e in self.edges}

    def cycles(self) -> List[List[str]]:
        """Canonicalized simple cycles — same contract as the dynamic
        analyzer's."""
        return simple_cycles(self.edge_pairs())

    def to_dict(self) -> Dict[str, object]:
        return {
            "edges": [
                {
                    "held": e.held,
                    "acquired": e.acquired,
                    "path": e.path,
                    "line": e.line,
                }
                for e in sorted(
                    self.edges, key=lambda e: (e.path, e.line, e.held, e.acquired)
                )
            ],
            "cycles": self.cycles(),
        }


def default_normalizer(name: str) -> str:
    """Map a lock/receiver name to a coarse lock class: strip digits,
    indexing, and whitespace (``self.locks[i]`` ~ ``self.locks``;
    ``line3.lock`` ~ ``line.lock``)."""
    name = re.sub(r"\[[^\]]*\]", "", name)
    name = re.sub(r"[0-9]+", "", name)
    return name.replace(" ", "")


def cross_validate(
    static: StaticLockGraph,
    dynamic_edges: Iterable[Tuple[str, str]],
    normalize=default_normalizer,
) -> List[str]:
    """Dynamic acquisition-order edges (from
    :meth:`LockOrderAnalyzer.edge_pairs`) with no static counterpart,
    after normalization — each is a code path the static graph missed."""
    static_classes = {
        (normalize(a), normalize(b)) for a, b in static.edge_pairs()
    }
    missing: Set[Tuple[str, str]] = set()
    for a, b in dynamic_edges:
        pair = (normalize(a), normalize(b))
        if pair not in static_classes:
            missing.add(pair)
    return [f"{a} -> {b}" for a, b in sorted(missing)]


class _FunctionLockFlow:
    def __init__(
        self,
        file: SourceFile,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        order_graph: StaticLockGraph,
    ):
        self.file = file
        self.fn = fn
        self.order_graph = order_graph
        self.findings: List[Finding] = []

    # -- escape analysis ------------------------------------------------------

    def _escaped_bases(self) -> Set[str]:
        """Base variable names whose ownership leaves this function:
        returned, yielded, stored into attributes/containers, or passed as
        a call argument (lock-protocol calls themselves excluded)."""
        escaped: Set[str] = set()

        def names_in(expr: Optional[ast.expr]) -> Set[str]:
            if expr is None:
                return set()
            return {
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            }

        for node in ast.walk(self.fn):
            if isinstance(node, ast.Return):
                escaped |= names_in(node.value)
            elif isinstance(node, ast.Yield):
                escaped |= names_in(node.value)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for tgt in targets:
                    if isinstance(tgt, (ast.Attribute, ast.Subscript)):
                        value = (
                            node.value if node.value is not None else None
                        )
                        escaped |= names_in(value)
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr
                    in ACQUIRE_METHODS | TRY_ACQUIRE_METHODS | RELEASE_METHODS
                ):
                    continue
                for arg in node.args:
                    escaped |= names_in(arg)
                for kw in node.keywords:
                    escaped |= names_in(kw.value)
        return escaped

    # -- driver ---------------------------------------------------------------

    def run(self) -> List[Finding]:
        graph = build_cfg(self.fn)
        #: Receiver key -> names its acquire result was bound to (the
        #: pinned-line hand-off idiom: releasing via the returned token).
        result_names: Dict[str, Set[str]] = {}

        def transfer(env: Env[Sites], item: Item) -> Env[Sites]:
            exprs: List[ast.expr] = []
            bound: List[str] = []
            if isinstance(item, ast.Expr):
                exprs.append(item.value)
            elif isinstance(item, ast.Assign):
                exprs.append(item.value)
                bound = [
                    t.id for t in item.targets if isinstance(t, ast.Name)
                ]
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                exprs.append(item.value)
                if isinstance(item.target, ast.Name):
                    bound = [item.target.id]
            elif isinstance(item, ast.Return) and item.value is not None:
                exprs.append(item.value)
            for expr in exprs:
                proto = _protocol_call(expr)
                if proto is not None:
                    verb, key, call = proto
                    if verb in ACQUIRE_METHODS:
                        for held in sorted(env):
                            if env[held] and held != key:
                                self.order_graph.add(
                                    LockOrderEdge(
                                        held=held,
                                        acquired=key,
                                        path=self.file.display,
                                        line=call.lineno,
                                    )
                                )
                        env[key] = frozenset(
                            set(env.get(key, frozenset())) | {call.lineno}
                        )
                        result_names.setdefault(key, set()).update(bound)
                    elif verb in RELEASE_METHODS:
                        env[key] = frozenset()
                        # Releasing via the bound token also discharges the
                        # receiver it came from: `cache.unpin(line)` after
                        # `line = cache.acquire(...)`.
                        for arg in call.args:
                            if isinstance(arg, ast.Name):
                                for rkey, names in result_names.items():
                                    if arg.id in names:
                                        env[rkey] = frozenset()
            return env

        def edge_transfer(env: Env[Sites], block: Block, edge: Edge) -> Env[Sites]:
            if not block.items:
                return env
            last = block.items[-1]
            if not isinstance(last, Test):
                return env
            hit = _try_acquire_test(last.expr)
            if hit is None:
                return env
            key, true_holds = hit
            holds = (edge.kind == "true") == true_holds
            if edge.kind in ("true", "false"):
                if holds:
                    line = getattr(last.expr, "lineno", last.node.lineno)
                    env[key] = frozenset(
                        set(env.get(key, frozenset())) | {line}
                    )
                else:
                    env[key] = frozenset()
            return env

        solver: ForwardSolver[Sites] = ForwardSolver(
            graph,
            transfer=transfer,
            join_value=lambda a, b: a | b,
            edge_transfer=edge_transfer,
            follow_exceptional=False,
        )
        block_in = solver.solve({})
        exit_env = block_in.get(graph.exit.id)
        if not exit_env:
            return self.findings
        escaped = self._escaped_bases()
        for key in sorted(exit_env):
            sites = exit_env[key]
            if not sites:
                continue
            base = _base_name(key)
            if base is not None and base in escaped:
                continue
            if result_names.get(key, set()) & escaped:
                continue  # release obligation handed off with the token
            for line in sorted(sites):
                self.findings.append(
                    Finding(
                        self.file.display,
                        line,
                        0,
                        "AGL012",
                        f"{key}.acquire in {self.fn.name}() is not released "
                        f"on every non-exception path to function exit "
                        f"(missing {key}.release/unpin or ownership "
                        f"hand-off)",
                    )
                )
        return self.findings


def analyze_lockflow(
    files: Sequence[SourceFile],
) -> Tuple[List[Finding], StaticLockGraph]:
    """Run AGL012 over the given files; also returns the static
    lock-order graph (cycle findings included in the list)."""
    findings: List[Finding] = []
    graph = StaticLockGraph()
    for f in files:
        for fn in iter_functions(f.tree):
            findings.extend(_FunctionLockFlow(f, fn, graph).run())
    for cycle in graph.cycles():
        sites = [e for e in graph.edges if e.held == cycle[0]]
        site = min(sites, key=lambda e: (e.path, e.line)) if sites else None
        findings.append(
            Finding(
                site.path if site else (files[0].display if files else "?"),
                site.line if site else 0,
                0,
                "AGL012",
                f"static lock-order cycle: {' -> '.join(cycle)} (latent "
                f"deadlock; acquire in a consistent global order)",
            )
        )
    return findings, graph


__all__ = [
    "LockOrderEdge",
    "StaticLockGraph",
    "analyze_lockflow",
    "cross_validate",
    "default_normalizer",
]

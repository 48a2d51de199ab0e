"""Unit-consistency checking (AGL011).

The repository encodes physical units in names — ``*_ns`` (simulated
nanoseconds), ``*_bytes``, ``*_pages``, ``*_cycles`` — and the scheduler
API is unit-blind (``schedule_at(when)`` takes a float).  A pages value
added to a nanoseconds value is silently wrong by orders of magnitude and
only shows up as a bogus latency curve.  This pack infers a small unit
lattice from naming conventions, propagates it flow-sensitively through
local assignments, and flags:

- ``a + b`` / ``a - b`` / comparisons where both sides have *different*
  known units (multiplication and division are conversions and exempt);
- assigning a value of known unit ``V`` to a name declaring unit ``U``;
- unit-less numeric literals passed directly as scheduler delays
  (``timeout(200.0)``): implicit nanoseconds that should be bound to a
  ``*_ns`` name or config field first.

Names containing ``_per_`` are ratios (``bytes_per_ns``) and stay
un-united; so do ``*_ns``-suffixed conversion factors used purely in
multiplication.  Soundness caveat: attributes are inferred from the final
name segment only (``cfg.read_lat_ns`` -> ns), and unknown units never
fire — the pack under-approximates.
"""

from __future__ import annotations

import ast
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cfg import ForBind, Item, Test, WithBind, build_cfg, iter_functions
from repro.analysis.dataflow import Env, ForwardSolver
from repro.analysis.source import Finding, SourceFile, dotted_name


class Unit(Enum):
    NS = "ns"
    BYTES = "bytes"
    PAGES = "pages"
    CYCLES = "cycles"
    UNKNOWN = "?"

    def __str__(self) -> str:
        return self.value


_SUFFIXES: Tuple[Tuple[str, Unit], ...] = (
    ("_ns", Unit.NS),
    ("_bytes", Unit.BYTES),
    ("_pages", Unit.PAGES),
    ("_cycles", Unit.CYCLES),
)

_EXACT: Dict[str, Unit] = {
    "now": Unit.NS,
    "when": Unit.NS,
    "deadline": Unit.NS,
    "nbytes": Unit.BYTES,
    "page_size": Unit.BYTES,
    "num_pages": Unit.PAGES,
    "n_pages": Unit.PAGES,
    "npages": Unit.PAGES,
}

_PREFIXES: Tuple[Tuple[str, Unit], ...] = (("lat_", Unit.NS),)

#: Scheduler-delay sinks: (callee name, indices of delay arguments).
_DELAY_SINKS: Dict[str, Tuple[int, ...]] = {
    "schedule_at": (0,),
    "timeout": (0,),
    "Timeout": (0,),
    "At": (0,),
}


def unit_of_name(name: str) -> Unit:
    """Infer the unit a bare identifier declares, from the conventions
    above.  Ratio names (``*_per_*``) and everything unmatched are
    UNKNOWN."""
    if "_per_" in name:
        return Unit.UNKNOWN
    exact = _EXACT.get(name)
    if exact is not None:
        return exact
    for suffix, unit in _SUFFIXES:
        if name.endswith(suffix):
            return unit
    for prefix, unit in _PREFIXES:
        if name.startswith(prefix):
            return unit
    return Unit.UNKNOWN


def _join(a: Unit, b: Unit) -> Unit:
    return a if a == b else Unit.UNKNOWN


class _FunctionUnits:
    """One function's flow-sensitive unit pass."""

    def __init__(self, file: SourceFile, fn: ast.FunctionDef | ast.AsyncFunctionDef):
        self.file = file
        self.fn = fn
        self.findings: List[Finding] = []
        self._seen: set[Tuple[int, int, str]] = set()

    def add(self, node: ast.AST, message: str) -> None:
        key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0), message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Finding(self.file.display, key[0], key[1], "AGL011", message)
        )

    # -- expression unit inference -------------------------------------------

    def unit_of(self, node: Optional[ast.expr], env: Env[Unit],
                reporting: bool) -> Unit:
        if node is None:
            return Unit.UNKNOWN
        if isinstance(node, ast.Name):
            env_unit = env.get(node.id, Unit.UNKNOWN)
            if env_unit is not Unit.UNKNOWN:
                return env_unit
            return unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return unit_of_name(node.attr)
        if isinstance(node, ast.Constant):
            return Unit.UNKNOWN
        if isinstance(node, ast.BinOp):
            left = self.unit_of(node.left, env, reporting)
            right = self.unit_of(node.right, env, reporting)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                if (
                    reporting
                    and left is not Unit.UNKNOWN
                    and right is not Unit.UNKNOWN
                    and left is not right
                ):
                    self.add(
                        node,
                        f"mixed-unit arithmetic: {ast.unparse(node.left)} "
                        f"[{left}] {'+' if isinstance(node.op, ast.Add) else '-'} "
                        f"{ast.unparse(node.right)} [{right}]",
                    )
                if left is right:
                    return left
                # unit + unitless keeps the unit (e.g. `now + 5`): the
                # unit-less-delay rule fires at sinks, not here.
                if left is Unit.UNKNOWN:
                    return right
                if right is Unit.UNKNOWN:
                    return left
                return Unit.UNKNOWN
            if isinstance(node.op, ast.Mod):
                return left
            # *, /, //, **: conversions; result unit unknown.
            return Unit.UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand, env, reporting)
        if isinstance(node, ast.IfExp):
            return _join(
                self.unit_of(node.body, env, reporting),
                self.unit_of(node.orelse, env, reporting),
            )
        if isinstance(node, ast.Compare):
            left_unit = self.unit_of(node.left, env, reporting)
            for comparator in node.comparators:
                right_unit = self.unit_of(comparator, env, reporting)
                if (
                    reporting
                    and left_unit is not Unit.UNKNOWN
                    and right_unit is not Unit.UNKNOWN
                    and left_unit is not right_unit
                ):
                    self.add(
                        node,
                        f"mixed-unit comparison: {ast.unparse(node.left)} "
                        f"[{left_unit}] vs {ast.unparse(comparator)} "
                        f"[{right_unit}]",
                    )
                left_unit = right_unit
            return Unit.UNKNOWN
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.unit_of(node.value, env, reporting)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.unit_of(node.value, env, reporting)
            return Unit.UNKNOWN
        if isinstance(node, ast.Call):
            self._check_call(node, env, reporting)
            func_name = (
                node.func.id
                if isinstance(node.func, ast.Name)
                else node.func.attr
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if func_name in ("min", "max", "abs", "round", "int", "float", "sum"):
                unit = Unit.UNKNOWN
                for a in node.args:
                    unit = (
                        self.unit_of(a, env, reporting)
                        if unit is Unit.UNKNOWN
                        else unit
                    )
                return unit
            if func_name is not None:
                return unit_of_name(func_name)
            return Unit.UNKNOWN
        return Unit.UNKNOWN

    def _check_call(self, call: ast.Call, env: Env[Unit], reporting: bool) -> None:
        if not reporting:
            return
        func_name = (
            call.func.id
            if isinstance(call.func, ast.Name)
            else call.func.attr
            if isinstance(call.func, ast.Attribute)
            else None
        )
        # Keyword delays: any *_ns-named keyword is self-documenting.
        if func_name in _DELAY_SINKS:
            dotted = dotted_name(call.func) or func_name
            for index in _DELAY_SINKS[func_name]:
                if index >= len(call.args):
                    continue
                arg = call.args[index]
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, (int, float))
                    and not isinstance(arg.value, bool)
                    and arg.value != 0
                ):
                    self.add(
                        arg,
                        f"unit-less constant {arg.value!r} as {dotted}() "
                        f"delay; bind it to a *_ns name or config field",
                    )
                else:
                    unit = self.unit_of(arg, env, False)
                    if unit not in (Unit.NS, Unit.UNKNOWN):
                        self.add(
                            arg,
                            f"{dotted}() delay has unit [{unit}], expected "
                            f"nanoseconds",
                        )

    # -- driver ---------------------------------------------------------------

    def run(self) -> List[Finding]:
        graph = build_cfg(self.fn)

        def assign(env: Env[Unit], target: ast.expr, value_unit: Unit,
                   reporting: bool) -> None:
            if isinstance(target, ast.Name):
                declared = unit_of_name(target.id)
                if (
                    reporting
                    and declared is not Unit.UNKNOWN
                    and value_unit is not Unit.UNKNOWN
                    and declared is not value_unit
                ):
                    self.add(
                        target,
                        f"assigning [{value_unit}] value to {target.id} "
                        f"[{declared}]",
                    )
                env[target.id] = (
                    declared if declared is not Unit.UNKNOWN else value_unit
                )
            elif isinstance(target, ast.Attribute):
                declared = unit_of_name(target.attr)
                if (
                    reporting
                    and declared is not Unit.UNKNOWN
                    and value_unit is not Unit.UNKNOWN
                    and declared is not value_unit
                ):
                    self.add(
                        target,
                        f"assigning [{value_unit}] value to attribute "
                        f"{target.attr} [{declared}]",
                    )
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    assign(env, elt, Unit.UNKNOWN, reporting)

        def transfer(env: Env[Unit], item: Item, reporting: bool) -> Env[Unit]:
            if isinstance(item, ast.Assign):
                unit = self.unit_of(item.value, env, reporting)
                for tgt in item.targets:
                    assign(env, tgt, unit, reporting)
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                assign(
                    env, item.target,
                    self.unit_of(item.value, env, reporting), reporting,
                )
            elif isinstance(item, ast.AugAssign):
                value_unit = self.unit_of(item.value, env, reporting)
                if isinstance(item.target, (ast.Name, ast.Attribute)):
                    target_unit = self.unit_of(item.target, env, False)
                    if (
                        reporting
                        and isinstance(item.op, (ast.Add, ast.Sub))
                        and target_unit is not Unit.UNKNOWN
                        and value_unit is not Unit.UNKNOWN
                        and target_unit is not value_unit
                    ):
                        self.add(
                            item,
                            f"mixed-unit arithmetic: "
                            f"{ast.unparse(item.target)} [{target_unit}] "
                            f"+= ... [{value_unit}]",
                        )
            elif isinstance(item, ast.Expr):
                self.unit_of(item.value, env, reporting)
            elif isinstance(item, ast.Return):
                self.unit_of(item.value, env, reporting)
            elif isinstance(item, Test):
                self.unit_of(item.expr, env, reporting)
            elif isinstance(item, ForBind):
                self.unit_of(item.iter, env, reporting)
                # Loop elements: unknown unit unless the name declares one.
                if isinstance(item.target, ast.Name):
                    env[item.target.id] = unit_of_name(item.target.id)
            elif isinstance(item, WithBind):
                self.unit_of(item.ctx, env, reporting)
            return env

        init: Env[Unit] = {}
        for arg in self.fn.args.posonlyargs + self.fn.args.args:
            unit = unit_of_name(arg.arg)
            if unit is not Unit.UNKNOWN:
                init[arg.arg] = unit
        solver: ForwardSolver[Unit] = ForwardSolver(
            graph,
            transfer=lambda env, item: transfer(env, item, reporting=False),
            join_value=_join,
        )
        solver.solve(init)
        solver.sweep(lambda env, _b, item: transfer(env, item, reporting=True))
        return self.findings


def analyze_units(files: Sequence[SourceFile]) -> List[Finding]:
    """Run AGL011 over the given files."""
    findings: List[Finding] = []
    for f in files:
        for fn in iter_functions(f.tree):
            findings.extend(_FunctionUnits(f, fn).run())
    return findings


__all__ = ["Unit", "analyze_units", "unit_of_name"]

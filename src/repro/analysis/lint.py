"""AST-based simulation-safety lint (``python -m repro.analysis.lint``).

A discrete-event simulation has correctness rules ordinary linters do not
know about; this one enforces the repository's:

- **AGL001** — no wall-clock reads (``time.time``, ``time.monotonic``,
  ``datetime.now``, ...) outside ``bench/``: simulated components must
  derive every timestamp from ``sim.now`` or results silently depend on
  host speed.
- **AGL002** — no unseeded/global randomness (``random`` module,
  ``np.random.<fn>``, bare ``np.random.default_rng()``) outside ``bench/``
  and ``rng.py``: all stochastic behaviour must flow through the named
  :class:`~repro.sim.rng.RngStreams` so runs are bit-reproducible.
- **AGL003** — no blocking host calls (``time.sleep``, ``subprocess``,
  ``socket``, ``input``, ...) inside generator processes: a real block
  inside a simulated process freezes the event loop instead of advancing
  simulated time.
- **AGL006** — no calls to scheduler internals (``._schedule``,
  ``._enqueue``, ``._schedule_resume``, ``._schedule_throw``, ``._step_send``,
  ``._step_throw``) outside ``sim/engine.py``: model code must go through
  the narrow scheduler-facing API (``schedule_immediate`` /
  ``schedule_at`` / ``spawn`` / event triggers) so the engine's dispatch
  fast path stays the single owner of queue and sequence-number state.
- **AGL007** — no ad-hoc stats-dict mutations (``stats[...] = ...``,
  ``self.stats = {}``/``defaultdict(...)``) outside ``telemetry/``: every
  metric flows through the typed :mod:`repro.telemetry` instruments
  (``Counter.add`` / ``Gauge.set`` / ``Histogram.observe``) so the unified
  registry stays the single source of truth for ``stats()`` snapshots,
  experiment documents, and the Chrome-trace exporters.
- **AGL008** — serving-request terminal states (``COMPLETED`` / ``SHED`` /
  ``ABORTED``) may only be assigned to ``state``/``status`` attributes via
  the serve state machine (``Request.transition`` in
  ``serve/request.py``): ad-hoc terminal mutations would bypass the
  legal-transition check and the exactly-one-terminal accounting the SLO
  reports and property tests rely on.
- **AGL009** — no iteration (``for``, comprehension, ``sum()``) over a
  ``set``/``frozenset``/set display and no ``.popitem()``: that order is a
  hash-seed or allocator accident and becomes the order of same-instant
  events.  Iterate ``sorted(...)`` or ``dict.fromkeys(...)``.
- **AGL011** — no bare non-zero literal as the whole delay of ``Timeout``/
  ``At``/``timeout``/``schedule_at``: name it (``*_ns``, config field).
- **AGL013** — no hand-rolled device-index arithmetic (``x % num_ssds``,
  ``x % len(cfg.ssds)``, ...) outside ``repro/placement/``: the host's
  :class:`~repro.placement.PlacementPolicy` is the one logical-to-physical
  address map, and every ``(ssd_idx, device_lba)`` coordinate comes from
  it (``host.placement.place``), so an array-layout change is a policy
  swap, not a grep across every workload.
- **AGL014** — no direct mutation of the flash page store (``._pages``
  assignment, ``del``, or mutator calls like ``.pop()``/``.update()``)
  outside ``repro/nvme/ftl.py``: the FTL owns physical page contents, and
  every change must flow through its program/invalidate/erase paths so
  the L2P map, per-block valid counts, and the WAF/conservation ledger
  (``host_programs + gc_programs + seeded_pages - invalidations ==
  live_pages``) cannot drift from the stored bytes.
- **AGL015** — tenant classes come from the registry
  (``serve/registry.py``): no ``RequestClass(...)`` construction and no
  string-literal label passed to ``tenant_class(...)`` anywhere else.
  Ad-hoc classes and free-floating label strings drift from the
  registry's canonical names, and the tenancy layer (WFQ shares, SLO
  reports, store axes) joins on those names — a typo would silently
  become a new tenant instead of an error.

Exit status is 0 when clean, 1 when any violation is found.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis.source import Finding, dotted_name, parse_files

WALLCLOCK_CALLS = {
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

BLOCKING_CALLS = {"time.sleep", "os.system", "input", "breakpoint"}
BLOCKING_PREFIXES = ("subprocess.", "socket.", "requests.", "urllib.")

#: ``np.random.<fn>`` calls that hit numpy's unseeded global state.
UNSEEDED_NP_FUNCS = {
    "rand", "randn", "random", "randint", "random_sample", "choice",
    "shuffle", "permutation", "seed", "bytes", "normal", "uniform",
}

#: Engine-private scheduling entry points (AGL006).  Only sim/engine.py may
#: touch these; everything else uses the narrow scheduler-facing API.
SCHEDULER_INTERNALS = {
    "_schedule",
    "_enqueue",
    "_schedule_resume",
    "_schedule_throw",
    "_step_send",
    "_step_throw",
}

#: Attribute/variable names that hold metric state (AGL007): mutating them
#: as raw dicts bypasses the typed :mod:`repro.telemetry` registry.
STATS_DICT_NAMES = {"stats", "_stats", "counters", "_counters"}

#: Constructors whose result, assigned to a stats-named attribute, is an
#: ad-hoc metrics dict (AGL007).
DICT_CONSTRUCTORS = {"dict", "defaultdict", "collections.defaultdict"}

#: Serving-request terminal state names (AGL008): assigning one of these
#: enum members to a state/status attribute outside the serve state machine
#: bypasses Request.transition's legality and accounting guarantees.
SERVE_TERMINAL_NAMES = {"COMPLETED", "SHED", "ABORTED"}

#: Attribute names AGL008 guards against ad-hoc terminal assignment.
STATE_ATTR_NAMES = {"state", "_state", "status", "_status"}

#: Names that hold an SSD-array size (AGL013): ``x % <one of these>``
#: fabricates a device index by hand, bypassing the placement layer.
SSD_COUNT_NAMES = {"num_ssds", "n_ssds", "nssds", "ssd_count", "num_devices"}

#: The FTL's physical page store attribute (AGL014) and the dict methods
#: that mutate it in place.
PAGE_STORE_NAME = "_pages"
PAGE_STORE_MUTATORS = {"pop", "popitem", "update", "setdefault", "clear"}

#: Tenant-class construction entry points (AGL015): ``RequestClass`` may
#: only be constructed in the registry, and ``tenant_class`` must be
#: called with a registry constant, never a string literal.
TENANT_CLASS_CTOR = "RequestClass"
TENANT_CLASS_FACTORY = "tenant_class"

#: Callables whose first argument is a simulated delay or instant (AGL011).
DELAY_CALLS = {"Timeout", "At", "timeout", "schedule_at"}


def _is_generator(fn: ast.AST) -> bool:
    """True if the function's own body (not nested defs) yields."""
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom))
        for n in _own_nodes(fn)
    )


def _own_nodes(fn: ast.AST) -> Iterable[ast.AST]:
    """Nodes belonging to ``fn`` itself, not to nested function defs."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _FileLinter:
    def __init__(self, path: Path, tree: ast.Module):
        self.path = path
        self.display = path.as_posix()
        self.tree = tree
        self.violations: List[Finding] = []
        parts = path.as_posix().split("/")
        #: ``bench`` measures host wall time legitimately; ``rng.py`` is
        #: the seeded-stream factory itself.  Seeded calls like
        #: ``np.random.default_rng(seed)`` pass everywhere.
        self.wallclock_ok = "bench" in parts
        self.random_ok = "bench" in parts or path.name == "rng.py"
        #: The engine owns its queues; everyone else uses the narrow API.
        self.scheduler_internals_ok = (
            path.name == "engine.py" and "sim" in parts
        )
        #: The telemetry spine owns metric storage; everyone else uses its
        #: typed instruments.
        self.stats_dict_ok = "telemetry" in parts
        #: The serve state machine is the single legal mutation point for
        #: request terminal states.
        self.serve_state_ok = path.name == "request.py" and "serve" in parts
        #: The placement package owns logical->physical mapping arithmetic.
        self.placement_ok = "placement" in parts
        #: The FTL owns the flash page store; everyone else reads pages
        #: through FlashArray/Ftl accessors and writes via programs.
        self.page_store_ok = path.name == "ftl.py" and "nvme" in parts
        #: The tenant registry is the single place classes are minted and
        #: labels are spelled out.
        self.tenant_registry_ok = (
            path.name == "registry.py" and "serve" in parts
        )

    def add(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            Finding(
                self.display, getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0), code, message,
            )
        )

    def run(self) -> List[Finding]:
        imports_random = any(
            isinstance(n, ast.Import)
            and any(a.name == "random" for a in n.names)
            or isinstance(n, ast.ImportFrom) and n.module == "random"
            for n in ast.walk(self.tree)
        )
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_call(node, imports_random)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._check_stats_mutation(node)
                self._check_terminal_state_mutation(node)
                self._check_page_store_mutation(node)
            elif isinstance(node, ast.Delete):
                self._check_page_store_mutation(node)
            elif isinstance(node, ast.BinOp):
                self._check_device_index_arith(node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                self._check_unordered(node.iter, "iteration")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_generator(node):
                    self._check_generator(node)
        return self.violations

    # -- rules -----------------------------------------------------------------

    def _check_call(self, node: ast.Call, imports_random: bool) -> None:
        if (
            not self.scheduler_internals_ok
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in SCHEDULER_INTERNALS
        ):
            self.add(
                node, "AGL006",
                f"call to scheduler internal .{node.func.attr}() outside "
                f"sim/engine.py; use schedule_immediate/schedule_at/spawn "
                f"or trigger an Event",
            )
        if (
            not self.page_store_ok
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PAGE_STORE_MUTATORS
            and self._bare_name(node.func.value) == PAGE_STORE_NAME
        ):
            self.add(
                node, "AGL014",
                f"flash page-store mutator _pages.{node.func.attr}() "
                f"outside repro/nvme/ftl.py; page contents change only "
                f"through the FTL's program/invalidate/erase paths",
            )
        self._check_tenant_class(node)
        name = self._bare_name(node.func)
        first = node.args[0] if node.args else None
        if name == "popitem":
            self.add(node, "AGL009", "popitem() picks by insertion accident")
        elif name == "sum":
            self._check_unordered(first, "sum()")
        elif name in DELAY_CALLS and isinstance(first, ast.Constant) and (
            type(first.value) in (int, float) and first.value
        ):
            self.add(
                first, "AGL011",
                f"unit-less constant {first.value!r} as {name}() delay; bind "
                f"it to a *_ns name or config field",
            )
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if not self.wallclock_ok and dotted in WALLCLOCK_CALLS:
            self.add(
                node, "AGL001",
                f"wall-clock call {dotted}() in simulated code; derive "
                f"time from sim.now",
            )
        if not self.random_ok:
            if imports_random and (
                dotted.startswith("random.") or dotted == "random"
            ):
                self.add(
                    node, "AGL002",
                    f"stdlib random call {dotted}() bypasses the seeded "
                    f"RngStreams",
                )
            tail = dotted.split(".")
            if len(tail) >= 2 and tail[-2] == "random" and tail[0] in (
                "np", "numpy"
            ):
                fn = tail[-1]
                if fn in UNSEEDED_NP_FUNCS:
                    self.add(
                        node, "AGL002",
                        f"unseeded numpy global RNG call {dotted}()",
                    )
                elif fn == "default_rng" and not (node.args or node.keywords):
                    self.add(
                        node, "AGL002",
                        "np.random.default_rng() without a seed is "
                        "non-reproducible",
                    )

    def _check_unordered(self, node: Optional[ast.AST], what: str) -> None:
        """AGL009: ``node`` is about to be walked in order."""
        if isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call)
            and self._bare_name(node.func) in ("set", "frozenset")
        ):
            self.add(
                node, "AGL009",
                f"{what} over a set: the order is a hash-seed or allocator "
                f"accident; use sorted(...) or dict.fromkeys(...)",
            )

    def _check_tenant_class(self, node: ast.Call) -> None:
        """AGL015: tenant classes are minted only in serve/registry.py,
        and call sites name them with registry constants, not strings."""
        if self.tenant_registry_ok:
            return
        func_name = self._bare_name(node.func)
        if func_name == TENANT_CLASS_CTOR:
            self.add(
                node, "AGL015",
                "RequestClass(...) constructed outside serve/registry.py; "
                "mint tenant classes with tenant_class(<REGISTRY_CONSTANT>, "
                "...) so names stay canonical",
            )
        elif func_name == TENANT_CLASS_FACTORY and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                self.add(
                    node, "AGL015",
                    f"string-literal tenant label {first.value!r} passed to "
                    f"tenant_class(); use the registry constant so typos "
                    f"fail at import, not at join time",
                )

    def _check_generator(self, fn: ast.AST) -> None:
        for node in _own_nodes(fn):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                if dotted in BLOCKING_CALLS or dotted.startswith(
                    BLOCKING_PREFIXES
                ):
                    self.add(
                        node, "AGL003",
                        f"blocking call {dotted}() inside generator process "
                        f"{fn.name!r} freezes the event loop; yield a "
                        f"Timeout instead",
                    )

    def _check_stats_mutation(self, node: ast.Assign | ast.AugAssign) -> None:
        if self.stats_dict_ok:
            return
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for tgt in targets:
            if isinstance(tgt, ast.Subscript):
                name = self._bare_name(tgt.value)
                if name in STATS_DICT_NAMES:
                    self.add(
                        tgt, "AGL007",
                        f"ad-hoc stats-dict mutation {name}[...]; use a "
                        f"typed repro.telemetry instrument "
                        f"(Counter.add/Gauge.set/Histogram.observe)",
                    )
            elif isinstance(node, ast.Assign) and isinstance(
                tgt, (ast.Attribute, ast.Name)
            ):
                name = self._bare_name(tgt)
                if name in STATS_DICT_NAMES and self._is_dict_expr(node.value):
                    self.add(
                        tgt, "AGL007",
                        f"{name} assigned a raw dict; metric state belongs "
                        f"in the repro.telemetry registry (trace.group / "
                        f"registry.counter)",
                    )

    def _check_terminal_state_mutation(
        self, node: ast.Assign | ast.AugAssign
    ) -> None:
        """AGL008: terminal request states flow only through the serve
        state machine (``Request.transition``)."""
        if self.serve_state_ok or isinstance(node, ast.AugAssign):
            return
        value = node.value
        if not (
            isinstance(value, ast.Attribute)
            and value.attr in SERVE_TERMINAL_NAMES
        ):
            return
        for tgt in node.targets:
            name = self._bare_name(tgt)
            if name in STATE_ATTR_NAMES:
                self.add(
                    tgt, "AGL008",
                    f"ad-hoc terminal-state assignment {name} = "
                    f"...{value.attr}; request terminal states may only be "
                    f"set via Request.transition (serve/request.py)",
                )

    def _check_page_store_mutation(
        self, node: ast.Assign | ast.AugAssign | ast.Delete
    ) -> None:
        """AGL014: flash page contents change only inside the FTL, where
        the L2P map and the WAF/conservation ledger move with them."""
        if self.page_store_ok:
            return
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            targets = [node.target]
        for tgt in targets:
            if isinstance(tgt, ast.Subscript):
                name = self._bare_name(tgt.value)
                shape = f"{name}[...]"
            else:
                name = self._bare_name(tgt)
                shape = f"{name} = ..."
            if name == PAGE_STORE_NAME:
                self.add(
                    tgt, "AGL014",
                    f"direct flash page-store mutation ({shape}) outside "
                    f"repro/nvme/ftl.py; page contents change only through "
                    f"the FTL's program/invalidate/erase paths",
                )

    def _check_device_index_arith(self, node: ast.BinOp) -> None:
        """AGL013: physical device indices come from a PlacementPolicy,
        never from modulo arithmetic on the array size."""
        if self.placement_ok or not isinstance(node.op, ast.Mod):
            return
        divisor = node.right
        name = self._bare_name(divisor)
        offender: Optional[str] = None
        if name in SSD_COUNT_NAMES:
            offender = name
        elif (
            isinstance(divisor, ast.Call)
            and dotted_name(divisor.func) == "len"
            and len(divisor.args) == 1
        ):
            arg = dotted_name(divisor.args[0])
            if arg is not None and arg.split(".")[-1] == "ssds":
                offender = f"len({arg})"
        if offender is not None:
            self.add(
                node, "AGL013",
                f"hand-rolled device index (modulo by {offender}) outside "
                f"repro/placement/; resolve coordinates through the "
                f"host's PlacementPolicy (host.placement.place)",
            )

    @staticmethod
    def _bare_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    @staticmethod
    def _is_dict_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            return dotted in DICT_CONSTRUCTORS
        return False


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint files/directories (a syntax error is an ``AGL000`` finding).
    Output is sorted by (path, line, col, rule) so reports diff cleanly."""
    files, violations = parse_files(paths)
    for path, tree in files:
        violations.extend(_FileLinter(path, tree).run())
    return sorted(violations)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="AGILE simulation-safety lint",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    args = parser.parse_args(argv)
    violations = lint_paths(args.paths)
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("simulation-safety lint: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

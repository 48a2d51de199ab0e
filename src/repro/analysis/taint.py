"""Determinism taint analysis (AGL009/AGL010).

Flow-sensitive, interprocedural-by-summary taint tracking of values that
can differ between two runs of the same seed:

- **value nondeterminism** (``nd`` labels): ``id()``, ``hash()``,
  ``dict.popitem()``, ``set.pop()``, wall-clock reads, unseeded RNG calls,
  ``os.urandom``/``uuid`` — anything whose *value* is not a pure function
  of the seed;
- **order nondeterminism** (``set`` / ``ord`` labels): iterating a
  ``set``/``frozenset`` binds loop variables in an interpreter-dependent
  order; ``sorted()`` (and ``min``/``max``) launder it.

**AGL009** fires when a tainted value reaches a determinism-critical sink:
scheduler delays and callback arguments (``schedule_at`` /
``schedule_immediate`` / ``timeout`` / ``Timeout`` / ``At``), event
payloads (``.trigger`` / ``.succeed``), or :class:`~repro.sim.rng.RngStreams`
seeds and stream names.  Scheduling *from inside* unordered iteration also
fires: same-time events are FIFO by sequence number, so insertion order is
observable.

**AGL010** fires on order-dependent float accumulation: ``acc += f(x)``
(or ``acc = acc + ...`` / ``sum(...)``) over an unordered collection —
non-associative floating-point reduction makes the total depend on
iteration order even though the element set is deterministic.

Interprocedural: every function in the analyzed set gets a summary
(labels of its return value as a function of its parameters, plus which
parameters it forwards into sinks), iterated to a fixed point over the
name-resolved call graph, so a leak through one or more helper levels —
invisible to the syntactic AGL001/AGL002 rules — is still caught at the
call site.  Calls that cannot be uniquely resolved by name propagate
their arguments' value labels and are otherwise assumed benign
(documented unsoundness; see DESIGN.md).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import ForBind, Item, Test, WithBind, build_cfg, iter_functions
from repro.analysis.dataflow import Env, ForwardSolver
from repro.analysis.source import Finding, SourceFile, dotted_name

# Label kinds: ("nd", desc) value nondeterminism; ("set", desc) unordered
# collection; ("ord", desc) value bound by unordered iteration;
# ("param", index) symbolic parameter taint for summaries.
Label = Tuple[str, object]
Taint = FrozenSet[Label]

EMPTY: Taint = frozenset()

#: Wall-clock/value-entropy sources by dotted call name.
ND_CALLS: Dict[str, str] = {
    "time.time": "wall clock (time.time)",
    "time.monotonic": "wall clock (time.monotonic)",
    "time.perf_counter": "wall clock (time.perf_counter)",
    "time.perf_counter_ns": "wall clock (time.perf_counter_ns)",
    "time.process_time": "wall clock (time.process_time)",
    "datetime.now": "wall clock (datetime.now)",
    "datetime.utcnow": "wall clock (datetime.utcnow)",
    "datetime.datetime.now": "wall clock (datetime.now)",
    "datetime.datetime.utcnow": "wall clock (datetime.utcnow)",
    "os.urandom": "os.urandom",
    "uuid.uuid1": "uuid.uuid1",
    "uuid.uuid4": "uuid.uuid4",
    "secrets.token_bytes": "secrets",
    "secrets.token_hex": "secrets",
    "secrets.randbelow": "secrets",
}

#: ``np.random.<fn>`` functions that hit the unseeded global generator.
UNSEEDED_NP_FUNCS = {
    "rand", "randn", "random", "randint", "random_sample", "choice",
    "shuffle", "permutation", "bytes", "normal", "uniform",
}

#: Scheduler/event/seed sinks by (attribute or bare) callee name.
SINKS: Dict[str, str] = {
    "schedule_at": "schedule_at() delay/argument",
    "schedule_immediate": "schedule_immediate() argument",
    "timeout": "timeout() delay",
    "Timeout": "Timeout() delay",
    "At": "At() wake time",
    "trigger": "event payload (.trigger)",
    "succeed": "event payload (.succeed)",
    "RngStreams": "RngStreams seed",
    "fork": "RngStreams.fork salt",
    "stream": "RngStreams stream name",
}

#: Sinks that are order-sensitive even for deterministic values: same-time
#: events dispatch FIFO by insertion sequence, so *calling* them in an
#: unordered-iteration order is observable.
ORDER_SENSITIVE_SINKS = {
    "schedule_at", "schedule_immediate", "timeout", "Timeout", "At",
    "trigger", "succeed",
}

#: Receiver-method calls that *must not* resolve to repo functions (they
#: are protocol verbs on many classes).
_NEVER_RESOLVE = set(SINKS) | {"pop", "popitem", "get", "add", "append"}


def _kinds(taint: Taint) -> Set[str]:
    return {kind for kind, _ in taint}


def _strip(taint: Taint, *kinds: str) -> Taint:
    return frozenset(lb for lb in taint if lb[0] not in kinds)


def _descs(taint: Taint, kind: str) -> List[str]:
    return sorted(str(desc) for k, desc in taint if k == kind)


@dataclass(frozen=True)
class Summary:
    """Interprocedural function summary."""

    #: Labels of the return value; ``("param", i)`` means "whatever the
    #: i-th argument carried".
    return_labels: Taint = EMPTY
    #: Parameter index -> sink description it (transitively) reaches.
    sink_params: Tuple[Tuple[int, str], ...] = ()


@dataclass
class FunctionInfo:
    name: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    file: SourceFile
    params: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        args = self.node.args
        self.params = [a.arg for a in args.posonlyargs + args.args]
        if self.params and self.params[0] in ("self", "cls"):
            self.params = self.params[1:]

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


class TaintAnalyzer:
    """AGL009/AGL010 over a set of parsed files."""

    MAX_ROUNDS = 8

    def __init__(self, files: Sequence[SourceFile]):
        self.files = list(files)
        self.functions: List[FunctionInfo] = []
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        for f in self.files:
            for fn in iter_functions(f.tree):
                qual = f"{f.display}:{fn.name}:{fn.lineno}"
                info = FunctionInfo(fn.name, qual, fn, f)
                self.functions.append(info)
                self._by_name.setdefault(fn.name, []).append(info)
        self.summaries: Dict[str, Summary] = {
            info.qualname: Summary() for info in self.functions
        }

    # -- public ---------------------------------------------------------------

    def run(self) -> List[Finding]:
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for info in self.functions:
                summary, _ = self._analyze(info, emit=False)
                if summary != self.summaries[info.qualname]:
                    self.summaries[info.qualname] = summary
                    changed = True
            if not changed:
                break
        findings: List[Finding] = []
        for info in self.functions:
            _, found = self._analyze(info, emit=True)
            findings.extend(found)
        return findings

    # -- resolution -----------------------------------------------------------

    def _resolve(self, func: ast.expr) -> Optional[FunctionInfo]:
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None or name in _NEVER_RESOLVE:
            return None
        candidates = self._by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- per-function analysis ------------------------------------------------

    def _analyze(
        self, info: FunctionInfo, emit: bool
    ) -> Tuple[Summary, List[Finding]]:
        graph = build_cfg(info.node)
        findings: List[Finding] = []
        return_labels: Set[Label] = set()
        sink_params: Dict[int, str] = {}
        seen: Set[Tuple[int, int, str, str]] = set()
        display = info.file.display

        def add_finding(node: ast.AST, rule: str, message: str) -> None:
            key = (
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                rule,
                message,
            )
            if key in seen:
                return
            seen.add(key)
            findings.append(Finding(display, key[0], key[1], rule, message))

        def record_sink_param(index: int, desc: str) -> None:
            sink_params.setdefault(index, desc)

        def eval_expr(
            node: Optional[ast.expr], env: Env[Taint], reporting: bool
        ) -> Taint:
            if node is None:
                return EMPTY
            if isinstance(node, ast.Name):
                return env.get(node.id, EMPTY)
            if isinstance(node, ast.Constant):
                return EMPTY
            if isinstance(node, ast.Call):
                return eval_call(node, env, reporting)
            if isinstance(node, ast.BinOp):
                return eval_expr(node.left, env, reporting) | eval_expr(
                    node.right, env, reporting
                )
            if isinstance(node, ast.BoolOp):
                out: Taint = EMPTY
                for v in node.values:
                    out |= eval_expr(v, env, reporting)
                return out
            if isinstance(node, ast.UnaryOp):
                return eval_expr(node.operand, env, reporting)
            if isinstance(node, ast.Compare):
                out = eval_expr(node.left, env, reporting)
                for c in node.comparators:
                    out |= eval_expr(c, env, reporting)
                return out
            if isinstance(node, ast.IfExp):
                return (
                    eval_expr(node.test, env, reporting)
                    | eval_expr(node.body, env, reporting)
                    | eval_expr(node.orelse, env, reporting)
                )
            if isinstance(node, (ast.Set,)):
                out = frozenset({("set", "set literal")})
                for e in node.elts:
                    out |= eval_expr(e, env, reporting)
                return out
            if isinstance(node, (ast.List, ast.Tuple)):
                out = EMPTY
                for e in node.elts:
                    out |= eval_expr(e, env, reporting)
                return out
            if isinstance(node, ast.Dict):
                out = EMPTY
                for v in node.values:
                    out |= eval_expr(v, env, reporting)
                return out
            if isinstance(node, ast.Subscript):
                return eval_expr(node.value, env, reporting) | eval_expr(
                    node.slice, env, reporting
                )
            if isinstance(node, ast.Starred):
                return eval_expr(node.value, env, reporting)
            if isinstance(node, ast.Attribute):
                # Attribute loads are untracked state (no heap model); the
                # receiver's labels do not transfer to the attribute value.
                return EMPTY
            if isinstance(node, (ast.SetComp, ast.ListComp, ast.GeneratorExp)):
                return eval_comp(node, env, reporting)
            if isinstance(node, ast.DictComp):
                scratch = bind_comp(node.generators, env, reporting)
                return eval_expr(node.key, scratch, reporting) | eval_expr(
                    node.value, scratch, reporting
                )
            if isinstance(node, (ast.Await, ast.YieldFrom)):
                return eval_expr(node.value, env, reporting)
            if isinstance(node, ast.Yield):
                if node.value is not None:
                    eval_expr(node.value, env, reporting)
                return EMPTY
            if isinstance(node, ast.JoinedStr):
                out = EMPTY
                for v in node.values:
                    if isinstance(v, ast.FormattedValue):
                        out |= eval_expr(v.value, env, reporting)
                return out
            if isinstance(node, ast.NamedExpr):
                val = eval_expr(node.value, env, reporting)
                if isinstance(node.target, ast.Name):
                    env[node.target.id] = val
                return val
            if isinstance(node, ast.Lambda):
                return EMPTY
            return EMPTY

        def element_labels(iter_taint: Taint) -> Taint:
            """Labels a loop variable inherits from its iterable: value
            labels pass through; ``set`` order labels become ``ord``."""
            out = set(_strip(iter_taint, "set"))
            for kind, desc in iter_taint:
                if kind == "set":
                    out.add(("ord", desc))
            return frozenset(out)

        def bind_comp(
            generators: Sequence[ast.comprehension],
            env: Env[Taint],
            reporting: bool,
        ) -> Env[Taint]:
            scratch = dict(env)
            for gen in generators:
                it = eval_expr(gen.iter, scratch, reporting)
                bind_target(gen.target, element_labels(it), scratch)
                for if_ in gen.ifs:
                    eval_expr(if_, scratch, reporting)
            return scratch

        def eval_comp(
            node: ast.SetComp | ast.ListComp | ast.GeneratorExp,
            env: Env[Taint],
            reporting: bool,
        ) -> Taint:
            scratch = bind_comp(node.generators, env, reporting)
            out = eval_expr(node.elt, scratch, reporting)
            if isinstance(node, ast.SetComp):
                out |= frozenset({("set", "set comprehension")})
            else:
                # Order of a list/generator built from a set is itself
                # unordered: keep the iterable's set labels.
                for gen in node.generators:
                    out |= frozenset(
                        lb
                        for lb in eval_expr(gen.iter, env, reporting)
                        if lb[0] == "set"
                    )
            return out

        def bind_target(
            target: ast.expr, taint: Taint, env: Env[Taint]
        ) -> None:
            if isinstance(target, ast.Name):
                env[target.id] = taint
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    bind_target(elt, taint, env)
            elif isinstance(target, ast.Starred):
                bind_target(target.value, taint, env)
            # Attribute/Subscript stores leave the (untracked) heap alone.

        def check_sink(
            call: ast.Call,
            sink_name: str,
            sink_desc: str,
            env: Env[Taint],
            reporting: bool,
        ) -> None:
            order_sensitive = sink_name in ORDER_SENSITIVE_SINKS
            args: List[Tuple[str, ast.expr]] = [
                (f"argument {i + 1}", a) for i, a in enumerate(call.args)
            ] + [(f"argument {kw.arg!r}", kw.value) for kw in call.keywords]
            for pos, arg in args:
                taint = eval_expr(arg, env, reporting)
                if not reporting:
                    for kind, desc in taint:
                        if kind == "param" and isinstance(desc, int):
                            record_sink_param(desc, sink_desc)
                    continue
                nd = _descs(taint, "nd")
                if nd:
                    add_finding(
                        call, "AGL009",
                        f"nondeterministic value ({nd[0]}) flows into "
                        f"{sink_desc} ({pos})",
                    )
                elif order_sensitive and _descs(taint, "ord"):
                    add_finding(
                        call, "AGL009",
                        f"{sink_desc} ({pos}) depends on iteration order of "
                        f"an unordered collection "
                        f"({_descs(taint, 'ord')[0]}); same-time events "
                        f"dispatch in insertion order",
                    )

        def eval_call(
            call: ast.Call, env: Env[Taint], reporting: bool
        ) -> Taint:
            dotted = dotted_name(call.func)
            bare = (
                call.func.id
                if isinstance(call.func, ast.Name)
                else call.func.attr
                if isinstance(call.func, ast.Attribute)
                else None
            )
            arg_taint: Taint = EMPTY
            for a in call.args:
                arg_taint |= eval_expr(a, env, reporting)
            for kw in call.keywords:
                arg_taint |= eval_expr(kw.value, env, reporting)
            recv_taint: Taint = EMPTY
            if isinstance(call.func, ast.Attribute):
                recv_taint = eval_expr(call.func.value, env, reporting)

            # -- sources -----------------------------------------------------
            if bare == "id" and isinstance(call.func, ast.Name):
                return frozenset({("nd", "id()")})
            if bare == "hash" and isinstance(call.func, ast.Name):
                return arg_taint | frozenset(
                    {("nd", "hash() (PYTHONHASHSEED-dependent)")}
                )
            if bare == "popitem":
                return frozenset({("nd", "dict.popitem()")})
            if (
                bare == "pop"
                and not call.args
                and not call.keywords
                and "set" in _kinds(recv_taint)
            ):
                return frozenset({("nd", "set.pop()")})
            if dotted is not None:
                if dotted in ND_CALLS:
                    return frozenset({("nd", ND_CALLS[dotted])})
                parts = dotted.split(".")
                if dotted.startswith("random.") or dotted == "random":
                    return frozenset({("nd", f"unseeded {dotted}()")})
                if (
                    len(parts) >= 2
                    and parts[-2] == "random"
                    and parts[0] in ("np", "numpy")
                ):
                    if parts[-1] in UNSEEDED_NP_FUNCS:
                        return frozenset({("nd", f"unseeded {dotted}()")})
                    if parts[-1] == "default_rng" and not (
                        call.args or call.keywords
                    ):
                        return frozenset(
                            {("nd", "np.random.default_rng() without seed")}
                        )

            # -- constructors / launderers ----------------------------------
            if bare in ("set", "frozenset") and isinstance(call.func, ast.Name):
                return arg_taint | frozenset({("set", f"{bare}()")})
            if bare == "sorted" and isinstance(call.func, ast.Name):
                return _strip(arg_taint, "set", "ord")
            if bare in ("min", "max") and isinstance(call.func, ast.Name):
                return _strip(arg_taint, "set", "ord")
            if bare == "sum" and isinstance(call.func, ast.Name):
                if reporting and call.args:
                    first = eval_expr(call.args[0], env, reporting)
                    if "set" in _kinds(first):
                        add_finding(
                            call, "AGL010",
                            f"sum() over an unordered collection "
                            f"({_descs(first, 'set')[0]}): float accumulation "
                            f"order is nondeterministic; sort first",
                        )
                return _strip(arg_taint, "set", "ord")
            if bare in ("len", "range", "bool", "isinstance") and isinstance(
                call.func, ast.Name
            ):
                return EMPTY
            if bare in ("list", "tuple", "iter", "reversed", "enumerate"):
                # Materializing an unordered collection keeps its order taint.
                return arg_taint

            # -- sinks -------------------------------------------------------
            if bare in SINKS:
                is_rng_method = bare in ("fork", "stream")
                plausible = True
                if is_rng_method:
                    # Only treat .fork/.stream as RngStreams when the
                    # receiver looks like an RNG factory (rng/streams name).
                    recv = dotted_name(call.func.value) or ""
                    leaf = recv.split(".")[-1]
                    plausible = "rng" in leaf or "stream" in leaf
                if plausible:
                    check_sink(call, bare, SINKS[bare], env, reporting)
                return EMPTY if bare != "stream" else recv_taint

            # -- interprocedural via summaries -------------------------------
            callee = self._resolve(call.func)
            if callee is not None:
                summary = self.summaries.get(callee.qualname, Summary())
                # Map arguments onto callee parameter positions.
                arg_by_index: Dict[int, ast.expr] = {}
                for i, a in enumerate(call.args):
                    arg_by_index[i] = a
                for kw in call.keywords:
                    if kw.arg is not None:
                        idx = callee.param_index(kw.arg)
                        if idx is not None:
                            arg_by_index[idx] = kw.value
                for idx, desc in summary.sink_params:
                    arg = arg_by_index.get(idx)
                    if arg is None:
                        continue
                    taint = eval_expr(arg, env, reporting)
                    if not reporting:
                        for kind, d in taint:
                            if kind == "param" and isinstance(d, int):
                                record_sink_param(d, desc)
                        continue
                    nd = _descs(taint, "nd")
                    ords = _descs(taint, "ord")
                    if nd or ords:
                        what = nd[0] if nd else f"iteration order: {ords[0]}"
                        add_finding(
                            call, "AGL009",
                            f"nondeterministic value ({what}) reaches "
                            f"{desc} via {callee.name}()",
                        )
                result: Set[Label] = set()
                for kind, desc in summary.return_labels:
                    if kind == "param" and isinstance(desc, int):
                        arg = arg_by_index.get(desc)
                        if arg is not None:
                            result |= eval_expr(arg, env, reporting)
                    else:
                        result.add((kind, desc))
                return frozenset(result)

            # Unknown call: propagate value labels of inputs, assume the
            # result is an ordered value (documented unsoundness).
            return _strip(arg_taint | recv_taint, "set")

        # -- transfer -----------------------------------------------------------

        def transfer(env: Env[Taint], item: Item, reporting: bool) -> Env[Taint]:
            if isinstance(item, ForBind):
                it = eval_expr(item.iter, env, reporting)
                bind_target(item.target, element_labels(it), env)
                return env
            if isinstance(item, WithBind):
                val = eval_expr(item.ctx, env, reporting)
                if item.target is not None:
                    bind_target(item.target, val, env)
                return env
            if isinstance(item, Test):
                eval_expr(item.expr, env, reporting)
                return env
            if isinstance(item, ast.Assign):
                val = eval_expr(item.value, env, reporting)
                for tgt in item.targets:
                    bind_target(tgt, val, env)
                return env
            if isinstance(item, ast.AnnAssign):
                if item.value is not None:
                    bind_target(
                        item.target, eval_expr(item.value, env, reporting), env
                    )
                return env
            if isinstance(item, ast.AugAssign):
                val = eval_expr(item.value, env, reporting)
                if isinstance(item.target, ast.Name):
                    prior = env.get(item.target.id, EMPTY)
                    env[item.target.id] = prior | val
                if (
                    reporting
                    and isinstance(item.op, (ast.Add, ast.Sub))
                    and not isinstance(item.value, ast.Constant)
                    and _descs(val, "ord")
                ):
                    tgt = ast.unparse(item.target)
                    add_finding(
                        item, "AGL010",
                        f"order-dependent accumulation: {tgt} += value bound "
                        f"by iterating an unordered collection "
                        f"({_descs(val, 'ord')[0]}); float accumulation is "
                        f"not associative — iterate sorted(...) instead",
                    )
                return env
            if isinstance(item, ast.Return):
                labels = eval_expr(item.value, env, reporting)
                return_labels.update(labels)
                return env
            if isinstance(item, ast.Expr):
                eval_expr(item.value, env, reporting)
                return env
            if isinstance(item, (ast.Assert, ast.Delete)):
                return env
            if isinstance(item, ast.Raise):
                if item.exc is not None:
                    eval_expr(item.exc, env, reporting)
                return env
            return env

        init: Env[Taint] = {
            name: frozenset({("param", i)})
            for i, name in enumerate(info.params)
        }
        solver: ForwardSolver[Taint] = ForwardSolver(
            graph,
            transfer=lambda env, item: transfer(env, item, reporting=False),
            join_value=lambda a, b: a | b,
        )
        solver.solve(init)
        # `acc = acc + x` order-dependence needs the Assign case too:
        def report(env: Env[Taint], _block: object, item: Item) -> Env[Taint]:
            if emit and isinstance(item, ast.Assign):
                tgt_names = {
                    t.id for t in item.targets if isinstance(t, ast.Name)
                }
                used = {
                    n.id
                    for n in ast.walk(item.value)
                    if isinstance(n, ast.Name)
                }
                if tgt_names & used and isinstance(item.value, ast.BinOp):
                    val = eval_expr(item.value, dict(env), False)
                    if _descs(val, "ord"):
                        name = sorted(tgt_names & used)[0]
                        add_finding(
                            item, "AGL010",
                            f"order-dependent accumulation: {name} = {name} "
                            f"+ ... over an unordered collection "
                            f"({_descs(val, 'ord')[0]}); iterate "
                            f"sorted(...) instead",
                        )
            return transfer(env, item, reporting=emit)

        return_labels.clear()
        sink_params.clear()
        solver.sweep(report)
        summary = Summary(
            return_labels=frozenset(return_labels),
            sink_params=tuple(sorted(sink_params.items())),
        )
        return summary, findings


def analyze_taint(files: Sequence[SourceFile]) -> List[Finding]:
    """Run AGL009/AGL010 over the given files."""
    return TaintAnalyzer(files).run()


__all__ = ["TaintAnalyzer", "Summary", "analyze_taint"]

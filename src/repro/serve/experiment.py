"""One experiment runner: a fixed machine crossed with a few axes.

Every result in this repo is the same object — EagleTree's experiment
template: a frozen ``spec``, a handful of ordered ``axes``, one metrics
mapping per cell of their cross product, a few derived rows (knees,
speedups, headlines, summaries) and pass/fail ``checks``.
:class:`Experiment` is that object, declared as data; the definitions
live beside what they run — the serving matrices in
:mod:`repro.serve.sweep`, :mod:`repro.serve.writepath` and
:mod:`repro.serve.tenancy`, the paper figures and ablations in
:mod:`repro.bench.figures`, the chaos storms in :mod:`repro.faults.storm`
— and ``python -m repro.bench list|run`` fronts all of them.

A cell is anything that returns a metrics mapping: ``build(spec, cell)``
hands back the cell's zero-argument :data:`Runner`.  The serving
experiments build theirs with :func:`serve_runner` over a
:class:`CellPlan`; :func:`run_cell` is the only ``backend ->
load_pattern -> ServeEngine.run()`` body in ``src/``, so every serve
cell, and every entry point the perf harness times, goes through it.

Every experiment emits one document shape (``agile-experiment/1``, see
``schemas/agile-experiment-1.schema.json``): a header, ``cells``
(``{axes, metrics}``; derived rows are cells too, told apart by their
axes) and ``checks`` (``{name, ok, detail}``).  Documents are pure
functions of ``(spec, axes)`` plus the commit stamp, so two runs on one
checkout write byte-identical files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.config import SystemConfig, canonical_payload, stable_hash
from repro.serve.arrival import ArrivalProcess
from repro.serve.backends import (
    AgileServeBackend,
    BamServeBackend,
    NaiveServeBackend,
    ServeBackend,
)
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.request import RequestClass
from repro.serve.slo import ServeReport
from repro.serve.wfq import TenancyConfig

BACKENDS = {
    cls.system: cls
    for cls in (AgileServeBackend, BamServeBackend, NaiveServeBackend)
}
SYSTEMS = tuple(BACKENDS)

#: One cell of a document: ``{"axes": {...}, "metrics": {...}}``.
Cell = Dict[str, Dict[str, Any]]
#: One check of a document: ``{"name": ..., "ok": ..., "detail": ...}``.
Check = Dict[str, Any]
#: Simulates one cell and returns its metrics.
Runner = Callable[[], Mapping[str, Any]]
Arrivals = Dict[str, ArrivalProcess]


class ExperimentError(ValueError):
    """An experiment was asked for something it cannot run; the message
    names the experiment and the axis (or spec field) at fault."""


@dataclass(frozen=True)
class CellPlan:
    """Everything one cell serves: machine, tenants, traffic, engine knobs."""

    system: str
    config: SystemConfig
    classes: Sequence[RequestClass]
    #: Builds the arrival map from the backend once its pattern is loaded
    #: (traces that resolve placement need ``backend.place``).
    arrivals: Callable[[ServeBackend], Arrivals]
    serve: ServeConfig


def build_backend(system: str, cfg: Optional[SystemConfig] = None) -> ServeBackend:
    if system not in BACKENDS:
        raise ValueError(f"unknown serve system {system!r} (want one of {SYSTEMS})")
    return BACKENDS[system](cfg)


def serve_config(spec: Any, tenancy: Optional[TenancyConfig] = None) -> ServeConfig:
    """The engine knobs every experiment spec carries under the same names."""
    return ServeConfig(
        duration_ns=spec.duration_ns,
        admission_capacity=spec.admission_capacity,
        batch=BatchPolicy(max_batch=spec.max_batch, max_wait_ns=spec.max_wait_ns),
        tenancy=tenancy,
    )


def run_cell(plan: CellPlan) -> ServeReport:
    """Serve one cell on a fresh machine (the arrival timeline is a pure
    function of the plan, so equal plans give bit-equal reports)."""
    backend = build_backend(plan.system, plan.config)
    backend.load_pattern(plan.classes)
    report = ServeEngine(
        backend,
        plan.classes,
        plan.arrivals(backend),
        plan.serve,
        seed=plan.config.seed,
    ).run()
    # The cell is over: what is still scheduled (a background GC pass)
    # goes now, so the machine is freed on return, not at a GC pass.
    backend.sim.close()
    return report


def serve_runner(plan: CellPlan, keep: Tuple[str, ...] = ()) -> Runner:
    """The runner of a serve cell: its full report, or only the
    :class:`~repro.serve.slo.ServeReport` attributes named in ``keep``."""

    def run() -> Mapping[str, Any]:
        report = run_cell(plan)
        if not keep:
            return report.as_dict()
        return {name: getattr(report, name) for name in keep}

    return run


def knee_rps(cells: Iterable[Cell]) -> float:
    """The saturation knee of one curve: the highest offered load whose
    goodput still tracks the offered line (>= 90 %).  Past the knee,
    goodput flattens or collapses while tail latency climbs."""
    knee = 0.0
    for cell in cells:
        target, m = cell["axes"]["target_rps"], cell["metrics"]
        if target > 0 and m["goodput_rps"] >= 0.9 * m["offered_rps"]:
            knee = max(knee, target)
    return knee


def pivot(cells: Sequence[Cell], axis: str) -> Dict[Tuple, Dict[Any, Cell]]:
    """Group the cells that carry ``axis`` by their other axes:
    ``{other axes (as items): {axis value: cell}}``."""
    groups: Dict[Tuple, Dict[Any, Cell]] = {}
    for cell in cells:
        if axis in cell["axes"]:
            rest = tuple((k, v) for k, v in cell["axes"].items() if k != axis)
            groups.setdefault(rest, {})[cell["axes"][axis]] = cell
    return groups


def knee_cells(cells: Sequence[Cell]) -> List[Cell]:
    """One ``knee_rps`` row per curve (cells that differ only in
    ``target_rps``), keyed by the curve's remaining axes."""
    return [
        {"axes": dict(rest), "metrics": {"knee_rps": knee_rps(curve.values())}}
        for rest, curve in pivot(cells, "target_rps").items()
    ]


def _no_rows(spec: Any, cells: Sequence[Cell]) -> List[Any]:
    return []


def _replace_path(spec: Any, path: Sequence[str], text: str) -> Any:
    """``spec`` with the (dotted) field at ``path`` parsed from ``text``."""
    head, rest = path[0], path[1:]
    if not is_dataclass(spec) or head not in {f.name for f in fields(spec)}:
        raise KeyError(head)
    current = getattr(spec, head)
    if rest:
        value = _replace_path(current, rest, text)
    elif is_dataclass(current):
        raise ValueError("is a nested spec; set one of its fields (a.b=value)")
    else:
        value = type(current)(text)
    return replace(spec, **{head: value})


@dataclass(frozen=True)
class Experiment:
    """A declarative experiment: what is fixed, what is crossed, how one
    cell is built, and what is derived and claimed from the results.

    ``derive`` and ``checks`` see only plain cells, so both can be
    re-evaluated over a stored document.
    """

    name: str
    help: str
    spec: Any
    #: Ordered axes and their default values; the cells are their cross
    #: product and ``build(spec, cell)`` gets one point of it.
    axes: Mapping[str, Tuple]
    build: Callable[[Any, Mapping[str, Any]], Runner]
    #: Axes pinned to a single value and left out of the cells' ``axes``.
    pinned: Tuple[str, ...] = ()
    #: Legal values of the categorical (string) axes that accept more than
    #: their defaults.
    choices: Mapping[str, Tuple] = field(default_factory=dict)
    derive: Callable[[Any, Sequence[Cell]], List[Cell]] = _no_rows
    checks: Callable[[Any, Sequence[Cell]], List[Check]] = _no_rows
    #: What ``--quick`` means, in ``--set`` syntax (``key=v1,v2``).
    quick: Tuple[str, ...] = ()

    def configure(
        self, sets: Sequence[str] = (), quick: bool = False
    ) -> Tuple[Any, Dict[str, Tuple]]:
        """``(spec, axes)`` after ``--quick`` and ``--set key=v1,v2``
        overrides.  A key names an axis (comma list) or a spec field (one
        value; ``a.b`` reaches into a nested spec)."""
        spec, axes = self.spec, dict(self.axes)
        for item in (*(self.quick if quick else ()), *sets):
            key, eq, text = item.partition("=")
            try:
                if not eq:
                    raise ValueError("want key=value")
                if key in axes:
                    kind = type(self.axes[key][0])
                    axes[key] = tuple(kind(tok) for tok in text.split(",") if tok)
                else:
                    spec = _replace_path(spec, key.split("."), text)
            except KeyError:
                raise ExperimentError(
                    f"{self.name}: no axis or spec field {key!r} "
                    f"(axes: {', '.join(axes)})"
                ) from None
            except (TypeError, ValueError) as exc:
                raise ExperimentError(f"{self.name}: {key!r}: {exc}") from None
        return spec, axes

    def config_hash(self, spec: Any, axes: Mapping[str, Tuple]) -> str:
        return stable_hash({"experiment": self.name, "spec": spec, "axes": axes})

    def plans(
        self, spec: Any, axes: Mapping[str, Tuple]
    ) -> List[Tuple[Dict[str, Any], Runner]]:
        """Validate every axis and build every cell's runner — all of it
        before the first cell is simulated."""
        if set(axes) != set(self.axes):
            raise ExperimentError(f"{self.name}: axes are {tuple(self.axes)}")
        for key, values in axes.items():
            if not values or (key in self.pinned and len(values) > 1):
                raise ExperimentError(
                    f"{self.name}: axis {key!r} needs "
                    f"{'exactly one value' if key in self.pinned else 'a value'}"
                )
            if len(set(values)) != len(values):
                raise ExperimentError(
                    f"{self.name}: axis {key!r} repeats a value in {values}"
                )
            legal = self.choices.get(key, self.axes[key])
            bad = [v for v in values if isinstance(v, str) and v not in legal]
            if bad:
                raise ExperimentError(
                    f"{self.name}: axis {key!r}: unknown value {bad[0]!r} "
                    f"(want one of {tuple(legal)})"
                )
        out = []
        for values in itertools.product(*axes.values()):
            cell = dict(zip(axes, values))
            shown = {k: v for k, v in cell.items() if k not in self.pinned}
            try:
                out.append((shown, self.build(spec, cell)))
            except ValueError as exc:
                raise ExperimentError(f"{self.name}: cell {shown}: {exc}") from exc
        return out

    def run(
        self,
        spec: Any = None,
        axes: Optional[Mapping[str, Tuple]] = None,
        on_cell: Callable[[Cell], None] = lambda cell: None,
    ) -> Dict[str, Any]:
        """Run every cell and return the ``agile-experiment/1`` document."""
        from repro.store.meta import experiment_document

        spec = self.spec if spec is None else spec
        axes = {**self.axes, **(axes or {})}
        cells: List[Cell] = []
        for cell_axes, runner in self.plans(spec, axes):
            cells.append(
                {"axes": cell_axes, "metrics": canonical_payload(runner())}
            )
            on_cell(cells[-1])
        for cell in self.derive(spec, cells):
            cells.append(cell)
            on_cell(cell)
        return experiment_document(
            self.name,
            self.config_hash(spec, axes),
            cells,
            self.checks(spec, cells),
            spec=canonical_payload(spec),
            axes={key: list(values) for key, values in axes.items()},
        )

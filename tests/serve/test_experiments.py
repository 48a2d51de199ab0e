"""Every registered experiment, at a mini spec, through the one runner.

What each experiment used to assert per runner (and each paper figure per
``benchmarks/`` file) is asserted once here: bit-deterministic documents,
a config hash that tracks every override, one store point per numeric
leaf, schema-valid output, checks that all pass on honest metrics and all
flip (with the CLI exit code) when the metrics are falsified, axes
rejected before the first cell is simulated, and a ``replay:`` line that
reproduces the document.
"""

from __future__ import annotations

import copy
import json
import shlex
from dataclasses import fields, is_dataclass

import jsonschema
import pytest

from repro.bench.__main__ import EXPERIMENTS, main
from repro.serve.experiment import Experiment
from repro.serve.registry import INFER

from tests.store.helpers import SCHEMA, point_set, reference_points
from tests.support.census import census
from tests.support.legal import ends, past

#: Seconds-not-minutes variants, in ``--set`` syntax; every item moves the
#: experiment off its default so the config hash must track it.
MINI = {
    "serve-sweep": [
        "duration_ns=1e6", "system=agile,bam", "target_rps=20000",
    ],
    "placement-smoke": [
        "duration_ns=1e6", "lba_space=256", "target_rps=400000",
        "policy=shard,striped",
    ],
    "write-path": [
        "duration_ns=4e6", "table_pages=64", "modify_space=48",
        "read_space=64", "device_pages=128", "cache_lines=8",
        "target_rps=20000",
    ],
    # Overloaded enough (and the fifo queue deep enough) that the calm
    # cell's interference headline genuinely holds.
    "tenancy": [
        "rate_rps=500000", "duration_ns=1.5e6", "cache_lines=32",
        "admission_capacity=384", "train_space=256", "kv.num_slots=4",
        "kv.blocks_per_seq=8", "kv.events=64", "ckpt.table_pages=32",
        "ckpt.shard_pages=2", "vsearch.num_nodes=64",
        "vsearch.num_queries=8", "mix=inference_heavy", "placement=striped",
        "storm=none",
    ],
    # The paper figures: the cheapest sizes at which every ported claim
    # still holds on honest metrics (so TAMPER can show each one flip).
    "fig4": ["ctc=0.25,0.9", "requests=4"],
    "fig5": ["total_requests=1792"],
    "fig6": ["total_requests=1024"],
    "fig7": ["features=4"],
    "fig8": ["batch=4,128", "features=4"],
    "fig9": ["queue_pairs=1,4", "epochs=2", "features=4"],
    "fig10": ["cache_lines=96,2048", "epochs=2", "features=4"],
    "fig11": ["n_vertices=128", "degree=4"],
    "fig12": ["kernel=service,spmv,bfs,vector_mean"],
    "abl-coalescing": ["epochs=2", "features=4"],
    "abl-policies": ["data_pages=256"],
    "abl-dram-tier": ["data_pages=256"],
    "abl-polling-warps": ["total_requests=512", "polling_warps=1,4"],
    "storm": ["seed=2", "threads=8", "requests=3", "ssds=3"],
    "pe-storm": ["seed=2", "threads=8", "requests=4"],
}

def _set(**forced):
    """A tamper that overwrites the named metrics of every cell (``a__b``
    reaches ``metrics["a"]["b"]``)."""

    def tamper(axes, metrics):
        for path, value in forced.items():
            *nest, leaf = path.split("__")
            target = metrics
            for key in nest:
                target = target[key]
            target[leaf] = value
        return metrics

    return tamper


def _total_ns(total):
    """A tamper that replaces each cell's ``total_ns`` by ``total(axes)``."""
    return lambda axes, metrics: {**metrics, "total_ns": float(total(axes))}


def _slow_async(axes):
    return 2.0 if axes["system"] == "agile_async" else 1.0


#: One falsification per experiment that claims something, applied to every
#: cell's metrics; it must flip every check the honest run passes.
TAMPER = {
    "placement-smoke": _set(skew_ratio=1.0),
    "write-path": _set(write_path__writebacks_lost=1),
    "tenancy": _set(**{f"classes__{INFER}__p99_ns": 1e12}),
    # An impossible peak, at the low end of the sweep.
    "fig4": lambda axes, m: {**m, "speedup": 9.0 if axes["ctc"] < 0.5 else 1.0},
    # Past the ceiling, and flat across array sizes.
    "fig5": _set(bandwidth_gbps=9.0),
    "fig6": _set(bandwidth_gbps=9.0),
    # Sync level with BaM, async at half its speed — except on Config-3.
    "fig7": _total_ns(
        lambda axes: 1.0 if axes["config"] == "config3" else _slow_async(axes)
    ),
    "fig8": _total_ns(_slow_async),
    "fig10": _total_ns(_slow_async),
    # Async falls further behind sync as queue pairs are added.
    "fig9": _total_ns(
        lambda axes: _slow_async(axes) ** axes["queue_pairs"]
    ),
    "fig11": _total_ns(lambda axes: 1.0),
    "fig12": lambda axes, m: {system: 40 for system in m},
    "abl-coalescing": _total_ns(
        lambda axes: 2.0 if axes["coalescing"] == "warp+cache" else 1.0
    ),
    "abl-policies": lambda axes, m: {
        **m, "hit_rate": 1.5 if axes["policy"] == "random" else 0.5
    },
    "abl-dram-tier": _total_ns(lambda axes: 1.0),
    "abl-polling-warps": _total_ns(lambda axes: axes["polling_warps"]),
    **{
        name: _set(
            terminal_ops=0, inflight=1, stuck_sq_slots=1, writebacks__taken=-1,
            writebacks__lost=1, ftl_unbalanced=["ssd0: books"],
            analysis__clean=False,
        )
        for name in ("storm", "pe-storm")
    },
}


def cli_args(name: str) -> list:
    return ["run", name, *(a for item in MINI[name] for a in ("--set", item))]


def test_mini_specs_cover_the_registry():
    assert set(MINI) == set(EXPERIMENTS)


@pytest.fixture(scope="module", params=sorted(EXPERIMENTS))
def run(request, tmp_path_factory):
    """(name, CLI exit code, the document text the CLI wrote)."""
    name = request.param
    out = tmp_path_factory.mktemp(name) / f"{name}.json"
    rc = main([*cli_args(name), "--out", str(out)])
    return name, rc, out.read_text(encoding="utf-8")


class TestEveryExperiment:
    def test_two_runs_give_byte_identical_documents(self, run):
        name, rc, text = run
        assert rc == 0
        exp = EXPERIMENTS[name]
        again = exp.run(*exp.configure(MINI[name]))
        assert json.dumps(again, indent=2, sort_keys=True) + "\n" == text

    def test_document_validates_against_the_schema(self, run):
        jsonschema.validate(json.loads(run[2]), SCHEMA)

    def test_ingest_yields_one_point_per_numeric_leaf(self, run):
        doc = json.loads(run[2])
        assert point_set(doc) == reference_points(doc)

    def test_config_hash_tracks_the_spec_and_every_override(self, run):
        name, _, text = run
        exp = EXPERIMENTS[name]
        full = exp.config_hash(*exp.configure(MINI[name]))
        assert json.loads(text)["config_hash"] == full
        hashes = {
            exp.config_hash(*exp.configure([s for s in MINI[name] if s != drop]))
            for drop in MINI[name]
        }
        assert full not in hashes and len(hashes) == len(MINI[name])
        if exp.quick:
            assert exp.config_hash(*exp.configure()) != exp.config_hash(
                *exp.configure(quick=True)
            )


def past_every_bound(spec, prefix=""):
    """``(--set item, key it names)`` putting each declared field of
    ``spec``, nested specs' too, one step past each bound (NaN for a float,
    an unknown name for a choice)."""
    for f in fields(spec):
        key, rule = prefix + f.name, f.metadata.get("legal")
        if is_dataclass(getattr(spec, f.name)):
            yield from past_every_bound(getattr(spec, f.name), key + ".")
        elif isinstance(rule, tuple):
            yield f"{key}=no-such-choice", key
        elif rule is not None:
            for end in ends(rule):
                beyond = past(f, *end)
                if beyond is not None:
                    yield f"{key}={beyond!r}", key
            if f.type == "float":
                yield f"{key}=nan", key


def with_runners(monkeypatch, wrap):
    """Route every cell through ``wrap(axes, runner) -> runner`` — the one
    seam the runner exposes: ``Experiment.plans`` hands back ``(axes,
    runner)`` pairs once every axis is validated."""
    honest = Experiment.plans
    monkeypatch.setattr(
        Experiment,
        "plans",
        lambda self, spec, axes: [
            (shown, wrap(shown, runner)) for shown, runner in honest(self, spec, axes)
        ],
    )


class TestClaims:
    def test_tampered_metric_flips_the_check_and_the_exit_code(
        self, run, monkeypatch, tmp_path
    ):
        name, _, text = run
        honest = json.loads(text)["checks"]
        assert all(check["ok"] for check in honest)
        # Nothing claimed, nothing to flip — and no claim may go untested.
        assert bool(honest) == (name in TAMPER)
        if not honest:
            return
        with_runners(
            monkeypatch,
            lambda axes, runner: lambda: TAMPER[name](
                axes, copy.deepcopy(dict(runner()))
            ),
        )
        out = tmp_path / "tampered.json"
        assert main([*cli_args(name), "--out", str(out)]) == 1
        tampered = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in tampered] == [c["name"] for c in honest]
        assert not any(check["ok"] for check in tampered), tampered

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_bad_axes_are_rejected_before_the_first_cell(
        self, name, monkeypatch, capsys
    ):
        def no_simulation():
            raise AssertionError("a cell ran before validation finished")

        with_runners(monkeypatch, lambda axes, runner: no_simulation)
        exp = EXPERIMENTS[name]
        axis = next(iter(exp.choices), next(iter(exp.axes)))
        value = exp.axes[axis][0]
        bad = [
            (f"{axis}=no-such-value", repr(axis)),
            (f"{axis}=", repr(axis)),
            (f"{axis}={value},{value}", repr(axis)),
            ("no_such_knob=1", "'no_such_knob'"),
        ]
        if is_dataclass(exp.spec):
            bad += past_every_bound(exp.spec)
        for item, named in bad:
            assert main(["run", name, "--quick", "--set", item]) == 2
            err = capsys.readouterr().err
            assert name in err and named in err, err


def test_list_shows_every_experiment_with_its_axes(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert len(EXPERIMENTS) == 19
    for exp in EXPERIMENTS.values():
        assert f"{exp.name}: {exp.help}" in out
        assert all(f"    {axis} = " in out for axis in exp.axes)


def test_replay_line_reproduces_the_document(tmp_path, capsys):
    """The printed ``replay:`` line is the ``run`` arguments, so it rebuilds
    the same machine — ``--ssds`` included, which the old storm CLI's line
    dropped."""
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    args = [
        "run", "storm", "--seed", "3",
        "--set", "ssds=3", "--set", "threads=8", "--set", "requests=3",
    ]
    assert main([*args, "--out", str(first)]) == 0
    (line,) = [
        ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("replay: ")
    ]
    prefix = "replay: python -m repro.bench "
    assert line.startswith(prefix)
    assert main([*shlex.split(line[len(prefix):]), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert json.loads(first.read_text())["spec"]["ssds"] == 3


#: Probes that charge modelled cycles while there is something to find are
#: work, not waiting: a polling warp's visit with a CQE somewhere in its
#: partition (an empty partition parks), BaM's inline CQ poll.
MODELLED_PROBES = {"_polling_warp", "_poll_for"}


def _mini(name):
    exp = EXPERIMENTS[name]
    return lambda: exp.run(*exp.configure(MINI[name]))


def _write_path_under_gc():
    """The one cell where host programs stall on a full device (the mini
    spec never fills it): perfbench's ``serve-write-gc`` point."""
    from repro.serve import writepath

    writepath.run_write_path_point(
        30_000.0, writepath.quick_spec(seed=7), gc_enabled=True
    )


@pytest.mark.parametrize(
    "cell",
    [_mini("fig5"), _mini("tenancy"), _mini("write-path"), _write_path_under_gc],
    ids=["fig5", "tenancy", "write-path", "write-path-under-gc"],
)
def test_no_back_off_loop_holds_a_tenth_of_the_events(cell):
    """A fixed-period ``Timeout`` site with a large share of all resumes is
    a process waiting, visit by visit, for something another process will
    do: it should park on that and rejoin its grid (DESIGN §2 item 6).  The
    doorbell back-off was 40% of ``fig5`` and 33% of ``tenancy`` at these
    sizes before it did, the GC-full stall 37% of the cell under GC."""
    with census() as book:
        cell()
    waits = [
        count for site, count in book.top(kind="Timeout")
        if site[2] not in MODELLED_PROBES
    ]
    assert waits[0] <= 0.10 * book.resumes, "\n" + book.table()

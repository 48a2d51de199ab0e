"""A finished run frees its machine by reference counting alone.

Simulated HBM (``Hbm.backing``: every buffer, cache line and SQ/CQ ring is
a view of it) and flash (``Ftl._pages``) hold real bytes, so most of a
host's memory is its data.  If a reference cycle reaches them, a dropped
host keeps all of it until the cyclic GC's next full pass.  Each test runs
one path with the cyclic GC off and requires every ``Machine``, ``Hbm``,
``Ftl`` and ``FlashArray`` it built to be gone when it returns.  On
failure the path runs again under :func:`tests.support.cycles.cyclic_garbage`
and the message names the ``Class.attr -> Class`` edges of each cycle that
pinned them.

The hosts are built with the ``"analysis"`` role of
:func:`repro.sim.probe.listening` silenced: an attached analysis session's
log keeps the model object that emitted each record, and those objects
hold the probe, so an analysed host is a cycle by design (a diagnostic,
one host at a time).
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace
from typing import Callable, List

import numpy as np
import pytest

from repro.baselines.harness import BamHost
from repro.core import AgileHost, AgileLockChain
from repro.core.machine import Machine
from repro.gpu import KernelSpec, LaunchConfig
from repro.mem.hbm import Hbm
from repro.nvme.flash import FlashArray
from repro.nvme.ftl import Ftl
from repro.serve.experiment import run_cell
from repro.sim.probe import listening
from repro.serve.tenancy import TENANCY, tenancy_cell
from repro.serve.writepath import WRITE_PATH, write_path_cell
from repro.workloads.dlrm import config1, run_dlrm

from tests.helpers import run_kernel, small_config
from tests.serve.test_experiments import MINI
from tests.support.cycles import cyclic_garbage

STORAGE = (Machine, Hbm, Ftl, FlashArray)


@pytest.fixture
def survivors(monkeypatch) -> Callable[[Callable[[], object]], List[str]]:
    """``survivors(run)``: run ``run()`` with the cyclic GC off and return
    the class names of the storage objects it built that outlive it."""
    born: List[weakref.ref] = []
    for cls in STORAGE:
        def recording(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            born.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", recording)

    def check(run: Callable[[], object]) -> List[str]:
        born.clear()
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run()
            return sorted(type(r()).__name__ for r in born if r() is not None)
        finally:
            if enabled:
                gc.enable()

    with listening("analysis", None):
        yield check


def assert_freed(survivors, run: Callable[[], object]) -> None:
    alive = survivors(run)
    if alive:
        with cyclic_garbage() as garbage:
            run()
        pytest.fail(
            f"alive after the run: {alive}\n" + garbage.report(*STORAGE)
        )


def _agile_raw_read() -> None:
    host = AgileHost(small_config())
    host.load_data(0, 3, np.full(4096, 7, dtype=np.uint8))
    buf = host.alloc_view(4096)

    def body(tc, ctrl):
        txn = yield from ctrl.raw_read(tc, AgileLockChain("t"), 0, 3, buf)
        yield from txn.wait()

    run_kernel(host, body, block=1)  # ends with host.drain()
    assert buf[0] == 7


def _bam_read() -> None:
    host = BamHost(small_config())
    host.load_data(0, 3, np.full(4096, 7, dtype=np.uint8))
    seen = []

    def body(tc, ctrl):
        line = yield from ctrl.read_page(tc, AgileLockChain("t"), 0, 3)
        seen.append(int(line.buffer[0]))
        ctrl.cache.unpin(line)

    with host:
        host.run_kernel(KernelSpec(name="bam", body=body), LaunchConfig(1, 1))
    assert seen == [7]


def _multi_gpu() -> None:
    host = AgileHost(small_config(), num_gpus=2)
    host.load_data(0, 3, np.full(4096, 7, dtype=np.uint8))
    bufs = [host.alloc_view(4096, gpu_idx=g) for g in range(2)]

    def body(tc, ctrl, g):
        txn = yield from ctrl.raw_read(tc, AgileLockChain("t"), 0, 3, bufs[g])
        yield from txn.wait()

    with host:
        host.run_kernels(
            KernelSpec(name="multi", body=body), LaunchConfig(1, 1), [(0,), (1,)]
        )
    assert [b[0] for b in bufs] == [7, 7]


@pytest.mark.parametrize(
    "run",
    [_agile_raw_read, _bam_read, _multi_gpu],
    ids=["agile-raw-read", "bam", "multi-gpu"],
)
def test_a_finished_kernel_frees_its_host(survivors, run):
    assert_freed(survivors, run)


@pytest.mark.parametrize("system", ["bam", "agile_sync", "agile_async"])
def test_run_dlrm_frees_its_host(survivors, system):
    assert_freed(
        survivors,
        lambda: run_dlrm(
            system, config1(), batch=16, epochs=2, features=4,
            cache_lines=64, num_threads=32,
        ),
    )


def _tenancy(placement: str) -> Callable[[], object]:
    spec, _axes = TENANCY.configure(MINI["tenancy"])
    spec = replace(spec, duration_ns=spec.duration_ns / 4)
    cell = {"mix": "inference_heavy", "storm": "none", "arm": "wfq"}
    return lambda: run_cell(tenancy_cell(spec, {**cell, "placement": placement}))


def _write_path_gc() -> None:
    """GC still collecting when the cell ends: its daemon is queued in the
    simulator, and its frame holds the FTL."""
    spec, _axes = WRITE_PATH.configure(MINI["write-path"])
    run_cell(write_path_cell(spec, {"system": "gc_on", "target_rps": 20_000.0}))


@pytest.mark.parametrize(
    "run",
    [_tenancy("striped"), _tenancy("load_aware"), _write_path_gc],
    ids=["tenancy", "tenancy-load-aware", "write-path-gc"],
)
def test_run_cell_frees_its_host(survivors, run):
    assert_freed(survivors, run)


def test_a_planted_cycle_is_named_by_its_edge(survivors):
    """The diagnostic names the edge: a clock that closes over the host,
    as ``Machine`` did before it closed over the simulator alone."""

    def run():
        host = BamHost(small_config())
        host.trace.set_clock(lambda: host.sim.now)

    assert survivors(run) == ["BamHost", "FlashArray", "Ftl", "Hbm"]
    with cyclic_garbage() as garbage:
        run()
    assert "MetricRegistry._clock -> BamHost (via " in garbage.report(*STORAGE)


def test_the_gc_state_is_restored_when_the_run_raises(survivors):
    def boom():
        raise RuntimeError("boom")

    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        survivors(boom)
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with cyclic_garbage():
            boom()
    assert gc.isenabled()


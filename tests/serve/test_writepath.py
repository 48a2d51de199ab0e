"""The write-path experiment: tenant mix, backend guard, GC on/off runs."""

from __future__ import annotations

import pytest

from repro.serve.arrival import Poisson
from repro.serve.backends import AgileServeBackend, BamServeBackend
from repro.serve.engine import ServeEngine
from repro.serve.request import RequestClass
from repro.serve.writepath import (
    WRITE_PATH,
    WritePathSpec,
    quick_spec,
    run_write_path_point,
    write_path_classes,
)

from tests.helpers import small_config

#: A sub-second experiment: small array, short window, one offered load.
RATE_RPS = 20_000.0
TINY = WritePathSpec(
    duration_ns=4_000_000.0,
    num_ssds=2,
    device_pages=128,
    table_pages=64,
    modify_space=48,
    read_space=64,
    cache_lines=8,
)


class TestRequestClassOps:
    @pytest.mark.parametrize("op", ["read", "write", "modify"])
    def test_valid_ops_accepted(self, op):
        assert RequestClass(name="t", op=op, pages=1, slo_ns=1e6).op == op


class TestSpecAndClasses:
    def test_regions_must_fit_the_array(self):
        with pytest.raises(ValueError, match="exceed the array"):
            WritePathSpec(
                num_ssds=2, device_pages=128,
                table_pages=200, modify_space=96, read_space=128,
            )

    def test_three_tenants_on_disjoint_regions(self):
        classes = write_path_classes(TINY)
        assert [c.op for c in classes] == ["write", "modify", "read"]
        assert sum(c.weight for c in classes) == pytest.approx(1.0)
        spans = sorted(
            (c.lba_base, c.lba_base + c.lba_space) for c in classes
        )
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi <= lo  # no tenant writes into another's region
        assert spans[-1][1] <= TINY.num_ssds * TINY.device_pages

    def test_quick_spec_straddles_the_knee(self):
        loads = WRITE_PATH.axes["target_rps"]
        assert len(loads) == 3 and list(loads) == sorted(loads)
        assert quick_spec(seed=3).seed == 3


class TestReadOnlyBackendGuard:
    def test_write_classes_rejected_on_bam(self):
        backend = BamServeBackend(small_config())
        classes = write_path_classes(TINY)
        backend.load_pattern(classes)
        arrivals = {c.name: Poisson(1000.0) for c in classes}
        with pytest.raises(ValueError, match="read-only"):
            ServeEngine(backend, classes, arrivals, seed=7)


class TestCacheRoutedGuard:
    @pytest.mark.parametrize("op", ["paged", "modify"])
    def test_cache_routed_classes_need_one_gpu(self, op):
        """Each GPU has its own cache: on two GPUs a modified page would
        end MODIFIED in both caches (flash keeping whichever copy is
        evicted last), and paged residency would split per GPU."""
        classes = [RequestClass(name="hot", op=op, pages=1, slo_ns=1e6, lba_space=4)]
        arrivals = {"hot": Poisson(200_000.0)}
        with pytest.raises(ValueError, match="not servable"):
            ServeEngine(
                AgileServeBackend(small_config(), num_gpus=2), classes, arrivals
            )
        ServeEngine(AgileServeBackend(small_config()), classes, arrivals)


class TestWritePathPoint:
    def test_gc_on_point_serves_and_loses_nothing(self):
        pt = run_write_path_point(RATE_RPS, TINY, gc_enabled=True)
        rep = pt.report
        assert pt.system == "agile"
        assert sum(rep.device_writes) > 0  # the write path actually ran
        assert rep.mean_waf >= 1.0
        assert rep.writebacks == rep.writebacks_acked
        assert rep.writebacks_lost == 0
        # All three tenants completed work within the window.
        for name in ("ckpt", "hot", "point"):
            assert rep.classes[name].completed > 0

    def test_gc_off_runs_the_same_timeline_in_place(self):
        pt = run_write_path_point(RATE_RPS, TINY, gc_enabled=False)
        rep = pt.report
        assert pt.system == "agile-gc-off"
        assert sum(rep.device_gc_busy_ns) == 0.0
        assert rep.mean_waf == 1.0  # in-place updates never relocate
        assert rep.writebacks_lost == 0

    def test_point_is_deterministic(self):
        a = run_write_path_point(RATE_RPS, TINY)
        b = run_write_path_point(RATE_RPS, TINY)
        assert a.report.as_dict() == b.report.as_dict()


class TestComparison:
    def test_comparison_document_shape(self):
        doc = WRITE_PATH.run(TINY, axes={"target_rps": (RATE_RPS,)})
        by_axes = {
            tuple(sorted(c["axes"].items())): c["metrics"] for c in doc["cells"]
        }
        for arm in ("gc_on", "gc_off"):
            assert (("system", arm), ("target_rps", RATE_RPS)) in by_axes
            assert set(by_axes[(("system", arm),)]) == {"knee_rps"}
        summary = by_axes[(("section", "summary"),)]
        assert summary["writebacks_lost"] == 0
        assert summary["mean_waf"] >= 1.0
        assert summary["read_p99_inflation"] > 0.0
        assert summary["knee_rps_gc_on"] == by_axes[(("system", "gc_on"),)]["knee_rps"]
        assert [c["ok"] for c in doc["checks"]] == [True]

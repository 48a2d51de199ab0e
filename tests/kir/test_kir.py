"""Tests for the kernel IR: liveness, register pressure and the Fig. 12
estimates."""

from __future__ import annotations

import pytest

from repro.kir import (
    TraceBuilder,
    estimate_registers,
    live_intervals,
    max_pressure,
    pressure_profile,
)
from repro.kir.kernels import (
    bfs_trace,
    figure12_registers,
    service_kernel_trace,
    spmv_trace,
    vector_mean_trace,
)
from repro.kir.ops import Instr, Trace, VReg


class TestLiveness:
    def test_simple_def_use_interval(self):
        b = TraceBuilder("t")
        a = b.op("mov")          # 0
        c = b.op("add", [a])     # 1
        b.sink(c)                # 2
        trace = b.build()
        intervals = live_intervals(trace)
        assert intervals[a] == (0, 1)
        assert intervals[c] == (1, 2)

    def test_param_pinned_whole_trace(self):
        b = TraceBuilder("t")
        p = b.param("p", width=2)
        b.op("mov")
        b.op("mov")
        trace = b.build()
        assert live_intervals(trace)[p] == (0, 1)

    def test_loop_extends_carried_values(self):
        b = TraceBuilder("t")
        acc = b.op("mov", name="acc")  # defined before the loop
        with b.loop():
            t = b.op("add", [acc])
            b.sink(t)
        trace = b.build()
        intervals = live_intervals(trace)
        # The backedge instruction re-reads acc at the loop end.
        assert intervals[acc][1] == len(trace.instrs) - 1

    def test_pressure_counts_width(self):
        b = TraceBuilder("t")
        wide = b.op("mov", width=2)
        narrow = b.op("mov", width=1)
        b.sink(wide, narrow)
        assert max_pressure(b.build()) == 3

    def test_disjoint_lifetimes_do_not_stack(self):
        b = TraceBuilder("t")
        a = b.op("mov")
        b.sink(a)
        c = b.op("mov")
        b.sink(c)
        assert max_pressure(b.build()) == 1

    def test_empty_trace(self):
        assert max_pressure(Trace(name="e")) == 0
        assert pressure_profile(Trace(name="e")) == []


class TestFigure12:
    def test_service_kernel_is_37_registers(self):
        """The one absolute number the paper gives (§4.6)."""
        assert estimate_registers(service_kernel_trace()) == 37

    @pytest.mark.parametrize("kernel,lo,hi", [
        ("vector_mean", 1.0, 1.10),   # paper: 1.04x
        ("bfs", 1.15, 1.30),          # paper: 1.22x
        ("spmv", 1.25, 1.40),         # paper: 1.32x
    ])
    def test_bam_agile_ratios_in_paper_band(self, kernel, lo, hi):
        regs = figure12_registers()[kernel]
        ratio = regs["bam"] / regs["agile"]
        assert lo <= ratio <= hi

    def test_ratios_ordered_like_paper(self):
        regs = figure12_registers()
        r = {
            k: regs[k]["bam"] / regs[k]["agile"]
            for k in ("vector_mean", "bfs", "spmv")
        }
        assert r["vector_mean"] < r["bfs"] < r["spmv"]

    def test_all_kernels_within_hardware_limit(self):
        for kernel, variants in figure12_registers().items():
            for variant, regs in variants.items():
                assert 16 <= regs <= 255, (kernel, variant, regs)

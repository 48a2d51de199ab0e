"""KIR traces for the Figure 12 kernels and the AGILE service kernel.

Each kernel is lowered twice — once against the AGILE API, once against
BaM's — with identical application logic, mirroring the paper's "identical
kernel implementations for fair comparison" methodology (§4.6).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.kir.builder import (
    TraceBuilder,
    lower_agile_array_get,
    lower_bam_sync_read,
)
from repro.kir.ops import Trace
from repro.kir.regalloc import estimate_registers


def _unrolled_compute(b: TraceBuilder, seed, temps: int) -> None:
    """An unrolled arithmetic block: ``temps`` partial results live at once.

    Models the ILP the compiler extracts from the kernels' arithmetic
    (reduction trees, address pipelines); this application-side pressure is
    identical in both variants, which is why kernels whose arithmetic
    dominates show small AGILE/BaM register deltas (VectorMean's 1.04x).
    """
    regs = [b.op("fma.f32", [seed], name=f"t{k}") for k in range(temps)]
    b.sink(*regs)


def vector_mean_trace(variant: str) -> Trace:
    """Vector mean: one access site, arithmetic-dominated register profile."""
    b = TraceBuilder(f"vecmean.{variant}")
    data = b.param("data_base", width=2)
    out = b.param("out", width=2)
    n = b.param("n")
    acc = b.op("mov.f64", name="acc", width=2)
    with b.loop():
        idx = b.op("idx.calc", [n])
        if variant == "agile":
            value = lower_agile_array_get(b, idx)
        else:
            (value,) = lower_bam_sync_read(b, idx, interleaved=1)
        _unrolled_compute(b, value, temps=11)
        acc2 = b.op("fma.f64", [acc, value], width=2, name="acc")
        b.sink(acc2)
    inv = b.op("div.f64", [acc, n], width=2)
    b.effect("st.global", [out, inv])
    b.sink(data)
    return b.build()


def bfs_trace(variant: str) -> Trace:
    """BFS level expansion: two SSD access sites (row pointers + column
    indices), frontier bookkeeping."""
    b = TraceBuilder(f"bfs.{variant}")
    row_base = b.param("row_base", width=2)
    col_base = b.param("col_base", width=2)
    frontier = b.param("frontier", width=2)
    next_frontier = b.param("next_frontier", width=2)
    labels = b.param("labels", width=2)
    level = b.param("level")
    with b.loop():
        vertex = b.op("ld.frontier", [frontier], name="vertex")
        if variant == "agile":
            start = lower_agile_array_get(b, vertex)
            end = lower_agile_array_get(b, vertex)
        else:
            start, end = lower_bam_sync_read(b, vertex, interleaved=2)
        degree = b.op("sub", [end, start], name="degree")
        _unrolled_compute(b, degree, temps=12)
        with b.loop():
            if variant == "agile":
                neigh = lower_agile_array_get(b, start)
            else:
                (neigh,) = lower_bam_sync_read(b, start, interleaved=1)
            old = b.op("ld.label", [labels, neigh], name="old")
            b.effect("atom.cas", [old, level])
            slot = b.op("frontier.alloc", [next_frontier])
            b.effect("atom.add", [slot])
            b.effect("st.frontier", [next_frontier, slot, neigh])
            b.sink(degree)
    b.sink(row_base, col_base)
    return b.build()


def spmv_trace(variant: str) -> Trace:
    """CSR SpMV: three SSD access sites per inner iteration (column index,
    matrix value, dense-vector element), FMA accumulation."""
    b = TraceBuilder(f"spmv.{variant}")
    row_base = b.param("row_base", width=2)
    _col_base = b.param("col_base", width=2)
    val_base = b.param("val_base", width=2)
    x_base = b.param("x_base", width=2)
    y_base = b.param("y_base", width=2)
    acc = b.op("mov.f64", name="acc", width=2)
    row = b.op("row.calc", [row_base], name="row")
    if variant == "agile":
        start = lower_agile_array_get(b, row)
        end = lower_agile_array_get(b, row)
    else:
        start, end = lower_bam_sync_read(b, row, interleaved=2)
    with b.loop():
        if variant == "agile":
            col = lower_agile_array_get(b, start)
            val = lower_agile_array_get(b, start)
            x = lower_agile_array_get(b, col)
        else:
            col, val, x = lower_bam_sync_read(b, start, interleaved=3)
        _unrolled_compute(b, val, temps=13)
        acc2 = b.op("fma.f64", [acc, val, x], width=2, name="acc")
        b.sink(acc2, end, col)
    b.effect("st.global", [y_base, acc])
    b.sink(val_base, x_base)
    return b.build()


def service_kernel_trace() -> Trace:
    """The AGILE service polling warp (Algorithm 1)."""
    b = TraceBuilder("agile.service")
    cq_list = b.param("cq_list", width=2)
    num_cqs = b.param("num_cqs")
    pend_tbl = b.param("pending_table", width=2)
    sq_tbl = b.param("sq_table", width=2)
    with b.loop():
        cq_idx = b.op("rr.next", [num_cqs], name="cq_idx")
        ts = b.op("clock64", name="ts", width=2)
        wrap = b.op("wrap.bit", [cq_idx], name="wrap")
        err = b.op("err.ctr", [cq_idx], name="err")
        cq_base = b.op("cq.base", [cq_list, cq_idx], width=2, name="cq_base")
        ssd_idx = b.op("cq.ssd", [cq_base], name="ssd_idx")
        sq_base = b.op("sq.base", [sq_tbl, ssd_idx], width=2, name="sq_base")
        offset = b.op("ld.offset", [cq_base], name="offset")
        window_end = b.op("win.end", [offset], name="window_end")
        mask = b.op("ld.mask", [cq_base], name="mask")
        phase = b.op("ld.phase", [cq_base], name="phase")
        pos = b.op("add", [offset], name="pos")
        cqe = b.op("ld.cqe", [cq_base, pos, phase], width=2, name="cqe")
        valid = b.op("cmp.phase", [cqe, phase], name="valid")
        status = b.op("cqe.status", [cqe], name="status")
        mask2 = b.op("or.mask", [mask, valid], name="mask2")
        cid = b.op("cqe.cid", [cqe], name="cid")
        rec = b.op("tbl.lookup", [pend_tbl, cid], width=2, name="rec")
        slot = b.op("rec.slot", [rec], name="slot")
        b.effect("st.state", [sq_base, slot])  # release the SQE
        txn = b.op("rec.txn", [rec], width=2, name="txn")
        b.effect("st.gate", [txn, status])  # clear the barrier
        full = b.op("cmp.full", [mask2], name="full")
        lag = b.op("lag.calc", [offset, window_end], name="lag")
        db = b.op("db.calc", [offset, full, lag], name="db")
        b.effect("st.mmio", [db])
        b.effect("st.mask", [cq_base, mask2])
        b.sink(valid, pos, ssd_idx, ts, wrap, err)
    return b.build()


#: Figure 12 kernel registry: name -> {variant -> trace factory}.
FIG12_KERNELS: Dict[str, Dict[str, Callable[[], Trace]]] = {
    "vector_mean": {
        "agile": lambda: vector_mean_trace("agile"),
        "bam": lambda: vector_mean_trace("bam"),
    },
    "bfs": {
        "agile": lambda: bfs_trace("agile"),
        "bam": lambda: bfs_trace("bam"),
    },
    "spmv": {
        "agile": lambda: spmv_trace("agile"),
        "bam": lambda: spmv_trace("bam"),
    },
}


def figure12_registers() -> Dict[str, Dict[str, int]]:
    """Per-thread register estimates for every Fig. 12 kernel/variant,
    plus the service kernel."""
    out: Dict[str, Dict[str, int]] = {}
    for kernel, variants in FIG12_KERNELS.items():
        out[kernel] = {
            variant: estimate_registers(factory())
            for variant, factory in variants.items()
        }
    out["service"] = {"agile": estimate_registers(service_kernel_trace())}
    return out

"""Workloads used by the paper's evaluation (§4).

- :mod:`repro.workloads.ctc` — the computation-to-communication
  micro-benchmark of Fig. 4;
- :mod:`repro.workloads.io_sweep` — 4 KB random read/write scaling across
  SSDs (Figs. 5-6);
- :mod:`repro.workloads.criteo` — a synthetic Criteo-1TB-like categorical
  click trace (Zipf-skewed, 26 features);
- :mod:`repro.workloads.dlrm` — DLRM inference with SSD-resident embedding
  tables (Figs. 7-10);
- :mod:`repro.workloads.graphs` — uniform-random and Kronecker graph
  generators with CSR/SSD layout (GAP-style, Fig. 11);
- :mod:`repro.workloads.bfs` / :mod:`repro.workloads.spmv` — the graph
  kernels of Figs. 11-12 in native / AGILE / BaM variants;
- :mod:`repro.workloads.vecmean` — the vector-mean kernel of Fig. 12;
- :mod:`repro.workloads.checkpoint` — DLRM-checkpoint streaming writes
  (the write-path experiment's background tenant);
- :mod:`repro.workloads.kvcache` — LLM-inference KV-cache paging between
  HBM and SSD (the tenancy subsystem's latency-critical tenant);
- :mod:`repro.workloads.vsearch` — DiskANN-style vector-search beam
  walks over a disk-resident graph index.
"""

from repro.workloads.ctc import CtcResult, run_ctc_experiment
from repro.workloads.io_sweep import SweepPoint, run_bandwidth_sweep
from repro.workloads.criteo import CriteoTrace, make_criteo_trace
from repro.workloads.dlrm import DlrmConfig, DlrmResult, run_dlrm
from repro.workloads.graphs import CsrGraph, kronecker_graph, uniform_random_graph
from repro.workloads.bfs import run_bfs
from repro.workloads.spmv import run_spmv

# repro.workloads.checkpoint / .kvcache / .vsearch are import-by-module
# (not re-exported here): they build serve traces, so importing them from
# the package init would cycle through repro.serve.arrival, which itself
# imports repro.workloads.access.

__all__ = [
    "run_ctc_experiment",
    "CtcResult",
    "run_bandwidth_sweep",
    "SweepPoint",
    "make_criteo_trace",
    "CriteoTrace",
    "DlrmConfig",
    "DlrmResult",
    "run_dlrm",
    "CsrGraph",
    "uniform_random_graph",
    "kronecker_graph",
    "run_bfs",
    "run_spmv",
]

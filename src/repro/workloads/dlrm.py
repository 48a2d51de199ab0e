"""DLRM inference with SSD-resident embedding tables (paper §4.4).

Architecture follows Naumov et al. [34] as configured in the paper:

- *Config-1*: three 512x512 bottom-MLP layers, three 1024x1024 top-MLP
  layers (plus projection/activation layers folded into the FLOP count);
- *Config-2*: one matrix multiplication in each MLP (compute-light);
- *Config-3*: Config-1's multiplications repeated six times (compute-heavy).

Embedding tables live on the SSDs (page-striped across devices); the MLPs
run from HBM, modelled as cuBLAS kernels with a fixed effective FLOP rate
(the paper uses cuBLAS for all matmuls so compute is identical across
systems — only the embedding fetch differs).

Three systems, as in Figs. 7-10:

- ``bam``          — BaM synchronous fetch, then compute;
- ``agile_sync``   — AGILE's array-like synchronous fetch, then compute;
- ``agile_async``  — AGILE prefetches epoch *e+1* while the MLPs of epoch
  *e* run (the paper's overlap mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Literal, Optional, Sequence

import numpy as np

from repro.baselines import BamHost
from repro.core import AgileHost, AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig
from repro.placement import PlacementPolicy
from repro.workloads.access import workload_config
from repro.workloads.criteo import CriteoTrace, make_criteo_trace

SystemName = Literal["bam", "agile_sync", "agile_async"]

#: Effective sustained matmul throughput of the cuBLAS kernels (FLOP/ns);
#: ~10 TFLOP/s, a realistic sustained FP32 rate for an RTX 5000 Ada class
#: part on DLRM-sized GEMMs.
MLP_FLOPS_PER_NS = 10_000.0


@dataclass(frozen=True)
class DlrmConfig:
    """MLP shapes; embedding dimension is shared by all variants."""

    name: str
    bottom: tuple[int, ...]
    top: tuple[int, ...]
    embedding_dim: int = 64

    def flops_per_sample(self) -> float:
        return float(sum(2 * d * d for d in (*self.bottom, *self.top)))

    def mlp_time_ns(self, batch: int) -> float:
        return self.flops_per_sample() * batch / MLP_FLOPS_PER_NS


def config1() -> DlrmConfig:
    return DlrmConfig("config1", bottom=(512,) * 3, top=(1024,) * 3)


def config2() -> DlrmConfig:
    return DlrmConfig("config2", bottom=(512,), top=(1024,))


def config3() -> DlrmConfig:
    return DlrmConfig("config3", bottom=(512,) * 18, top=(1024,) * 18)


DLRM_CONFIGS = {"config1": config1, "config2": config2, "config3": config3}


def _vocab_offsets(vocab_sizes: Sequence[int]) -> np.ndarray:
    """First vector index of each feature's table, plus the total."""
    offsets = np.zeros(len(vocab_sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(vocab_sizes, dtype=np.int64), out=offsets[1:])
    return offsets


class EmbeddingLayout:
    """Maps (feature, categorical id) to an SSD location: the tables are
    one array from logical LBA 0 of the host's placement policy."""

    def __init__(self, vocab_sizes: Sequence[int], dim: int,
                 placement: PlacementPolicy, page_size: int = 4096):
        self.dim = dim
        self.vec_bytes = dim * 4  # float32
        if page_size % self.vec_bytes != 0:
            raise ValueError("embedding vectors must pack evenly into pages")
        self.vecs_per_page = page_size // self.vec_bytes
        self.placement = placement
        self.offsets = _vocab_offsets(vocab_sizes)
        self.total_vecs = int(self.offsets[-1])
        self.total_pages = (
            self.total_vecs + self.vecs_per_page - 1
        ) // self.vecs_per_page

    def vector_index(self, feature: int, cat_id: int) -> int:
        return int(self.offsets[feature]) + cat_id

    def locate(self, vec_idx: int) -> tuple[int, int, int]:
        """-> (ssd, lba, byte offset) through the placement policy."""
        page = vec_idx // self.vecs_per_page
        offset = (vec_idx % self.vecs_per_page) * self.vec_bytes
        ssd, lba = self.placement.place(page)
        return ssd, lba, offset

    def make_table(self) -> np.ndarray:
        """Deterministic embedding values: vector v is filled with
        ``v + lane/dim`` so fetched data is value-checkable."""
        base = np.arange(self.total_vecs, dtype=np.float32)[:, None]
        lanes = (np.arange(self.dim, dtype=np.float32) / self.dim)[None, :]
        return base + lanes


@dataclass
class DlrmResult:
    system: SystemName
    config: str
    batch: int
    epochs: int
    total_ns: float
    checksum: float
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ns_per_epoch(self) -> float:
        return self.total_ns / self.epochs


def _epoch_lookups(
    trace: CriteoTrace, offsets: np.ndarray, epoch: int, batch: int,
    features: int,
) -> np.ndarray:
    rows = trace.batch(epoch, batch)[:, :features]
    vecs = offsets[:features][None, :] + rows
    # Feature-major order: the standard embedding-gather layout (one table
    # processed per warp at a time), which is what makes AGILE's warp-level
    # coalescing effective on Zipf-hot ids.
    return vecs.T.reshape(-1)


def _unique_pages(layout: EmbeddingLayout, lookups: np.ndarray) -> np.ndarray:
    return np.unique(lookups // layout.vecs_per_page)


def _agile_gather_kernel(layout: EmbeddingLayout, out: dict,
                         coalesce: bool = True):
    def body(tc, ctrl, lookups, n_threads):
        chain = AgileLockChain(f"gather.t{tc.tid}")
        local = 0.0
        tid = tc.tid % n_threads
        rounds = (len(lookups) + n_threads - 1) // n_threads
        # Warp-uniform rounds so the two-level coalescing pipeline of
        # §3.3.2 applies: hot ids repeated across the batch collapse into
        # one cache access per warp.  ``coalesce=False`` is the ablation:
        # cache-level dedup only, like BaM.
        for r in range(rounds):
            k = r * n_threads + tid
            if k >= len(lookups):
                yield from ctrl.prefetch_pass(tc)
                continue
            ssd, lba, off = layout.locate(int(lookups[k]))
            if coalesce:
                shared = yield from ctrl.read_page_coalesced(
                    tc, chain, ssd, lba
                )
                line = shared.line
            else:
                line = yield from ctrl.read_page(tc, chain, ssd, lba)
            yield from tc.hbm_load(layout.vec_bytes)
            local += float(line.buffer[off : off + 4].view(np.float32)[0])
            if coalesce:
                ctrl.finish_coalesced_read(tc, shared)
            else:
                ctrl.cache.unpin(line)
                yield from tc.syncwarp()
        out["checksum"] = out.get("checksum", 0.0) + local

    return body


def _bam_gather_kernel(layout: EmbeddingLayout, out: dict):
    def body(tc, ctrl, lookups, n_threads):
        chain = AgileLockChain(f"bam.t{tc.tid}")
        local = 0.0
        tid = tc.tid % n_threads
        rounds = (len(lookups) + n_threads - 1) // n_threads
        # Same warp-synchronous structure as the AGILE gather (SIMT lanes
        # run in lockstep either way); BaM just has no coalescing, so every
        # lane performs its own cache access.
        for r in range(rounds):
            k = r * n_threads + tid
            if k < len(lookups):
                ssd, lba, off = layout.locate(int(lookups[k]))
                line = yield from ctrl.cache.acquire_sync(tc, chain, ssd, lba)
                yield from tc.hbm_load(layout.vec_bytes)
                local += float(line.buffer[off : off + 4].view(np.float32)[0])
                ctrl.cache.unpin(line)
            yield from tc.syncwarp()
        out["checksum"] = out.get("checksum", 0.0) + local

    return body


def _agile_prefetch_kernel(layout: EmbeddingLayout):
    def body(tc, ctrl, pages, n_threads):
        chain = AgileLockChain(f"pref.t{tc.tid}")
        tid = tc.tid % n_threads
        rounds = (len(pages) + n_threads - 1) // n_threads
        for r in range(rounds):
            k = r * n_threads + tid
            if k < len(pages):
                page = int(pages[k])
                ssd, lba = layout.placement.place(page)
                yield from ctrl.prefetch(tc, chain, ssd, lba)
            else:
                # Keep the warp's coalescing rounds uniform.
                yield from ctrl.prefetch_pass(tc)

    return body


def run_dlrm(
    system: SystemName,
    config: DlrmConfig,
    *,
    batch: int = 64,
    epochs: int = 6,
    features: int = 8,
    num_ssds: int = 1,
    cache_lines: int = 512,
    queue_pairs: int = 8,
    queue_depth: int = 64,
    num_threads: int = 128,
    trace: Optional[CriteoTrace] = None,
    seed: int = 1,
    warp_coalescing: bool = True,
) -> DlrmResult:
    """End-to-end DLRM inference; returns total simulated time.

    Defaults are scaled down from the paper (batch 2048, 10,000 epochs,
    26 features) to keep simulation costs sane; every parameter accepts
    paper-scale values.
    """
    if trace is None:
        trace = make_criteo_trace(max(batch * epochs, 512), seed=seed)
    features = min(features, trace.num_features)
    cfg = workload_config(num_ssds, cache_lines, queue_pairs, queue_depth)
    host = BamHost(cfg) if system == "bam" else AgileHost(cfg)
    layout = EmbeddingLayout(
        trace.vocab_sizes[:features], config.embedding_dim, host.placement
    )
    host.load_logical(0, layout.make_table())

    out: dict = {}
    if system == "bam":
        gather = KernelSpec(
            name="dlrm.bam.gather",
            body=_bam_gather_kernel(layout, out),
            registers_per_thread=56,
        )
    else:
        gather = KernelSpec(
            name="dlrm.agile.gather",
            body=_agile_gather_kernel(layout, out, coalesce=warp_coalescing),
            registers_per_thread=44,
        )
    prefetch = KernelSpec(
        name="dlrm.prefetch",
        body=_agile_prefetch_kernel(layout),
        registers_per_thread=40,
    )
    launch_cfg = LaunchConfig.for_threads(num_threads, 256)
    mlp_ns = config.mlp_time_ns(batch)

    lookups = [
        _epoch_lookups(trace, layout.offsets, e, batch, features)
        for e in range(epochs)
    ]
    pages = [_unique_pages(layout, lk) for lk in lookups]

    def driver():
        if system == "agile_async":
            # Warm the pipeline: prefetch epoch 0 up front (the paper's
            # async mode always has the next epoch's prefetch running).
            pre = host.launch_kernel(prefetch, launch_cfg, (pages[0], num_threads))
            yield pre.done
        for e in range(epochs):
            g = host.launch_kernel(gather, launch_cfg, (lookups[e], num_threads))
            yield g.done
            if system == "agile_async" and e + 1 < epochs:
                pre = host.launch_kernel(
                    prefetch, launch_cfg, (pages[e + 1], num_threads)
                )
                yield host.sim.timeout(mlp_ns)  # MLPs overlap the prefetch
                yield pre.done
            else:
                yield host.sim.timeout(mlp_ns)

    with host:
        proc = host.sim.spawn(driver(), name="dlrm.driver")
        host.sim.run(until_procs=[proc])
        total = host.sim.now
        host.drain()
    return DlrmResult(
        system=system,
        config=config.name,
        batch=batch,
        epochs=epochs,
        total_ns=total,
        checksum=out.get("checksum", 0.0),
        stats=host.stats(),
    )


def expected_checksum(
    config: DlrmConfig,
    trace: CriteoTrace,
    *,
    batch: int,
    epochs: int,
    features: int,
) -> float:
    """Ground-truth gather checksum (sum of each looked-up vector's first
    lane) for validating that fetched bytes are the right bytes; the same
    for every array layout."""
    offsets = _vocab_offsets(trace.vocab_sizes[:features])
    total = 0.0
    for e in range(epochs):
        vecs = _epoch_lookups(trace, offsets, e, batch, features)
        total += float(vecs.astype(np.float64).sum())
    return total

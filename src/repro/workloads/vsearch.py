"""DiskANN-style vector-search trace workload (fourth tenant class).

A disk-resident ANN index stores one node per page: the node's vector
plus its out-neighbour list.  A query greedily beam-searches from a
fixed entry point (the medoid) toward its target: each hop reads the
current beam's pages, scores their neighbours, and keeps the
``beam_width`` closest as the next beam.  The access pattern that
matters for storage is therefore: a scorching-hot entry page, warm pages
near it, and a long random tail — per-hop multi-page reads with high
skew toward the graph's "center".

Everything here is a pure function of the spec (seeded rng): the graph,
the queries, and the walks replay bit-identically.  Distance is a
surrogate (|node_id - target_id| on a ring) — the *geometry* of real
vectors is irrelevant to I/O; what matters is that walks are directed,
converge, and revisit the entry region, which the surrogate preserves.

:func:`vsearch_logical_trace` packages the walks as a logical serve
trace (one node = one page) that replays under any placement policy; the
tenancy matrix runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.config import NS_PER_S, Checked, ConfigError, legal
from repro.serve.arrival import TraceReplay

@dataclass(frozen=True)
class VsearchSpec(Checked):
    """Shape of one beam-search trace: the index graph and the query load."""

    num_nodes: int = legal(2048, ge=2)
    #: Out-neighbours per node (the graph's degree).
    out_degree: int = legal(6, ge=1)
    #: Beam width (pages read per hop, before dedup).
    beam_width: int = legal(4, ge=1)
    #: Hops per query walk.
    hops: int = legal(5, ge=1)
    num_queries: int = legal(64, ge=1)
    #: Entry node every walk starts from (the medoid — the hot page).
    medoid: int = legal(0, ge=0)
    seed: int = legal(7, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.medoid >= self.num_nodes:
            raise ConfigError("medoid must be a valid node id")


def vsearch_lba_space(spec: VsearchSpec) -> int:
    """Logical pages the index spans (one node per page)."""
    return spec.num_nodes


def _distance(node: int, target: int, num_nodes: int) -> int:
    """Ring surrogate distance: directed, converging, deterministic."""
    d = abs(node - target)
    return min(d, num_nodes - d)


def vsearch_walks(spec: VsearchSpec) -> List[Tuple[int, ...]]:
    """The deterministic walks: one tuple of visited node ids per hop
    (the beam whose pages that hop reads), queries concatenated."""
    rng = np.random.default_rng(spec.seed)
    graph = rng.integers(
        0, spec.num_nodes, size=(spec.num_nodes, spec.out_degree)
    )
    targets = rng.integers(0, spec.num_nodes, size=spec.num_queries)
    walks: List[Tuple[int, ...]] = []
    for target in (int(t) for t in targets):
        beam = [spec.medoid]
        visited = {spec.medoid}
        for _ in range(spec.hops):
            walks.append(tuple(beam))
            candidates: List[int] = []
            for node in beam:
                for nxt in (int(n) for n in graph[node]):
                    if nxt not in visited and nxt not in candidates:
                        candidates.append(nxt)
            if not candidates:
                break
            candidates.sort(
                key=lambda n: (_distance(n, target, spec.num_nodes), n)
            )
            beam = candidates[: spec.beam_width]
            visited.update(beam)
    return walks


def vsearch_logical_trace(
    spec: VsearchSpec,
    rate_rps: float,
    lba_base: int = 0,
) -> TraceReplay:
    """The walks as a *logical* serve trace (one node = one logical page
    at ``lba_base + node``): the engine resolves placement at arrival, so
    the same walk replays under any policy — the tenancy matrix's
    placement axis needs this form."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    walks = vsearch_walks(spec)
    gap = NS_PER_S / rate_rps
    return TraceReplay(
        [gap] * len(walks),
        logical=[tuple(lba_base + node for node in beam) for beam in walks],
    )

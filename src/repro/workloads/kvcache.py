"""LLM-inference KV-cache paging workload (the tenancy subsystem's core).

A serving LLM holds one KV block per ``tokens_per_block`` generated
tokens per sequence.  HBM holds only the hot working set; cold blocks
page out to SSD and page back in when attention needs them — exactly the
four-state-cache + Share-Table traffic AGILE's asynchronous read path is
built for.  This module generates that access pattern as a deterministic
schedule and exports it as two lock-step serve traces:

- the **read trace** (class ``infer``, ``op="paged"``): every decode step
  reads the sequence's attention window — the landmark block 0 plus the
  last ``attention_window`` blocks — *through the cache*, so hot blocks
  ride Share-Table hits while cold sequences' blocks fault in from flash
  and evict someone else under HBM pressure;
- the **append trace** (class ``kv_append``, ``op="modify"``): prefill
  bursts write a new sequence's initial blocks and every
  ``tokens_per_block``-th decode step extends the tail block — MODIFIED
  lines whose device programs ride eviction write-back.

The schedule models continuous batching over ``num_slots`` concurrent
sequence slots.  Sequence target lengths are Zipf-skewed (seeded — the
same spec always yields the same schedule bit-for-bit): most sequences
are short, a heavy tail runs to ``blocks_per_seq``, so slot regions see
wildly different residency lifetimes.  A finished sequence frees its
slot and the next admission reuses the slot's logical blocks, the paged
KV-allocator pattern.  Residency itself is **not** modeled here: the
traces carry logical LBAs and the runtime cache decides live what is
resident, what faults, and what evicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.config import NS_PER_S, Checked, ConfigError, legal
from repro.serve.arrival import TraceReplay


@dataclass(frozen=True)
class KvCacheSpec(Checked):
    """Shape of one KV-cache paging schedule.

    ``num_slots * blocks_per_seq`` logical pages is the workload's whole
    region (:func:`kvcache_lba_space`); slot *s* owns the contiguous
    block range ``[s * blocks_per_seq, (s+1) * blocks_per_seq)``, so
    per-sequence access is sequential within a slot region.
    """

    #: Concurrent sequence slots (the continuous-batching width).
    num_slots: int = legal(12, ge=1)
    #: Max KV blocks (= 4 KiB pages) one sequence may materialise.
    blocks_per_seq: int = legal(24, ge=2)
    #: Zipf exponent for sequence target lengths (larger = shorter
    #: typical sequences, heavier contrast with the tail).
    zipf_alpha: float = legal(1.4, gt=1)
    #: Fraction of a sequence's target length written in its prefill burst.
    prefill_fraction: float = legal(0.25, gt=0, le=1)
    #: Decode reads touch block 0 plus this many trailing blocks.
    attention_window: int = legal(4, ge=1)
    #: Decode steps per KV block (how often the tail block is extended).
    tokens_per_block: int = legal(8, ge=1)
    #: Scheduler events recorded (admissions + decode steps).
    events: int = legal(2048, ge=2)
    seed: int = legal(7, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.events < 2 * self.num_slots:
            raise ConfigError(
                "events must be >= 2 * num_slots (enough to admit and "
                "decode at least once per slot)"
            )


def kvcache_lba_space(spec: KvCacheSpec) -> int:
    """Logical pages the workload's region spans."""
    return spec.num_slots * spec.blocks_per_seq


@dataclass(frozen=True)
class KvCacheSchedule:
    """The deterministic schedule: per-request logical block tuples
    (region-relative), plus the summary stats tests pin down."""

    reads: Tuple[Tuple[int, ...], ...]
    appends: Tuple[Tuple[int, ...], ...]
    sequences_started: int
    sequences_finished: int
    mean_target_blocks: float
    max_target_blocks: int


def build_schedule(spec: KvCacheSpec) -> KvCacheSchedule:
    """Run the slot scheduler for ``spec.events`` steps.

    Each step picks a slot (seeded uniform draw).  An empty slot admits a
    fresh sequence — Zipf target length, prefill burst appended; a busy
    slot decodes — attention-window read appended, and every
    ``tokens_per_block``-th token either extends the tail block or, at
    target length, retires the sequence and frees the slot.
    """
    rng = np.random.default_rng(spec.seed)
    reads: List[Tuple[int, ...]] = []
    appends: List[Tuple[int, ...]] = []
    # Per-slot state: None = free, else (cur_blocks, target, tokens_into).
    slots: List[Tuple[int, int, int] | None] = [None] * spec.num_slots
    started = finished = 0
    targets: List[int] = []
    for _ in range(spec.events):
        slot = int(rng.integers(0, spec.num_slots))
        base = slot * spec.blocks_per_seq
        state = slots[slot]
        if state is None:
            # Admit: Zipf-skewed target length, then the prefill burst.
            z = int(rng.zipf(spec.zipf_alpha))
            target = max(2, min(spec.blocks_per_seq, z))
            prefill = max(1, int(target * spec.prefill_fraction))
            appends.append(tuple(base + b for b in range(prefill)))
            slots[slot] = (prefill, target, 0)
            started += 1
            targets.append(target)
            continue
        cur, target, tokens = state
        # Decode: attention window = landmark block 0 + trailing blocks.
        window = min(spec.attention_window, cur)
        blocks = [base]
        for b in range(cur - window, cur):
            lba = base + b
            if lba not in blocks:
                blocks.append(lba)
        reads.append(tuple(blocks))
        tokens += 1
        if tokens >= spec.tokens_per_block:
            tokens = 0
            if cur < target:
                # Tail block extension: one page through the cache.
                appends.append((base + cur,))
                cur += 1
            else:
                # Sequence done; the slot's blocks go cold until reuse.
                slots[slot] = None
                finished += 1
                continue
        slots[slot] = (cur, target, tokens)
    if not reads or not appends:
        raise ValueError(
            "schedule produced an empty trace; increase spec.events"
        )
    return KvCacheSchedule(
        reads=tuple(reads),
        appends=tuple(appends),
        sequences_started=started,
        sequences_finished=finished,
        mean_target_blocks=float(np.mean(targets)) if targets else 0.0,
        max_target_blocks=max(targets) if targets else 0,
    )


def kvcache_traces(
    spec: KvCacheSpec,
    read_rate_rps: float,
    lba_base: int = 0,
) -> Tuple[TraceReplay, TraceReplay]:
    """The schedule as two lock-step logical serve traces
    ``(read_trace, append_trace)``.

    Both carry *logical* LBAs (``lba_base`` + region-relative block), so
    the serve engine resolves them through the backend's placement policy
    at arrival and the same workload replays on any array layout.  Reads
    are evenly paced at ``read_rate_rps``; appends are paced so both
    traces complete one schedule pass in the same simulated time — the
    append stream is causally tied to the decode stream, not an
    independent arrival process.
    """
    if read_rate_rps <= 0:
        raise ValueError("read_rate_rps must be > 0")
    sched = build_schedule(spec)
    read_gap = NS_PER_S / read_rate_rps
    pass_ns = read_gap * len(sched.reads)
    append_gap = pass_ns / len(sched.appends)
    read_trace = TraceReplay(
        [read_gap] * len(sched.reads),
        logical=[tuple(lba_base + b for b in req) for req in sched.reads],
    )
    append_trace = TraceReplay(
        [append_gap] * len(sched.appends),
        logical=[tuple(lba_base + b for b in req) for req in sched.appends],
    )
    return read_trace, append_trace

"""System configuration dataclasses and timing calibration.

All simulated times are in **nanoseconds** (floats).  The constants below are
calibrated so that the simulated hardware reproduces the saturation points the
paper measures on its testbed (Dell R750, RTX 5000 Ada, Dell 1.6 TB AIC +
2x Samsung 990 PRO; see DESIGN.md section 4):

- one SSD saturates ~3.7 GB/s on 4 KiB random reads (paper Fig. 5),
- one SSD saturates ~2.2 GB/s on 4 KiB random writes (paper Fig. 6),
- PCIe Gen4 x4 per SSD (~6.9 GB/s effective) is not the binding constraint,
- the GPU sits on PCIe Gen4 x16.

The reproduction targets *shapes and ratios*, not absolute wall-clock numbers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Mapping

#: Bytes per flash page / NVMe logical block used throughout (paper §2.3.3).
PAGE_SIZE = 4096

#: Nanoseconds per second, for bandwidth conversions.
NS_PER_S = 1e9


def gbps_to_bytes_per_ns(gb_per_s: float) -> float:
    """Convert GB/s (decimal gigabytes) to bytes per nanosecond."""
    return gb_per_s * 1e9 / NS_PER_S


# -- canonical hashing --------------------------------------------------------
#
# Every experiment document carries a configuration fingerprint so results
# are comparable across commits (`repro.store` refuses to compare a fresh
# document with a golden whose fingerprint differs).  The fingerprint must
# be *canonical*: independent of dict insertion order, of tuple vs list
# spelling, and of which dataclass layer produced the values.  Both
# `SystemConfig.config_hash()` and `Experiment.config_hash()` hash through
# the two functions below, so "same machine, same knobs" always lands on
# the same hex digest.


def canonical_payload(obj: object) -> object:
    """Reduce ``obj`` to a canonical JSON-able structure.

    Dataclasses become field dicts, mappings are key-sorted (keys are
    stringified), tuples/sets become sorted-where-unordered lists, and
    scalars pass through.  The output round-trips through ``json.dumps``
    deterministically.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, Mapping):
        return {
            str(k): canonical_payload(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical_payload(v) for v in obj)  # type: ignore[type-var]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for hashing")


def stable_hash(obj: object) -> str:
    """16-hex-digit sha256 of the canonical JSON encoding of ``obj``.

    Stable under dict-order permutation and tuple/list spelling; floats
    use Python's shortest round-trip repr, which is itself deterministic.
    """
    text = json.dumps(
        canonical_payload(obj), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class PcieConfig:
    """A PCIe link between two devices.

    ``lanes`` scales bandwidth linearly; ``efficiency`` folds TLP header and
    flow-control overhead into a single factor, which is the standard
    first-order model for PCIe payload throughput.
    """

    generation: int = 4
    lanes: int = 4
    #: Raw per-lane bandwidth for Gen4 in GB/s (16 GT/s, 128b/130b).
    per_lane_gbps: float = 1.969
    #: Fraction of raw bandwidth usable for payload after TLP overhead.
    efficiency: float = 0.88
    #: One-way propagation + root-complex forwarding latency (ns).
    latency_ns: float = 450.0
    #: Latency of a posted MMIO write (doorbell ring) as seen by the GPU (ns).
    mmio_write_ns: float = 800.0

    @property
    def bytes_per_ns(self) -> float:
        """Effective payload bandwidth in bytes/ns."""
        return gbps_to_bytes_per_ns(
            self.per_lane_gbps * self.lanes * self.efficiency
        )


@dataclass(frozen=True)
class SsdConfig:
    """An NVMe SSD: flash geometry, protocol timing, queue limits.

    Flash service times are calibrated so that ``channels`` concurrent 4 KiB
    operations saturate at the paper's measured per-SSD bandwidths:
    45 channels x 4096 B / 49.8 us = 3.70 GB/s reads, and /83.8 us =
    2.20 GB/s writes.
    """

    name: str = "ssd"
    capacity_bytes: int = 1 << 34  # 16 GiB simulated flash is ample for repro
    page_size: int = PAGE_SIZE
    #: Independent flash channels (NAND-level parallelism).
    channels: int = 45
    #: 4 KiB flash read service time per page (ns).
    read_latency_ns: float = 49_800.0
    #: 4 KiB flash program service time per page (ns).
    write_latency_ns: float = 83_800.0
    #: Controller time to fetch one SQE after a doorbell (DMA read, ns).
    sqe_fetch_ns: float = 1_200.0
    #: Controller time to post one CQE (DMA write, ns).
    cqe_post_ns: float = 600.0
    #: Fixed controller command-processing overhead per command (ns).
    cmd_overhead_ns: float = 1_000.0
    #: Hardware limit on I/O queue pairs (Samsung 980 PRO supports 128).
    max_queue_pairs: int = 128
    #: Maximum entries per submission/completion queue.
    max_queue_depth: int = 1024
    pcie: PcieConfig = field(default_factory=PcieConfig)
    # -- FTL geometry and garbage collection (repro.nvme.ftl) -----------------
    #: Pages per erase block (NAND erase granularity).
    pages_per_block: int = 256
    #: Over-provisioned spare blocks as a fraction of the logical block
    #: count (enterprise drives ship ~7%; GC headroom lives here).
    op_ratio: float = 0.07
    #: Block erase service time (ns).  Erase is ~25-50x a page program on
    #: real NAND; this is the program/erase asymmetry GC pauses come from.
    erase_latency_ns: float = 2_000_000.0
    #: GC victim selection: ``greedy`` (min valid pages) or
    #: ``cost_benefit`` (age-weighted utilization, Rosenblum-style).
    gc_policy: str = "greedy"
    #: Background GC starts when the free-block pool drops below this.
    gc_low_water_blocks: int = 4
    #: ...and runs until the pool is back above this.
    gc_high_water_blocks: int = 8
    #: Out-of-place programs with invalidation + GC.  ``False`` degrades to
    #: in-place updates (WAF = 1.0, no erases) — the pre-FTL timing model
    #: and the GC-off baseline for tail-latency comparisons.
    gc_enabled: bool = True

    @property
    def num_pages(self) -> int:
        return self.capacity_bytes // self.page_size

    @property
    def num_blocks(self) -> int:
        """Logical capacity in erase blocks."""
        return self.num_pages // self.pages_per_block

    @property
    def op_blocks(self) -> int:
        """Over-provisioned spare blocks (at least one when GC is on)."""
        spare = int(self.num_blocks * self.op_ratio)
        return max(spare, 1) if self.gc_enabled else spare

    @property
    def physical_blocks(self) -> int:
        return self.num_blocks + self.op_blocks

    @property
    def peak_read_bw(self) -> float:
        """Aggregate flash read bandwidth in bytes/ns."""
        return self.channels * self.page_size / self.read_latency_ns

    @property
    def peak_write_bw(self) -> float:
        """Aggregate flash program bandwidth in bytes/ns."""
        return self.channels * self.page_size / self.write_latency_ns


@dataclass(frozen=True)
class GpuConfig:
    """The GPU: SM array, clock, HBM, register file, warp geometry."""

    name: str = "gpu"
    num_sms: int = 16
    warp_size: int = 32
    #: Core clock in GHz; 1 cycle = 1/clock_ghz ns.
    clock_ghz: float = 1.5
    #: Warp-instructions issued per SM per cycle (fair-shared among warps).
    issue_width: int = 4
    #: Maximum resident warps per SM (occupancy ceiling).
    max_warps_per_sm: int = 48
    #: Maximum thread blocks resident per SM.
    max_blocks_per_sm: int = 24
    #: 32-bit registers per SM (RTX 5000 Ada class).
    registers_per_sm: int = 65_536
    #: Maximum registers addressable per thread.
    max_registers_per_thread: int = 255
    #: Shared memory per SM in bytes.
    shared_mem_per_sm: int = 100 * 1024
    #: HBM/GDDR load-to-use latency (ns).
    hbm_latency_ns: float = 450.0
    #: HBM bandwidth in GB/s.
    hbm_bandwidth_gbps: float = 576.0
    #: Latency of one global-memory atomic operation (ns).
    atomic_latency_ns: float = 120.0
    #: Serialized service time per atomic at the L2 atomic units (ns);
    #: bounds GPU-wide atomic throughput (~4 ns -> ~250M atomics/s, the
    #: right order for contended same-line atomics).
    atomic_service_ns: float = 4.0
    #: PCIe link to the host / switch complex (Gen4 x16).
    pcie: PcieConfig = field(default_factory=lambda: PcieConfig(lanes=16))

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.clock_ghz

    @property
    def hbm_bytes_per_ns(self) -> float:
        return gbps_to_bytes_per_ns(self.hbm_bandwidth_gbps)

    def cycles(self, n: float) -> float:
        """Convert a cycle count to nanoseconds."""
        return n * self.cycle_ns


@dataclass(frozen=True)
class CacheConfig:
    """AGILE software cache geometry (lives in simulated HBM)."""

    num_lines: int = 1024
    line_size: int = PAGE_SIZE
    #: Set associativity; lines are grouped into sets of this many ways.
    ways: int = 8
    policy: str = "clock"
    #: Enable the Share Table (paper §3.4.1 compile-time option).
    share_table: bool = True
    #: Optional host-DRAM victim tier capacity in lines (0 = disabled);
    #: implements the paper's §5 first extension.
    dram_tier_lines: int = 0

    @property
    def capacity_bytes(self) -> int:
        return self.num_lines * self.line_size

    @property
    def set_ways(self) -> int:
        return min(self.ways, self.num_lines)

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.set_ways


@dataclass(frozen=True)
class ServiceConfig:
    """AGILE service daemon configuration (paper §3.2)."""

    #: Number of warps dedicated to CQ polling.
    polling_warps: int = 2
    #: Cycles of work per polling iteration per CQE window (Algorithm 1 body).
    poll_iteration_cycles: float = 24.0
    #: Idle back-off between polling sweeps when nothing is pending (ns).
    idle_poll_ns: float = 200.0


@dataclass(frozen=True)
class ApiCostConfig:
    """Instruction-cost model for the AGILE / BaM API fast paths (cycles).

    These model the *software* overhead of each API on the critical path:
    hashing, tag checks, lock handling.  AGILE's numbers are lower because of
    its lean lock protocol and the offloaded completion handling (paper §4.5,
    §4.6); BaM's are higher because every thread carries inline CQ-polling
    and heavier cache critical sections.
    """

    cache_lookup_cycles: float = 40.0
    cache_insert_cycles: float = 60.0
    issue_setup_cycles: float = 50.0
    warp_coalesce_cycles: float = 12.0
    share_table_cycles: float = 30.0


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault-injection plan (``repro.faults``).

    All rates are per-decision probabilities drawn from named
    :class:`~repro.sim.rng.RngStreams` streams, so a (seed, plan) pair is
    bit-reproducible and adding a new fault class never perturbs existing
    ones.  Faults only fire inside ``[window_start_ns, window_end_ns)``.
    The ``*_fail_first`` knobs are count-based (first N operations fail
    unconditionally) for timing-independent targeted tests.
    """

    #: Probability a flash page read returns an unrecovered media error.
    flash_read_error_rate: float = 0.0
    #: Probability a flash page program reports a write fault.
    flash_write_error_rate: float = 0.0
    #: Probability a flash operation is a latency outlier.
    flash_latency_outlier_rate: float = 0.0
    #: Service-time multiplier for latency outliers (tail events).
    flash_latency_outlier_mult: float = 25.0
    #: Probability a completion is silently lost (never posted).
    cqe_drop_rate: float = 0.0
    #: Probability a completion is posted twice.
    cqe_duplicate_rate: float = 0.0
    #: Probability one DMA transfer hits a transient link stall.
    pcie_stall_rate: float = 0.0
    #: Duration of one transient PCIe stall (ns).
    pcie_stall_ns: float = 120_000.0
    #: Probability a block erase fails; the FTL retires the block as bad.
    flash_erase_error_rate: float = 0.0
    #: Fault window start (simulated ns).
    window_start_ns: float = 0.0
    #: Fault window end (simulated ns; ``inf`` = whole run).
    window_end_ns: float = float("inf")
    #: Deterministic: the first N flash page reads fail (then rates apply).
    flash_read_fail_first: int = 0
    #: Deterministic: the first N flash page programs fail (then rates
    #: apply).  GC relocation programs draw from the same budget.
    flash_program_fail_first: int = 0
    #: Deterministic: the first N completions are dropped (then rates apply).
    cqe_drop_first: int = 0

    @property
    def active(self) -> bool:
        """Whether any fault source is armed (hooks are skipped if not)."""
        return (
            self.flash_read_error_rate > 0.0
            or self.flash_write_error_rate > 0.0
            or self.flash_latency_outlier_rate > 0.0
            or self.cqe_drop_rate > 0.0
            or self.cqe_duplicate_rate > 0.0
            or self.pcie_stall_rate > 0.0
            or self.flash_erase_error_rate > 0.0
            or self.flash_read_fail_first > 0
            or self.flash_program_fail_first > 0
            or self.cqe_drop_first > 0
        )


@dataclass(frozen=True)
class RecoveryConfig:
    """Driver/service recovery policy: timeout, retry, circuit breaker.

    Armed automatically whenever the fault plan is active; ``enabled``
    forces the recovery daemon on for fault-free runs too (it then only
    costs one periodic scan).
    """

    enabled: bool = False
    #: Per-command completion deadline before abort-and-resubmit (ns).
    command_timeout_ns: float = 2_000_000.0
    #: Recovery daemon scan period (ns).
    scan_interval_ns: float = 250_000.0
    #: Resubmissions per command before it is failed with ABORTED status.
    max_retries: int = 4
    #: Initial retry back-off (ns); doubles per attempt.
    retry_backoff_ns: float = 20_000.0
    #: Multiplier applied to the back-off per retry (exponential).
    retry_backoff_mult: float = 2.0
    #: Consecutive failures (timeouts or error CQEs) that open a device's
    #: circuit breaker; pending and future I/O then fails fast.
    breaker_threshold: int = 12


#: Placement policies `repro.placement.make_placement` knows how to build
#: (kept here so config validation has no import cycle with the package).
PLACEMENT_POLICIES = (
    "identity",
    "shard",
    "striped",
    "load_aware",
    "tenant_affine",
)


@dataclass(frozen=True)
class PlacementConfig:
    """Logical-to-physical placement over the SSD array.

    ``striped`` with a one-page stripe is the paper's page-interleaved
    layout; on a single-SSD array it is bit-identical to ``identity``
    (logical LBA == device LBA), so the default preserves the goldens.
    """

    #: One of :data:`PLACEMENT_POLICIES`.
    policy: str = "striped"
    #: Stripe chunk in pages (``striped`` only).
    stripe_pages: int = 1
    #: Logical span carved into contiguous shards (``shard`` only);
    #: 0 means "the whole array".
    shard_span: int = 0
    #: Cap on mappings migrated per ``rebalance`` call (sticky policies).
    rebalance_max_moves: int = 64


@dataclass(frozen=True)
class SystemConfig:
    """Top-level bundle describing one simulated machine."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    ssds: tuple[SsdConfig, ...] = field(
        default_factory=lambda: (SsdConfig(name="ssd0"),)
    )
    cache: CacheConfig = field(default_factory=CacheConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    api: ApiCostConfig = field(default_factory=ApiCostConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    #: I/O queue pairs per SSD.
    queue_pairs: int = 8
    #: Entries per submission queue.
    queue_depth: int = 64
    seed: int = 0xA617E

    def config_hash(self) -> str:
        """Canonical fingerprint of this machine (see :func:`stable_hash`).

        Two configs built through different code paths but describing the
        same machine hash identically; any field change — even nested —
        produces a new digest.  The experiment store keys baselines by it.
        """
        return stable_hash(self)

    def with_ssds(
        self,
        count: int,
        *,
        policy: str | None = None,
        stripe_pages: int | None = None,
    ) -> "SystemConfig":
        """Return a validated copy with ``count`` identical SSDs.

        Growing the array re-validates per-device queue limits and grows
        the stripe parameters: ``policy``/``stripe_pages`` override the
        placement config, and an ``identity`` placement that no longer
        fits a multi-device array is promoted to ``striped``.
        """
        base = self.ssds[0]
        place = self.placement
        if policy is not None or stripe_pages is not None:
            place = replace(
                place,
                policy=policy if policy is not None else place.policy,
                stripe_pages=(
                    stripe_pages
                    if stripe_pages is not None
                    else place.stripe_pages
                ),
            )
        if count > 1 and place.policy == "identity":
            place = replace(place, policy="striped")
        cfg = replace(
            self,
            ssds=tuple(replace(base, name=f"ssd{i}") for i in range(count)),
            placement=place,
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent configuration."""
        if not self.ssds:
            raise ValueError("at least one SSD is required")
        for ssd in self.ssds:
            if self.queue_pairs > ssd.max_queue_pairs:
                raise ValueError(
                    f"{ssd.name}: {self.queue_pairs} queue pairs exceed the "
                    f"device limit of {ssd.max_queue_pairs}"
                )
            if self.queue_depth > ssd.max_queue_depth:
                raise ValueError(
                    f"{ssd.name}: queue depth {self.queue_depth} exceeds the "
                    f"device limit of {ssd.max_queue_depth}"
                )
            if self.queue_depth < 2:
                raise ValueError("queue depth must be at least 2")
        for ssd in self.ssds:
            if ssd.pages_per_block < 1:
                raise ValueError(f"{ssd.name}: pages_per_block must be >= 1")
            if ssd.num_pages % ssd.pages_per_block:
                raise ValueError(
                    f"{ssd.name}: pages_per_block={ssd.pages_per_block} must "
                    f"divide the device capacity of {ssd.num_pages} pages"
                )
            if not 0.0 <= ssd.op_ratio < 1.0:
                raise ValueError(
                    f"{ssd.name}: op_ratio must be in [0, 1), got {ssd.op_ratio}"
                )
            if ssd.erase_latency_ns <= 0:
                raise ValueError(f"{ssd.name}: erase_latency_ns must be positive")
            if ssd.gc_policy not in ("greedy", "cost_benefit"):
                raise ValueError(
                    f"{ssd.name}: gc_policy must be 'greedy' or "
                    f"'cost_benefit', got {ssd.gc_policy!r}"
                )
            if ssd.gc_low_water_blocks < 1:
                raise ValueError(f"{ssd.name}: gc_low_water_blocks must be >= 1")
            if ssd.gc_high_water_blocks < ssd.gc_low_water_blocks:
                raise ValueError(
                    f"{ssd.name}: gc_high_water_blocks must be >= "
                    "gc_low_water_blocks"
                )
        page_sizes = {ssd.page_size for ssd in self.ssds}
        if len(page_sizes) > 1:
            raise ValueError(
                "heterogeneous SSD page sizes are not supported: "
                + ", ".join(
                    f"{s.name}={s.page_size}" for s in self.ssds
                )
                + " (placement assumes one logical page granularity)"
            )
        for ssd in self.ssds:
            if self.cache.line_size != ssd.page_size:
                raise ValueError(
                    f"cache line size {self.cache.line_size} must match "
                    f"{ssd.name}'s page size {ssd.page_size} "
                    "(paper section 2.3.3: lines align with SSD granularity)"
                )
        if self.cache.num_lines < 1:
            raise ValueError("cache must have at least one line")
        if self.cache.ways < 1 or self.cache.num_lines % self.cache.set_ways:
            raise ValueError(f"cache.ways={self.cache.ways} must be >= 1 and "
                             f"divide cache.num_lines={self.cache.num_lines}")
        for name in (
            "flash_read_error_rate", "flash_write_error_rate",
            "flash_latency_outlier_rate", "cqe_drop_rate",
            "cqe_duplicate_rate", "pcie_stall_rate",
            "flash_erase_error_rate",
        ):
            rate = getattr(self.faults, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"faults.{name} must be in [0, 1], got {rate}")
        if self.faults.flash_latency_outlier_mult < 1.0:
            raise ValueError("faults.flash_latency_outlier_mult must be >= 1")
        if self.faults.window_end_ns < self.faults.window_start_ns:
            raise ValueError("faults window ends before it starts")
        if self.recovery.command_timeout_ns <= 0:
            raise ValueError("recovery.command_timeout_ns must be positive")
        if self.recovery.scan_interval_ns <= 0:
            raise ValueError("recovery.scan_interval_ns must be positive")
        if self.recovery.max_retries < 0:
            raise ValueError("recovery.max_retries must be non-negative")
        if self.recovery.breaker_threshold < 1:
            raise ValueError("recovery.breaker_threshold must be >= 1")
        issue_slots = self.gpu.issue_width * self.gpu.warp_size
        if not 1 <= self.service.polling_warps <= issue_slots:
            raise ValueError(
                f"service.polling_warps must be in [1, {issue_slots}] (issue slots)"
            )
        if self.service.poll_iteration_cycles <= 0:
            raise ValueError("service.poll_iteration_cycles must be positive")
        if self.service.idle_poll_ns < 0:
            raise ValueError("service.idle_poll_ns must be non-negative")
        if self.placement.policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement.policy!r}; "
                f"expected one of {', '.join(PLACEMENT_POLICIES)}"
            )
        if self.placement.policy == "identity" and len(self.ssds) > 1:
            raise ValueError(
                "identity placement requires exactly one SSD; pick "
                "striped/shard/load_aware/tenant_affine for arrays"
            )
        if self.placement.stripe_pages < 1:
            raise ValueError("placement.stripe_pages must be >= 1")
        if (
            self.placement.policy == "striped"
            and min(s.num_pages for s in self.ssds)
            % self.placement.stripe_pages
        ):
            raise ValueError(
                f"placement.stripe_pages={self.placement.stripe_pages} must "
                f"divide the device capacity of "
                f"{min(s.num_pages for s in self.ssds)} pages"
            )
        if self.placement.shard_span < 0:
            raise ValueError("placement.shard_span must be >= 0")
        if self.placement.rebalance_max_moves < 0:
            raise ValueError("placement.rebalance_max_moves must be >= 0")


def default_config(**overrides: object) -> SystemConfig:
    """Build a :class:`SystemConfig`, applying keyword overrides."""
    cfg = SystemConfig(**overrides)  # type: ignore[arg-type]
    cfg.validate()
    return cfg

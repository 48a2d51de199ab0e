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
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Mapping, Optional, Tuple

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
# spelling, and of which dataclass layer produced the values.
# `Experiment.config_hash()` hashes its spec and axes through the two
# functions below, so "same experiment, same knobs" always lands on the
# same hex digest.


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


# -- legal values -------------------------------------------------------------
#
# Every numeric field of a configuration or experiment-spec dataclass states
# its legal interval where it is declared (`legal(default, ge=1)`), and a
# categorical one its choices.  `Checked.__post_init__` holds each field to
# its declaration at construction (so `dataclasses.replace` and every
# `--set` re-check too); a class's own `__post_init__` adds only the rules
# that relate two fields.  The metadata never enters `canonical_payload`,
# so declaring a range moves no config hash.


class ConfigError(ValueError):
    """A configuration value outside its declared legal values, or two
    values that break a cross-field rule; the message names the field."""


class Interval:
    """A numeric field's legal values: ``lo`` to ``hi``, each end closed or
    open.  An unstated end is open at infinity, so NaN is never legal and
    an infinity only where ``le=math.inf`` admits it."""

    __slots__ = ("lo", "lo_closed", "hi", "hi_closed")

    def __init__(
        self,
        ge: Optional[float] = None,
        gt: Optional[float] = None,
        le: Optional[float] = None,
        lt: Optional[float] = None,
    ):
        self.lo_closed = ge is not None
        self.lo = ge if ge is not None else gt if gt is not None else -math.inf
        self.hi_closed = le is not None
        self.hi = le if le is not None else lt if lt is not None else math.inf

    def __contains__(self, value: Any) -> bool:
        above = value >= self.lo if self.lo_closed else value > self.lo
        below = value <= self.hi if self.hi_closed else value < self.hi
        return above and below

    def __repr__(self) -> str:
        return (
            f"{'[' if self.lo_closed else '('}{self.lo!r}, "
            f"{self.hi!r}{']' if self.hi_closed else ')'}"
        )


def legal(
    default: Any = MISSING,
    *,
    ge: Optional[float] = None,
    gt: Optional[float] = None,
    le: Optional[float] = None,
    lt: Optional[float] = None,
    choices: Optional[Tuple[str, ...]] = None,
) -> Any:
    """A dataclass field declared with its legal values: the interval
    bounded by ``ge``/``gt`` below and ``le``/``lt`` above, or one of
    ``choices``."""
    rule = choices if choices is not None else Interval(ge, gt, le, lt)
    return field(default=default, metadata={"legal": rule})


class Checked:
    """Base of every configuration and experiment-spec dataclass: each
    field is held to its :func:`legal` declaration at construction."""

    def __post_init__(self) -> None:
        for f in fields(self):  # type: ignore[arg-type]
            rule = f.metadata.get("legal")
            value = getattr(self, f.name)
            if rule is not None and value not in rule:
                raise ConfigError(
                    f"{type(self).__name__}.{f.name} must be in {rule!r}, "
                    f"got {value!r}"
                )


@dataclass(frozen=True)
class PcieConfig(Checked):
    """A PCIe link between two devices.

    ``lanes`` scales bandwidth linearly; ``efficiency`` folds TLP header and
    flow-control overhead into a single factor, which is the standard
    first-order model for PCIe payload throughput.
    """

    lanes: int = legal(4, ge=1)
    #: Raw per-lane bandwidth for Gen4 in GB/s (16 GT/s, 128b/130b).
    per_lane_gbps: float = legal(1.969, gt=0)
    #: Fraction of raw bandwidth usable for payload after TLP overhead.
    efficiency: float = legal(0.88, gt=0, le=1)
    #: One-way propagation + root-complex forwarding latency (ns).
    latency_ns: float = legal(450.0, ge=0)
    #: Latency of a posted MMIO write (doorbell ring) as seen by the GPU (ns).
    mmio_write_ns: float = legal(800.0, ge=0)

    @property
    def bytes_per_ns(self) -> float:
        """Effective payload bandwidth in bytes/ns."""
        return gbps_to_bytes_per_ns(
            self.per_lane_gbps * self.lanes * self.efficiency
        )


@dataclass(frozen=True)
class SsdConfig(Checked):
    """An NVMe SSD: flash geometry, protocol timing, queue limits.

    Flash service times are calibrated so that ``channels`` concurrent 4 KiB
    operations saturate at the paper's measured per-SSD bandwidths:
    45 channels x 4096 B / 49.8 us = 3.70 GB/s reads, and /83.8 us =
    2.20 GB/s writes.
    """

    name: str = "ssd"
    #: 16 GiB simulated flash is ample for repro.
    capacity_bytes: int = legal(1 << 34, ge=1)
    page_size: int = legal(PAGE_SIZE, ge=1)
    #: Independent flash channels (NAND-level parallelism).
    channels: int = legal(45, ge=1)
    #: 4 KiB flash read service time per page (ns).
    read_latency_ns: float = legal(49_800.0, gt=0)
    #: 4 KiB flash program service time per page (ns).
    write_latency_ns: float = legal(83_800.0, gt=0)
    #: Controller time to fetch one SQE after a doorbell (DMA read, ns).
    sqe_fetch_ns: float = legal(1_200.0, ge=0)
    #: Controller time to post one CQE (DMA write, ns).
    cqe_post_ns: float = legal(600.0, ge=0)
    #: Fixed controller command-processing overhead per command (ns).
    cmd_overhead_ns: float = legal(1_000.0, ge=0)
    #: Hardware limit on I/O queue pairs (Samsung 980 PRO supports 128).
    max_queue_pairs: int = legal(128, ge=1)
    #: Maximum entries per submission/completion queue.
    max_queue_depth: int = legal(1024, ge=2)
    pcie: PcieConfig = field(default_factory=PcieConfig)
    # -- FTL geometry and garbage collection (repro.nvme.ftl) -----------------
    #: Pages per erase block (NAND erase granularity).
    pages_per_block: int = legal(256, ge=1)
    #: Over-provisioned spare blocks as a fraction of the logical block
    #: count (enterprise drives ship ~7%; GC headroom lives here).
    op_ratio: float = legal(0.07, ge=0, lt=1)
    #: Block erase service time (ns).  Erase is ~25-50x a page program on
    #: real NAND; this is the program/erase asymmetry GC pauses come from.
    erase_latency_ns: float = legal(2_000_000.0, gt=0)
    #: GC victim selection: ``greedy`` (min valid pages) or
    #: ``cost_benefit`` (age-weighted utilization, Rosenblum-style).
    gc_policy: str = legal("greedy", choices=("greedy", "cost_benefit"))
    #: Background GC starts when the free-block pool drops below this.
    gc_low_water_blocks: int = legal(4, ge=1)
    #: ...and runs until the pool is back above this.
    gc_high_water_blocks: int = legal(8, ge=1)
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
class GpuConfig(Checked):
    """The GPU: SM array, clock, HBM, register file, warp geometry."""

    name: str = "gpu"
    num_sms: int = legal(16, ge=1)
    warp_size: int = legal(32, ge=1)
    #: Core clock in GHz; 1 cycle = 1/clock_ghz ns.
    clock_ghz: float = legal(1.5, gt=0)
    #: Warp-instructions issued per SM per cycle (fair-shared among warps).
    issue_width: int = legal(4, ge=1)
    #: Maximum resident warps per SM (occupancy ceiling).
    max_warps_per_sm: int = legal(48, ge=1)
    #: Maximum thread blocks resident per SM.
    max_blocks_per_sm: int = legal(24, ge=1)
    #: 32-bit registers per SM (RTX 5000 Ada class).
    registers_per_sm: int = legal(65_536, ge=1)
    #: Maximum registers addressable per thread.
    max_registers_per_thread: int = legal(255, ge=1)
    #: Shared memory per SM in bytes.
    shared_mem_per_sm: int = legal(100 * 1024, ge=0)
    #: HBM/GDDR load-to-use latency (ns).
    hbm_latency_ns: float = legal(450.0, ge=0)
    #: HBM bandwidth in GB/s.
    hbm_bandwidth_gbps: float = legal(576.0, gt=0)
    #: Latency of one global-memory atomic operation (ns).
    atomic_latency_ns: float = legal(120.0, ge=0)
    #: Serialized service time per atomic at the L2 atomic units (ns);
    #: bounds GPU-wide atomic throughput (~4 ns -> ~250M atomics/s, the
    #: right order for contended same-line atomics).
    atomic_service_ns: float = legal(4.0, ge=0)
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
class CacheConfig(Checked):
    """AGILE software cache geometry (lives in simulated HBM)."""

    num_lines: int = legal(1024, ge=1)
    line_size: int = legal(PAGE_SIZE, ge=1)
    #: Set associativity; lines are grouped into sets of this many ways.
    ways: int = legal(8, ge=1)
    policy: str = "clock"
    #: Enable the Share Table (paper §3.4.1 compile-time option).
    share_table: bool = True
    #: Optional host-DRAM victim tier capacity in lines (0 = disabled);
    #: implements the paper's §5 first extension.
    dram_tier_lines: int = legal(0, ge=0)

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
class ServiceConfig(Checked):
    """AGILE service daemon configuration (paper §3.2)."""

    #: Number of warps dedicated to CQ polling.
    polling_warps: int = legal(2, ge=1)
    #: Cycles of work per polling iteration per CQE window (Algorithm 1 body).
    poll_iteration_cycles: float = legal(24.0, gt=0)
    #: Idle back-off between polling sweeps when nothing is pending (ns).
    idle_poll_ns: float = legal(200.0, ge=0)


@dataclass(frozen=True)
class ApiCostConfig(Checked):
    """Instruction-cost model for the AGILE / BaM API fast paths (cycles).

    These model the *software* overhead of each API on the critical path:
    hashing, tag checks, lock handling.  AGILE's numbers are lower because of
    its lean lock protocol and the offloaded completion handling (paper §4.5,
    §4.6); BaM's are higher because every thread carries inline CQ-polling
    and heavier cache critical sections.
    """

    cache_lookup_cycles: float = legal(40.0, ge=0)
    cache_insert_cycles: float = legal(60.0, ge=0)
    issue_setup_cycles: float = legal(50.0, ge=0)
    warp_coalesce_cycles: float = legal(12.0, ge=0)
    share_table_cycles: float = legal(30.0, ge=0)


@dataclass(frozen=True)
class FaultConfig(Checked):
    """Deterministic fault-injection plan (``repro.faults``).

    All rates are per-decision probabilities drawn from named
    :class:`~repro.sim.rng.RngStreams` streams, so a (seed, plan) pair is
    bit-reproducible and adding a new fault class never perturbs existing
    ones.  Faults only fire inside ``[window_start_ns, window_end_ns)``.
    The ``*_fail_first`` knobs are count-based (first N operations fail
    unconditionally) for timing-independent targeted tests.
    """

    #: Probability a flash page read returns an unrecovered media error.
    flash_read_error_rate: float = legal(0.0, ge=0, le=1)
    #: Probability a flash page program reports a write fault.
    flash_write_error_rate: float = legal(0.0, ge=0, le=1)
    #: Probability a flash operation is a latency outlier.
    flash_latency_outlier_rate: float = legal(0.0, ge=0, le=1)
    #: Service-time multiplier for latency outliers (tail events).
    flash_latency_outlier_mult: float = legal(25.0, ge=1)
    #: Probability a completion is silently lost (never posted).
    cqe_drop_rate: float = legal(0.0, ge=0, le=1)
    #: Probability a completion is posted twice.
    cqe_duplicate_rate: float = legal(0.0, ge=0, le=1)
    #: Probability one DMA transfer hits a transient link stall.
    pcie_stall_rate: float = legal(0.0, ge=0, le=1)
    #: Duration of one transient PCIe stall (ns).
    pcie_stall_ns: float = legal(120_000.0, ge=0)
    #: Probability a block erase fails; the FTL retires the block as bad.
    flash_erase_error_rate: float = legal(0.0, ge=0, le=1)
    #: Fault window start (simulated ns).
    window_start_ns: float = legal(0.0, ge=0)
    #: Fault window end (simulated ns; ``inf`` = whole run).
    window_end_ns: float = legal(math.inf, ge=0, le=math.inf)
    #: Deterministic: the first N flash page reads fail (then rates apply).
    flash_read_fail_first: int = legal(0, ge=0)
    #: Deterministic: the first N flash page programs fail (then rates
    #: apply).  GC relocation programs draw from the same budget.
    flash_program_fail_first: int = legal(0, ge=0)
    #: Deterministic: the first N completions are dropped (then rates apply).
    cqe_drop_first: int = legal(0, ge=0)

    @property
    def active(self) -> bool:
        """Whether any fault source is armed (hooks are skipped if not)."""
        return any(
            getattr(self, f.name) > 0
            for f in fields(self)
            if f.name.endswith(("_rate", "_first"))
        )


@dataclass(frozen=True)
class RecoveryConfig(Checked):
    """Driver/service recovery policy: timeout, retry, circuit breaker.

    Armed automatically whenever the fault plan is active; ``enabled``
    forces the recovery daemon on for fault-free runs too (it then only
    costs one periodic scan).
    """

    enabled: bool = False
    #: Per-command completion deadline before abort-and-resubmit (ns).
    command_timeout_ns: float = legal(2_000_000.0, gt=0)
    #: Recovery daemon scan period (ns).
    scan_interval_ns: float = legal(250_000.0, gt=0)
    #: Resubmissions per command before it is failed with ABORTED status
    #: (at most a byte's worth, as Linux's ``nvme_core.max_retries``).
    max_retries: int = legal(4, ge=0, le=255)
    #: Initial retry back-off (ns); doubles per attempt.
    retry_backoff_ns: float = legal(20_000.0, ge=0)
    #: Multiplier applied to the back-off per retry (exponential); at most
    #: 16, so the last retry's factor (16 ** 254 = 2 ** 1016) is a float.
    retry_backoff_mult: float = legal(2.0, ge=1, le=16)
    #: Consecutive failures (timeouts or error CQEs) that open a device's
    #: circuit breaker; pending and future I/O then fails fast.
    breaker_threshold: int = legal(12, ge=1)


#: Placement policies `repro.placement.make_placement` knows how to build
#: (kept here so config validation has no import cycle with the package).
PLACEMENT_POLICIES = (
    "shard",
    "striped",
    "load_aware",
    "tenant_affine",
)


@dataclass(frozen=True)
class PlacementConfig(Checked):
    """Logical-to-physical placement over the SSD array.

    ``striped`` with a one-page stripe is the paper's page-interleaved
    layout; on a single-SSD array it is the identity map (logical LBA ==
    device LBA).
    """

    policy: str = legal("striped", choices=PLACEMENT_POLICIES)
    #: Stripe chunk in pages (``striped`` only).
    stripe_pages: int = legal(1, ge=1)
    #: Logical span carved into contiguous shards (``shard`` only);
    #: 0 means "the whole array".
    shard_span: int = legal(0, ge=0)


@dataclass(frozen=True)
class SystemConfig(Checked):
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
    queue_pairs: int = legal(8, ge=1)
    #: Entries per submission queue.
    queue_depth: int = legal(64, ge=2)
    #: Root of every named random stream (numpy takes no negative seed).
    seed: int = legal(0xA617E, ge=0)

    def with_ssds(self, count: int) -> "SystemConfig":
        """Return a copy with ``count`` identical SSDs; the copy checks
        itself like any config."""
        base = self.ssds[0]
        return replace(
            self,
            ssds=tuple(replace(base, name=f"ssd{i}") for i in range(count)),
        )

    def __post_init__(self) -> None:
        """The rules that relate two fields; each field's own range is
        declared on it."""
        super().__post_init__()
        if not self.ssds:
            raise ConfigError("at least one SSD is required")
        for ssd in self.ssds:
            if self.queue_pairs > ssd.max_queue_pairs:
                raise ConfigError(
                    f"{ssd.name}: {self.queue_pairs} queue pairs exceed the "
                    f"device limit of {ssd.max_queue_pairs}"
                )
            if self.queue_depth > ssd.max_queue_depth:
                raise ConfigError(
                    f"{ssd.name}: queue depth {self.queue_depth} exceeds the "
                    f"device limit of {ssd.max_queue_depth}"
                )
            if not ssd.num_pages or ssd.num_pages % ssd.pages_per_block:
                raise ConfigError(
                    f"{ssd.name}: pages_per_block={ssd.pages_per_block} must "
                    f"divide the device capacity of {ssd.num_pages} pages"
                )
            if ssd.gc_high_water_blocks < ssd.gc_low_water_blocks:
                raise ConfigError(
                    f"{ssd.name}: gc_high_water_blocks must be >= "
                    "gc_low_water_blocks"
                )
        if len({ssd.page_size for ssd in self.ssds}) > 1:
            raise ConfigError(
                "heterogeneous SSD page sizes are not supported: "
                + ", ".join(f"{s.name}={s.page_size}" for s in self.ssds)
                + " (placement assumes one logical page granularity)"
            )
        if self.cache.line_size != self.ssds[0].page_size:
            raise ConfigError(
                f"cache line size {self.cache.line_size} must match the SSD "
                f"page size {self.ssds[0].page_size} "
                "(paper section 2.3.3: lines align with SSD granularity)"
            )
        if self.cache.num_lines % self.cache.set_ways:
            raise ConfigError(
                f"cache.ways={self.cache.ways} must divide "
                f"cache.num_lines={self.cache.num_lines}"
            )
        issue_slots = self.gpu.issue_width * self.gpu.warp_size
        if self.service.polling_warps > issue_slots:
            raise ConfigError(
                f"service.polling_warps={self.service.polling_warps} exceeds "
                f"the service SM's {issue_slots} issue slots"
            )
        if self.faults.window_end_ns < self.faults.window_start_ns:
            raise ConfigError("faults window ends before it starts")
        pages = min(s.num_pages for s in self.ssds)
        place = self.placement
        if place.policy == "striped" and pages % place.stripe_pages:
            raise ConfigError(
                f"placement.stripe_pages={place.stripe_pages} must "
                f"divide the device capacity of {pages} pages"
            )
        if place.policy == "shard" and place.shard_span:
            shard = -(-place.shard_span // len(self.ssds))
            if pages % shard:
                raise ConfigError(
                    f"PlacementConfig.shard_span={place.shard_span} gives "
                    f"{len(self.ssds)} shards of {shard} pages, which must "
                    f"divide the device capacity of {pages} pages"
                )

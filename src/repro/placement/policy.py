"""Placement policies: logical LBA -> physical ``(ssd_idx, device_lba)``.

The contract every policy obeys:

* **Bijection** — no two logical LBAs may resolve to the same physical
  coordinate, and a logical LBA resolves to the same coordinate for the
  lifetime of the policy instance (sticky policies memoise; arithmetic
  policies are pure functions).
* **Determinism** — the mapping depends only on the constructor
  arguments, the attached :class:`ArrayGeometry`, and the *order* of
  ``place`` calls.  No wall clock, no salted ``hash`` (tenant keys use
  CRC-32).
* **Health/load are advisory** — the ``load``/``healthy`` callables feed
  *allocation-time* decisions and :meth:`PlacementPolicy.rebalance`;
  they never retroactively invalidate an existing mapping (the cache
  would alias otherwise).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "ArrayGeometry",
    "Move",
    "PlacementPolicy",
    "IdentityPlacement",
    "StripedPlacement",
    "StaticShardPlacement",
    "LoadAwarePlacement",
    "TenantAffinePlacement",
    "make_placement",
    "placement_for_config",
    "interleaved",
    "round_robin",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Shape of the SSD array a policy maps onto.

    ``pages_per_ssd == 0`` means "unbounded" — the policy skips capacity
    checks (used by compatibility shims that stripe ad-hoc regions).
    """

    num_ssds: int
    pages_per_ssd: int
    page_size: int = 4096

    @property
    def logical_capacity(self) -> int:
        """Total logical pages the array exposes (0 when unbounded)."""
        return self.num_ssds * self.pages_per_ssd


class Move(NamedTuple):
    """One rebalance step: ``logical_lba`` now lives at ``dst``, the host
    must copy the page from ``src`` before serving further reads."""

    logical_lba: int
    src: Tuple[int, int]
    dst: Tuple[int, int]


class PlacementPolicy:
    """Protocol base: ``place(lba) -> (ssd_idx, device_lba)`` plus
    affinity/rebalance hooks.  Subclasses implement :meth:`place` and may
    override :meth:`affinity`, :meth:`rebalance`, and :meth:`_on_attach`.
    """

    name = "placement"

    def __init__(self) -> None:
        self.geometry: Optional[ArrayGeometry] = None

    def attach(self, geometry: ArrayGeometry) -> "PlacementPolicy":
        if geometry.num_ssds < 1:
            raise ValueError("placement needs at least one SSD")
        if geometry.pages_per_ssd < 0 or geometry.page_size < 1:
            raise ValueError(f"bad array geometry {geometry}")
        self.geometry = geometry
        self._on_attach()
        return self

    def _on_attach(self) -> None:
        pass

    def place(
        self, lba: int, tenant: Optional[str] = None
    ) -> Tuple[int, int]:
        raise NotImplementedError

    def affinity(self, tenant: Optional[str]) -> Optional[int]:
        """Preferred device for a tenant, or ``None`` when the policy has
        no tenant notion."""
        return None

    def rebalance(
        self, device_loads: Optional[Sequence[float]] = None
    ) -> List[Move]:
        """Migrate mappings toward balance; arithmetic policies are
        already balanced and return no moves."""
        return []

    def describe(self) -> Dict[str, object]:
        g = self._geometry()
        return {"policy": self.name, "num_ssds": g.num_ssds}

    # -- shared helpers ------------------------------------------------------

    def _geometry(self) -> ArrayGeometry:
        if self.geometry is None:
            raise RuntimeError(
                f"{self.name} placement used before attach()"
            )
        return self.geometry

    def _check_lba(self, lba: int) -> None:
        g = self._geometry()
        if lba < 0:
            raise ValueError(f"negative logical LBA {lba}")
        cap = g.logical_capacity
        if cap and lba >= cap:
            raise ValueError(
                f"logical LBA {lba} beyond array capacity {cap}"
            )


class IdentityPlacement(PlacementPolicy):
    """Single-device passthrough: logical == physical.  Only valid on a
    one-SSD array — it preserves the legacy goldens bit-exactly."""

    name = "identity"

    def _on_attach(self) -> None:
        if self._geometry().num_ssds != 1:
            raise ValueError(
                "identity placement requires exactly one SSD; "
                f"got {self._geometry().num_ssds}"
            )

    def place(
        self, lba: int, tenant: Optional[str] = None
    ) -> Tuple[int, int]:
        self._check_lba(lba)
        return 0, lba


class StripedPlacement(PlacementPolicy):
    """RAID-0-style striping: ``stripe_pages``-sized chunks rotate across
    the array.  With the default stripe of one page this is the paper's
    page-interleaved layout (``page % n`` device, ``page // n`` LBA)."""

    name = "striped"

    def __init__(self, stripe_pages: int = 1) -> None:
        super().__init__()
        if stripe_pages < 1:
            raise ValueError(f"stripe_pages must be >= 1, got {stripe_pages}")
        self.stripe_pages = stripe_pages

    def _on_attach(self) -> None:
        pages = self._geometry().pages_per_ssd
        if pages and pages % self.stripe_pages:
            raise ValueError(
                f"stripe_pages={self.stripe_pages} must divide the device "
                f"capacity of {pages} pages — a partial trailing stripe "
                f"would overflow the device"
            )

    def place(
        self, lba: int, tenant: Optional[str] = None
    ) -> Tuple[int, int]:
        self._check_lba(lba)
        g = self._geometry()
        chunk, within = divmod(lba, self.stripe_pages)
        lane, row = chunk % g.num_ssds, chunk // g.num_ssds
        return lane, row * self.stripe_pages + within

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["stripe_pages"] = self.stripe_pages
        return info


class StaticShardPlacement(PlacementPolicy):
    """Contiguous shards: the first ``span/n`` logical pages land on ssd0,
    the next on ssd1, and so on.  Equivalent to striping with a stripe of
    ``ceil(span / n)`` pages, so addresses beyond ``span`` stay bijective
    (they wrap as coarse stripes).  ``shard_span`` defaults to the array's
    logical capacity; unbounded arrays must pass it explicitly."""

    name = "shard"

    def __init__(self, shard_span: int = 0) -> None:
        super().__init__()
        if shard_span < 0:
            raise ValueError(f"shard_span must be >= 0, got {shard_span}")
        self.shard_span = shard_span
        self._block = 1

    def _on_attach(self) -> None:
        g = self._geometry()
        span = self.shard_span or g.logical_capacity
        if span <= 0:
            raise ValueError(
                "shard placement needs a bounded array or an explicit "
                "shard_span"
            )
        self._block = -(-span // g.num_ssds)  # ceil

    def place(
        self, lba: int, tenant: Optional[str] = None
    ) -> Tuple[int, int]:
        self._check_lba(lba)
        g = self._geometry()
        chunk, within = divmod(lba, self._block)
        lane, row = chunk % g.num_ssds, chunk // g.num_ssds
        device_lba = row * self._block + within
        if g.pages_per_ssd and device_lba >= g.pages_per_ssd:
            raise ValueError(
                f"logical LBA {lba} wraps past device capacity under "
                f"shard_span={self.shard_span} (block {self._block} pages); "
                f"widen the span or the array"
            )
        return lane, device_lba


class _StickyPlacement(PlacementPolicy):
    """Shared machinery for allocation-time policies: a memo table keyed
    by logical LBA plus per-device slot allocators.  Subclasses only
    implement :meth:`_pick` (choose a device for a fresh LBA)."""

    def __init__(self, max_moves: int = 64) -> None:
        super().__init__()
        self.max_moves = max_moves
        self.table: Dict[int, Tuple[int, int]] = {}
        self._next_slot: List[int] = []
        self._free_slots: List[List[int]] = []
        self._placed: List[int] = []

    def _on_attach(self) -> None:
        n = self._geometry().num_ssds
        self.table = {}
        self._next_slot = [0] * n
        self._free_slots = [[] for _ in range(n)]
        self._placed = [0] * n

    def _pick(self, lba: int, tenant: Optional[str]) -> int:
        raise NotImplementedError

    def place(
        self, lba: int, tenant: Optional[str] = None
    ) -> Tuple[int, int]:
        self._check_lba(lba)
        hit = self.table.get(lba)
        if hit is not None:
            return hit
        ssd = self._pick(lba, tenant)
        loc = (ssd, self._alloc_slot(ssd))
        self.table[lba] = loc
        return loc

    def rebalance(
        self, device_loads: Optional[Sequence[float]] = None
    ) -> List[Move]:
        loads = list(device_loads) if device_loads else [0.0] * len(self._placed)
        moves: List[Move] = []
        while len(moves) < self.max_moves:
            order = sorted(
                range(len(self._placed)),
                key=lambda i: (self._placed[i], loads[i], i),
            )
            dst, src = order[0], order[-1]
            if self._placed[src] - self._placed[dst] <= 1:
                break
            if not self._device_open(dst):
                break
            # Highest logical LBA on the hot device moves: deterministic
            # and biased toward recently allocated (likely coldest) pages.
            lba = max(
                key for key, (s, _) in self.table.items() if s == src
            )
            old = self.table[lba]
            new = (dst, self._alloc_slot(dst))
            self._release_slot(*old)
            self.table[lba] = new
            moves.append(Move(lba, old, new))
        return moves

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["placed"] = list(self._placed)
        return info

    # -- slot bookkeeping ----------------------------------------------------

    def _device_open(self, ssd: int) -> bool:
        cap = self._geometry().pages_per_ssd
        if not cap:
            return True
        return bool(self._free_slots[ssd]) or self._next_slot[ssd] < cap

    def _alloc_slot(self, ssd: int) -> int:
        if self._free_slots[ssd]:
            slot = self._free_slots[ssd].pop()
        else:
            slot = self._next_slot[ssd]
            cap = self._geometry().pages_per_ssd
            if cap and slot >= cap:
                raise ValueError(f"device {ssd} is out of pages")
            self._next_slot[ssd] += 1
        self._placed[ssd] += 1
        return slot

    def _release_slot(self, ssd: int, slot: int) -> None:
        self._free_slots[ssd].append(slot)
        self._placed[ssd] -= 1

    def _open_devices(self) -> List[int]:
        return [
            i
            for i in range(self._geometry().num_ssds)
            if self._device_open(i)
        ]


class LoadAwarePlacement(_StickyPlacement):
    """Sticky allocation onto the least-loaded healthy device.  ``load``
    and ``healthy`` are zero-argument callables (typically fed by the
    host's in-flight counters and circuit breakers); absent feeds degrade
    to placed-count balancing, i.e. round-robin under bulk load."""

    name = "load_aware"

    def __init__(
        self,
        load: Optional[Callable[[], Sequence[float]]] = None,
        healthy: Optional[Callable[[], Sequence[bool]]] = None,
        max_moves: int = 64,
    ) -> None:
        super().__init__(max_moves=max_moves)
        self.load = load
        self.healthy = healthy

    def _pick(self, lba: int, tenant: Optional[str]) -> int:
        open_devs = self._open_devices()
        if not open_devs:
            raise ValueError("all devices are out of pages")
        candidates = open_devs
        if self.healthy is not None:
            health = list(self.healthy())
            alive = [i for i in open_devs if health[i]]
            if alive:
                candidates = alive
        loads: Sequence[float]
        if self.load is not None:
            loads = list(self.load())
        else:
            loads = [0.0] * self._geometry().num_ssds
        return min(
            candidates, key=lambda i: (loads[i], self._placed[i], i)
        )


class TenantAffinePlacement(_StickyPlacement):
    """Sticky allocation onto a tenant's home device (CRC-32 of the
    tenant key modulo the array width), spilling to the next open device
    when the home is full.  Tenant-less placements balance by count."""

    name = "tenant_affine"

    def affinity(self, tenant: Optional[str]) -> Optional[int]:
        if tenant is None:
            return None
        g = self._geometry()
        return zlib.crc32(str(tenant).encode("utf-8")) % g.num_ssds

    def _pick(self, lba: int, tenant: Optional[str]) -> int:
        open_devs = self._open_devices()
        if not open_devs:
            raise ValueError("all devices are out of pages")
        home = self.affinity(tenant)
        if home is None:
            return min(open_devs, key=lambda i: (self._placed[i], i))
        n = self._geometry().num_ssds
        for step in range(n):
            dev = (home + step) % n
            if self._device_open(dev):
                return dev
        raise ValueError("all devices are out of pages")


_POLICY_NAMES = (
    "identity",
    "shard",
    "striped",
    "load_aware",
    "tenant_affine",
)


def make_placement(
    policy: str,
    *,
    stripe_pages: int = 1,
    shard_span: int = 0,
    max_moves: int = 64,
) -> PlacementPolicy:
    """Instantiate a policy by name (un-attached, no load/health feeds)."""
    if policy == "identity":
        return IdentityPlacement()
    if policy == "striped":
        return StripedPlacement(stripe_pages)
    if policy == "shard":
        return StaticShardPlacement(shard_span)
    if policy == "load_aware":
        return LoadAwarePlacement(max_moves=max_moves)
    if policy == "tenant_affine":
        return TenantAffinePlacement(max_moves=max_moves)
    raise ValueError(
        f"unknown placement policy {policy!r}; expected one of "
        f"{', '.join(_POLICY_NAMES)}"
    )


def placement_for_config(cfg) -> PlacementPolicy:
    """Build and attach the policy a :class:`repro.config.SystemConfig`
    asks for.  ``cfg`` is duck-typed (``ssds`` + ``placement`` fields) so
    this module stays import-cycle-free."""
    p = cfg.placement
    policy = make_placement(
        p.policy,
        stripe_pages=p.stripe_pages,
        shard_span=p.shard_span,
        max_moves=p.rebalance_max_moves,
    )
    geometry = ArrayGeometry(
        num_ssds=len(cfg.ssds),
        pages_per_ssd=min(s.num_pages for s in cfg.ssds),
        page_size=cfg.ssds[0].page_size,
    )
    return policy.attach(geometry)


@lru_cache(maxsize=None)
def interleaved(num_ssds: int) -> StripedPlacement:
    """Shared stripe-of-one policy over an unbounded ``num_ssds``-wide
    array — the compatibility mapping for the paper's fixed
    page-interleaved layouts (``page % n``, ``page // n``).  Cached:
    striped placement is a pure function of its geometry."""
    return StripedPlacement().attach(ArrayGeometry(num_ssds, 0))


def round_robin(
    policy: PlacementPolicy, seq_idx: int, device_lba: int
) -> Tuple[int, int]:
    """Compatibility shim for the paper's Fig. 5/6 interleave ("request
    *i* goes to SSD ``i mod n``"): translate a (sequence index, per-device
    LBA) pair into the logical address that page-interleaved striping maps
    to exactly that physical slot.  Only meaningful on a stripe-of-one
    :class:`StripedPlacement` (or a single-device array)."""
    g = policy._geometry()
    if not (
        isinstance(policy, IdentityPlacement)
        or (
            isinstance(policy, StripedPlacement)
            and policy.stripe_pages == 1
        )
    ):
        raise ValueError(
            "round_robin is only defined for page-interleaved striping"
        )
    return policy.place(device_lba * g.num_ssds + seq_idx % g.num_ssds)

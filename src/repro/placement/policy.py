"""Placement policies: logical LBA -> physical ``(ssd_idx, device_lba)``.

The contract every policy obeys:

* **Bijection** — every logical LBA in ``[0, logical_capacity)`` resolves
  to an in-bounds physical coordinate, no two to the same one, and a
  logical LBA resolves to the same coordinate for the lifetime of the
  policy instance (sticky policies memoise; arithmetic policies are pure
  functions).  ``attach`` rejects any geometry on which a policy's
  parameters could not keep this.
* **Determinism** — the mapping depends only on the constructor
  arguments, the attached :class:`ArrayGeometry`, and the *order* of
  ``place`` calls.  No wall clock, no salted ``hash`` (tenant keys use
  CRC-32).
* **Health/load are advisory** — the ``load``/``healthy`` callables feed
  *allocation-time* decisions only; they never invalidate an existing
  mapping (the cache would alias otherwise).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ArrayGeometry",
    "PlacementPolicy",
    "StripedPlacement",
    "StaticShardPlacement",
    "LoadAwarePlacement",
    "TenantAffinePlacement",
    "make_placement",
    "placement_for_config",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Shape of the SSD array a policy maps onto."""

    num_ssds: int
    pages_per_ssd: int

    @property
    def logical_capacity(self) -> int:
        """Total logical pages the array exposes."""
        return self.num_ssds * self.pages_per_ssd


class PlacementPolicy:
    """Protocol base: ``place(lba) -> (ssd_idx, device_lba)``.  Subclasses
    implement :meth:`place` and may override :meth:`_on_attach`."""

    name = "placement"

    def __init__(self) -> None:
        self.geometry: Optional[ArrayGeometry] = None

    def attach(self, geometry: ArrayGeometry) -> "PlacementPolicy":
        if geometry.num_ssds < 1:
            raise ValueError("placement needs at least one SSD")
        if geometry.pages_per_ssd < 1:
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

    # -- shared helpers ------------------------------------------------------

    def _geometry(self) -> ArrayGeometry:
        if self.geometry is None:
            raise RuntimeError(
                f"{self.name} placement used before attach()"
            )
        return self.geometry

    def _check_lba(self, lba: int) -> None:
        cap = self._geometry().logical_capacity
        if lba < 0:
            raise ValueError(f"negative logical LBA {lba}")
        if lba >= cap:
            raise ValueError(
                f"logical LBA {lba} beyond array capacity {cap}"
            )


class StripedPlacement(PlacementPolicy):
    """RAID-0-style striping: ``stripe_pages``-sized chunks rotate across
    the array.  With the default stripe of one page this is the paper's
    page-interleaved layout (``page % n`` device, ``page // n`` LBA), and
    on one SSD it is the identity map."""

    name = "striped"

    def __init__(self, stripe_pages: int = 1) -> None:
        super().__init__()
        if stripe_pages < 1:
            raise ValueError(f"stripe_pages must be >= 1, got {stripe_pages}")
        self.stripe_pages = stripe_pages

    def _on_attach(self) -> None:
        pages = self._geometry().pages_per_ssd
        if pages % self.stripe_pages:
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


class StaticShardPlacement(StripedPlacement):
    """Contiguous shards: the first ``span/n`` logical pages land on ssd0,
    the next on ssd1, and so on.  This is striping with a stripe of
    ``ceil(span / n)`` pages, so addresses beyond ``span`` wrap as coarse
    stripes; that stripe must divide the device capacity.  ``shard_span``
    defaults to the array's logical capacity."""

    name = "shard"

    def __init__(self, shard_span: int = 0) -> None:
        if shard_span < 0:
            raise ValueError(f"shard_span must be >= 0, got {shard_span}")
        super().__init__()
        self.shard_span = shard_span

    def _on_attach(self) -> None:
        g = self._geometry()
        span = self.shard_span or g.logical_capacity
        self.stripe_pages = -(-span // g.num_ssds)  # ceil
        if g.pages_per_ssd % self.stripe_pages:
            raise ValueError(
                f"shard_span={self.shard_span} gives shards of "
                f"{self.stripe_pages} pages, which must divide the device "
                f"capacity of {g.pages_per_ssd} pages"
            )


class _StickyPlacement(PlacementPolicy):
    """Shared machinery for allocation-time policies: a memo table keyed
    by logical LBA plus a bump allocator per device.  Subclasses only
    implement :meth:`_pick` (choose a device for a fresh LBA)."""

    def __init__(self) -> None:
        super().__init__()
        self.table: Dict[int, Tuple[int, int]] = {}
        #: Pages allocated per device, which is also its next free slot.
        self._placed: List[int] = []

    def _on_attach(self) -> None:
        self.table = {}
        self._placed = [0] * self._geometry().num_ssds

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
        loc = (ssd, self._placed[ssd])
        self._placed[ssd] += 1
        self.table[lba] = loc
        return loc

    def _open_devices(self) -> List[int]:
        cap = self._geometry().pages_per_ssd
        return [i for i, used in enumerate(self._placed) if used < cap]


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
    ) -> None:
        super().__init__()
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
        """The tenant's home device, or ``None`` for no tenant."""
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
            if dev in open_devs:
                return dev
        raise ValueError("all devices are out of pages")


_POLICY_NAMES = ("shard", "striped", "load_aware", "tenant_affine")


def make_placement(
    policy: str, *, stripe_pages: int = 1, shard_span: int = 0
) -> PlacementPolicy:
    """Instantiate a policy by name (un-attached, no load/health feeds)."""
    if policy == "striped":
        return StripedPlacement(stripe_pages)
    if policy == "shard":
        return StaticShardPlacement(shard_span)
    if policy == "load_aware":
        return LoadAwarePlacement()
    if policy == "tenant_affine":
        return TenantAffinePlacement()
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
        p.policy, stripe_pages=p.stripe_pages, shard_span=p.shard_span
    )
    geometry = ArrayGeometry(
        num_ssds=len(cfg.ssds),
        pages_per_ssd=min(s.num_pages for s in cfg.ssds),
    )
    return policy.attach(geometry)

"""Logical-to-physical placement over the SSD array.

Every layer above the NVMe driver addresses flash through a *logical*
block address space; a :class:`PlacementPolicy` owns the mapping onto
physical ``(ssd_idx, device_lba)`` coordinates.  The host's policy is the
only such map: workloads that use the paper's physical kernel API take
their coordinates from ``host.placement``, and hand-rolled device-index
arithmetic outside this package is banned by lint rule AGL013 — the point
of the layer is that an array-layout question ("striped or sharded?
load-aware or tenant-affine?") is answered by swapping a policy, not by
editing every workload.

Policies are deterministic: the same sequence of ``place`` calls on a
fresh policy yields the same mapping, regardless of wall clock or hash
seeds (tenant keys hash via CRC-32, never the salted builtin ``hash``).
"""

from repro.placement.policy import (
    ArrayGeometry,
    LoadAwarePlacement,
    PlacementPolicy,
    StaticShardPlacement,
    StripedPlacement,
    TenantAffinePlacement,
    make_placement,
    placement_for_config,
)

__all__ = [
    "ArrayGeometry",
    "LoadAwarePlacement",
    "PlacementPolicy",
    "StaticShardPlacement",
    "StripedPlacement",
    "TenantAffinePlacement",
    "make_placement",
    "placement_for_config",
]

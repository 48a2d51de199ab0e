"""Modelled counters: telemetry sessions -> the declared counter names.

The counters pass runs the workload once inside ``telemetry.capture()``;
every host built there records into its own session.  Sessions are summed
(``dlrm-c1`` builds three hosts), ratios are recomputed from the summed
parts, and a counter no session touched reads 0.
"""

from __future__ import annotations

from typing import Any, Iterable


def _sum(groups: Iterable[dict[str, float]], *labels: str) -> float:
    return float(sum(g.get(label, 0.0) for g in groups for label in labels))


def _skew(devices: list[dict[str, Any]]) -> float:
    """Busiest device's completed reads over the even share (the rule of
    ``ServeReport.skew_ratio``); 1.0 when there is nothing to compare."""
    reads = [d["completed_reads"] for d in devices]
    total = sum(reads)
    return max(reads) * len(reads) / total if total else 1.0


def extract(sessions: list[Any]) -> dict[str, float]:
    """The modelled-counter metrics of one counters pass.

    ``core.service.cqe_per_call`` needs the profile pass's call count and
    is filled in by the caller.
    """
    snaps = [tel.snapshot()["metrics"] for tel in sessions]

    def named(section: str, prefix: str, suffix: str) -> list[Any]:
        return [
            value for s in snaps for name, value in s[section].items()
            if name.startswith(prefix) and name.endswith(suffix)
        ]

    def counters(name: str) -> list[dict[str, float]]:
        return [s["counters"].get(name, {}) for s in snaps]

    per_host_devices = [
        list(s["collected"].get("devices", {}).values()) for s in snaps
    ]
    devices = [dev for host in per_host_devices for dev in host]
    now = [s["collected"]["sim"]["now"] for s in snaps]
    queues = [
        (name, g) for s in snaps for name, g in s["gauges"].items()
        if name.startswith("nvme.") and name.endswith(".occupancy")
    ]
    sq_means = [g["mean"] for name, g in queues if ".sq" in name]
    cq_maxes = [g["max"] for name, g in queues if ".cq" in name]
    fetch = named("histograms", "nvme.", ".fetch_batch")
    fetches = sum(h["count"] for h in fetch)
    # Channel time available: each host's channels ran for that host's
    # simulated time.
    busy = channel_time = 0.0
    for s, t in zip(snaps, now):
        channels = s["collected"].get("flash_channel_busy_ns", {})
        busy += sum(channels.values())
        channel_time += len(channels) * t
    wrote = [d for d in devices if d["host_programs"]]
    cache = counters("cache")
    hits, misses = _sum(cache, "hits"), _sum(cache, "misses")
    stall = counters("gpu.stall_ns")
    io = counters("io")
    classes = [g for g in named("counters", "serve.", "") if "offered" in g]
    batch = named("histograms", "serve.batch_size", "")
    batches = sum(h["count"] for h in batch)

    def devsum(field: str) -> float:
        return float(sum(d[field] for d in devices))

    return {
        "sim.events": float(
            sum(s["collected"]["sim"]["event_count"] for s in snaps)
        ),
        "sim.now_ns": float(sum(now)),
        **{
            f"gpu.stall_ns.{reason}": _sum(stall, reason)
            for reason in ("sq_full", "doorbell", "fill_wait", "victim_wait",
                           "warp_converge")
        },
        "mem.hbm.bytes": _sum(
            counters("mem.hbm.traffic"), "load_bytes", "store_bytes"
        ),
        "mem.pcie.dma_bytes": float(sum(
            sum(g.values()) for g in named("counters", "mem.", ".pcie.dma_bytes")
        )),
        "nvme.commands": _sum(io, "commands_submitted"),
        "nvme.doorbell_rings": _sum(io, "doorbell_rings"),
        "nvme.doorbell_contended": _sum(io, "doorbell_contended"),
        "nvme.sq_occupancy_mean": (
            sum(sq_means) / len(sq_means) if sq_means else 0.0
        ),
        "nvme.cq_occupancy_max": float(max(cq_maxes, default=0)),
        "nvme.fetch_batch_mean": (
            sum(h["sum"] for h in fetch) / fetches if fetches else 0.0
        ),
        "nvme.flash_busy_frac": busy / channel_time if channel_time else 0.0,
        "nvme.errors": devsum("errors"),
        "nvme.ftl.host_programs": devsum("host_programs"),
        "nvme.ftl.gc_programs": devsum("gc_programs"),
        "nvme.ftl.erases": devsum("erases"),
        "nvme.ftl.waf": (
            sum(d["waf"] for d in wrote) / len(wrote) if wrote else 1.0
        ),
        "nvme.ftl.gc_busy_ns": devsum("gc_busy_ns"),
        "nvme.ftl.host_gc_stall_ns": devsum("host_gc_stall_ns"),
        "core.service.completions": _sum(
            counters("service"), "completions_processed"
        ),
        "core.service.cqe_per_call": 0.0,
        "core.cache.hits": hits,
        "core.cache.misses": misses,
        "core.cache.busy_hits": _sum(cache, "busy_hits"),
        "core.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.cache.writebacks": _sum(cache, "writebacks"),
        "core.cache.writebacks_lost": _sum(cache, "writebacks_lost"),
        "placement.skew_ratio": max(
            (_skew(host) for host in per_host_devices if host), default=1.0
        ),
        **{
            f"serve.{label}": _sum(classes, label)
            for label in ("offered", "completed", "shed", "queue_timeout",
                          "aborted")
        },
        "serve.batches": float(batches),
        "serve.mean_batch_size": (
            sum(h["sum"] for h in batch) / batches if batches else 0.0
        ),
    }

"""Shared helpers for core/baseline/workload tests."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileHost
from repro.gpu import KernelSpec, LaunchConfig
from repro.sim.probe import Probe
from repro.sim.trace import EventLog


def small_config(**overrides: Any) -> SystemConfig:
    """A fast-to-simulate machine for unit tests."""
    defaults: dict[str, Any] = dict(
        cache=CacheConfig(num_lines=64, ways=8),
        ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 26, channels=8),),
        queue_pairs=2,
        queue_depth=16,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def record(sim: Any, *parts: Any, maxlen: int = 1_000_000) -> EventLog:
    """Hand ``parts`` one probe with a retaining log subscribed (a rig
    without a machine); returns the log."""
    probe = Probe(sim)
    for part in parts:
        part.probe = probe
    return EventLog(maxlen).attach(probe)


def make_host(**overrides: Any) -> AgileHost:
    return AgileHost(small_config(**overrides))


def run_kernel(
    host: AgileHost,
    body: Callable[..., Any],
    *,
    grid: int = 1,
    block: int = 32,
    args: Sequence[Any] = (),
    name: str = "testkernel",
    registers: int = 48,
) -> float:
    """Start the service, run one kernel grid to completion, stop the
    service; returns the kernel duration in simulated ns."""
    kernel = KernelSpec(name=name, body=body, registers_per_thread=registers)
    with host:
        duration = host.run_kernel(kernel, LaunchConfig(grid, block), args)
        host.drain()
    return duration

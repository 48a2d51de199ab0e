"""Three isolated layer probes: each needs only a ``Simulator`` (or a
placement policy), takes well under a second, and is repeated so the
reported speed is a median.  They read one layer's speed apart from any
workload, to tell a layer change from a workload change.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable

REPEATS = 5


def _engine(seed: int) -> Callable[[], int]:
    """256 processes on seeded timeouts plus an ``Event.trigger`` ping-pong."""
    from repro.sim import Simulator, Timeout

    procs, naps, rounds = 256, 400, 30_000
    rng = random.Random(seed)
    sim = Simulator()

    def sleeper(delays):
        for delay in delays:
            yield Timeout(delay)

    court = {"ping": sim.event("ping")}

    def pinger():
        for _ in range(rounds):
            court["pong"] = sim.event("pong")
            court["ping"].trigger()
            yield court["pong"]

    def ponger():
        for _ in range(rounds):
            yield court["ping"]
            court["ping"] = sim.event("ping")
            court["pong"].trigger()

    for i in range(procs):
        sim.spawn(
            sleeper([rng.uniform(1.0, 1000.0) for _ in range(naps)]),
            name=f"probe.sleeper{i}",
        )
    sim.spawn(ponger(), name="probe.ponger")
    sim.spawn(pinger(), name="probe.pinger")

    def run() -> int:
        sim.run()
        return sim.event_count

    return run


def _resources(seed: int) -> Callable[[], int]:
    """64 processes looping ``FairShareServer.process`` under one SM's
    issue rate and per-thread cap."""
    from repro.config import GpuConfig
    from repro.sim import FairShareServer, Simulator

    procs, jobs = 64, 1000
    gpu = GpuConfig()
    rng = random.Random(seed)
    sim = Simulator()
    server = FairShareServer(
        sim,
        total_rate=gpu.issue_width * gpu.warp_size / gpu.cycle_ns,
        per_job_cap=1.0 / gpu.cycle_ns,
        name="probe.issue",
    )

    def worker(cycles):
        for c in cycles:
            yield from server.process(c)

    for i in range(procs):
        sim.spawn(
            worker([rng.uniform(1.0, 64.0) for _ in range(jobs)]),
            name=f"probe.worker{i}",
        )

    def run() -> int:
        sim.run()
        return procs * jobs

    return run


def _placement(seed: int) -> Callable[[], int]:
    """``place()`` on the two policies the serve workloads and the tenancy
    matrix use."""
    from repro.placement import ArrayGeometry, make_placement

    places = 40_000
    geometry = ArrayGeometry(num_ssds=4, pages_per_ssd=1 << 16)
    rng = random.Random(seed)
    lbas = [rng.randrange(geometry.logical_capacity // 2) for _ in range(places)]
    tenants = [f"tenant{rng.randrange(8)}" for _ in range(places)]
    striped = make_placement("striped").attach(geometry)
    affine = make_placement("tenant_affine").attach(geometry)

    def run() -> int:
        for lba in lbas:
            striped.place(lba)
        for lba, tenant in zip(lbas, tenants):
            affine.place(lba, tenant=tenant)
        return 2 * places

    return run


PROBES = {
    "probe.sim.engine.events_per_s": _engine,
    "probe.sim.resources.jobs_per_s": _resources,
    "probe.placement.places_per_s": _placement,
}


def run_all(seed: int) -> dict[str, float]:
    """Median units/second of each probe over ``REPEATS`` fresh builds."""
    out = {}
    for name, build in PROBES.items():
        rates = []
        for _ in range(REPEATS):
            run = build(seed)
            start = time.perf_counter()
            units = run()
            rates.append(units / (time.perf_counter() - start))
        out[name] = statistics.median(rates)
    return out

"""Chaos storms as experiments: ``python -m repro.bench run storm|pe-storm``.

Each cell runs a mixed AGILE workload under a seed-derived fault plan with
the :mod:`repro.analysis` session attached, and the paper's implicit
liveness contract is the experiment's ``checks``: every issued operation
reaches a terminal state — data delivered or a clean
``AgileIoError``/error completion — nothing is left in flight, no SQ slot
is stuck outside EMPTY, the dirty-data ledger balances with nothing lost,
every FTL's page books balance, and the recorded event stream is free of
protocol violations.

- ``storm`` — cached page reads, Share-Table ``async_read``, raw reads and
  raw writes under flash read/write errors, latency outliers, dropped and
  duplicated CQEs and PCIe stalls (:func:`repro.faults.plan_from_seed`).
- ``pe-storm`` — read-modify-writes, raw logical writes and cached reads
  on a flash geometry small enough that GC runs *while* programs and
  erases are faulting (:func:`repro.faults.program_erase_plan_from_seed`).

The plan is a pure function of the ``seed`` and ``intensity`` axes
(``intensity=0`` is the fault-free run with every checker attached), so
the ``replay:`` line the CLI prints is all a CI log needs to reproduce a
failure.  Hang detection is the *simulator's* watchdog, which raises
:class:`~repro.sim.engine.SimStallError` on sim-time stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.analysis import attach
from repro.config import (
    CacheConfig,
    Checked,
    PlacementConfig,
    RecoveryConfig,
    SsdConfig,
    SystemConfig,
    legal,
)
from repro.core import AgileHost, AgileLockChain
from repro.core.issue import AgileIoError
from repro.faults import plan_from_seed, program_erase_plan_from_seed
from repro.gpu import KernelSpec, LaunchConfig
from repro.nvme.queue import SlotState
from repro.serve.experiment import Cell, Check, Experiment, Runner
from repro.sim.engine import SimError


@dataclass(frozen=True)
class StormSpec(Checked):
    """The storm's size: GPU threads, operations per thread, SSDs."""

    threads: int = legal(ge=1)
    requests: int = legal(ge=1)
    ssds: int = legal(2, ge=1)


#: Stages a storm's data on a fresh host and returns the kernel body, which
#: tallies each operation's terminal state into the given ``outcomes``.
Stage = Callable[[AgileHost, StormSpec, Dict[str, int]], Callable]


def _bump(outcomes: Dict[str, int], key: str, ok: bool = True) -> None:
    """Count one operation's terminal state: ``key``, or an error
    completion when the device answered ``ok=False``."""
    key = key if ok else "error_completions"
    outcomes[key] = outcomes.get(key, 0) + 1


# -- storm: the read path under flash / CQE / PCIe faults ---------------------


def _machine(seed: int, num_ssds: int, ssd: SsdConfig, **armed: Any) -> SystemConfig:
    """The storms' machine: a 32-line cache over ``num_ssds`` copies of
    ``ssd``, with the fault plan and recovery policy in ``armed``."""
    return SystemConfig(
        seed=seed,
        cache=CacheConfig(num_lines=32, ways=4),
        ssds=tuple(replace(ssd, name=f"ssd{i}") for i in range(num_ssds)),
        queue_pairs=4,
        queue_depth=32,
        **armed,
    )


def _storm_config(seed: int, intensity: float, num_ssds: int) -> SystemConfig:
    return _machine(
        seed,
        num_ssds,
        SsdConfig(capacity_bytes=1 << 28),
        faults=plan_from_seed(seed, intensity),
        # Timeout sits below the worst latency-outlier tail (mult can reach
        # 40x the 83.8us flash program), so storms genuinely exercise the
        # timeout -> backoff -> resubmit path, not just error CQEs.
        recovery=RecoveryConfig(
            enabled=True,
            command_timeout_ns=1_200_000.0,
            scan_interval_ns=150_000.0,
            max_retries=4,
            retry_backoff_ns=50_000.0,
            breaker_threshold=12,
        ),
    )


def _stage_storm(
    host: AgileHost, spec: StormSpec, outcomes: Dict[str, int]
) -> Callable:
    """Mixed-op kernel: each thread runs ``requests`` operations chosen by
    its own seeded stream, counting successes, error completions, and clean
    failures.  Reads target ``[0, lba_space)``; writes target a disjoint
    region so read-path data checks stay meaningful elsewhere."""
    lba_space, write_base = 512, 1024
    page = host.cfg.ssds[0].page_size
    pattern = np.arange(lba_space * page, dtype=np.uint8)
    for idx in range(len(host.ssds)):
        host.load_data(idx, 0, pattern)
    bufs = [host.make_buffer(label=f"storm.t{i}") for i in range(spec.threads)]
    scratch = [host.alloc_view(page) for _ in range(spec.threads)]
    for view in scratch:
        view[:] = 0x5A

    def body(tc, ctrl):
        chain = AgileLockChain(f"storm.t{tc.tid}")
        rng = np.random.default_rng(host.cfg.seed * 7919 + tc.tid)
        for i in range(spec.requests):
            op = int(rng.integers(0, 4))
            ssd = int(rng.integers(0, spec.ssds))
            lba = int(rng.integers(0, lba_space))
            try:
                if op == 0:
                    line = yield from ctrl.read_page(tc, chain, ssd, lba)
                    ctrl.cache.unpin(line)
                    _bump(outcomes, "cache_reads_ok")
                elif op == 1:
                    got = yield from ctrl.async_read(
                        tc, chain, ssd, lba, bufs[tc.tid]
                    )
                    yield from got.wait()
                    _bump(outcomes, "async_reads_ok", got.ok)
                    yield from ctrl.release_buffer(tc, chain, got)
                elif op == 2:
                    txn = yield from ctrl.raw_read(
                        tc, chain, ssd, lba, scratch[tc.tid]
                    )
                    completion = yield from txn.wait()
                    _bump(outcomes, "raw_reads_ok", completion.ok)
                else:
                    wlba = write_base + int(rng.integers(0, lba_space))
                    txn = yield from ctrl.raw_write(
                        tc, chain, ssd, wlba, scratch[tc.tid]
                    )
                    completion = yield from txn.wait()
                    _bump(outcomes, "raw_writes_ok", completion.ok)
            except AgileIoError:
                # Bounded retries exhausted or circuit breaker open: the
                # contract is *clean* failure, which this exception is.
                _bump(outcomes, "clean_failures")
            yield from tc.compute(25.0)

    return body


# -- pe-storm: the write path under program / erase faults --------------------


def _pe_storm_config(seed: int, intensity: float, num_ssds: int) -> SystemConfig:
    """A deliberately small flash geometry (the write stream wraps the
    device mid-storm, so GC runs *while* programs and erases are faulting)
    with the write-path fault plan armed."""
    return _machine(
        seed,
        num_ssds,
        SsdConfig(
            capacity_bytes=128 * 4096,
            pages_per_block=8,
            op_ratio=0.25,
            gc_low_water_blocks=6,
            gc_high_water_blocks=10,
        ),
        placement=PlacementConfig(policy="striped", stripe_pages=1),
        faults=program_erase_plan_from_seed(seed, intensity),
        # The write path legitimately stalls behind GC (each erase is 2 ms
        # and a full device can queue several), so the timeout must sit
        # well above a worst-case free-block wait — the read storm's 1.2 ms
        # budget would misread GC stalls as dead commands, trip the
        # breaker, and manufacture the very data loss this storm forbids.
        recovery=RecoveryConfig(
            enabled=True,
            command_timeout_ns=30_000_000.0,
            scan_interval_ns=500_000.0,
            max_retries=6,
            retry_backoff_ns=100_000.0,
            breaker_threshold=48,
        ),
    )


def _stage_pe_storm(
    host: AgileHost, spec: StormSpec, outcomes: Dict[str, int]
) -> Callable:
    """Write-heavy kernel: read-modify-writes through the software cache
    (dirty lines -> eviction write-backs), raw logical writes (sustained
    host programs that force GC), and cached point reads.  All addressing
    is logical, so the placement layer and the FTL's out-of-place write
    path both sit in the blast radius.  The modify/read region sits at the
    bottom of the striped array, a disjoint raw-write churn region above."""
    modify_space, ckpt_base = 64, 96
    ckpt_space = min(96, spec.ssds * 128 - ckpt_base)
    scratch = [
        host.alloc_view(host.cfg.ssds[0].page_size) for _ in range(spec.threads)
    ]
    for view in scratch:
        view[:] = 0xA5

    def body(tc, ctrl):
        chain = AgileLockChain(f"pestorm.t{tc.tid}")
        rng = np.random.default_rng(host.cfg.seed * 6007 + tc.tid)
        for _ in range(spec.requests):
            op = int(rng.integers(0, 3))
            try:
                if op == 0:
                    lba = int(rng.integers(0, modify_space))
                    yield from ctrl.write_page_logical(
                        tc, chain, lba, scratch[tc.tid]
                    )
                    _bump(outcomes, "modifies_ok")
                elif op == 1:
                    lba = ckpt_base + int(rng.integers(0, ckpt_space))
                    txn = yield from ctrl.raw_write_logical(
                        tc, chain, lba, scratch[tc.tid]
                    )
                    completion = yield from txn.wait()
                    _bump(
                        outcomes,
                        "raw_writes_ok",
                        completion is not None and completion.ok,
                    )
                else:
                    lba = int(rng.integers(0, modify_space))
                    line = yield from ctrl.read_page_logical(tc, chain, lba)
                    ctrl.cache.unpin(line)
                    _bump(outcomes, "cache_reads_ok")
            except AgileIoError:
                _bump(outcomes, "clean_failures")
            yield from tc.compute(25.0)

    return body


# -- the shared cell ----------------------------------------------------------


def _settle_writebacks(
    host: AgileHost,
    poll_ns: float = 10_000.0,
    max_wait_ns: float = 400_000_000.0,
) -> None:
    """Run until every eviction write-back reaches a terminal state (acked
    at the device or surfaced as lost).  ``host.drain`` only tracks
    commands already at the issue engine; a write-back parked in the FTL's
    free-block stall loop is invisible to it, yet it is exactly the dirty
    data the storms audit.  Bounded: on timeout the ledger check reports
    the leak instead of hanging CI."""
    wb = host.cache.stats

    def settled() -> bool:
        done = wb.get("writebacks_acked") + wb.get("writebacks_lost")
        return done >= wb.get("writebacks") and host.issue.inflight() == 0

    if settled():
        return
    deadline = host.sim.now + max_wait_ns

    def waiter():
        while not settled() and host.sim.now < deadline:
            yield host.sim.timeout(poll_ns)

    proc = host.sim.spawn(waiter(), name="storm.settle")
    host.sim.run(until_procs=[proc])


def _storm_cell(
    name: str,
    cfg: SystemConfig,
    watchdog_ns: float,
    stage: Stage,
    spec: StormSpec,
) -> Runner:
    """One storm on a fresh machine: build the host under the watchdog,
    attach the analysis session, stage the data, run the kernel, drain and
    settle, then report everything the liveness contract is judged on."""

    def run() -> Mapping[str, Any]:
        # Watchdog: any sim-time stall (lost wakeup, leaked lock, unhandled
        # dropped completion) raises SimStallError instead of hanging CI.
        host = AgileHost(cfg, watchdog_ns=watchdog_ns)
        session = attach(host)
        outcomes: Dict[str, int] = {}
        kernel = KernelSpec(
            name=name, body=stage(host, spec, outcomes), registers_per_thread=48
        )
        with host:
            duration = host.run_kernel(
                kernel, LaunchConfig.for_threads(spec.threads, 64)
            )
            host.drain()
            _settle_writebacks(host)
        stuck = sum(
            state is not SlotState.EMPTY
            for qps in host.queue_pairs
            for qp in qps
            for state in qp.sq.state
        )
        unbalanced: List[str] = []
        for idx, ssd in enumerate(host.ssds):
            try:
                ssd.flash.ftl.check_conservation()
            except SimError as exc:
                unbalanced.append(f"ssd{idx}: {exc}")
        wb, stats, report = host.cache.stats, host.stats(), session.report()
        total_ops = spec.threads * spec.requests
        return {
            "duration_ns": duration,
            "sim_events": host.sim.event_count,
            "events_per_request": host.sim.event_count / total_ops,
            "total_ops": total_ops,
            "terminal_ops": sum(outcomes.values()),
            "inflight": host.issue.inflight(),
            "stuck_sq_slots": stuck,
            "outcomes": outcomes,
            # The dirty-data ledger: every eviction write-back the cache
            # took responsibility for either acked at the device or was
            # surfaced as lost.
            "writebacks": {
                "taken": int(wb.get("writebacks")),
                "acked": int(wb.get("writebacks_acked")),
                "lost": int(wb.get("writebacks_lost")),
            },
            "ftl_unbalanced": unbalanced,
            "analysis": {
                "clean": report.clean,
                "events_checked": session.events_checked(),
                "summary": report.summary(),
            },
            **{group: stats.get(group, {}) for group in ("faults", "recovery", "io")},
        }

    return run


def _contract(m: Mapping[str, Any]) -> Dict[str, Tuple[bool, str]]:
    """The liveness contract on one cell's metrics: ``{check: (holds, what
    a broken cell is quoted as)}``."""
    wb = m["writebacks"]
    return {
        "every_op_terminal": (
            m["terminal_ops"] == m["total_ops"],
            f"{m['terminal_ops']}/{m['total_ops']} operations reached a terminal state",
        ),
        "nothing_in_flight": (
            m["inflight"] == 0, f"{m['inflight']} command(s) in flight after drain"
        ),
        "no_sq_slot_stuck": (
            m["stuck_sq_slots"] == 0, f"{m['stuck_sq_slots']} SQ slot(s) non-EMPTY"
        ),
        "writeback_ledger_balanced": (
            wb["taken"] == wb["acked"] + wb["lost"], f"write-back ledger {wb}"
        ),
        # Under bounded-retry recovery no dirty write-back may be lost.
        "no_writeback_lost": (wb["lost"] == 0, f"write-back ledger {wb}"),
        "ftl_pages_conserved": (not m["ftl_unbalanced"], f"{m['ftl_unbalanced']}"),
        "analysis_clean": (m["analysis"]["clean"], m["analysis"]["summary"]),
    }


def liveness_checks(spec: StormSpec, cells: Sequence[Cell]) -> List[Check]:
    """One check per contract line, each judged over every cell."""
    verdicts = [(c["axes"], _contract(c["metrics"])) for c in cells]
    checks = []
    for name in verdicts[0][1]:
        broken = [f"{axes}: {v[name][1]}" for axes, v in verdicts if not v[name][0]]
        detail = "; ".join(broken) or f"holds in all {len(cells)} cell(s)"
        checks.append({"name": name, "ok": not broken, "detail": detail})
    return checks


def _storm_runner(spec: StormSpec, cell: Mapping[str, Any]) -> Runner:
    cfg = _storm_config(cell["seed"], cell["intensity"], spec.ssds)
    return _storm_cell("fault_storm", cfg, 50_000_000.0, _stage_storm, spec)


def _pe_storm_runner(spec: StormSpec, cell: Mapping[str, Any]) -> Runner:
    cfg = _pe_storm_config(cell["seed"], cell["intensity"], spec.ssds)
    # The watchdog must dominate the recovery horizon: a command wedged
    # behind a stalled FTL resolves only after max_retries full timeouts,
    # all of it daemon-side activity the stall detector cannot see.
    watchdog_ns = cfg.recovery.command_timeout_ns * (cfg.recovery.max_retries + 2)
    return _storm_cell("pe_storm", cfg, watchdog_ns, _stage_pe_storm, spec)


STORM = Experiment(
    name="storm",
    help="mixed-op fault storm: every operation completes or fails cleanly",
    spec=StormSpec(threads=64, requests=8),
    axes={"seed": (1,), "intensity": (1.0,)},
    build=_storm_runner,
    checks=liveness_checks,
)

PE_STORM = Experiment(
    name="pe-storm",
    help="program/erase fault storm under live GC: no dirty write-back lost",
    spec=StormSpec(threads=32, requests=24),
    axes={"seed": (1,), "intensity": (1.0,)},
    build=_pe_storm_runner,
    checks=liveness_checks,
)

EXPERIMENTS = (STORM, PE_STORM)

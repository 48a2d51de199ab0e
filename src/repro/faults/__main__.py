"""Chaos harness: ``python -m repro.faults {storm,pe-storm} --seed N``.

Runs a mixed AGILE workload (cached page reads, Share-Table ``async_read``,
raw reads, raw writes) under a seed-derived fault storm and asserts the
paper's implicit liveness contract: every issued command reaches a terminal
state — data delivered or a clean ``AgileIoError``/error completion — with
no hangs, no leaked in-flight commands, no SQ slots stuck outside EMPTY,
and (with ``--agile-checks``) no protocol-invariant violations.

The storm plan is derived deterministically from the seed
(:func:`repro.faults.plan_from_seed`), so the printed replay line is all a
CI log needs to reproduce a failure locally.  The weekly randomized CI job
passes a seed derived from the run id and a higher ``--intensity``.

Simulation-safety: no wall-clock reads (AGL001) and all randomness is
seeded (AGL002) — hang detection is the *simulator's* watchdog, which
raises :class:`~repro.sim.engine.SimStallError` on sim-time stalls.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

import numpy as np

from repro.config import (
    CacheConfig,
    PlacementConfig,
    RecoveryConfig,
    SsdConfig,
    SystemConfig,
)
from repro.core import AgileHost, AgileLockChain
from repro.core.issue import AgileIoError
from repro.faults import plan_from_seed, program_erase_plan_from_seed
from repro.gpu import KernelSpec, LaunchConfig
from repro.nvme.queue import SlotState
from repro.sim.engine import SimError


def _bump(outcomes: Dict[str, int], key: str) -> None:
    outcomes[key] = outcomes.get(key, 0) + 1


def _make_storm_kernel(
    num_ssds: int,
    requests: int,
    lba_space: int,
    write_base: int,
    write_space: int,
):
    """Mixed-op kernel: each thread runs ``requests`` operations chosen by
    its own seeded stream, counting successes, error completions, and clean
    failures.  Reads target ``[0, lba_space)``; writes target a disjoint
    region so read-path data checks stay meaningful elsewhere."""

    def body(tc, ctrl, bufs, scratch, outcomes, seed):
        chain = AgileLockChain(f"storm.t{tc.tid}")
        rng = np.random.default_rng(seed * 7919 + tc.tid)
        for i in range(requests):
            op = int(rng.integers(0, 4))
            ssd = int(rng.integers(0, num_ssds))
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
                    _bump(
                        outcomes,
                        "async_reads_ok" if got.ok else "error_completions",
                    )
                    yield from ctrl.release_buffer(tc, chain, got)
                elif op == 2:
                    txn = yield from ctrl.raw_read(
                        tc, chain, ssd, lba, scratch[tc.tid]
                    )
                    completion = yield from txn.wait()
                    _bump(
                        outcomes,
                        "raw_reads_ok"
                        if completion.ok
                        else "error_completions",
                    )
                else:
                    wlba = write_base + int(rng.integers(0, write_space))
                    txn = yield from ctrl.raw_write(
                        tc, chain, ssd, wlba, scratch[tc.tid]
                    )
                    completion = yield from txn.wait()
                    _bump(
                        outcomes,
                        "raw_writes_ok"
                        if completion.ok
                        else "error_completions",
                    )
            except AgileIoError:
                # Bounded retries exhausted or circuit breaker open: the
                # contract is *clean* failure, which this exception is.
                _bump(outcomes, "clean_failures")
            yield from tc.compute(25.0)

    return body


def _storm_config(seed: int, intensity: float, num_ssds: int) -> SystemConfig:
    plan = plan_from_seed(seed, intensity)
    return SystemConfig(
        seed=seed,
        cache=CacheConfig(num_lines=32, ways=4),
        ssds=tuple(
            SsdConfig(name=f"ssd{i}", capacity_bytes=1 << 28)
            for i in range(num_ssds)
        ),
        queue_pairs=4,
        queue_depth=32,
        faults=plan,
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


def _print_plan(cfg: SystemConfig) -> None:
    f = cfg.faults
    print("storm plan (seed-derived, deterministic):")
    print(f"  flash_read_error_rate     = {f.flash_read_error_rate:.4f}")
    print(f"  flash_write_error_rate    = {f.flash_write_error_rate:.4f}")
    print(f"  flash_latency_outlier     = {f.flash_latency_outlier_rate:.4f}"
          f" x{f.flash_latency_outlier_mult:.1f}")
    print(f"  cqe_drop_rate             = {f.cqe_drop_rate:.4f}")
    print(f"  cqe_duplicate_rate        = {f.cqe_duplicate_rate:.4f}")
    print(f"  pcie_stall_rate           = {f.pcie_stall_rate:.4f}"
          f" ({f.pcie_stall_ns:.0f} ns)")


def storm(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults storm",
        description="seed-driven chaos run asserting "
        "completion-or-clean-failure",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=64)
    parser.add_argument(
        "--requests", type=int, default=8, help="operations per thread"
    )
    parser.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="scale every fault rate (weekly CI runs hotter)",
    )
    parser.add_argument("--ssds", type=int, default=2)
    parser.add_argument(
        "--agile-checks",
        action="store_true",
        help="attach runtime invariant checkers + offline race analysis",
    )
    args = parser.parse_args(argv)

    cfg = _storm_config(args.seed, args.intensity, args.ssds)
    replay = (
        f"python -m repro.faults storm --seed {args.seed}"
        f" --threads {args.threads} --requests {args.requests}"
        f" --intensity {args.intensity}"
        + (" --agile-checks" if args.agile_checks else "")
    )
    print(f"replay: {replay}")
    _print_plan(cfg)

    # Watchdog: any sim-time stall (lost wakeup, leaked lock, unhandled
    # dropped completion) raises SimStallError instead of hanging CI.
    host = AgileHost(cfg, watchdog_ns=50_000_000.0)
    session = None
    if args.agile_checks:
        from repro.analysis import attach

        session = attach(host)

    lba_space = 512
    write_base = 1024
    pattern = np.arange(lba_space * cfg.ssds[0].page_size, dtype=np.uint8)
    for idx in range(len(host.ssds)):
        host.load_data(idx, 0, pattern)

    bufs = [host.make_buffer(label=f"storm.t{i}") for i in range(args.threads)]
    scratch = [host.alloc_view(cfg.ssds[0].page_size) for _ in range(args.threads)]
    for view in scratch:
        view[:] = 0x5A
    outcomes: Dict[str, int] = {}
    kernel = KernelSpec(
        name="fault_storm",
        body=_make_storm_kernel(
            args.ssds, args.requests, lba_space, write_base, lba_space
        ),
        registers_per_thread=48,
    )
    with host:
        duration = host.run_kernel(
            kernel,
            LaunchConfig.for_threads(args.threads, 64),
            (bufs, scratch, outcomes, args.seed),
        )
        host.drain()

    problems: List[str] = []
    total_ops = args.threads * args.requests
    accounted = sum(outcomes.values())
    if accounted != total_ops:
        problems.append(
            f"op accounting leak: {accounted}/{total_ops} operations "
            f"reached a terminal state"
        )
    inflight = host.issue.inflight()
    if inflight != 0:
        problems.append(f"{inflight} command(s) still in flight after drain")
    for qps in host.queue_pairs:
        for qp in qps:
            stuck = [
                slot
                for slot, state in enumerate(qp.sq.state)
                if state is not SlotState.EMPTY
            ]
            if stuck:
                problems.append(f"SQ{qp.qid} slots stuck non-EMPTY: {stuck}")
    if session is not None:
        report = session.report()
        if not report.clean:
            problems.append(report.summary())

    print(f"\nkernel duration: {duration:.0f} ns sim"
          f" ({host.sim.event_count} events)")
    print("outcomes:")
    for key in sorted(outcomes):
        print(f"  {key:20s} {outcomes[key]}")
    stats = host.stats()
    for group in ("faults", "recovery", "io"):
        if group in stats and stats[group]:
            print(f"{group}:")
            for key in sorted(stats[group]):
                print(f"  {key:20s} {stats[group][key]:.0f}")
    print("device health:")
    for entry in host.device_health():
        print(f"  {entry}")
    if session is not None:
        print(f"invariant events checked: {session.events_checked()}")

    if problems:
        print("\nSTORM FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        print(f"  replay with: {replay}")
        return 1
    print("\nstorm passed: every operation completed or failed cleanly")
    return 0


def _make_pe_kernel(
    requests: int,
    modify_space: int,
    ckpt_base: int,
    ckpt_space: int,
):
    """Write-heavy kernel for the program/erase storm: read-modify-writes
    through the software cache (dirty lines -> eviction write-backs), raw
    logical writes (sustained host programs that force GC), and cached
    point reads.  All addressing is logical, so the placement layer and
    the FTL's out-of-place write path both sit in the blast radius."""

    def body(tc, ctrl, scratch, outcomes, seed):
        chain = AgileLockChain(f"pestorm.t{tc.tid}")
        rng = np.random.default_rng(seed * 6007 + tc.tid)
        for _ in range(requests):
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
                        "raw_writes_ok"
                        if completion is not None and completion.ok
                        else "error_completions",
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


def _pe_storm_config(
    seed: int, intensity: float, num_ssds: int
) -> SystemConfig:
    """A deliberately small flash geometry (the write stream wraps the
    device mid-storm, so GC runs *while* programs and erases are faulting)
    with the write-path fault plan armed."""
    plan = program_erase_plan_from_seed(seed, intensity)
    page = 4096
    return SystemConfig(
        seed=seed,
        cache=CacheConfig(num_lines=32, ways=4),
        ssds=tuple(
            SsdConfig(
                name=f"ssd{i}",
                capacity_bytes=128 * page,
                pages_per_block=8,
                op_ratio=0.25,
                gc_low_water_blocks=6,
                gc_high_water_blocks=10,
            )
            for i in range(num_ssds)
        ),
        placement=PlacementConfig(policy="striped", stripe_pages=1),
        queue_pairs=4,
        queue_depth=32,
        faults=plan,
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


def _print_pe_plan(cfg: SystemConfig) -> None:
    f = cfg.faults
    print("program/erase storm plan (seed-derived, deterministic):")
    print(f"  flash_write_error_rate    = {f.flash_write_error_rate:.4f}")
    print(f"  flash_erase_error_rate    = {f.flash_erase_error_rate:.4f}")
    print(f"  flash_read_error_rate     = {f.flash_read_error_rate:.4f}")
    print(f"  flash_latency_outlier     = {f.flash_latency_outlier_rate:.4f}"
          f" x{f.flash_latency_outlier_mult:.1f}")
    print(f"  cqe_drop_rate             = {f.cqe_drop_rate:.4f}")


def _settle_writebacks(
    host: AgileHost,
    poll_ns: float = 10_000.0,
    max_wait_ns: float = 400_000_000.0,
) -> None:
    """Run until every eviction write-back reaches a terminal state (acked
    at the device or surfaced as lost).  ``host.drain`` only tracks
    commands already at the issue engine; a write-back parked in the FTL's
    free-block stall loop is invisible to it, yet it is exactly the dirty
    data this storm audits.  Bounded: on timeout the ledger check below
    reports the leak instead of hanging CI."""
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

    proc = host.sim.spawn(waiter(), name="pestorm.settle")
    host.sim.run(until_procs=[proc])


def pe_storm(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults pe-storm",
        description="write-path chaos: program/erase faults under live GC, "
        "asserting the dirty-data ledger balances and no write-back is lost",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=32)
    parser.add_argument(
        "--requests", type=int, default=24, help="operations per thread"
    )
    parser.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="scale every fault rate (weekly CI runs hotter)",
    )
    parser.add_argument("--ssds", type=int, default=2)
    parser.add_argument(
        "--agile-checks",
        action="store_true",
        help="attach runtime invariant checkers + offline race analysis",
    )
    args = parser.parse_args(argv)

    cfg = _pe_storm_config(args.seed, args.intensity, args.ssds)
    # The watchdog must dominate the recovery horizon: a command wedged
    # behind a stalled FTL resolves only after max_retries full timeouts,
    # all of it daemon-side activity the stall detector cannot see.
    watchdog_ns = (
        cfg.recovery.command_timeout_ns * (cfg.recovery.max_retries + 2)
    )
    replay = (
        f"python -m repro.faults pe-storm --seed {args.seed}"
        f" --threads {args.threads} --requests {args.requests}"
        f" --intensity {args.intensity} --ssds {args.ssds}"
        + (" --agile-checks" if args.agile_checks else "")
    )
    print(f"replay: {replay}")
    _print_pe_plan(cfg)

    host = AgileHost(cfg, watchdog_ns=watchdog_ns)
    session = None
    if args.agile_checks:
        from repro.analysis import attach

        session = attach(host)

    # Logical layout over the striped array: the modify/read region at the
    # bottom (through the cache), a disjoint raw-write churn region above.
    modify_space = 64
    ckpt_base = 96
    ckpt_space = min(96, args.ssds * 128 - ckpt_base)
    scratch = [
        host.alloc_view(cfg.ssds[0].page_size) for _ in range(args.threads)
    ]
    for view in scratch:
        view[:] = 0xA5
    outcomes: Dict[str, int] = {}
    kernel = KernelSpec(
        name="pe_storm",
        body=_make_pe_kernel(args.requests, modify_space, ckpt_base, ckpt_space),
        registers_per_thread=48,
    )
    with host:
        duration = host.run_kernel(
            kernel,
            LaunchConfig.for_threads(args.threads, 64),
            (scratch, outcomes, args.seed),
        )
        host.drain()
        _settle_writebacks(host)

    problems: List[str] = []
    total_ops = args.threads * args.requests
    accounted = sum(outcomes.values())
    if accounted != total_ops:
        problems.append(
            f"op accounting leak: {accounted}/{total_ops} operations "
            f"reached a terminal state"
        )
    inflight = host.issue.inflight()
    if inflight != 0:
        problems.append(f"{inflight} command(s) still in flight after drain")
    # The dirty-data contract: every eviction write-back the cache took
    # responsibility for either acked at the device or was surfaced as
    # lost — and under bounded-retry recovery, none may actually be lost.
    wb = host.cache.stats
    taken = int(wb.get("writebacks"))
    acked = int(wb.get("writebacks_acked"))
    lost = int(wb.get("writebacks_lost"))
    if taken != acked + lost:
        problems.append(
            f"write-back ledger leak: {taken} taken != "
            f"{acked} acked + {lost} lost"
        )
    if lost != 0:
        problems.append(f"{lost} dirty write-back(s) lost under recovery")
    for idx, ssd in enumerate(host.ssds):
        try:
            ssd.flash.ftl.check_conservation()
        except SimError as exc:
            problems.append(f"ssd{idx}: {exc}")
    if session is not None:
        report = session.report()
        if not report.clean:
            problems.append(report.summary())

    print(f"\nkernel duration: {duration:.0f} ns sim"
          f" ({host.sim.event_count} events)")
    print("outcomes:")
    for key in sorted(outcomes):
        print(f"  {key:20s} {outcomes[key]}")
    print("write-back ledger:")
    print(f"  taken={taken} acked={acked} lost={lost}")
    print("device health:")
    for entry in host.device_health():
        print(f"  {entry}")
    if session is not None:
        print(f"invariant events checked: {session.events_checked()}")

    if problems:
        print("\nPE-STORM FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        print(f"  replay with: {replay}")
        return 1
    print("\npe-storm passed: ledger balanced, no dirty data lost")
    return 0


COMMANDS = {"storm": storm, "pe-storm": pe_storm}


def main(argv: List[str]) -> int:
    if not argv or argv[0] not in COMMANDS:
        names = ", ".join(sorted(COMMANDS))
        print(f"usage: python -m repro.faults {{{names}}} [options]")
        return 2
    return COMMANDS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

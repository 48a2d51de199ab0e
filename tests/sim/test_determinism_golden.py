"""Golden-trace determinism: the two-tier scheduler must order events
bit-identically across runs.

The refactored engine dispatches from an immediate FIFO deque merged with a
timeout heap; its contract is that the merged order equals the classic
single-heap ``(time, seq)`` order.  These tests drive full-stack workloads
twice from identical seeds and require the *entire* protocol event stream —
not just endpoints — to match, so any tie-break regression shows up as a
trace diff rather than a flaky summary number.
"""

from __future__ import annotations

from repro.config import CacheConfig, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain
from repro.gpu import KernelSpec, LaunchConfig
from repro.sim.engine import Simulator, Timeout
from repro.sim.rng import RngStreams
from repro.sim.trace import EventLog


def _trace_signature(log):
    """Order-sensitive rendering of a protocol event stream (object
    identities excluded: ``src`` holds live model objects)."""
    return [
        (ev.t, ev.kind, sorted(
            (k, str(v)) for k, v in ev.data.items() if k != "src"
        ))
        for ev in log.events()
    ]


def _run_mixed_workload(seed: int):
    cfg = SystemConfig(
        cache=CacheConfig(num_lines=16, ways=4),
        ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 24),),
        queue_pairs=2,
        queue_depth=8,
        seed=seed,
    )
    host = AgileHost(cfg)
    log = EventLog().attach(host.instrument())
    # Seeded page contents so the data plane (not just the timing plane)
    # participates in the determinism check.
    rng = RngStreams(seed).stream("flash")
    page = host.cfg.ssds[0].page_size
    for lba in range(32):
        host.ssds[0].flash.write_page_data(
            lba, rng.integers(0, 256, size=page).astype("uint8")
        )

    def body(tc, ctrl, out_sink):
        chain = AgileLockChain(f"mix.t{tc.tid}")
        for i in range(3):
            lba = (tc.tid * 7 + i * 3) % 32
            line = yield from ctrl.read_page(tc, chain, 0, lba)
            out_sink.append((tc.tid, i, int(line.buffer[0])))
            ctrl.cache.unpin(line)
            yield from tc.compute(25.0)

    sink = []
    kernel = KernelSpec(name="mix", body=body, registers_per_thread=32)
    with host:
        host.run_kernel(kernel, LaunchConfig(1, 32), (sink,))
        host.drain()
    return {
        "trace": _trace_signature(log),
        "sink": sink,
        "now": host.sim.now,
        "events": host.sim.event_count,
        "device_errors": host.driver.total_errors(),
        "fault_injector": host.fault_injector,
        "recovery": host.recovery,
    }


def test_full_stack_golden_trace_is_bit_identical():
    a = _run_mixed_workload(seed=7)
    b = _run_mixed_workload(seed=7)
    # Fault-free runs must build no fault/recovery machinery and complete
    # every command cleanly — a nonzero device error count here means the
    # error path leaked into the golden configuration.
    assert a["fault_injector"] is None and a["recovery"] is None
    assert a["device_errors"] == 0
    assert a["now"] == b["now"]
    assert a["events"] == b["events"]
    assert a["sink"] == b["sink"]
    assert len(a["trace"]) > 100  # a real protocol stream, not a stub
    assert a["trace"] == b["trace"]


def test_different_seed_changes_data_not_validity():
    a = _run_mixed_workload(seed=7)
    c = _run_mixed_workload(seed=8)
    # Same request pattern, different flash contents: the protocol event
    # stream length matches but payload bytes differ somewhere.
    assert len(a["trace"]) == len(c["trace"])
    assert a["sink"] != c["sink"]


def _run_engine_torture(seed: int):
    """Pure-engine run: seeded random interleaving of zero-delay resumes,
    timeouts, raw callbacks, and event triggers, logged step by step."""
    sim = Simulator()
    steps = []
    rng = RngStreams(seed).stream("torture")

    def emit(kind, **data):
        steps.append((sim.now, kind, sorted(data.items())))

    def emit_cb(who, step):
        emit("cb", who=who, step=step)

    def worker(i):
        for k in range(20):
            roll = rng.integers(0, 4)
            if roll == 0:
                yield None  # cooperative re-schedule at the same time
            elif roll == 1:
                yield Timeout(float(rng.integers(1, 9)))
            elif roll == 2:
                ev = sim.event(name=f"w{i}.{k}")
                sim.schedule_at(
                    sim.now + float(rng.integers(0, 3)), ev.trigger, k
                )
                got = yield ev
                emit("woke", who=i, step=k, value=got)
            else:
                sim.schedule_immediate(emit_cb, i, k)
            emit("step", who=i, step=k, now=sim.now)

    for i in range(6):
        sim.spawn(worker(i), name=f"w{i}")
    sim.run()
    return steps, sim.now, sim.event_count


def test_engine_torture_trace_is_bit_identical():
    a = _run_engine_torture(seed=123)
    b = _run_engine_torture(seed=123)
    assert a == b
    trace, now, events = a
    assert len(trace) >= 120  # 6 workers x 20 steps plus wakeups
    assert events > 0 and now > 0

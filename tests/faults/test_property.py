"""Whole-config fuzz, derived from the declared legal ranges: for ANY legal
:class:`~repro.config.SystemConfig` — fault plan and recovery policy
included — a small raw-read kernel either finishes with every issued
command in a terminal state (a live completion, a recovered retry, or a
synthetic ABORTED), nothing in flight and no SQ slot outside EMPTY, or
fails with a named, typed error.  Anything else is a bug."""

from __future__ import annotations

from dataclasses import fields

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import config
from repro.analysis import attach
from repro.config import ConfigError, SsdConfig, SystemConfig
from repro.core import AgileHost, AgileLockChain
from repro.core.issue import AgileIoError
from repro.nvme.queue import SlotState
from repro.sim.engine import SimDeadlockError, SimStallError

from tests.helpers import run_kernel
from tests.support.legal import declared

#: The named failures a legal config may end in: two fields that break a
#: cross-field rule, and the simulator's own diagnoses.
ALLOWED = (ConfigError, SimDeadlockError, SimStallError, AgileIoError)

THREADS, READS = 8, 4


def _powers(lo: int, hi: int) -> st.SearchStrategy:
    return st.sampled_from([1 << k for k in range(lo, hi + 1)])


#: Test-side draws, always made: sizes a small run can afford, and powers of
#: two where a uniform draw would almost never divide its partner.
DRAWS = {
    # The kernel's buffers are one 4 KiB page, and a line is a page.
    "SsdConfig.page_size": st.just(4096),
    "CacheConfig.line_size": st.just(4096),
    "SsdConfig.capacity_bytes": _powers(18, 24),
    "SsdConfig.pages_per_block": _powers(0, 9),
    "CacheConfig.num_lines": _powers(0, 10),
    "CacheConfig.ways": _powers(0, 6),
    "PlacementConfig.stripe_pages": _powers(0, 6),
    # One block of the kernel's 48-register threads must fit an SM.
    "GpuConfig.max_registers_per_thread": st.integers(48, 255),
    "GpuConfig.registers_per_sm": st.integers(48 * 128, 1 << 17),
    "GpuConfig.max_warps_per_sm": st.integers(8, 96),
    "GpuConfig.warp_size": st.integers(1, 64),
    "CacheConfig.policy": st.sampled_from(["clock", "lru", "fifo", "random"]),
    # A fault window that closes before the end of a run, or never does.
    "FaultConfig.window_end_ns": st.one_of(
        st.just(float("inf")), st.floats(0.0, 5_000_000.0)
    ),
}


def _declared(field, rule) -> st.SearchStrategy:
    """One field's draw: a closed end of its interval, or anything between
    — inside the window a small run affords where the interval leaves a
    side open (from a tenth of the default, up to twice it)."""
    if isinstance(rule, tuple):
        return st.sampled_from(rule)
    default = field.default
    hi = rule.hi if rule.hi < float("inf") else 2 * max(default, 4)
    if field.type == "int":
        lo = rule.lo if rule.lo_closed else rule.lo + 1
        hi = hi if rule.hi_closed else hi - 1
        return st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))
    lo = rule.lo if rule.lo_closed else rule.lo + (default - rule.lo) / 10
    ends = [end for end, closed in ((lo, True), (hi, rule.hi_closed)) if closed]
    return st.one_of(
        st.sampled_from(ends), st.floats(lo, hi, exclude_max=not rule.hi_closed)
    )


def _kwargs(cls: type) -> st.SearchStrategy:
    """Keyword arguments of a ``cls``: its :data:`DRAWS` fields and a few
    others drawn, the rest left to their defaults."""
    capped, draws = {}, {}
    for field in fields(cls):
        name = f"{cls.__name__}.{field.name}"
        if name in DRAWS:
            capped[field.name] = DRAWS[name]
        elif field.type == "bool":
            draws[field.name] = st.booleans()
        elif field.type in vars(config):  # a PCIe link
            link = vars(config)[field.type]
            draws[field.name] = _kwargs(link).map(lambda kw, link=link: link(**kw))
        elif "legal" in field.metadata:
            draws[field.name] = _declared(field, field.metadata["legal"])
    return st.sets(st.sampled_from(sorted(draws)), max_size=4).flatmap(
        lambda varied: st.fixed_dictionaries(
            {**capped, **{name: draws[name] for name in sorted(varied)}}
        )
    )


#: ``SystemConfig``'s sections by field name (``ssds`` is drawn apart).
SECTIONS = {
    f.name: vars(config)[f.type] for f in fields(SystemConfig) if f.type in vars(config)
}


@st.composite
def system_configs(draw) -> dict:
    """What a ``SystemConfig`` is built from: each section's keyword
    arguments, one or two copies of an SSD's, and a few top-level fields."""
    drawn = {name: draw(_kwargs(cls)) for name, cls in SECTIONS.items()}
    drawn["ssds"] = [draw(_kwargs(SsdConfig))] * draw(st.integers(1, 2))
    top = {field.name: _declared(field, rule) for field, rule in declared(SystemConfig)}
    for name in sorted(draw(st.sets(st.sampled_from(sorted(top))))):
        drawn[name] = draw(top[name])
    return drawn


def build(drawn: dict) -> SystemConfig:
    """The drawn config, every section checked as it is built."""
    kwargs = dict(drawn)
    for name, cls in SECTIONS.items():
        kwargs[name] = cls(**drawn.get(name, {}))
    kwargs["ssds"] = tuple(
        SsdConfig(name=f"ssd{i}", **ssd)
        for i, ssd in enumerate(drawn.get("ssds", [{}]))
    )
    return SystemConfig(**kwargs)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(drawn=system_configs())
# AgileHost reserves its only SM for the service: "no SMs left for the
# kernel" at launch, now a ConfigError when the host is built.
@example(drawn={"gpu": {"num_sms": 1}})
# Every CQE dropped and retried without back-off until the 1024th retry's
# 2.0 ** 1024 raised OverflowError in a recovery process: max_retries is
# now at most 255 and the multiplier at most 16.
@example(drawn={
    "faults": {"cqe_drop_rate": 1.0},
    "recovery": {
        "max_retries": 3999, "retry_backoff_ns": 0.0, "breaker_threshold": 11999,
    },
})
def test_every_command_reaches_a_terminal_state(drawn):
    try:
        cfg = build(drawn)
        # As in the storms: the watchdog outlasts a command's timeouts.
        rec = cfg.recovery
        host = AgileHost(
            cfg, watchdog_ns=rec.command_timeout_ns * (rec.max_retries + 2)
        )
        session = attach(host)
        span = min(64, cfg.ssds[0].num_pages)
        dests = [host.alloc_view(4096) for _ in range(THREADS)]
        terminal = {"ok": 0, "error": 0, "clean_failure": 0}

        def body(tc, ctrl, dests):
            chain = AgileLockChain(f"t{tc.tid}")
            for i in range(READS):
                try:
                    txn = yield from ctrl.raw_read(
                        tc, chain, 0, (tc.tid * 13 + i * 5) % span, dests[tc.tid]
                    )
                    completion = yield from txn.wait()
                    terminal["ok" if completion.ok else "error"] += 1
                except AgileIoError:
                    terminal["clean_failure"] += 1

        run_kernel(host, body, block=THREADS, args=(dests,))
    except ALLOWED:
        return

    assert sum(terminal.values()) == THREADS * READS
    assert host.issue.inflight() == 0
    assert host.recovery is None or host.recovery.resubmitting == 0
    for qps in host.queue_pairs:
        for qp in qps:
            assert all(state is SlotState.EMPTY for state in qp.sq.state), (
                f"SQ{qp.qid} leaked slots: {qp.sq.state}"
            )
    # Runtime invariant checkers raise inline; the report adds the locks
    # still held.
    assert session.report().clean

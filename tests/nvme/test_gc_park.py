"""A host program stalled on a full device parks on GC progress and rejoins
its 50 us poll grid in phase (``FlashArray.program_service``): completion
times and stall books against the poll-by-poll loop it replaced, the write
fault at poll ``GC_WAIT_LIMIT`` kept on time, and the stall that ends in
one now booked."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvme.flash import FlashArray
from repro.sim import Simulator, Timeout

from tests.nvme.test_ftl import small_cfg

POLL = FlashArray.GC_WAIT_POLL_NS
LIMIT = FlashArray.GC_WAIT_LIMIT


class SpinningFlashArray(FlashArray):
    """Reference: the stall as it was written before it parked — one poll
    of the allocator every 50 us, GC collecting or not.  (Books the faulted
    stall like its subject, so the ledgers compare.)"""

    def program_service(self, lba, data=None):
        self.writes += 1
        ftl = self.ftl
        pp = ftl.alloc_page()
        spins = 0
        while pp is None:
            ftl.maybe_start_gc(self, force=True)
            if spins >= LIMIT:
                break
            spins += 1
            yield Timeout(POLL)
            pp = ftl.alloc_page()
        if spins:
            ftl.host_gc_stalls += 1
            ftl.host_gc_stall_ns += spins * POLL
        if pp is None:
            self.write_errors += 1
            return False
        ok = yield from self.timed_program(pp)
        if not ok:
            ftl.burn_page(pp)
            return False
        ftl.commit_program(lba, pp, data)
        ftl.maybe_start_gc(self)
        return True


def cfg(erase_ns=20_011.9, **overrides):
    """``small_cfg`` with latencies no sum of which is a multiple of the
    poll period: a poll never ties with a block coming free."""
    return small_cfg(
        read_latency_ns=1_013.7, write_latency_ns=3_001.3,
        erase_latency_ns=erase_ns, **overrides,
    )


class Jitter:
    """A fault injector that fails nothing and stretches program ``k`` by
    its own irrational hair.  Programs queueing on one channel would
    otherwise pull their writers onto one 50 us poll lattice (ends a whole
    number of write latencies apart), and two polls at one instant are a
    same-instant dispatch order — the one thing parking does not keep."""

    def __init__(self):
        self.k = 0

    def flash_latency_mult(self, pp):
        self.k += 1
        return 1.0 + 1e-3 * ((self.k * 0.6180339887498949) % 1.0)

    def flash_read_fails(self, pp):
        return False

    flash_write_fails = flash_erase_fails = flash_read_fails


def run_writers(cls, config, writers):
    """Each writer sleeps to its own start (a distinct fraction of a ns)
    and programs its LBAs in turn.  Returns the log ``(writer, lba, start,
    end, ok)`` and the device."""
    sim = Simulator()
    flash = cls(sim, config)
    flash.injector = Jitter()
    log = []

    def writer(w, start, lbas):
        yield Timeout(start * 977.0 + w * 0.173)
        for lba in lbas:
            t0 = sim.now
            ok = yield from flash.program_service(lba)
            log.append((w, lba, t0, sim.now, ok))

    for w, (start, lbas) in enumerate(writers):
        sim.spawn(writer(w, start, lbas), name=f"writer{w}")
    sim.run()
    return log, flash


#: Four to eight writers overwrite a 24-page hot set on an 80-page device,
#: a hundred programs or more: the free pool runs dry, several programs
#: stall at once, and with the slow erases a stall lasts tens of polls.
WRITERS = st.lists(
    st.tuples(
        st.integers(0, 30),
        st.lists(st.integers(0, 23), min_size=25, max_size=50),
    ),
    min_size=4, max_size=8,
)


class TestAgainstThePollLoop:
    @settings(max_examples=60, deadline=None)
    @given(WRITERS, st.sampled_from([20_011.9, 700_013.3, 2_000_011.9]))
    def test_bit_equal_completions_and_books(self, writers, erase_ns):
        want_log, want = run_writers(SpinningFlashArray, cfg(erase_ns), writers)
        got_log, got = run_writers(FlashArray, cfg(erase_ns), writers)
        assert got_log == want_log  # every program's start, end and verdict
        assert got.ftl.stats() == want.ftl.stats()
        assert got.sim.now == want.sim.now
        assert got.write_errors == want.write_errors
        got.ftl.check_conservation()

    def test_a_stall_of_many_polls_costs_a_handful_of_events(self):
        """Two writers rewrite sixteen pages eight times over with a 2 ms
        erase: a stalled program waits out some forty polls, parked."""
        writers = [(0, list(range(8)) * 8), (0, list(range(8, 16)) * 8)]
        want_log, want = run_writers(
            SpinningFlashArray, cfg(2_000_011.9), writers
        )
        got_log, got = run_writers(FlashArray, cfg(2_000_011.9), writers)
        assert got_log == want_log
        stalls, polls = got.ftl.host_gc_stalls, got.ftl.host_gc_stall_ns / POLL
        assert stalls > 4 and polls > 30 * stalls
        saved = want.sim.event_count - got.sim.event_count
        # A park is four events (wake, landing, the alarm's two).
        assert saved >= polls - 5 * stalls


def full_device(cls, erase_ns=20_011.9):
    """Every logical page written once onto a device with one spare block:
    all sixteen data blocks fully valid, the spare is GC's reserve."""
    sim = Simulator()
    flash = cls(sim, cfg(erase_ns, op_ratio=0.0))
    verdicts = []

    def fill():
        for lba in range(64):
            assert (yield from flash.program_service(lba))
        verdicts.append((yield from flash.program_service(0)))

    sim.spawn(fill(), name="writer")
    return sim, flash, verdicts


class TestTheFault:
    def test_a_device_gc_cannot_help_faults_on_time_and_on_the_books(self):
        """No block has an invalid page: every GC run ends at once.  The
        program gives up at poll 1024 — 51.2 ms of stall that used to be
        missing from ``host_gc_stall_ns`` — and waiting it out costs no
        more events than polling did."""
        runs = {}
        for cls in (SpinningFlashArray, FlashArray):
            sim, flash, verdicts = full_device(cls)
            sim.run()
            runs[cls] = (sim.now, sim.event_count, flash.ftl.stats())
            assert verdicts == [False] and flash.write_errors == 1
            assert flash.ftl.host_gc_stalls == 1
            assert flash.ftl.host_gc_stall_ns == LIMIT * POLL
            assert flash.ftl.gc_runs > LIMIT  # one per poll, none found a victim
            assert flash.ftl.erases == 0
        spin_now, spin_events, spin_stats = runs[SpinningFlashArray]
        now, events, stats = runs[FlashArray]
        assert now == spin_now and stats == spin_stats
        assert events <= spin_events

    def test_parked_program_gives_up_at_poll_1024(self):
        """GC is busy for longer than the program will wait (one victim, a
        100 ms erase): the parked program's alarm lands it on poll 1024 of
        its own grid, where it faults as the polling one did."""
        ends = {}
        for cls in (SpinningFlashArray, FlashArray):
            sim = Simulator()
            flash = cls(sim, cfg(100_000_000.3))
            log = []

            def writer():
                for lba in list(range(16)) * 5:
                    t0 = sim.now
                    ok = yield from flash.program_service(lba)
                    log.append((lba, t0, sim.now, ok))
                    if not ok:
                        return

            sim.spawn(writer(), name="writer")
            sim.run()
            assert log[-1][3] is False
            t = log[-1][1]
            for _ in range(LIMIT):
                t += POLL
            assert log[-1][2] == t
            assert flash.ftl.host_gc_stall_ns == LIMIT * POLL
            ends[cls] = (log, sim.event_count)
        assert ends[FlashArray][0] == ends[SpinningFlashArray][0]
        assert ends[FlashArray][1] < ends[SpinningFlashArray][1] - LIMIT + 10


class TestLiveness:
    def test_kill_while_parked_disarms_the_hook(self):
        sim = Simulator()
        flash = FlashArray(sim, cfg(2_000_011.9))

        def writer():
            for lba in list(range(16)) * 5:
                yield from flash.program_service(lba)

        def sleeper():  # outlives the killed program's alarm
            yield Timeout(1.5 * LIMIT * POLL)

        proc = sim.spawn(writer(), name="writer")
        sim.spawn(sleeper())
        progress = flash.ftl.gc_progress
        while not progress._waiters:
            sim.run(max_events=1)
        assert proc.waiting_description() == "event 'ssd.ftl.gc_progress'"
        proc.kill()
        assert progress._waiters == []
        sim.run()  # GC fires into an empty hook; the alarm finds nobody
        flash.ftl.check_conservation()

    def test_gc_ending_at_once_does_not_wake_a_parked_program_per_poll(self):
        """Two programs stall on one instant on the device GC cannot help:
        both step poll by poll (no run ever has a victim in hand, so
        neither parks) and the pair costs what two pollers cost."""
        counts = {}
        for cls in (SpinningFlashArray, FlashArray):
            sim, flash, verdicts = full_device(cls)

            sim.run()  # first program faults
            t0, e0 = sim.now, sim.event_count

            def pair(lba):
                verdicts.append((yield from flash.program_service(lba)))

            sim.spawn(pair(1))
            sim.spawn(pair(2))
            sim.run()
            assert verdicts == [False] * 3
            assert sim.now == t0 + LIMIT * POLL
            counts[cls] = sim.event_count - e0
        assert counts[FlashArray] <= counts[SpinningFlashArray]

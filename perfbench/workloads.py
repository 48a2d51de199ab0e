"""The four workloads, each built only from the program's public API.

A workload object is used by one child process:

- ``prepare(seed)`` generates the inputs (LBA lists, Criteo trace,
  ``*Spec(seed=...)``);
- ``arm()`` builds per-repeat state outside the timed region (only
  ``fig5-read`` has any: a fresh host, because a run consumes its host);
  ``setup_s`` ends after the first ``arm()``;
- ``run()`` is the timed call;
- ``outcome()`` reads the simulated results and checks the outputs.

``repro`` is imported inside the functions so that ``setup_s`` can start
the clock before the import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from perfbench import spec


@dataclass
class Outcome:
    """What one run produced, in simulated time and exact counts."""

    attempted: int
    ok: int
    #: Ops that ended in an error state (device error, wrong data, abort
    #: on the service path) — not the ones admission control refused.
    errored: int
    sim_goodput_ops_s: float
    sim_p50_ns: float = 0.0
    sim_p95_ns: float = 0.0
    latency_samples: int = 0
    paper_rel_err: float = 0.0
    #: Event count where the public API exposes one (parity-checked
    #: against the simulators perfbench saw constructed).
    api_sim_events: Optional[int] = None
    #: (name, passed, detail) for every output check.
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


def _percentiles(samples) -> tuple[float, float]:
    import numpy as np

    p50, p95 = np.percentile(np.asarray(samples, dtype=np.float64), (50, 95))
    return float(p50), float(p95)


# -- fig5-read ----------------------------------------------------------------


class Fig5Read:
    """4096 raw 4 KB random reads on one SSD: the machine and shape of
    ``python -m repro.bench perf``, with seeded LBAs and checkable data."""

    THREADS = 64
    READS_PER_THREAD = 64
    IN_FLIGHT = 8
    PAGE = 4096

    def prepare(self, seed: int) -> None:
        import numpy as np
        from repro.config import CacheConfig, SsdConfig, SystemConfig

        self.cfg = SystemConfig(
            cache=CacheConfig(num_lines=64, ways=8),
            ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 30),),
            queue_pairs=16,
            queue_depth=256,
        )
        rng = np.random.default_rng(seed)
        self.lbas = rng.integers(
            0, self.cfg.ssds[0].num_pages // 2,
            size=(self.THREADS, self.READS_PER_THREAD),
        )

    def arm(self) -> None:
        import numpy as np
        from repro.core import AgileHost

        self.host = host = AgileHost(self.cfg)
        # Every page read holds its own LBA in each 32-bit word, so a read
        # that lands the wrong page (or none: flash is zero) is detectable.
        page = np.empty(self.PAGE, dtype=np.uint8)
        for lba in np.unique(self.lbas):
            page.view(np.uint32)[:] = lba
            host.load_data(0, int(lba), page)
        # One buffer per in-flight slot: a slot is reused only after its
        # previous read completed, so its final content is determined.
        self.bufs = [
            [host.alloc_view(self.PAGE) for _ in range(self.IN_FLIGHT)]
            for _ in range(self.THREADS)
        ]
        self.reads: list[tuple[float, int]] = []  # (latency ns, status)

    def _kernel(self, tc, ctrl):
        from repro.core import AgileLockChain

        chain = AgileLockChain(f"perfbench.t{tc.tid}")
        bufs, sim, done = self.bufs[tc.tid], tc.sim, self.reads
        pending = []
        for i, lba in enumerate(self.lbas[tc.tid]):
            start = sim.now
            txn = yield from ctrl.raw_read_logical(
                tc, chain, int(lba), bufs[i % self.IN_FLIGHT]
            )
            pending.append((start, txn))
            if len(pending) >= self.IN_FLIGHT:
                start, txn = pending.pop(0)
                completion = yield from txn.wait()
                done.append((txn.completed_at - start, int(completion.status)))
        for start, txn in pending:
            completion = yield from txn.wait()
            done.append((txn.completed_at - start, int(completion.status)))

    def run(self) -> None:
        from repro.gpu import KernelSpec, LaunchConfig

        kernel = KernelSpec(
            name="perfbench.fig5_read", body=self._kernel,
            registers_per_thread=40,
        )
        host = self.host
        with host:
            self.duration_ns = host.run_kernel(
                kernel, LaunchConfig(1, self.THREADS)
            )
            host.drain()

    def outcome(self) -> Outcome:
        import numpy as np

        host = self.host
        total = self.THREADS * self.READS_PER_THREAD
        dev = host.driver.device_stats()[0]
        wrong = 0
        for tid, slots in enumerate(self.bufs):
            for slot, buf in enumerate(slots):
                lba = int(self.lbas[tid][slot - self.IN_FLIGHT])
                same = np.array_equal(buf, host.read_flash(0, lba, self.PAGE))
                wrong += not (same and buf.view(np.uint32)[0] == lba)
        bad_status = sum(status != 0 for _, status in self.reads)
        p50, p95 = _percentiles([lat for lat, _ in self.reads])
        gbps = dev["bytes_read"] / self.duration_ns
        out = Outcome(
            attempted=total,
            ok=len(self.reads) - bad_status - wrong,
            errored=bad_status + wrong + (total - len(self.reads)),
            sim_goodput_ops_s=dev["completed_reads"] / self.duration_ns * 1e9,
            sim_p50_ns=p50,
            sim_p95_ns=p95,
            latency_samples=len(self.reads),
            paper_rel_err=abs(gbps - spec.PAPER_FIG5_GBPS) / spec.PAPER_FIG5_GBPS,
            api_sim_events=host.sim.event_count,
        )
        out.check("completed_reads", dev["completed_reads"] == total,
                  f"{dev['completed_reads']} of {total}")
        out.check("bytes_read", dev["bytes_read"] == total * self.PAGE,
                  str(dev["bytes_read"]))
        out.check("device_errors", host.driver.total_errors() == 0
                  and bad_status == 0, f"{bad_status} bad statuses")
        out.check("buffers_match_flash", wrong == 0,
                  f"{wrong} of {self.THREADS * self.IN_FLIGHT} slot buffers"
                  " differ from flash")
        return out


# -- dlrm-c1 ------------------------------------------------------------------


class DlrmC1:
    """Fig. 7 defaults: the three systems on config-1, one Criteo trace."""

    SYSTEMS = ("bam", "agile_sync", "agile_async")
    KW = dict(batch=256, epochs=8, features=26, cache_lines=2048,
              num_threads=256, queue_pairs=4, queue_depth=16)

    def prepare(self, seed: int) -> None:
        from repro.bench.figures import DLRM_VOCAB
        from repro.workloads.criteo import make_criteo_trace
        from repro.workloads.dlrm import config1, expected_checksum

        self.config = config1()
        self.trace = make_criteo_trace(
            8192, vocab_sizes=DLRM_VOCAB, zipf_a=1.2, seed=seed
        )
        self.expected = expected_checksum(
            self.config, self.trace, batch=self.KW["batch"],
            epochs=self.KW["epochs"], features=self.KW["features"],
        )

    def arm(self) -> None:
        pass

    def run(self) -> None:
        from repro.workloads.dlrm import run_dlrm

        self.results = {
            system: run_dlrm(system, self.config, trace=self.trace, **self.KW)
            for system in self.SYSTEMS
        }

    def outcome(self) -> Outcome:
        kw, res = self.KW, self.results
        lookups = kw["batch"] * kw["epochs"] * kw["features"]
        good = [s for s in self.SYSTEMS if res[s].checksum == self.expected]
        bam_ns = res["bam"].total_ns
        out = Outcome(
            attempted=lookups * len(self.SYSTEMS),
            ok=lookups * len(good),
            errored=lookups * (len(self.SYSTEMS) - len(good)),
            sim_goodput_ops_s=lookups / res["agile_async"].total_ns * 1e9,
            paper_rel_err=max(
                abs(bam_ns / res[s].total_ns - ref) / ref
                for s, ref in spec.PAPER_DLRM_SPEEDUP.items()
            ),
        )
        for system in self.SYSTEMS:
            out.check(f"checksum.{system}", system in good,
                      f"{res[system].checksum!r} vs {self.expected!r}")
        return out


# -- the two serve workloads --------------------------------------------------


def _serve_outcome(report: Any, latency_class: str) -> Outcome:
    classes = report.classes
    lat = classes[latency_class]
    out = Outcome(
        attempted=report.offered,
        ok=report.completed,
        errored=sum(c.aborted for c in classes.values()),
        sim_goodput_ops_s=report.goodput_rps,
        sim_p50_ns=lat.p50_ns,
        sim_p95_ns=lat.p95_ns,
        latency_samples=lat.completed,
        api_sim_events=report.sim_events,
    )
    for name, c in sorted(classes.items()):
        terminal = c.completed + c.shed + c.queue_timeout + c.aborted
        out.check(f"books.{name}", c.offered == terminal,
                  f"offered {c.offered}, terminal {terminal}")
    return out


class ServeTenancy:
    """The CI ``tenancy --quick`` calm cell, wfq arm."""

    def prepare(self, seed: int) -> None:
        from repro.serve import tenancy

        self.spec = tenancy.quick_spec(seed)

    def arm(self) -> None:
        pass

    def run(self) -> None:
        from repro.serve.tenancy import run_tenancy_arm

        self.report = run_tenancy_arm(
            self.spec, "inference_heavy", "none", "striped", "wfq"
        )

    def outcome(self) -> Outcome:
        return _serve_outcome(self.report, "infer")


class ServeWriteGc:
    """One rate between the GC-on and GC-off write knees, GC on."""

    RATE_RPS = 30_000.0

    def prepare(self, seed: int) -> None:
        from repro.serve import writepath

        self.spec = writepath.quick_spec(seed=seed)

    def arm(self) -> None:
        pass

    def run(self) -> None:
        from repro.serve.writepath import run_write_path_point

        self.report = run_write_path_point(
            self.RATE_RPS, self.spec, gc_enabled=True
        ).report

    def outcome(self) -> Outcome:
        out = _serve_outcome(self.report, "point")
        out.check("writebacks_lost", self.report.writebacks_lost == 0,
                  str(self.report.writebacks_lost))
        return out


REGISTRY = {
    "fig5-read": Fig5Read,
    "dlrm-c1": DlrmC1,
    "serve-tenancy": ServeTenancy,
    "serve-write-gc": ServeWriteGc,
}

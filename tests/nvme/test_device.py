"""End-to-end NVMe protocol tests: a bare-metal submitter drives the full
doorbell -> fetch -> flash -> DMA -> CQE pipeline and checks real data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GpuConfig, SsdConfig, SystemConfig
from repro.core.machine import Machine
from repro.mem import Hbm
from repro.nvme import NvmeCommand, NvmeDriver, Opcode, Status
from repro.sim import Simulator, Timeout


@pytest.fixture
def rig(sim):
    hbm = Hbm(sim, GpuConfig(), capacity=1 << 22)
    driver = NvmeDriver(sim, hbm)
    ssd = driver.add_device(SsdConfig(name="ssd0", capacity_bytes=1 << 24))
    (qp,) = driver.create_io_queues(ssd, 1, 8)
    return sim, hbm, ssd, qp


def _reaper(sim, qp):
    """Single completion consumer: polls the CQ in order, releases SQ slots,
    and wakes the submitter waiting on each command's context event —
    a hand-rolled miniature of what the AGILE service automates."""

    def proc():
        while True:
            completion = qp.cq.peek(qp.cq.host_head)
            if completion is None:
                yield Timeout(200)
                continue
            qp.cq.consume_to(qp.cq.host_head + 1)
            qp.sq.release(completion.cid)  # CID == slot in this model
            yield from qp.cq.doorbell.ring(qp.cq.host_head)
            completion.context.trigger(completion)

    return sim.spawn(proc(), name="reaper", daemon=True)


def submit_and_wait(sim, qp, cmd):
    """Minimal submitter: reserve, publish, ring, wait for the reaper."""
    if not any(p.name == "reaper" for p in sim._alive):
        _reaper(sim, qp)

    def proc():
        while True:
            res = qp.sq.try_reserve()
            if res is not None:
                break
            yield Timeout(100)
        slot, cid = res
        cmd.cid = cid
        cmd.context = sim.event(name=f"done.lba{cmd.lba}")
        qp.sq.publish(slot, cmd)
        tail = qp.sq.advance_tail()
        if tail is not None:
            yield from qp.sq.doorbell.ring(tail)
        completion = yield cmd.context
        return completion

    return sim.spawn(proc(), name=f"submit.lba{cmd.lba}")


class TestReadPath:
    def test_read_moves_real_bytes(self, rig):
        sim, hbm, ssd, qp = rig
        payload = np.arange(4096, dtype=np.uint8)
        ssd.flash.write_page_data(5, payload)
        dst = hbm.alloc(4096, label="dst")
        cmd = NvmeCommand(opcode=Opcode.READ, cid=0, lba=5, data=dst.view)
        p = submit_and_wait(sim, qp, cmd)
        sim.run(until_procs=[p])
        assert p.value.ok
        assert np.array_equal(dst.view, payload)
        assert ssd.completed_reads == 1
        assert ssd.bytes_read == 4096

    def test_unwritten_page_reads_zeros(self, rig):
        sim, hbm, ssd, qp = rig
        dst = hbm.alloc(4096)
        dst.view[:] = 0xFF
        cmd = NvmeCommand(opcode=Opcode.READ, cid=0, lba=99, data=dst.view)
        p = submit_and_wait(sim, qp, cmd)
        sim.run(until_procs=[p])
        assert dst.view.sum() == 0

    def test_read_latency_exceeds_flash_service(self, rig):
        sim, hbm, ssd, qp = rig
        dst = hbm.alloc(4096)
        cmd = NvmeCommand(opcode=Opcode.READ, cid=0, lba=0, data=dst.view)
        p = submit_and_wait(sim, qp, cmd)
        sim.run(until_procs=[p])
        assert sim.now > ssd.cfg.read_latency_ns

    def test_lba_out_of_range_completes_with_error(self, rig):
        sim, hbm, ssd, qp = rig
        bad_lba = ssd.cfg.num_pages + 1
        cmd = NvmeCommand(opcode=Opcode.READ, cid=0, lba=bad_lba)
        p = submit_and_wait(sim, qp, cmd)
        sim.run(until_procs=[p])
        assert p.value.status == Status.LBA_OUT_OF_RANGE
        assert ssd.errors == 1


class TestWritePath:
    def test_write_then_read_roundtrip(self, rig):
        sim, hbm, ssd, qp = rig
        src = hbm.alloc(4096)
        src.view[:] = np.arange(4096, dtype=np.uint8)[::-1]
        wr = NvmeCommand(opcode=Opcode.WRITE, cid=0, lba=7, data=src.view)
        p = submit_and_wait(sim, qp, wr)
        sim.run(until_procs=[p])
        assert p.value.ok
        assert np.array_equal(ssd.flash.read_page_data(7), src.view)
        assert ssd.completed_writes == 1

    def test_flush_is_accepted(self, rig):
        sim, hbm, ssd, qp = rig
        cmd = NvmeCommand(opcode=Opcode.FLUSH, cid=0, lba=0)
        p = submit_and_wait(sim, qp, cmd)
        sim.run(until_procs=[p])
        assert p.value.ok


class TestConcurrency:
    def test_many_outstanding_commands_complete(self, rig):
        sim, hbm, ssd, qp = rig
        n = 32
        procs = []
        bufs = []
        for i in range(n):
            ssd.flash.write_page_data(i, np.full(4096, i % 251, dtype=np.uint8))
            dst = hbm.alloc(4096)
            bufs.append(dst)
            cmd = NvmeCommand(opcode=Opcode.READ, cid=0, lba=i, data=dst.view)
            procs.append(submit_and_wait(sim, qp, cmd))
        sim.run(until_procs=procs)
        for i, dst in enumerate(bufs):
            assert dst.view[0] == i % 251
        assert ssd.completed_reads == n

    def test_parallel_reads_faster_than_serial(self, sim):
        """Channel parallelism: 8 concurrent reads of distinct pages finish
        far sooner than 8 x flash latency."""
        hbm = Hbm(sim, GpuConfig(), capacity=1 << 22)
        driver = NvmeDriver(sim, hbm)
        ssd = driver.add_device(SsdConfig(name="s", capacity_bytes=1 << 24))
        (qp,) = driver.create_io_queues(ssd, 1, 16)
        procs = [
            submit_and_wait(
                sim,
                qp,
                NvmeCommand(
                    opcode=Opcode.READ, cid=0, lba=i, data=hbm.alloc(4096).view
                ),
            )
            for i in range(8)
        ]
        sim.run(until_procs=procs)
        assert sim.now < 4 * ssd.cfg.read_latency_ns

    def test_queue_pair_limit_enforced(self, sim):
        hbm = Hbm(sim, GpuConfig(), capacity=1 << 22)
        driver = NvmeDriver(sim, hbm)
        ssd = driver.add_device(SsdConfig(name="s", max_queue_pairs=2))
        from repro.sim import SimError

        with pytest.raises(SimError):
            driver.create_io_queues(ssd, 3, 8)


class TestFlashHelpers:
    def test_load_and_read_array_roundtrip(self):
        machine = Machine(
            SystemConfig(ssds=(SsdConfig(name="s", capacity_bytes=1 << 24),))
        )
        data = np.arange(3000, dtype=np.float32)
        pages = machine.load_data(0, 10, data)
        assert pages == (3000 * 4 + 4095) // 4096
        data[:] = -1  # flash holds copies, not views of the caller's array
        out = machine.read_flash(0, 10, 3000 * 4, np.float32)
        assert np.array_equal(out, np.arange(3000, dtype=np.float32))
        # Only the short last page is padded, with zeros.
        last = machine.ssds[0].flash.read_page_data(12)
        assert not last[3000 * 4 - 2 * 4096 :].any()

    def test_write_page_size_checked(self, sim):
        hbm = Hbm(sim, GpuConfig(), capacity=1 << 20)
        driver = NvmeDriver(sim, hbm)
        ssd = driver.add_device(SsdConfig(name="s"))
        with pytest.raises(ValueError):
            ssd.flash.write_page_data(0, np.zeros(100, dtype=np.uint8))

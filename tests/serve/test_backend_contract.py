"""One batch-kernel template, four backends: agile, agile on 2 GPUs, bam
and naive must all honour the same ``run_batch`` contract."""

from __future__ import annotations

import pytest

from repro.serve.backends import (
    AgileServeBackend,
    BamServeBackend,
    NaiveServeBackend,
)
from repro.serve.batcher import Batch
from repro.serve.registry import POINT, tenant_class
from repro.serve.request import Request

from tests.helpers import small_config

BACKENDS = {
    "agile": AgileServeBackend,
    "agile-2gpu": lambda cfg: AgileServeBackend(cfg, num_gpus=2),
    "bam": BamServeBackend,
    "naive": NaiveServeBackend,
}

#: Enough SQ slots that the naive strawman can hold a whole 130-request
#: batch outstanding without its native deadlock.
CFG = dict(queue_pairs=4, queue_depth=64)


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param](small_config(**CFG))


def _serve_batch(backend, n_requests, worker_idx=0):
    cls = tenant_class(POINT, pages=1, lba_space=256)
    backend.load_pattern([cls])
    requests = [
        Request(rid, cls, 0.0, (backend.place(rid, tenant=cls.name),))
        for rid in range(n_requests)
    ]
    finished = []
    backend.start()
    proc = backend.sim.spawn(
        backend.run_batch(
            worker_idx,
            Batch(bid=0, requests=requests, formed_ns=0.0),
            lambda req, ok: finished.append((req.rid, ok)),
        )
    )
    backend.sim.run(until_procs=[proc])
    backend.drain()
    backend.stop()
    return finished


def test_backend_exposes_the_hosts_own_objects(backend):
    host = backend.host
    assert backend.sim is host.sim
    assert backend.trace is host.trace
    assert backend.cfg is host.cfg
    assert backend.placement is host.placement
    assert backend.num_workers == len(host.gpus)


def test_every_request_finishes_exactly_once(backend):
    finished = _serve_batch(backend, 5, worker_idx=backend.num_workers - 1)
    assert sorted(finished) == [(rid, True) for rid in range(5)]


def test_surplus_threads_touch_no_request(backend):
    """130 requests launch 2 blocks of 128: the 126 threads with
    ``tid >= len(requests)`` must return without a finish or an I/O.
    (At this concurrency the naive strawman loses wakeups and aborts some
    requests — each still gets its one ``finish``.)"""
    finished = _serve_batch(backend, 130)
    assert sorted(rid for rid, _ok in finished) == list(range(130))
    reads = sum(backend.device_read_counts())
    if backend.system == "naive":
        assert reads <= 130
    else:
        assert reads == 130 and all(ok for _rid, ok in finished)

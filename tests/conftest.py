"""Shared fixtures for the test suite, and the ``--agile-checks`` flag.

``pytest --agile-checks`` attaches the full :mod:`repro.analysis` runtime
invariant-checker stack (NVMe queue conformance, cache state-machine
legality, Share Table coherence, lock/event tracing) to every machine
(AGILE, BaM, multi-GPU) the suite constructs, so a protocol
violation anywhere in the models fails the offending test loudly.
"""

from __future__ import annotations

import pytest

from repro.sim import Simulator


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--agile-checks",
        action="store_true",
        default=False,
        help="attach repro.analysis invariant checkers to every machine",
    )


@pytest.fixture(autouse=True, scope="session")
def _agile_checks(pytestconfig: pytest.Config):
    if not pytestconfig.getoption("--agile-checks"):
        yield
        return
    from repro.analysis import attach
    from repro.sim.probe import listening

    with listening("analysis", attach):
        yield


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with the watchdog disabled."""
    return Simulator()

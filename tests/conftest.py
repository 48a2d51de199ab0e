"""Shared fixtures for the test suite.

Every machine (AGILE, BaM, multi-GPU) the suite constructs runs under the
full :mod:`repro.analysis` session (NVMe queue conformance, cache
state-machine legality, Share Table coherence, lock-order and race
analysis), so a protocol violation anywhere in the models fails the
offending test loudly.  A test that needs an unprobed machine builds it
inside ``listening("analysis", None)``.
"""

from __future__ import annotations

import pytest

from repro.analysis import attach
from repro.sim import Simulator
from repro.sim.probe import listening


@pytest.fixture(autouse=True, scope="session")
def _analysis_session():
    with listening("analysis", attach):
        yield


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with the watchdog disabled."""
    return Simulator()

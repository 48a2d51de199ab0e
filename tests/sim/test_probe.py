"""The probe's record contract and its switch.

Every record kind and its payload fields are declared once
(``repro.sim.probe.KINDS``) and checked at both ends: an emitter cannot
send an undeclared kind or a payload with a missing or extra field, and a
subscriber cannot read a field its kind does not declare.
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import CqPhaseChecker
from repro.sim.probe import KINDS, Probe, RecordError, armed, listening


def _cq_post(probe, **overrides):
    fields = dict(
        src=None, qid=0, pos=0, slot=0, phase=True, cid=0, sq_id=0,
        head_doorbell=0, occupancy=1,
    )
    fields.update(overrides)
    probe.emit("cq.post", **fields)


class TestEmitterEnd:
    def test_undeclared_kind_raises(self, sim):
        with pytest.raises(RecordError, match="'sq.reserv'.* undeclared"):
            Probe(sim).emit("sq.reserv", src=None, qid=0)

    def test_missing_or_extra_field_raises(self, sim):
        probe = Probe(sim)
        with pytest.raises(RecordError, match="declared fields"):
            probe.emit("sq.publish", src=None, qid=0, slot=1)
        with pytest.raises(RecordError, match="declared fields"):
            probe.emit("sq.publish", src=None, qid=0, slot=1, cid=1, tag=2)

    def test_checked_with_no_subscriber(self, sim):
        """The contract holds whether or not anyone listens."""
        with pytest.raises(RecordError):
            Probe(sim).emit("hbm.traffic", direction="load_bytes")

    def test_subscribing_to_an_undeclared_kind_raises(self, sim):
        with pytest.raises(RecordError, match="undeclared record kind"):
            Probe(sim).subscribe("cache.states", print)


class TestSubscriberEnd:
    def test_typo_in_a_checker_field_raises(self, sim):
        """A checker reading ``head_doorbel`` fails at the read itself
        instead of reading a default and never firing."""

        class Typo(CqPhaseChecker):
            def check(self, event):
                event["head_doorbel"]

        probe = Probe(sim)
        Typo().attach(probe)
        with pytest.raises(RecordError, match="no field 'head_doorbel'"):
            _cq_post(probe)

    def test_declared_fields_read_back(self, sim):
        probe = Probe(sim)
        seen = []
        probe.subscribe("cq.post", seen.append)
        _cq_post(probe, pos=3)
        (record,) = seen
        assert record["pos"] == 3
        assert set(record.data) == KINDS["cq.post"]


class TestSwitch:
    def test_innermost_builder_wins_and_none_silences(self):
        def outer(machine):
            return None

        def inner(machine):
            return None

        def role():
            return dict(armed()).get("telemetry")

        assert role() is None
        with listening("telemetry", outer):
            assert role() is outer
            with listening("telemetry", inner):
                assert role() is inner
                with listening("telemetry", None):
                    assert role() is None
            assert role() is outer
        assert role() is None

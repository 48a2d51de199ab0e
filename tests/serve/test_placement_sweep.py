"""Placement-aware serve sweep: determinism, the report's placement
section, the striped-vs-shard hotspot separation, grid plumbing, and the
CLI's typed rejection of unknown axis values."""

from __future__ import annotations

from repro.bench.__main__ import main
from repro.serve.sweep import PLACEMENT_SMOKE, PLACEMENTS, SERVE_SWEEP, SweepSpec

from tests.serve.helpers import serve_point

#: Small enough to keep every test under a few seconds, hot enough that
#: the shard-vs-stripe separation is unambiguous.
SKEWED = SweepSpec(duration_ns=2_000_000.0, lba_space=256, skew=0.8)
QUIET = SweepSpec(duration_ns=1_000_000.0, lba_space=256)


def quiet_point(**cell):
    return serve_point("agile", QUIET, target_rps=100_000.0, **cell)


class TestDeterminism:
    def test_same_spec_same_point_bit_for_bit(self):
        assert quiet_point().as_dict() == quiet_point().as_dict()

    def test_skew_zero_leaves_placement_out_of_the_rng(self):
        """With skew=0 the hotspot draw never happens, so two policies see
        the identical logical arrival timeline — only the physical spread
        differs."""
        striped = quiet_point()
        shard = quiet_point(placement="shard")
        assert striped.completed == shard.completed
        assert sum(striped.device_pages) == sum(shard.device_pages)


class TestPlacementSection:
    def test_report_carries_placement_block(self):
        block = quiet_point().as_dict()["placement"]
        assert block["policy"] == "striped"
        assert block["num_ssds"] == 2
        assert len(block["device_pages"]) == 2
        assert len(block["device_reads"]) == 2
        assert block["skew_ratio"] >= 1.0

    def test_single_ssd_runs_identity(self):
        block = quiet_point(ssds=1).as_dict()["placement"]
        assert block["policy"] == "identity"
        assert block["skew_ratio"] == 1.0


class TestHotspotSeparation:
    def test_striping_spreads_the_hotspot_sharding_funnels_it(self):
        doc = PLACEMENT_SMOKE.run(
            SKEWED,
            axes={"policy": ("shard", "striped"), "target_rps": (400_000.0,)},
        )
        shard, striped = (c["metrics"] for c in doc["cells"])
        assert striped["skew_ratio"] < shard["skew_ratio"]
        # The shard layout leaves whole devices nearly idle under the
        # hotspot; striping keeps every lane busy.
        assert min(striped["device_reads"]) > min(shard["device_reads"])
        assert doc["axes"]["ssds"] == [4] and doc["spec"]["skew"] == 0.8
        assert set(doc["cells"][0]["axes"]) == {"policy"}  # the rest is pinned
        assert [c["ok"] for c in doc["checks"]] == [True]


class TestGrid:
    def test_grid_labels_and_shape(self):
        doc = SERVE_SWEEP.run(
            QUIET,
            axes={
                "ssds": (1, 2), "system": ("agile",), "target_rps": (100_000.0,),
            },
        )
        points = [c for c in doc["cells"] if "target_rps" in c["axes"]]
        assert [c["axes"]["ssds"] for c in points] == [1, 2]
        for cell in points:
            assert cell["axes"]["placement"] == "striped"
            assert cell["metrics"]["placement"]["num_ssds"] == cell["axes"]["ssds"]
        knees = [c for c in doc["cells"] if "target_rps" not in c["axes"]]
        assert [set(c["metrics"]) for c in knees] == [{"knee_rps"}] * 2


class TestCli:
    def test_sweep_rejects_unknown_placement(self, capsys):
        assert main(["run", "serve-sweep", "--set", "placement=raid6"]) == 2
        err = capsys.readouterr().err
        assert "serve-sweep" in err and "'placement'" in err and "raid6" in err

    def test_placement_smoke_passes_and_writes_doc(self, tmp_path, capsys):
        out = tmp_path / "smoke.json"
        rc = main([
            "run", "placement-smoke", "--set", "duration_ns=2e6",
            "--set", "target_rps=400000", "--set", "policy=shard,striped",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "OK: striped_spreads_the_hotspot" in captured.out
        assert out.exists()

    def test_placements_constant_covers_all_policies(self):
        assert set(PLACEMENTS) == {
            "shard", "striped", "load_aware", "tenant_affine"
        }
        assert PLACEMENT_SMOKE.axes["policy"] == PLACEMENTS

"""``perfbench compare`` on synthetic result documents."""

import copy
import json

import pytest

from perfbench import compare, spec


def _document():
    workload = {
        "end_to_end": {m.name: 2.0 for m in spec.END_TO_END},
        "per_layer": {m.name: 1.0 for m in spec.PER_LAYER},
        "correct": True,
        "raw": {"walls_s": [1.98, 2.0, 2.02]},
    }
    workload["per_layer"]["harness.wall_iqr_frac"] = 0.02
    return {
        "git_sha": "0" * 40, "seed": 7, "quick": False,
        "workloads": {
            name: copy.deepcopy(workload) for name in spec.WORKLOAD_NAMES
        },
    }


@pytest.fixture
def judge(tmp_path, capsys):
    def run(mutate):
        base, cand = _document(), _document()
        mutate(cand["workloads"]["fig5-read"])
        paths = []
        for label, doc in (("a", base), ("b", cand)):
            paths.append(tmp_path / f"{label}.json")
            paths[-1].write_text(json.dumps(doc))
        code = compare.main(str(paths[0]), str(paths[1]))
        return code, capsys.readouterr().out

    return run


def test_identical_documents_agree(judge):
    code, out = judge(lambda w: None)
    assert code == 0
    assert out.count(" ok ") == len(spec.WORKLOAD_NAMES)


def test_wall_regression_beyond_the_bound(judge):
    def slower(w):
        w["end_to_end"]["wall_s"] = 2.3
        w["raw"]["walls_s"] = [2.28, 2.3, 2.32]

    code, out = judge(slower)
    assert code == 1
    assert "fig5-read: regression wall_s" in out
    assert out.count("REGRESSION") == 1  # one row per workload, one is bad


def test_wall_within_the_bound_is_ok(judge):
    code, _ = judge(lambda w: w["end_to_end"].update(wall_s=2.15))
    assert code == 0


def test_noisy_wall_is_unresolved_not_unchanged(judge):
    def noisy(w):
        w["end_to_end"]["wall_s"] = 2.3
        w["per_layer"]["harness.wall_iqr_frac"] = 0.3

    code, out = judge(noisy)
    assert code == 0
    assert "unresolved wall_s" in out


def test_noisy_but_every_repeat_faster_is_resolved(judge):
    def faster(w):
        w["end_to_end"]["wall_s"] = 1.5
        w["raw"]["walls_s"] = [1.4, 1.5, 1.9]
        w["per_layer"]["harness.wall_iqr_frac"] = 0.3

    code, out = judge(faster)
    assert code == 0
    assert "unresolved wall_s" not in out


def test_exact_metric_must_match(judge):
    code, out = judge(lambda w: w["per_layer"].update({"sim.events": 1.0001}))
    assert code == 1
    assert "changed sim.events" in out


def test_exact_metric_worse_than_its_bound_is_a_regression(judge):
    code, out = judge(
        lambda w: w["end_to_end"].update(sim_goodput_ops_s=1.9)
    )
    assert code == 1
    assert "regression sim_goodput_ops_s" in out


def test_setup_needs_both_the_share_and_the_absolute_bound(judge):
    # +0.15 s is over 25% of nothing here (2.0 s -> 7.5%) and under 0.2 s.
    code, _ = judge(lambda w: w["end_to_end"].update(setup_s=2.15))
    assert code == 0
    code, out = judge(lambda w: w["end_to_end"].update(setup_s=2.6))
    assert code == 1
    assert "regression setup_s" in out


def test_wrong_outputs_fail_the_comparison(judge):
    code, out = judge(lambda w: w.update(correct=False))
    assert code == 1
    assert "failed verification" in out

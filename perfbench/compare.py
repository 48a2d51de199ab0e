"""``python -m perfbench compare A.json B.json``: judge candidate B against
baseline A, both result documents of ``perfbench run`` on one seed.

Per (metric, workload):

- a metric declared *exact* (every ``sim_*`` result, ``sim_events_per_op``,
  ``ok_frac``/``failed_frac``, ``paper_rel_err``, every ``.calls`` and
  modelled counter) must read the same in both; a difference is ``changed``,
  and a ``regression`` when it is worse by more than the metric's bound;
- a host-time end-to-end metric is a ``regression`` when B is worse than A
  by more than its bound.  ``wall_s`` is ``unresolved`` — not unchanged —
  when either side's own run-to-run spread (``harness.wall_iqr_frac``)
  exceeds the bound, unless every repeat of B beats every repeat of A;
- other host-time per-layer metrics are reported by ``run``, not judged.

Prints one row per workload and exits non-zero on any regression or change.
"""

from __future__ import annotations

import json
from typing import Any

from perfbench import spec


def _worse_by(metric: spec.Metric, a: float, b: float) -> float:
    return b - a if metric.better == "lower" else a - b


def judge_workload(a: dict[str, Any], b: dict[str, Any], quick: bool):
    """-> {verdict: [(metric name, a, b, note)]} for one workload."""
    found: dict[str, list[tuple[str, float, float, str]]] = {
        "regression": [], "changed": [], "unresolved": [],
    }
    for metric in (*spec.END_TO_END, *spec.PER_LAYER):
        section = "end_to_end" if metric in spec.END_TO_END else "per_layer"
        va, vb = a[section][metric.name], b[section][metric.name]
        worse = _worse_by(metric, va, vb)
        over = metric.bound is not None and metric.bound.exceeded(va, worse)
        if metric.exact:
            if va != vb:
                found["regression" if over else "changed"].append(
                    (metric.name, va, vb, "must match exactly")
                )
        elif metric.bound is None:
            continue
        elif quick:
            found["unresolved"].append(
                (metric.name, va, vb, "quick run: host times not comparable")
            )
        elif metric.name == "wall_s" and _noisy(a, b, metric.bound.rel):
            found["unresolved"].append((
                metric.name, va, vb,
                "harness.wall_iqr_frac"
                f" {a['per_layer']['harness.wall_iqr_frac']:.3f} /"
                f" {b['per_layer']['harness.wall_iqr_frac']:.3f}"
                f" exceeds the bound {metric.bound.rel}",
            ))
        elif over:
            found["regression"].append(
                (metric.name, va, vb, f"worse by {worse:.4g} {metric.unit}")
            )
    return found


def _noisy(a: dict[str, Any], b: dict[str, Any], bound: float) -> bool:
    spread = max(
        side["per_layer"]["harness.wall_iqr_frac"] for side in (a, b)
    )
    b_wins_every_pair = max(b["raw"]["walls_s"]) < min(a["raw"]["walls_s"])
    return spread > bound and not b_wins_every_pair


def main(baseline_path: str, candidate_path: str) -> int:
    with open(baseline_path) as fh:
        base = json.load(fh)
    with open(candidate_path) as fh:
        cand = json.load(fh)
    if base["seed"] != cand["seed"]:
        print(f"compare: seeds differ ({base['seed']} vs {cand['seed']});"
              " exact metrics only compare on one seed")
        return 2
    quick = base["quick"] or cand["quick"]
    print(f"baseline  {base['git_sha'][:12]}  {baseline_path}")
    print(f"candidate {cand['git_sha'][:12]}  {candidate_path}")
    print(f"{'workload':16s} {'verdict':11s} regressions changed unresolved"
          "   wall_s A -> B")
    failed = False
    details = []
    for name in spec.WORKLOAD_NAMES:
        if name not in base["workloads"] or name not in cand["workloads"]:
            print(f"{name:16s} {'missing':11s}")
            failed = True
            continue
        a, b = base["workloads"][name], cand["workloads"][name]
        found = judge_workload(a, b, quick)
        bad = found["regression"] or found["changed"] or not b["correct"]
        failed = failed or bool(bad)
        verdict = ("REGRESSION" if found["regression"] or not b["correct"]
                   else "CHANGED" if found["changed"]
                   else "unresolved" if found["unresolved"] else "ok")
        print(f"{name:16s} {verdict:11s} {len(found['regression']):11d}"
              f" {len(found['changed']):7d} {len(found['unresolved']):10d}"
              f"   {a['end_to_end']['wall_s']:.3f} ->"
              f" {b['end_to_end']['wall_s']:.3f}")
        if not b["correct"]:
            details.append(f"  {name}: candidate outputs failed verification")
        for kind, rows in found.items():
            for metric, va, vb, note in rows:
                details.append(
                    f"  {name}: {kind} {metric}: {va:.6g} -> {vb:.6g} ({note})"
                )
    print("\n".join(details))
    return 1 if failed else 0

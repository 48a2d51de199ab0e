"""The simulation-safety lint: each rule fires on a minimal offender and
stays silent on the idiomatic equivalent — and the real tree is clean."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths, main


def run_lint(tmp_path, source, name="mod.py"):
    f = tmp_path / name
    f.write_text(source)
    return lint_paths([str(f)])


def codes(violations):
    return [v.rule for v in violations]


class TestWallClock:
    def test_time_time_in_simulated_code_fires(self, tmp_path):
        v = run_lint(tmp_path, "import time\nt0 = time.time()\n")
        assert codes(v) == ["AGL001"]
        assert "sim.now" in v[0].message

    def test_datetime_now_fires(self, tmp_path):
        v = run_lint(
            tmp_path, "import datetime\nd = datetime.datetime.now()\n"
        )
        assert codes(v) == ["AGL001"]

    def test_bench_directory_is_exempt(self, tmp_path):
        bench = tmp_path / "bench"
        bench.mkdir()
        f = bench / "timing.py"
        f.write_text("import time\nt0 = time.time()\n")
        assert lint_paths([str(f)]) == []


class TestRandomness:
    def test_stdlib_random_fires(self, tmp_path):
        v = run_lint(tmp_path, "import random\nx = random.random()\n")
        assert codes(v) == ["AGL002"]

    def test_numpy_global_rng_fires(self, tmp_path):
        v = run_lint(
            tmp_path, "import numpy as np\nx = np.random.randint(10)\n"
        )
        assert codes(v) == ["AGL002"]

    def test_unseeded_default_rng_fires(self, tmp_path):
        v = run_lint(
            tmp_path, "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert codes(v) == ["AGL002"]

    def test_seeded_default_rng_is_fine(self, tmp_path):
        assert run_lint(
            tmp_path, "import numpy as np\nrng = np.random.default_rng(42)\n"
        ) == []

    def test_unrelated_dotted_random_attribute_is_fine(self, tmp_path):
        # `stream.random()` on some object is not the stdlib module.
        assert run_lint(
            tmp_path, "def f(stream):\n    return stream.random()\n"
        ) == []


class TestBlockingCalls:
    def test_sleep_inside_generator_fires(self, tmp_path):
        src = (
            "import time\n"
            "def proc(sim, poll_ns):\n"
            "    time.sleep(1)\n"
            "    yield sim.timeout(poll_ns)\n"
        )
        v = run_lint(tmp_path, src)
        assert "AGL003" in codes(v)
        assert "proc" in v[codes(v).index("AGL003")].message

    def test_sleep_outside_generator_is_agl001_free(self, tmp_path):
        # Plain functions may sleep (host-side tooling); only processes
        # (generators) must not block the event loop.
        src = "import time\ndef warmup():\n    time.sleep(0.1)\n"
        assert run_lint(tmp_path, src) == []

    def test_nested_helper_not_blamed_on_outer_generator(self, tmp_path):
        src = (
            "import time\n"
            "def proc(sim, poll_ns):\n"
            "    def host_side():\n"
            "        time.sleep(1)\n"
            "    yield sim.timeout(poll_ns)\n"
        )
        assert run_lint(tmp_path, src) == []


class TestSchedulerInternals:
    def test_direct_schedule_call_fires(self, tmp_path):
        v = run_lint(tmp_path, "def f(sim, fn):\n    sim._schedule(0.0, fn)\n")
        assert codes(v) == ["AGL006"]
        assert "schedule_at" in v[0].message

    def test_enqueue_and_step_calls_fire(self, tmp_path):
        src = (
            "def f(proc):\n"
            "    proc._enqueue(0, None)\n"
            "    proc._step_send(None)\n"
        )
        assert codes(run_lint(tmp_path, src)) == ["AGL006", "AGL006"]

    def test_narrow_api_is_fine(self, tmp_path):
        src = (
            "def f(sim, fn, when_ns):\n"
            "    sim.schedule_at(when_ns, fn, 1)\n"
        )
        assert run_lint(tmp_path, src) == []

    def test_sim_engine_itself_is_exempt(self, tmp_path):
        simdir = tmp_path / "sim"
        simdir.mkdir()
        f = simdir / "engine.py"
        f.write_text("def f(proc):\n    proc._enqueue(0, None)\n")
        assert lint_paths([str(f)]) == []


class TestStatsDict:
    def test_subscript_mutation_of_stats_dict_fires(self, tmp_path):
        src = (
            "class Cache:\n"
            "    def hit(self):\n"
            "        self.stats['hits'] += 1\n"
        )
        v = run_lint(tmp_path, src)
        assert codes(v) == ["AGL007"]
        assert "telemetry" in v[0].message

    def test_plain_assignment_into_counters_dict_fires(self, tmp_path):
        v = run_lint(
            tmp_path, "def f(counters, k):\n    counters[k] = 0\n"
        )
        assert codes(v) == ["AGL007"]

    def test_dict_literal_bound_to_stats_name_fires(self, tmp_path):
        src = (
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._stats = {'submitted': 0}\n"
        )
        assert codes(run_lint(tmp_path, src)) == ["AGL007"]

    def test_defaultdict_bound_to_stats_name_fires(self, tmp_path):
        src = (
            "import collections\n"
            "def f():\n"
            "    stats = collections.defaultdict(float)\n"
            "    return stats\n"
        )
        assert codes(run_lint(tmp_path, src)) == ["AGL007"]

    def test_typed_counter_assignment_is_fine(self, tmp_path):
        src = (
            "from repro.telemetry import Counter\n"
            "class Engine:\n"
            "    def __init__(self, stats=None):\n"
            "        self.stats = stats if stats is not None else Counter()\n"
            "        self.stats.add('submitted')\n"
        )
        assert run_lint(tmp_path, src) == []

    def test_unrelated_dict_names_are_fine(self, tmp_path):
        src = "def f(cache, k):\n    cache[k] = 1\n    table = {'a': 1}\n"
        assert run_lint(tmp_path, src) == []

    def test_telemetry_package_is_exempt(self, tmp_path):
        teldir = tmp_path / "telemetry"
        teldir.mkdir()
        f = teldir / "metrics.py"
        f.write_text("def f(self, k):\n    self._counters[k] = 0.0\n")
        assert lint_paths([str(f)]) == []


class TestDeviceIndexArith:
    def test_modulo_num_ssds_fires(self, tmp_path):
        v = run_lint(tmp_path, "def f(page, num_ssds):\n    return page % num_ssds\n")
        assert codes(v) == ["AGL013"]
        assert "PlacementPolicy" in v[0].message

    def test_modulo_ssd_count_attribute_fires(self, tmp_path):
        src = "def f(self, i):\n    return i % self.num_ssds\n"
        assert codes(run_lint(tmp_path, src)) == ["AGL013"]

    def test_modulo_len_of_ssds_fires(self, tmp_path):
        src = "def f(i, cfg):\n    return i % len(cfg.ssds)\n"
        assert codes(run_lint(tmp_path, src)) == ["AGL013"]

    def test_placement_package_is_exempt(self, tmp_path):
        pdir = tmp_path / "placement"
        pdir.mkdir()
        f = pdir / "policy.py"
        f.write_text("def place(lba, num_ssds):\n    return lba % num_ssds\n")
        assert lint_paths([str(f)]) == []

    def test_unrelated_modulo_is_fine(self, tmp_path):
        src = (
            "def f(lba, num_sets, n_threads, tid):\n"
            "    return lba % num_sets + tid % n_threads\n"
        )
        assert run_lint(tmp_path, src) == []

    def test_len_of_non_ssd_sequence_is_fine(self, tmp_path):
        src = "def f(i, workers):\n    return i % len(workers)\n"
        assert run_lint(tmp_path, src) == []


class TestTenantRegistry:
    def test_request_class_construction_fires(self, tmp_path):
        src = (
            "from repro.serve.request import RequestClass\n"
            "cls = RequestClass(name='rogue', pages=2)\n"
        )
        v = run_lint(tmp_path, src)
        assert codes(v) == ["AGL015"]
        assert "serve/registry.py" in v[0].message

    def test_string_literal_label_fires(self, tmp_path):
        src = (
            "from repro.serve.registry import tenant_class\n"
            "cls = tenant_class('point', pages=2)\n"
        )
        v = run_lint(tmp_path, src)
        assert codes(v) == ["AGL015"]
        assert "'point'" in v[0].message

    def test_registry_constant_is_fine(self, tmp_path):
        src = (
            "from repro.serve.registry import POINT, tenant_class\n"
            "cls = tenant_class(POINT, pages=2)\n"
        )
        assert run_lint(tmp_path, src) == []

    def test_registry_module_is_exempt(self, tmp_path):
        sdir = tmp_path / "serve"
        sdir.mkdir()
        f = sdir / "registry.py"
        f.write_text(
            "from repro.serve.request import RequestClass\n"
            "POINT = 'point'\n"
            "TENANTS = {POINT: RequestClass(name=POINT)}\n"
        )
        assert lint_paths([str(f)]) == []


#: AGL009 offenders: a doorbell-ringing loop over a set of queue pairs that
#: hash by address (the one in-tree positive, ``NaiveAsyncEngine.wait_all``,
#: now walks them in first-token order), waking waiters from a set (planted
#: in ``Signal.fire`` it moves the goldens), float accumulation in three
#: spellings, and ``popitem``.
UNORDERED = {
    "naive_wait_all": (
        "def wait_all(tokens):\n"
        "    for qp in {t.qp for t in tokens}:\n"
        "        yield from qp.cq.doorbell.ring(qp.cq.host_head)\n"
    ),
    "gate_open": (
        "def open(self):\n"
        "    for ev in set(self._waiters):\n"
        "        ev.trigger()\n"
    ),
    "comprehension": "def f(sim, procs):\n    return [sim.spawn(p) for p in set(procs)]\n",
    "set_display": "def f(a, b):\n    for ev in {a, b}:\n        ev.trigger()\n",
    "sum_over_set": "def f(latencies):\n    return sum(set(latencies))\n",
    "augmented_accumulation": (
        "def f(samples):\n"
        "    total = 0.0\n"
        "    for value in set(samples):\n"
        "        total += value * 2.0\n"
        "    return total\n"
    ),
    "plain_binop_accumulation": (
        "def f(samples):\n"
        "    acc = 0.0\n"
        "    for value in frozenset(samples):\n"
        "        acc = acc + value\n"
        "    return acc\n"
    ),
    "popitem": "def f(pending):\n    return pending.popitem()\n",
}

ORDERED = {
    "first_seen_order": (
        "def wait_all(tokens):\n"
        "    for qp in dict.fromkeys(t.qp for t in tokens):\n"
        "        yield from qp.cq.doorbell.ring(qp.cq.host_head)\n"
    ),
    "sorted_set": "def f(sim, pages):\n    for p in sorted(set(pages)):\n        sim.spawn(p)\n",
    "sum_over_sorted": "def f(latencies):\n    return sum(sorted(set(latencies)))\n",
    "list_and_dict": "def f(xs, d):\n    return sum(xs) + sum(v for v in d.values())\n",
    "order_free_reduction": "def f(deadlines_ns):\n    return min(set(deadlines_ns))\n",
    "membership": "def f(x, seen):\n    return x in set(seen)\n",
}


class TestUnorderedIteration:
    @pytest.mark.parametrize("name", sorted(UNORDERED))
    def test_unordered_walk_fires(self, tmp_path, name):
        v = run_lint(tmp_path, UNORDERED[name])
        assert codes(v) == ["AGL009"]

    @pytest.mark.parametrize("name", sorted(ORDERED))
    def test_ordered_walk_is_fine(self, tmp_path, name):
        assert run_lint(tmp_path, ORDERED[name]) == []

    def test_message_names_the_fix(self, tmp_path):
        (v,) = run_lint(tmp_path, UNORDERED["gate_open"])
        assert "sorted" in v.message and "dict.fromkeys" in v.message


class TestLiteralDelay:
    @pytest.mark.parametrize(
        "call",
        ["sim.schedule_at(500, print)", "Timeout(200.0)", "At(1e6)", "sim.timeout(5)"],
        ids=["schedule_at", "Timeout", "At", "timeout"],
    )
    def test_bare_literal_delay_fires(self, tmp_path, call):
        v = run_lint(tmp_path, f"def proc(sim):\n    yield {call}\n")
        assert codes(v) == ["AGL011"]
        assert "_ns" in v[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "Timeout(POLL_NS)",
            "Timeout(2 * cycle_ns)",
            "sim.schedule_at(sim.now + 100.0, print)",
            "sim.schedule_at(0, print)",
            "Timeout(0.0)",
            "sim.timeout(delay=poll_ns)",
            "retry(500)",
        ],
        ids=["constant", "product", "offset", "zero_int", "zero_float", "keyword",
             "other_call"],
    )
    def test_named_or_zero_delay_is_fine(self, tmp_path, call):
        src = f"def proc(sim, cycle_ns, poll_ns, POLL_NS, retry):\n    yield {call}\n"
        assert run_lint(tmp_path, src) == []


class TestCli:
    def test_main_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "AGL001" in out

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        v = run_lint(tmp_path, "def broken(:\n")
        assert codes(v) == ["AGL000"]

    def test_syntax_error_becomes_agl000(self, tmp_path):
        """One broken file costs one finding, not the other files' lint."""
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "dirty.py").write_text("import time\nt = time.time()\n")
        v = lint_paths([str(tmp_path)])
        assert codes(v) == ["AGL000", "AGL001"]
        assert v[0].line == 1 and "syntax error" in v[0].message

    def test_findings_sorted_and_stable(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "a.py").write_text(
            "def f(sim, xs):\n"
            "    yield sim.timeout(5)\n"
            "    for x in set(xs):\n"
            "        sim._enqueue(x); sim.stats['n'] = x\n"
        )
        first = lint_paths([str(tmp_path)])
        # the report order does not depend on the order of the arguments
        assert first == lint_paths([str(tmp_path / "b.py"), str(tmp_path / "a.py")])
        keys = [(f.path, f.line, f.col, f.rule) for f in first]
        assert keys == sorted(keys)
        assert codes(first) == ["AGL011", "AGL009", "AGL006", "AGL007", "AGL001"]


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The lint rows of the planted-bug matrix: one realistic offender per
#: plant, in the module it would land in, as ``(module under src/repro,
#: [(text, planted text), ...], rule)``.
TREE_PLANTS = {
    "agl001_wall_clock_delay": ("nvme/device.py", [(
        "        yield Timeout(self.cfg.cmd_overhead_ns)",
        "        import time\n"
        "        yield Timeout(self.cfg.cmd_overhead_ns + time.perf_counter() % 1e-3)",
    )], "AGL001"),
    "agl001_wall_clock_span": ("gpu/device.py", [(
        "from typing import Any, Generator, Optional, Sequence\n",
        "import time\nfrom typing import Any, Generator, Optional, Sequence\n",
    ), (
        '"gpu.kernel", name=self.kernel.name, t0=self.start_time,',
        '"gpu.kernel", name=self.kernel.name,\n'
        "                t0=self.start_time + time.perf_counter() % 1e-3,",
    )], "AGL001"),
    "agl002_unseeded_storm_rng": ("faults/storm.py", [(
        "rng = np.random.default_rng(host.cfg.seed * 7919 + tc.tid)",
        "rng = np.random.default_rng()",
    )], "AGL002"),
    "agl002_unseeded_host_seed": ("core/host.py", [(
        "from functools import partial\n",
        "import random\nfrom functools import partial\n",
    ), (
        "self.rng = RngStreams(self.cfg.seed)",
        "self.rng = RngStreams(int(random.random() * 2**31))",
    )], "AGL002"),
    "agl003_sleep_in_process": ("core/issue.py", [(
        "        yield from tc.hbm_store(SQE_SIZE)\n        qp.sq.publish(slot, cmd)",
        "        yield from tc.hbm_store(SQE_SIZE)\n"
        "        import time\n"
        "        time.sleep(0)\n"
        "        qp.sq.publish(slot, cmd)",
    )], "AGL003"),
    "agl006_resume_bypassing_event": ("sim/sync.py", [(
        "            for ev in waiters:\n                ev.trigger()",
        "            for ev in waiters:\n"
        "                for proc in ev._waiters:\n"
        "                    proc._schedule_resume(None)\n"
        "                ev._waiters = []",
    )], "AGL006"),
    "agl007_adhoc_stats_dict": ("core/issue.py", [(
        '        self.stats.add("commands_submitted")',
        '        self.stats.add("commands_submitted")\n'
        '        counters = self.__dict__.setdefault("counters", {})\n'
        '        counters["published"] = counters.get("published", 0) + 1',
    )], "AGL007"),
    "agl009_popitem_eviction": ("core/cache.py", [(
        "self._store.pop(next(iter(self._store)))",
        "self._store.popitem()",
    )], "AGL009"),
    "agl009_sum_over_a_set": ("serve/slo.py", [(
        "return sum(self.device_gc_busy_ns)",
        "return sum(set(self.device_gc_busy_ns))",
    )], "AGL009"),
    "agl009_arrivals_from_a_set": ("serve/engine.py", [(
        "            for cls in self.classes\n        ]",
        "            for cls in set(self.classes)\n        ]",
    )], "AGL009"),
    "agl011_literal_delay": ("core/issue.py", [(
        "yield Timeout(DOORBELL_BACKOFF_NS)",
        "yield Timeout(60.0)",
    )], "AGL011"),
    "agl013_modulo_placement": ("workloads/access.py", [(
        "        ssd, lba = self.placement.place(self.base + page)",
        "        num_ssds = self.placement.geometry.num_ssds\n"
        "        logical = self.base + page\n"
        "        ssd, lba = logical % num_ssds, logical // num_ssds",
    )], "AGL013"),
    "agl015_label_literal": ("serve/tenancy.py", [(
        "        tenant_class(\n            INFER,",
        '        tenant_class(\n            "infer",',
    )], "AGL015"),
}


class TestPlantsInTheTree:
    @pytest.mark.parametrize("name", sorted(TREE_PLANTS))
    def test_plant_trips_its_rule(self, tmp_path, name):
        """The module lints clean as it is and trips exactly the plant's
        rule once planted (the copy keeps the module's path, so no rule's
        directory exemption differs from the real tree's)."""
        module, edits, rule = TREE_PLANTS[name]
        source = (SRC / module).read_text()
        copy = tmp_path / "repro" / module
        copy.parent.mkdir(parents=True)
        copy.write_text(source)
        assert lint_paths([str(copy)]) == []
        for text, planted in edits:
            assert source.count(text) == 1, f"plant site moved in {module}"
            source = source.replace(text, planted)
        copy.write_text(source)
        assert set(codes(lint_paths([str(copy)]))) == {rule}


def test_repo_source_tree_is_clean():
    assert lint_paths([str(SRC)]) == []

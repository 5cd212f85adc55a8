"""Tests for the determinism & simulation-safety linter.

Each rule family gets fixture tests: a positive snippet that fails
without the rule, a negative snippet exercising the sanctioned idiom,
and (for the suppression machinery) pragma- and baseline-covered
variants.  The meta-test at the bottom lints the live tree and is the
same gate CI runs: the checked-in sources must be clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.lint import (DEFAULT_BASELINE, REPO_ROOT, lint_paths,
                                 lint_sources)
from repro.analysis.registry import all_rules

GUARDED = "src/repro/sim/fixture_mod.py"
UNGUARDED = "src/repro/traces/fixture_mod.py"
HOT = "src/repro/sim/engine.py"  # listed in HOT_MODULES
COLD = "src/repro/workloads/fixture_mod.py"


def _lint(path: str, code: str, baseline=None):
    return lint_sources([(path, textwrap.dedent(code))], baseline)


def _rules_hit(result):
    return {finding.rule for finding in result.findings}


# ---------------------------------------------------------------- family 1


class TestNondeterminism:
    def test_global_random_flagged_in_guarded(self):
        result = _lint(GUARDED, """\
            import random

            def jitter():
                return random.random()
            """)
        assert _rules_hit(result) == {"global-rng"}

    def test_seeded_stream_clean(self):
        result = _lint(GUARDED, """\
            import random
            from repro.sim.rng import stream

            def jitter(seed):
                rng = stream(seed, "fixture.jitter")
                explicit = random.Random(seed)
                return rng.random() + explicit.random()
            """)
        assert result.clean

    def test_unseeded_random_instance_flagged(self):
        result = _lint(GUARDED, """\
            import random

            RNG = random.Random()
            """)
        assert _rules_hit(result) == {"global-rng"}

    def test_numpy_global_rng_flagged_seeded_generator_clean(self):
        flagged = _lint(GUARDED, """\
            import numpy as np

            def draw():
                return np.random.rand()
            """)
        assert _rules_hit(flagged) == {"global-rng"}
        clean = _lint(GUARDED, """\
            import numpy as np

            def draw(seed):
                return np.random.default_rng(seed).random()
            """)
        assert clean.clean

    def test_unguarded_package_not_flagged(self):
        result = _lint(UNGUARDED, """\
            import random

            def jitter():
                return random.random()
            """)
        assert result.clean

    def test_wall_clock_flagged(self):
        result = _lint(GUARDED, """\
            import time

            def stamp():
                return time.perf_counter()
            """)
        assert _rules_hit(result) == {"wall-clock"}

    def test_datetime_now_flagged(self):
        result = _lint(GUARDED, """\
            import datetime

            def stamp():
                return datetime.datetime.now()
            """)
        assert _rules_hit(result) == {"wall-clock"}

    def test_env_read_flagged(self):
        result = _lint(GUARDED, """\
            import os

            def knob():
                return os.environ["REPRO_FAST"]

            def knob2():
                return os.getenv("REPRO_FAST")
            """)
        assert _rules_hit(result) == {"env-read"}
        assert len(result.findings) == 2


# ---------------------------------------------------------------- family 2


class TestOrdering:
    def test_for_over_set_flagged(self):
        result = _lint(GUARDED, """\
            def clean(touched):
                victims = {1, 2, 3}
                for idx in victims:
                    touched.append(idx)
            """)
        assert _rules_hit(result) == {"set-iter"}

    def test_sorted_set_clean(self):
        result = _lint(GUARDED, """\
            def clean(touched):
                victims = {1, 2, 3}
                for idx in sorted(victims):
                    touched.append(idx)
            """)
        assert result.clean

    def test_comprehension_and_list_over_set_flagged(self):
        result = _lint(GUARDED, """\
            def emit(pool):
                rows = set(pool)
                a = [r for r in rows]
                b = list(rows)
                return a, b
            """)
        assert _rules_hit(result) == {"set-iter"}
        assert len(result.findings) == 2

    def test_set_reducers_clean(self):
        result = _lint(GUARDED, """\
            def stats(pool):
                rows = set(pool)
                return len(rows), min(rows), max(rows), sum(rows)
            """)
        assert result.clean

    def test_id_sort_flagged(self):
        result = _lint(GUARDED, """\
            def order(ops):
                return sorted(ops, key=id)
            """)
        assert _rules_hit(result) == {"id-sort"}

    def test_stable_sort_key_clean(self):
        result = _lint(GUARDED, """\
            def order(ops):
                return sorted(ops, key=lambda op: op.seq)
            """)
        assert result.clean

    def test_float_time_eq_flagged(self):
        result = _lint(GUARDED, """\
            def due(deliver_at, now):
                return deliver_at == now
            """)
        assert _rules_hit(result) == {"float-time-eq"}

    def test_float_time_sentinel_and_ranges_clean(self):
        result = _lint(GUARDED, """\
            def due(deliver_at, now):
                return deliver_at == -1.0 or deliver_at <= now
            """)
        assert result.clean


# ---------------------------------------------------------------- family 3


class TestStreams:
    def test_duplicate_literal_name_flagged_in_both_sites(self):
        code_a = 'from repro.sim.rng import stream\nrng = stream(1, "arrivals")\n'
        code_b = 'from repro.sim.rng import stream\nrng = stream(2, "arrivals")\n'
        result = lint_sources([("src/repro/a.py", code_a),
                               ("src/repro/b.py", code_b)])
        assert [f.rule for f in result.findings] == ["stream-dup", "stream-dup"]
        assert {f.path for f in result.findings} == {"src/repro/a.py",
                                                     "src/repro/b.py"}

    def test_fstring_template_collision_flagged(self):
        code_a = ('from repro.sim.rng import derive_seed\n'
                  'def f(i):\n'
                  '    return derive_seed(1, f"tenant.{i}")\n')
        code_b = ('from repro.sim.rng import stream\n'
                  'def g(j):\n'
                  '    return stream(1, f"tenant.{j}")\n')
        result = lint_sources([("src/repro/a.py", code_a),
                               ("src/repro/b.py", code_b)])
        assert [f.rule for f in result.findings] == ["stream-dup", "stream-dup"]

    def test_distinct_names_clean(self):
        code_a = 'from repro.sim.rng import stream\nrng = stream(1, "a.x")\n'
        code_b = 'from repro.sim.rng import stream\nrng = stream(1, "b.x")\n'
        result = lint_sources([("src/repro/a.py", code_a),
                               ("src/repro/b.py", code_b)])
        assert result.clean

    def test_dynamic_name_flagged(self):
        result = _lint(GUARDED, """\
            from repro.sim.rng import stream

            def make(seed, name):
                return stream(seed, name)
            """)
        assert _rules_hit(result) == {"stream-dynamic"}

    def test_unprefixed_fstring_flagged_prefixed_clean(self):
        flagged = _lint(GUARDED, """\
            from repro.sim.rng import stream

            def make(seed, i):
                return stream(seed, f"{i}.faults")
            """)
        assert _rules_hit(flagged) == {"stream-dynamic"}
        clean = _lint(GUARDED, """\
            from repro.sim.rng import stream

            def make(seed, i):
                return stream(seed, f"fault.element.{i}")
            """)
        assert clean.clean


# ---------------------------------------------------------------- family 4


class TestPooling:
    def test_pooled_object_into_module_container_flagged(self):
        result = _lint(GUARDED, """\
            HISTORY = []

            def submit(pool):
                op = pool.acquire(0, 0, 0)
                HISTORY.append(op)
                return op
            """)
        assert _rules_hit(result) == {"pool-escape"}

    def test_annotated_param_subscript_store_flagged(self):
        result = _lint(GUARDED, """\
            INFLIGHT = {}

            def track(join: CompletionJoin, key):
                INFLIGHT[key] = join
            """)
        assert _rules_hit(result) == {"pool-escape"}

    def test_acquired_join_into_module_container_flagged(self):
        result = _lint(GUARDED, """\
            JOINS = []

            def write(ftl, done):
                join = ftl.acquire_join(done)
                JOINS.append(join)
            """)
        assert _rules_hit(result) == {"pool-escape"}

    def test_global_rebind_flagged(self):
        result = _lint(GUARDED, """\
            LAST = None

            def submit(pool):
                global LAST
                op = pool.acquire(0, 0, 0)
                LAST = op
            """)
        assert _rules_hit(result) == {"pool-escape"}

    def test_local_use_and_release_clean(self):
        result = _lint(GUARDED, """\
            def submit(pool, element):
                op = pool.acquire(0, 0, 0)
                element.enqueue(op)
                local = [op]
                return len(local)
            """)
        assert result.clean


# ---------------------------------------------------------------- family 5


class TestProcpool:
    def test_lambda_submission_flagged(self):
        result = _lint(GUARDED, """\
            from concurrent.futures import ProcessPoolExecutor

            def run(config):
                with ProcessPoolExecutor() as pool:
                    return pool.submit(lambda: config).result()
            """)
        assert _rules_hit(result) == {"procpool-unsafe"}

    def test_nested_function_submission_flagged(self):
        result = _lint(GUARDED, """\
            from concurrent.futures import ProcessPoolExecutor

            def run(config):
                def worker():
                    return config
                with ProcessPoolExecutor() as pool:
                    return pool.submit(worker).result()
            """)
        assert _rules_hit(result) == {"procpool-unsafe"}

    def test_bound_method_submission_flagged(self):
        result = _lint(GUARDED, """\
            from concurrent.futures import ProcessPoolExecutor

            def run(device):
                with ProcessPoolExecutor() as pool:
                    return pool.submit(device.run_all).result()
            """)
        assert _rules_hit(result) == {"procpool-unsafe"}

    def test_live_state_annotation_and_argument_flagged(self):
        result = _lint(GUARDED, """\
            from concurrent.futures import ProcessPoolExecutor

            def worker(sim: Simulator):
                return sim.now

            def run():
                sim = Simulator()
                with ProcessPoolExecutor() as pool:
                    return pool.submit(worker, sim).result()
            """)
        assert _rules_hit(result) == {"procpool-unsafe"}
        assert len(result.findings) == 2  # annotation + live argument

    def test_module_worker_with_config_clean(self):
        result = _lint(GUARDED, """\
            from concurrent.futures import ProcessPoolExecutor

            def worker(config, device_index: int):
                return device_index

            def run(config, n):
                with ProcessPoolExecutor() as pool:
                    futures = [pool.submit(worker, config, i)
                               for i in range(n)]
                return [f.result() for f in futures]
            """)
        assert result.clean


# ---------------------------------------------------------------- family 6


class TestHotPath:
    def test_hot_module_class_without_slots_flagged(self):
        result = _lint(HOT, """\
            class Op:
                def __init__(self):
                    self.kind = 0
            """)
        assert _rules_hit(result) == {"hot-slots"}

    def test_hot_marker_opts_in_any_module(self):
        result = _lint(COLD, """\
            # repro: hot-path

            class Op:
                def __init__(self):
                    self.kind = 0
            """)
        assert _rules_hit(result) == {"hot-slots"}

    def test_cold_module_not_flagged(self):
        result = _lint(COLD, """\
            class Op:
                def __init__(self):
                    self.kind = 0
            """)
        assert result.clean

    def test_slots_and_slotted_dataclass_clean(self):
        result = _lint(HOT, """\
            from dataclasses import dataclass

            class Op:
                __slots__ = ("kind",)

                def __init__(self):
                    self.kind = 0

            @dataclass(slots=True)
            class Summary:
                count: int
            """)
        assert result.clean

    def test_plain_dataclass_in_hot_module_flagged(self):
        result = _lint(HOT, """\
            from dataclasses import dataclass

            @dataclass
            class Summary:
                count: int
            """)
        assert _rules_hit(result) == {"hot-slots"}

    def test_exceptions_and_enums_exempt(self):
        result = _lint(HOT, """\
            import enum

            class DrainError(RuntimeError):
                pass

            class Kind(enum.IntEnum):
                READ = 0
            """)
        assert result.clean

    def test_swallowed_flash_state_error_flagged(self):
        result = _lint(COLD, """\
            def attempt(element, op):
                try:
                    element.enqueue(op)
                except FlashStateError:
                    pass
            """)
        assert _rules_hit(result) == {"error-swallow"}

    def test_reraised_flash_state_error_clean(self):
        result = _lint(COLD, """\
            def attempt(element, op):
                try:
                    element.enqueue(op)
                except FlashStateError:
                    element.mark_bad(op)
                    raise
            """)
        assert result.clean

    def test_broad_except_in_guarded_flagged(self):
        result = _lint(GUARDED, """\
            def attempt(fn):
                try:
                    fn()
                except Exception:
                    return None
            """)
        assert _rules_hit(result) == {"error-swallow"}


# ------------------------------------------------------- suppression layers


class TestSuppression:
    def test_pragma_on_line_suppresses(self):
        result = _lint(GUARDED, """\
            def due(deliver_at, now):
                return deliver_at == now  # repro: allow[float-time-eq]
            """)
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["float-time-eq"]

    def test_comment_only_pragma_covers_next_line(self):
        result = _lint(GUARDED, """\
            def due(deliver_at, now):
                # repro: allow[float-time-eq]
                return deliver_at == now
            """)
        assert result.clean
        assert [f.rule for f in result.suppressed] == ["float-time-eq"]

    def test_wildcard_pragma(self):
        result = _lint(GUARDED, """\
            import random

            def jitter():
                return random.random()  # repro: allow[*]
            """)
        assert result.clean

    def test_pragma_for_other_rule_does_not_suppress(self):
        result = _lint(GUARDED, """\
            def due(deliver_at, now):
                return deliver_at == now  # repro: allow[set-iter]
            """)
        assert _rules_hit(result) == {"float-time-eq"}

    def test_baseline_round_trip(self, tmp_path):
        code = """\
            def due(deliver_at, now):
                return deliver_at == now
            """
        first = _lint(GUARDED, code)
        assert not first.clean
        baseline = Baseline.from_findings(first.findings)
        baseline_path = tmp_path / "baseline.json"
        baseline.save(baseline_path)
        reloaded = Baseline.load(baseline_path)
        second = _lint(GUARDED, code, baseline=reloaded)
        assert second.clean
        assert len(second.baselined) == 1
        assert second.stale_baseline == []

    def test_baseline_entry_dies_with_the_code(self, tmp_path):
        baseline = Baseline.from_findings(_lint(GUARDED, """\
            def due(deliver_at, now):
                return deliver_at == now
            """).findings)
        changed = _lint(GUARDED, """\
            def due(deliver_at, now, eps):
                return abs(deliver_at - now) < eps
            """, baseline=baseline)
        assert changed.clean  # the hazard is gone...
        assert changed.stale_baseline  # ...and the allowance is reported stale

    def test_baseline_count_does_not_cover_new_duplicates(self):
        code_once = """\
            def due(deliver_at, now):
                return deliver_at == now
            """
        baseline = Baseline.from_findings(_lint(GUARDED, code_once).findings)
        code_twice = """\
            def due(deliver_at, now):
                return deliver_at == now

            def due_again(deliver_at, now):
                return deliver_at == now
            """
        result = _lint(GUARDED, code_twice, baseline=baseline)
        # same (rule, path, line_text) key, but only one allowance
        assert len(result.baselined) == 1
        assert len(result.findings) == 1


# ------------------------------------------------------------- the real gate


class TestLiveTree:
    def test_rule_catalogue_covers_six_families(self):
        families = {rule.family for rule in all_rules()}
        assert families == {"nondeterminism", "ordering", "streams",
                            "pooling", "procpool", "hotpath"}
        assert len(all_rules()) >= 12

    def test_live_tree_is_clean(self):
        baseline = Baseline.load(DEFAULT_BASELINE)
        result = lint_paths([REPO_ROOT / "src" / "repro"], baseline)
        assert result.findings == [], "\n".join(
            finding.render() for finding in result.findings)
        # every baseline allowance must still be consumed by real code;
        # stale entries mean the grandfathered hazard was fixed and the
        # baseline should shrink
        assert result.stale_baseline == []

    def test_committed_baseline_is_only_the_stream_collision(self):
        data = json.loads(DEFAULT_BASELINE.read_text(encoding="utf-8"))
        rules = {entry["rule"] for entry in data["entries"]}
        assert rules == {"stream-dup"}
        assert len(data["entries"]) == 2

    def test_cli_json_report(self, tmp_path, capsys):
        from repro.analysis.lint import main

        out = tmp_path / "lint.json"
        code = main(["--format=json", "--out", str(out),
                     str(REPO_ROOT / "src" / "repro")])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["findings"] == []
        assert payload["files"] > 90
        assert {rule["family"] for rule in payload["rules"]} == {
            "nondeterminism", "ordering", "streams", "pooling",
            "procpool", "hotpath"}
        capsys.readouterr()  # swallow the printed report


# ------------------------------------------------- regression: applied fixes


class TestAppliedFixes:
    """Pin the real hazards the first full-tree run surfaced."""

    def test_pagemap_cleaning_iterates_sorted(self):
        source = (REPO_ROOT / "src/repro/ftl/pagemap.py").read_text()
        assert "for e_idx in sorted(touched):" in source

    def test_blockmap_gang_check_iterates_sorted(self):
        source = (REPO_ROOT / "src/repro/ftl/blockmap.py").read_text()
        assert "for row in sorted(pool):" in source

    def test_hot_classes_are_slotted(self):
        from repro.device.interface import Completion, DeviceStats
        from repro.flash.element import FlashElement
        from repro.sim.engine import Simulator
        from repro.sim.stats import (BandwidthMeter, Counter, Histogram,
                                     LatencyRecorder, LatencySummary)

        for cls in (Completion, DeviceStats, FlashElement, Simulator,
                    BandwidthMeter, Counter, Histogram, LatencyRecorder,
                    LatencySummary):
            assert not hasattr(cls(*_ctor_args(cls)), "__dict__"), cls

    def test_simulator_still_weakrefable(self):
        import weakref

        from repro.sim.engine import Simulator

        sim = Simulator()
        assert weakref.ref(sim)() is sim


def _ctor_args(cls):
    """Minimal constructor args for the slotted classes above."""
    from repro.flash.element import FlashElement
    from repro.device.interface import Completion
    from repro.sim.stats import Histogram, LatencySummary

    if cls is FlashElement:
        from repro.flash.geometry import FlashGeometry
        from repro.flash.timing import FlashTiming
        from repro.sim.engine import Simulator

        return (Simulator(), FlashGeometry(), FlashTiming())
    if cls is Completion:
        return ("read", 0, 4096, 0, 0.0, 1.0)
    if cls is Histogram:
        return (100.0, 10)
    if cls is LatencySummary:
        return (0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return ()

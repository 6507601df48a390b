"""Determinism rules: coverage, suppression, and tree cleanliness."""

from repro.check.lint import LintEngine, get_rule
from repro.check.lint.cli import repro_source_root
from repro.check.lint.rules.determinism import SUPPRESS_MARK

#: The four determinism rules, as ``python -m repro.check lint --rules``.
RULES = ("wall-clock", "unseeded-random", "set-iteration", "float-time")
ENGINE = LintEngine([get_rule(rule_id) for rule_id in RULES])


def lint_source(source, module_rel):
    return ENGINE.lint_sources([(module_rel, source)])


def rules_of(source, module_rel="engine/mod.py"):
    return [f.rule for f in lint_source(source, module_rel)]


class TestWallClock:
    def test_time_time_flagged(self):
        assert rules_of("import time\nx = time.time()\n") == ["wall-clock"]

    def test_aliased_import_flagged(self):
        src = "import time as clock\nx = clock.monotonic()\n"
        assert rules_of(src) == ["wall-clock"]

    def test_from_import_flagged(self):
        src = "from time import perf_counter\nx = perf_counter()\n"
        assert rules_of(src) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        src = "import datetime\nx = datetime.datetime.now()\n"
        assert rules_of(src) == ["wall-clock"]

    def test_suppression_comment(self):
        src = f"import time\nx = time.time()  # {SUPPRESS_MARK}\n"
        assert rules_of(src) == []


class TestUnseededRandom:
    def test_module_level_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(src) == ["unseeded-random"]

    def test_instance_ok(self):
        src = "import random\nrng = random.Random(7)\nx = rng.random()\n"
        assert rules_of(src) == []

    def test_workloads_package_exempt(self):
        src = "import random\nx = random.shuffle([1])\n"
        assert rules_of(src) == ["unseeded-random"]
        assert lint_source(src, "workloads/gen.py") == []


class TestSetIteration:
    def test_for_over_set_literal(self):
        assert rules_of("for x in {1, 2}:\n    pass\n") == ["set-iteration"]

    def test_comprehension_over_set_call(self):
        src = "xs = [x for x in set(ys)]\n"
        assert rules_of(src) == ["set-iteration"]

    def test_sorted_set_ok(self):
        assert rules_of("for x in sorted({1, 2}):\n    pass\n") == []


class TestFloatTime:
    def test_true_division_of_ps_flagged_in_hot_path(self):
        assert rules_of("y = delay_ps / 2\n") == ["float-time"]

    def test_ps_by_ps_ratio_ok(self):
        assert rules_of("u = busy_ps / elapsed_ps\n") == []

    def test_round_wrapping_ok(self):
        assert rules_of("y = round(delay_ps * 1.5)\n") == []

    def test_float_scaling_flagged(self):
        assert rules_of("y = delay_ps * 1.5\n") == ["float-time"]

    def test_timing_attribute_names_count_as_ps(self):
        assert rules_of("y = t.tRCD / 2\n") == ["float-time"]

    def test_cold_path_not_checked(self):
        src = "y = delay_ps / 2\n"
        assert lint_source(src, "experiments/m.py") == []


class TestTree:
    def test_repro_tree_is_clean(self):
        """The shipped sources must stay lint-clean (CI enforces this)."""
        findings = ENGINE.lint_paths([repro_source_root()])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_lint_tree_deterministic_order(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nx = time.time()\n")
        (tmp_path / "a.py").write_text("import time\ny = time.time()\n")
        paths = [f.path for f in ENGINE.lint_paths([tmp_path])]
        assert paths == sorted(paths)

"""Protocol checker: rules, self-test suite, JSONL round-trip, CLI."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.protocol import (
    ProtocolChecker,
    ProtocolViolationError,
    Violation,
    check_trace,
)
from repro.check.selftest import cases, run_self_test
from repro.check.trace import (
    CheckEvent,
    TraceParams,
    default_params,
    load_events,
    save_events,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestSelfTestSuite:
    def test_all_cases_pass(self):
        count, failures = run_self_test()
        assert count >= 13
        assert failures == []

    def test_every_rule_has_a_seeded_case(self):
        seeded = set()
        for case in cases():
            seeded.update(case.expect_rules)
        assert seeded >= {
            "tRCD", "tRAS", "tRP", "tRC", "tRRD", "tWTR", "row-state",
            "burst-overlap", "bus-turnaround",
            "frame-align", "frame-reuse", "frame-overcommit",
        }


class TestCheckerBasics:
    def test_unsorted_trace_rejected(self):
        params = default_params("fbdimm")
        events = [
            CheckEvent(1000, "ACT", dimm=0, rank=0, bank=0, row=1),
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=1, row=1),
        ]
        with pytest.raises(ValueError, match="not time-sorted"):
            ProtocolChecker(params).check(events)

    def test_unknown_kind_rejected(self):
        params = default_params("fbdimm")
        bad = TraceParams(kind="ddr5", timing=params.timing)
        with pytest.raises(ValueError, match="ddr5"):
            ProtocolChecker(bad)

    def test_banks_and_channels_are_independent(self):
        """The same instant on different channels/banks never conflicts."""
        params = default_params("fbdimm")
        t = params.timing
        events = sorted(
            [
                CheckEvent(0, "ACT", channel=ch, dimm=0, rank=0, bank=0, row=5)
                for ch in range(2)
            ]
            + [
                CheckEvent(t.tRCD, "RD", channel=ch, dimm=0, rank=0, bank=0, row=5)
                for ch in range(2)
            ]
            + [
                CheckEvent(t.tRAS, "PRE", channel=ch, dimm=0, rank=0, bank=0, row=5)
                for ch in range(2)
            ],
            key=lambda e: e.time_ps,
        )
        assert check_trace(params, events) == []

    def test_violation_error_formats_and_truncates(self):
        violations = [
            Violation(rule="tRCD", time_ps=i, message=f"v{i}") for i in range(15)
        ]
        err = ProtocolViolationError(violations)
        text = str(err)
        assert "15 protocol violation(s)" in text
        assert "... and 5 more" in text
        assert err.violations is violations


class TestTraceIo:
    def test_round_trip_all_selftest_cases(self, tmp_path):
        for case in cases():
            path = tmp_path / f"{case.name}.jsonl"
            written = save_events(path, case.params, case.events)
            assert written == len(case.events)
            params, events = load_events(path)
            assert params == case.params
            assert events == sorted(case.events, key=lambda e: e.time_ps)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"version": 99, "params": {}}\n')
        with pytest.raises(ValueError, match="version"):
            load_events(path)

    def test_bad_event_kind_located(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_events(path, default_params("fbdimm"), [])
        with path.open("a") as fh:
            fh.write('{"t": 0, "c": "NOP"}\n')
        with pytest.raises(ValueError, match=":2"):
            load_events(path)


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.check", *args],
            capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": ""},
        )

    def test_self_test_exit_zero(self):
        proc = self._run("--self-test")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 failure(s)" in proc.stdout

    def test_clean_and_bad_traces(self, tmp_path):
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        by_name = {c.name: c for c in cases()}
        ok = by_name["good-close-page-read"]
        ko = by_name["bad-trcd"]
        save_events(good, ok.params, ok.events)
        save_events(bad, ko.params, ko.events)

        proc = self._run(str(good))
        assert proc.returncode == 0
        assert "OK" in proc.stdout

        proc = self._run(str(good), str(bad))
        assert proc.returncode == 1
        assert "tRCD" in proc.stdout

    def test_missing_trace_is_usage_error(self, tmp_path):
        proc = self._run(str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 2

    def test_no_arguments_is_usage_error(self):
        proc = self._run()
        assert proc.returncode == 2

    def test_audit_configs_clean(self):
        proc = self._run("--audit-configs")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ddr2_baseline: OK" in proc.stdout

    def test_lint_flags_wall_clock(self, tmp_path):
        victim = tmp_path / "victim.py"
        victim.write_text("import time\n\nstart = time.time()\n")
        proc = self._run(
            "lint", "--rules", "wall-clock,unseeded-random,set-iteration,float-time",
            str(victim),
        )
        assert proc.returncode == 1
        assert "wall-clock" in proc.stdout

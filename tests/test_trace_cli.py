"""End-to-end tests of ``repro run --trace-out`` and ``repro trace``."""

import json

import pytest

from repro.__main__ import main
from repro.telemetry import load_capture, validate_chrome_trace

RUN_ARGS = ["--workload", "2C-1", "--insts", "3000"]


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "cap.jsonl"
    code = main(
        ["run", *RUN_ARGS, "--profile", "--timeline-ns", "100",
         "--trace-out", str(path)]
    )
    assert code == 0
    return path


class TestRecord:
    def test_capture_is_loadable_and_complete(self, capture_path):
        capture = load_capture(capture_path)
        assert capture.meta["programs"] == ["wupwise", "swim"]
        assert capture.requests and capture.commands
        assert capture.timeline, "--timeline-ns must record windows"
        assert any(w["queue_depth"] > 0 for w in capture.timeline), \
            "the windows carry the queue-depth series"
        assert capture.profile, "--profile must record event-loop sites"
        assert "trace.latency_ps" in capture.metrics

    def test_summarize_prints_digest(self, capture_path, capsys):
        assert main(["trace", "summarize", str(capture_path)]) == 0
        out = capsys.readouterr().out
        assert "request traces" in out
        assert "event-loop profile" in out


class TestExport:
    def test_export_from_capture(self, capture_path, tmp_path):
        out = tmp_path / "trace.json"
        code = main(["trace", "export", str(capture_path), "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"ACT", "read", "queue depth"} <= names
        # Acceptance shape: per-bank dram spans and request lifecycle spans.
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"dram", "request"} <= cats


class TestErrorPaths:
    def test_missing_capture_fails_cleanly(self, capsys):
        assert main(["trace", "summarize", "/no/such/file.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_garbage_capture_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"version": 1, "params": {}}\n')
        assert main(["trace", "export", str(path)]) == 2
        assert "not a telemetry capture" in capsys.readouterr().err


class TestMainCliTraceOut:
    def test_run_trace_out_writes_capture(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        code = main([
            "run", "--workload", "swim", "--insts", "3000",
            "--trace-out", str(path),
        ])
        assert code == 0
        capture = load_capture(path)
        assert capture.requests
        assert "[trace:" in capsys.readouterr().out


class TestExperimentsTraceOut:
    def test_context_writes_one_capture_per_fresh_run(self, tmp_path):
        from repro.config import fbdimm_baseline
        from repro.experiments.runner import ExperimentContext

        beats = []
        ctx = ExperimentContext(
            instructions=2_000, progress=beats.append,
            trace_dir=tmp_path / "traces",
        )
        ctx.run(fbdimm_baseline(1), ["swim"])
        ctx.run(fbdimm_baseline(1), ["swim"])  # cached: no second capture
        files = sorted((tmp_path / "traces").glob("*.jsonl"))
        assert len(files) == 1
        assert load_capture(files[0]).meta["programs"] == ["swim"]
        assert len(beats) == 1
        assert beats[0].runs == 1
        assert beats[0].events == beats[0].total_events > 0

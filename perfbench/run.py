"""Benchmark of the FB-DIMM simulator: host speed, set-up, memory and
modelled outputs on four paper-regime workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fbd-ap-8c-sat --seed 12345 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a separate, profiled run
and writes the run's spans to ``.perfbench/trace-<workload>.json``.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the output checks, ``metrics`` holds
every metric of the mode with its unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

ORIGIN = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

from ledger import LEDGER_SHARE_BOUNDS, Spans  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

#: Seed used when ``--seed`` is not given (the repository's default seed).
DEFAULT_SEED = 12345

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 7

#: Upper bound on one set-up probe, in seconds.
PROBE_TIMEOUT_S = 60


def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up probe: set up, announce it, exit."""
    WORKLOADS[workload].prepare(seed, Spans(ORIGIN), OUT_DIR / f"probe-{os.getpid()}")
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median host seconds from process start to a ready-to-run workload."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(ready - start)
    return statistics.median(samples)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    spec = load_spec()
    traced = bool(args.trace)
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {}
    if not traced:
        metrics["setup_s"] = measure_setup(args.workload, args.seed)
    spans = Spans(ORIGIN)
    checks = Checks()
    scratch = OUT_DIR / f"run-{os.getpid()}"
    try:
        metrics.update(WORKLOADS[args.workload].measure(
            args.seed, args.seconds, traced, spans, checks, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        problems = spans.write(OUT_DIR / f"trace-{args.workload}.json", args.workload)
        checks.expect("span trace passes validate_chrome_trace", not problems)
        low, high = LEDGER_SHARE_BOUNDS
        checks.expect("layer self times reconcile with the profiled wall time",
                      low <= metrics["trace.ledger_share"] <= high)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    checks.expect(f"every metric measured (missing: {missing})", not missing)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    report = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

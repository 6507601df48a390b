"""Byte-identity pins on the counter export surfaces.

The conformance digests pin ``SimulationResult.canonical_json()``; they
say nothing about the text that is rendered *from* a result.  This file
pins SHA-256 digests of every surface a counter reaches for two runs:

* the ``run_report`` text (rendered against a no-prefetch baseline);
* the metrics registry JSON (``registry_from_stats(...).to_json()``);
* the timeline CSV lines and the timeline JSONL file;
* the prefetch lifecycle summary, as sorted JSON.

Run (a) is a 2-core DDR2 channel with the timeline on.  Run (b) is a
2-channel FBD-AP system with lifecycle tracking, link and AMB faults
(a low degraded-mode threshold) and the timeline on, so the elided
``pf_*``/``pf_table_*`` counters and the ``pf_*`` window columns are
all present and non-zero.

A refactor of how counters are declared, folded or exported is only
legal while every digest below stays the same.  After an intentional
change to one of these surfaces, print fresh digests with::

    PYTHONPATH=src python tests/test_surface_goldens.py
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.analysis.report import run_report
from repro.config import (
    AmbPrefetchConfig,
    SystemConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.prefetch.report import lifecycle_summary
from repro.system import SimulationResult, run_system
from repro.telemetry.registry import registry_from_stats
from repro.timeline.export import timeline_csv_lines, write_timeline_jsonl

INSTS = 6000
SEED = 12345
PROGRAMS = ("wupwise", "swim")


def _budget(config: SystemConfig) -> SystemConfig:
    return dataclasses.replace(config, instructions_per_core=INSTS, seed=SEED)


RUNS = {
    "ddr2-timeline": _budget(
        ddr2_baseline(num_cores=2, logic_channels=1).with_timeline(
            window_ns=500.0
        )
    ),
    "fbd-ap-observed": _budget(
        fbdimm_amb_prefetch(
            num_cores=2, logic_channels=2,
            prefetch=AmbPrefetchConfig(lifecycle=True),
        )
        .with_faults(error_rate=1e-1, amb_bitflip_rate=2e-2,
                     degraded_threshold=2)
        .with_timeline(window_ns=500.0)
    ),
}

BASELINE = _budget(fbdimm_baseline(num_cores=2, logic_channels=2))

#: run -> surface -> SHA-256 of the rendered text.
GOLDENS = {
    "ddr2-timeline": {
        "run_report": (
            "66926975c1aafc06f1debb6eb46e3fe7"
            "58e77f654ca33498b03c417c276e06ca"
        ),
        "registry_json": (
            "c96d3a34730cb5165ca1363f1d79afa3"
            "0e7b21f50b0059a13dc812d7816075d5"
        ),
        "timeline_csv": (
            "5f9b8272732e413907f4ad3afc92cd2a"
            "77ac1643b2c300fb6766a1da7f353088"
        ),
        "timeline_jsonl": (
            "ac6390d9cc8814f30335d232dfd85c61"
            "3d1f0146b69ed5ffd31d6c918c73ab15"
        ),
        "lifecycle_summary": (
            "119191e8471ec6468d65a7e5cfab41b2"
            "229938c4d98fd7f178c7baecf68dfac7"
        ),
    },
    "fbd-ap-observed": {
        "run_report": (
            "360b6c5e4bf301f710771ef9cf07ab0d"
            "c2d1888c2f523aee630ed84bf1709365"
        ),
        "registry_json": (
            "28ff4e696f8fa672d188624ca91b56e7"
            "dc96d5ef70fc41c1fcf04fcb59bb1bef"
        ),
        "timeline_csv": (
            "05a3fb809d6c29f7249ed646c5d7b914"
            "9e1fee830d4b2af6553cf883de2f1a3d"
        ),
        "timeline_jsonl": (
            "f216bdfc86bc91399449a16c77be9804"
            "dbf3ac7f5ae3b8488f4fc8d78001199b"
        ),
        "lifecycle_summary": (
            "2e4332ec081d66906f19c8cd1d4d5115"
            "ef75aac8a7103c190e4d4ee4a47369f6"
        ),
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def surface_digests(
    result: SimulationResult, baseline: SimulationResult
) -> "dict[str, str]":
    """Digest of every counter export surface of one run."""
    assert result.timeline is not None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "timeline.jsonl"
        write_timeline_jsonl(result.timeline, path)
        jsonl = path.read_text(encoding="utf-8")
    return {
        "run_report": _sha(run_report(result, baseline)),
        "registry_json": _sha(registry_from_stats(result.mem).to_json()),
        "timeline_csv": _sha("\n".join(timeline_csv_lines(result.timeline))),
        "timeline_jsonl": _sha(jsonl),
        "lifecycle_summary": _sha(
            json.dumps(lifecycle_summary(result.mem), sort_keys=True)
        ),
    }


@pytest.fixture(scope="module")
def baseline() -> SimulationResult:
    return run_system(BASELINE, PROGRAMS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_surfaces_match_goldens(name, baseline):
    assert surface_digests(run_system(RUNS[name], PROGRAMS), baseline) \
        == GOLDENS[name]


def test_observed_run_feeds_the_elided_counters():
    """Run (b) must exercise what it is there to pin."""
    result = run_system(RUNS["fbd-ap-observed"], PROGRAMS)
    mem = result.mem
    assert mem.pf_issued and mem.pf_table_lookups and mem.faults_retried_ok
    assert mem.fault_degraded_entries
    assert result.timeline is not None
    assert any(w.pf_issued for w in result.timeline.windows)


if __name__ == "__main__":
    base = run_system(BASELINE, PROGRAMS)
    fresh = {
        name: surface_digests(run_system(config, PROGRAMS), base)
        for name, config in sorted(RUNS.items())
    }
    json.dump(fresh, sys.stdout, indent=4)
    print()

"""Golden-number regression harness.

The simulator is deterministic, so a fixed set of tiny scenarios has
exactly reproducible outputs.  This module runs that set and compares
against golden values stored in ``goldens.json`` next to this file —
catching *any* unintended behavioural change, not just broken invariants.

Regenerate after an intentional model change::

    python -m repro.experiments.regression --update
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import (
    AmbPrefetchConfig,
    SystemConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.stats.collector import COUNTERS
from repro.system import run_system

GOLDEN_PATH = Path(__file__).with_name("goldens.json")

#: Metrics captured per scenario: the run's length and every catalogue
#: counter.  Integers only — float metrics would need tolerance plumbing,
#: and the integer counters pin behaviour just as hard.
_METRICS = ("elapsed_ps",) + tuple(f.name for f in COUNTERS)


def _scenarios() -> Dict[str, "tuple[SystemConfig, List[str]]"]:
    def small(config: SystemConfig) -> SystemConfig:
        return dataclasses.replace(config, instructions_per_core=6_000)

    return {
        "ddr2-swim": (small(ddr2_baseline(1)), ["swim"]),
        "fbd-swim": (small(fbdimm_baseline(1)), ["swim"]),
        "ap-swim": (small(fbdimm_amb_prefetch(1)), ["swim"]),
        "ap-k8-vpr": (
            small(
                fbdimm_amb_prefetch(
                    1, prefetch=AmbPrefetchConfig(region_cachelines=8)
                )
            ),
            ["vpr"],
        ),
        "fbd-2core": (small(fbdimm_baseline(2)), ["gap", "vortex"]),
        "ap-2core-nosp": (
            dataclasses.replace(
                small(fbdimm_amb_prefetch(2)), software_prefetch=False
            ),
            ["wupwise", "equake"],
        ),
    }


def capture() -> Dict[str, Dict[str, int]]:
    """Run every scenario and capture its golden metrics."""
    snapshot: Dict[str, Dict[str, int]] = {}
    for name, (config, programs) in _scenarios().items():
        result = run_system(config, programs)
        snapshot[name] = {"elapsed_ps": result.elapsed_ps}
        snapshot[name].update(
            (f.name, getattr(result.mem, f.name)) for f in COUNTERS
        )
    return snapshot


def load_goldens() -> Dict[str, Dict[str, int]]:
    """Stored golden values; raises if never generated."""
    if not GOLDEN_PATH.exists():
        raise FileNotFoundError(
            f"{GOLDEN_PATH} missing - run python -m repro.experiments.regression --update"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def save_goldens(snapshot: Dict[str, Dict[str, int]]) -> None:
    GOLDEN_PATH.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def compare() -> List[str]:
    """Differences between current behaviour and the goldens (empty = ok)."""
    goldens = load_goldens()
    current = capture()
    problems: List[str] = []
    for name in sorted(set(goldens) | set(current)):
        if name not in goldens:
            problems.append(f"{name}: new scenario (regenerate goldens)")
            continue
        if name not in current:
            problems.append(f"{name}: scenario removed (regenerate goldens)")
            continue
        for metric in _METRICS:
            expected = goldens[name].get(metric)
            actual = current[name].get(metric)
            if expected != actual:
                problems.append(f"{name}.{metric}: golden {expected} != {actual}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--update", action="store_true",
                        help="regenerate goldens.json from current behaviour")
    args = parser.parse_args(argv)
    if args.update:
        save_goldens(capture())
        print(f"wrote {GOLDEN_PATH}")
        return 0
    problems = compare()
    if problems:
        print("\n".join(problems))
        return 1
    print("all golden values match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

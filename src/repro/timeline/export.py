"""Timeline persistence: JSONL, CSV, and structural validation.

The JSONL format is one header object followed by one ``window`` record
per line, encoded with the same canonical serializer the run cache uses,
so a timeline round-trips bit-identically:

    {"format": "repro-timeline", "version": 1, "window_ps": ..., ...}
    {"type": "window", "index": 0, ...}
    {"type": "window", "index": 1, ...}

CSV export flattens the same records (every WindowRecord field in
declaration order, then the derived rates) for spreadsheet / pandas
consumption.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.serialize import canonical_dumps, decode_value, encode_value
from repro.timeline.records import TimelineResult, WindowRecord

FORMAT_NAME = "repro-timeline"
FORMAT_VERSION = 1

#: Derived per-window rates appended to the CSV after the raw columns.
DERIVED_FIELDS = (
    "duration_ps", "bandwidth_gbs", "avg_latency_ns", "row_hit_rate",
    "amb_hit_rate", "energy_total_nj", "avg_power_w", "powerdown_fraction",
)


def write_timeline_jsonl(
    timeline: TimelineResult,
    path: Union[str, Path],
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Write header + one line per window (canonical JSON)."""
    header: Dict[str, object] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "window_ps": timeline.window_ps,
        "resets": timeline.resets,
        "truncated": timeline.truncated,
        "num_windows": len(timeline.windows),
    }
    if meta:
        header["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(header) + "\n")
        for window in timeline.windows:
            record = {"type": "window"}
            record.update(encode_value(window))
            fh.write(canonical_dumps(record) + "\n")


def read_timeline_jsonl(
    path: Union[str, Path],
) -> Tuple[TimelineResult, Dict[str, object]]:
    """Inverse of :func:`write_timeline_jsonl`; returns (timeline, header)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty timeline file")
    header = json.loads(lines[0])
    if header.get("format") != FORMAT_NAME:
        raise ValueError(
            f"{path}: not a {FORMAT_NAME} file (format={header.get('format')!r})"
        )
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported version {header.get('version')!r}"
        )
    windows: List[WindowRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        raw = json.loads(line)
        if raw.get("type") != "window":
            raise ValueError(f"{path}:{lineno}: unknown record type "
                             f"{raw.get('type')!r}")
        raw.pop("type")
        windows.append(decode_value(raw, WindowRecord))
    timeline = TimelineResult(
        window_ps=int(header.get("window_ps", 0)),
        windows=windows,
        resets=int(header.get("resets", 0)),
        truncated=bool(header.get("truncated", False)),
    )
    return timeline, header


def validate_timeline(timeline: TimelineResult) -> List[str]:
    """Structural checks; returns human-readable issues ([] when clean).

    Checked: contiguous indices, positive-duration non-overlapping
    windows, interior windows exactly ``window_ps`` long, and
    non-negative counters.
    """
    issues: List[str] = []
    prev_end: Optional[int] = None
    last = len(timeline.windows) - 1
    for i, w in enumerate(timeline.windows):
        where = f"window {i}"
        if w.index != i:
            issues.append(f"{where}: index {w.index}, expected {i}")
        if w.end_ps <= w.start_ps:
            issues.append(
                f"{where}: non-positive duration [{w.start_ps}, {w.end_ps})"
            )
        if prev_end is not None and w.start_ps != prev_end:
            issues.append(
                f"{where}: starts at {w.start_ps}, previous ended {prev_end}"
            )
        if i < last and timeline.window_ps and w.duration_ps > timeline.window_ps:
            issues.append(
                f"{where}: duration {w.duration_ps} exceeds the"
                f" {timeline.window_ps} ps window"
            )
        for f in dataclasses.fields(w):
            value = getattr(w, f.name)
            if isinstance(value, (int, float)) and value < 0:
                issues.append(f"{where}: negative {f.name} ({value})")
        prev_end = w.end_ps
    return issues


def timeline_csv_lines(timeline: TimelineResult) -> List[str]:
    """CSV text lines (header + one row per window)."""
    columns = [f.name for f in dataclasses.fields(WindowRecord)]
    columns.extend(DERIVED_FIELDS)
    lines = [",".join(columns)]
    for w in timeline.windows:
        cells = []
        for name in columns:
            value = getattr(w, name)
            cells.append(f"{value:.6g}" if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return lines


def write_timeline_csv(timeline: TimelineResult, path: Union[str, Path]) -> None:
    """Write the CSV flattening of the timeline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(timeline_csv_lines(timeline)) + "\n")

"""Human-readable rendering of a recorded timeline.

``repro timeline report`` (and the timeline section of
:func:`repro.analysis.report.run_report`) render the per-window series
as ASCII sparklines over a totals summary, so a run's bandwidth burst,
latency tail, and power-down residency are visible at a glance without
leaving the terminal.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.timeline.phases import detect_phases
from repro.timeline.records import TimelineResult, WindowRecord

#: Sparkline glyph ramp (same ramp as the bench dashboard).
_BARS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render values as a fixed-width sparkline (mean-downsampled)."""
    if not values:
        return ""
    if len(values) > width:
        # Bucket-mean downsampling keeps bursts visible without aliasing
        # to whichever sample happens to land on a column.
        bucketed: List[float] = []
        per = len(values) / width
        for col in range(width):
            lo = int(col * per)
            hi = max(int((col + 1) * per), lo + 1)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    top = max(values)
    if top <= 0:
        return " " * len(values)
    glyphs = []
    for value in values:
        rank = round(value / top * (len(_BARS) - 1))
        glyphs.append(_BARS[max(0, min(rank, len(_BARS) - 1))])
    return "".join(glyphs)


def timeline_report(
    timeline: TimelineResult,
    width: int = 60,
    label: Optional[str] = None,
) -> str:
    """Render one timeline: header, sparklines, totals, phase changes."""
    lines: List[str] = []
    title = f"timeline: {label}" if label else "timeline"
    lines.append(title)
    n = len(timeline.windows)
    span_ns = (timeline.end_ps - timeline.start_ps) / 1000.0
    flags = []
    if timeline.resets:
        flags.append(f"resets={timeline.resets}")
    if timeline.truncated:
        flags.append("TRUNCATED at max_windows")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    lines.append(
        f"  {n} windows x {timeline.window_ps / 1000.0:.1f} ns"
        f" covering {span_ns:.1f} ns{suffix}"
    )
    if not n:
        return "\n".join(lines)

    for name, fmt_label in (
        ("bandwidth_gbs", "bandwidth GB/s"),
        ("avg_latency_ns", "read latency ns"),
        ("queue_depth", "queue depth"),
        ("avg_power_w", "power W"),
        ("powerdown_fraction", "power-down frac"),
    ):
        series = timeline.series(name)
        peak = max(series)
        lines.append(
            f"  {fmt_label:<16} |{sparkline(series, width)}| peak {peak:.3g}"
        )

    # Field-wise sums over the windows (maxima and the span are taken
    # where they are printed).
    t = {
        f.name: sum(getattr(w, f.name) for w in timeline.windows)
        for f in dataclasses.fields(WindowRecord)
    }
    reads = t["demand_reads"] + t["sw_prefetch_reads"]
    lines.append(
        f"  reads {t['demand_reads']} demand + {t['sw_prefetch_reads']} swpf,"
        f" writes {t['writes']}, AMB hits {t['amb_hits']}"
        f" ({t['amb_hits'] / reads:.1%} of reads)" if reads else
        f"  reads 0, writes {t['writes']}"
    )
    lines.append(
        f"  traffic {(t['bytes_read'] + t['bytes_written']) / 1e6:.2f} MB"
        f" ({t['bytes_read']} B read, {t['bytes_written']} B written)"
    )
    row_total = t["row_hits"] + t["row_misses"]
    hit_rate = t["row_hits"] / row_total if row_total else 0.0
    lines.append(
        f"  DRAM: {t['activates']} ACT, {t['column_reads']} RD,"
        f" {t['column_writes']} WR, {t['refreshes']} REF,"
        f" row-hit {hit_rate:.1%}, {t['prefetched_lines']} prefetched lines"
    )
    if t["demand_reads"]:
        avg_ns = t["demand_latency_sum_ps"] / t["demand_reads"] / 1000.0
        qd_ns = t["queue_delay_sum_ps"] / t["demand_reads"] / 1000.0
        lines.append(
            f"  latency: avg {avg_ns:.1f} ns (queue {qd_ns:.1f}),"
            f" worst-window max"
            f" {max(w.latency_max_ps for w in timeline.windows) / 1000.0:.1f} ns"
        )
    dynamic_nj = (t["energy_act_nj"] + t["energy_rd_nj"]
                  + t["energy_wr_nj"] + t["energy_refresh_nj"])
    total_nj = dynamic_nj + t["energy_background_nj"]
    span_ps = sum(w.duration_ps for w in timeline.windows)
    avg_w = total_nj / (span_ps / 1000.0) if span_ps else 0.0
    lines.append(
        f"  energy: {total_nj / 1000.0:.2f} uJ"
        f" (ACT {t['energy_act_nj']:.0f} + RD {t['energy_rd_nj']:.0f}"
        f" + WR {t['energy_wr_nj']:.0f} + REF {t['energy_refresh_nj']:.0f}"
        f" + background {t['energy_background_nj']:.0f} nJ),"
        f" avg power {avg_w:.3f} W"
    )
    if span_ps:
        lines.append(
            f"  residency: idle {t['idle_ps'] / span_ps:.1%},"
            f" power-down {t['powerdown_ps'] / span_ps:.1%}"
            f" of the recorded span, peak queue"
            f" {max(w.queue_depth for w in timeline.windows)}"
        )
    if t["fault_retries"]:
        lines.append(f"  faults: {t['fault_retries']} recovered retries")
    if t["pf_issued"]:
        lines.append(
            f"  prefetch lifecycle: {t['pf_issued']} issued ="
            f" {t['pf_used']} used + {t['pf_late_unused']} late"
            f" + {t['pf_evicted_unused']} evicted"
            f" + {t['pf_invalidated']} invalidated (+ open)"
        )

    changes = detect_phases(timeline)
    if changes:
        lines.append("  phase changes:")
        for change in changes:
            lines.append(
                f"    {change.time_ps / 1000.0:>10.1f} ns  {change.metric}:"
                f" {change.before:.3g} -> {change.after:.3g}"
                f" ({change.relative_shift:+.0%})"
            )
    # latency percentile trend (p50/p95/p99 of the busiest window)
    busiest = max(
        timeline.windows, key=lambda w: w.demand_reads + w.sw_prefetch_reads
    )
    if busiest.latency_p50_ps:
        lines.append(
            f"  busiest window #{busiest.index}"
            f" [{busiest.start_ps / 1000.0:.0f}-{busiest.end_ps / 1000.0:.0f} ns]:"
            f" p50 {busiest.latency_p50_ps / 1000.0:.1f},"
            f" p95 {busiest.latency_p95_ps / 1000.0:.1f},"
            f" p99 {busiest.latency_p99_ps / 1000.0:.1f} ns"
        )
    return "\n".join(lines)

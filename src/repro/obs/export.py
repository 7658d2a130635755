"""Combined metrics + span snapshot: JSON file format and text renderers.

One captured file round-trips through the CLI::

    python -m repro analyze conficker --metrics m.json
    python -m repro stats m.json            # pretty text
    python -m repro stats m.json --prom     # Prometheus exposition text
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import MetricsRegistry, prometheus_text
from .prof import Profiler, render_table
from .tracer import Tracer, render_flame

SNAPSHOT_VERSION = 1


def snapshot(
    registry: MetricsRegistry, tracer: Tracer, profiler: Optional[Profiler] = None
) -> Dict[str, object]:
    return {
        "version": SNAPSHOT_VERSION,
        "generated_unix": time.time(),
        "metrics": registry.snapshot(),
        "spans": tracer.to_dicts(),
        "profile": profiler.snapshot() if profiler is not None else {},
    }


def write_json(
    path,
    registry: MetricsRegistry,
    tracer: Tracer,
    profiler: Optional[Profiler] = None,
) -> Dict[str, object]:
    data = snapshot(registry, tracer, profiler)
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))
    return data


def load(path) -> Dict[str, object]:
    """Parse a snapshot file; raises :class:`ValueError` naming the file
    and the reason on truncated/corrupt JSON (``SystemExit``-friendly for
    ``repro stats``) instead of leaking a bare ``json.JSONDecodeError``."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        reason = "file is empty" if not text.strip() else f"{exc.msg} at line {exc.lineno}"
        raise ValueError(
            f"{path}: corrupt or truncated metrics snapshot ({reason})"
        ) from None
    if not isinstance(data, dict) or "metrics" not in data:
        raise ValueError(f"{path}: not a repro metrics snapshot")
    return data


# ----------------------------------------------------------------------
# text rendering (the `stats` subcommand)
# ----------------------------------------------------------------------


def render_stats(
    data: Dict[str, object], max_depth: int = 6, top: Optional[int] = None
) -> str:
    """Human-readable summary of a snapshot: counters/gauges table, a VM
    execution-tier digest, histogram summaries, hot-path profile table (when
    the snapshot carries one), then the aggregated span flame tree."""
    metrics: Dict[str, Dict] = data.get("metrics", {})  # type: ignore[assignment]
    lines: List[str] = []

    scalars: List[str] = []
    histograms: List[str] = []
    for name in sorted(metrics):
        family = metrics[name]
        for series in family["series"]:
            label_text = _labels_text(series["labels"])
            if family["kind"] == "histogram":
                histograms.append(
                    f"  {name}{label_text}  count={series['count']} "
                    f"sum={_fmt_s(series['sum'])} mean={_fmt_s(_mean(series))} "
                    f"max={_fmt_s(series['max'] or 0.0)}"
                )
            else:
                value = series["value"]
                scalars.append(f"  {name + label_text:<56s} {value:>12g}")

    if scalars:
        lines.append("== counters / gauges ==")
        lines.extend(scalars)
    tiers = _render_vm_tiers(metrics)
    if tiers:
        lines.append("")
        lines.append("== vm execution tiers ==")
        lines.extend(tiers)
    if histograms:
        lines.append("")
        lines.append("== histograms ==")
        lines.extend(histograms)

    profile = data.get("profile") or {}
    if profile:
        lines.append("")
        lines.append("== hot paths ==")
        lines.append(render_table(profile, top=top or 20).rstrip("\n"))

    spans = data.get("spans", [])
    if spans:
        lines.append("")
        lines.append("== spans ==")
        lines.append(render_flame(spans, max_depth=max_depth, top=top).rstrip("\n"))
    return "\n".join(lines) + "\n"


def _metric_total(metrics: Dict[str, Dict], name: str) -> float:
    family = metrics.get(name)
    if not family:
        return 0.0
    return sum(series.get("value", 0.0) for series in family.get("series", []))


def _render_vm_tiers(metrics: Dict[str, Dict]) -> List[str]:
    """Digest of the three-tier interpreter counters (PR 8): how many steps
    avoided the slow path, and what the superblock compiler did."""
    instructions = _metric_total(metrics, "vm.instructions")
    if not instructions:
        return []
    fast = _metric_total(metrics, "vm.fast_steps")
    share = 100.0 * fast / instructions
    lines = [
        f"  instructions {instructions:>14,.0f}",
        f"  fast+superblock steps {fast:>5,.0f} ({share:.1f}% off the slow path)",
    ]
    # Always shown, zeros included: short runs that never get hot enough
    # to compile are the common case, and "0 compiled" says so.
    compiled = _metric_total(metrics, "vm.superblocks.compiled")
    entries = _metric_total(metrics, "vm.superblocks.entries")
    guard_exits = _metric_total(metrics, "vm.superblocks.guard_exits")
    lines.append(
        f"  superblocks: {compiled:,.0f} compiled, {entries:,.0f} entries, "
        f"{guard_exits:,.0f} guard exits"
    )
    return lines


#: Quantiles emitted for span-derived phase latencies (summary convention).
SPAN_QUANTILES = (0.5, 0.9, 0.99)


def _span_durations(spans: List[dict]) -> Dict[str, List[float]]:
    """Aggregate wall seconds per span name across the whole forest."""
    durations: Dict[str, List[float]] = {}
    stack = list(spans)
    while stack:
        span = stack.pop()
        name = span.get("name")
        seconds = span.get("duration")
        if name and seconds is not None:
            durations.setdefault(name, []).append(float(seconds))
        stack.extend(span.get("children", []))
    return durations


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile over raw durations (exact, not bucketed)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def render_prometheus(data: Dict[str, object]) -> str:
    """Prometheus exposition text: the metric families, then summary-style
    quantile lines for span-derived phase latencies (``repro_span_seconds``)
    so phase timing is scrapable without shipping raw span trees."""
    text = prometheus_text(data.get("metrics", {}))  # type: ignore[arg-type]
    durations = _span_durations(data.get("spans", []))  # type: ignore[arg-type]
    if not durations:
        return text
    lines = [text.rstrip("\n")] if text.strip() else []
    lines.append("# HELP repro_span_seconds wall seconds per span name (from the snapshot's span forest)")
    lines.append("# TYPE repro_span_seconds summary")
    for name in sorted(durations):
        values = sorted(durations[name])
        for q in SPAN_QUANTILES:
            lines.append(
                f'repro_span_seconds{{span="{name}",quantile="{q}"}} '
                f"{_quantile(values, q):.9g}"
            )
        lines.append(f'repro_span_seconds_sum{{span="{name}"}} {sum(values):.9g}')
        lines.append(f'repro_span_seconds_count{{span="{name}"}} {len(values)}')
    return "\n".join(lines) + "\n"


def _labels_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def _mean(series: Dict[str, object]) -> float:
    count = series.get("count") or 0
    return (series.get("sum") or 0.0) / count if count else 0.0  # type: ignore[operator]


def _fmt_s(seconds: Optional[float]) -> str:
    seconds = seconds or 0.0
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 0.001:
        return f"{seconds * 1000:.2f}ms"
    return f"{seconds * 1_000_000:.1f}us"

"""Hot-path profiler (``repro.obs.prof``) performance: the cheap-hook
contract, and the profiler's own latency baseline.

Two claims are pinned (PR 9):

* **off-path overhead** — the cheap-hook contract from PR 1/4/6: with the
  profiler merged but *disabled* (the default), every hook site (API
  dispatch, the VM run loop, snapshot capture/resume, rule matching) pays
  a cached ``None``/``enabled`` test and nothing else, so the default
  pipeline stays within 5% of ``obs.disabled()``.  The *enabled* cost is
  reported alongside with a loose pathology bound: attribution mode is
  opt-in diagnostics, and its timers wrap tier segments (one
  ``perf_counter`` pair per contiguous slow run, fast-loop entry, region
  dispatch, API call) — a regression to per-instruction timing shows up
  as a multiple of the bound, not a few percent.
* **latency baseline** — per-case batch times for the profiled pipeline
  and the export path (merge + tree + folded + table over a realistic
  profile) land in ``prof_baseline.json`` under the shared
  ``per_sample_seconds`` schema, gated by ``check_bench_regression.py``
  (→ ``BENCH_prof.json``).

Artifacts: ``_artifacts/prof.txt``, ``_artifacts/prof_baseline.json``.
"""

from __future__ import annotations

import json

from repro import AutoVac, obs
from repro.corpus import build_family
from repro.obs.prof import merge_profiles, render_table, to_folded, to_tree

from benchutil import min_wall_seconds, write_artifact


def _paired_overhead(side_a, side_b, pairs=11, side_repeats=2):
    """Median of paired alternating-order a/b wall-time ratios (the
    ``test_run_telemetry_overhead`` estimator, hardened with min-of-2 per
    side per pair so one scheduler tail cannot poison a ratio)."""
    import gc
    import statistics

    ratios = []
    a_best = b_best = float("inf")
    last = None
    for i in range(pairs):
        gc.collect()
        gc.disable()
        try:
            if i % 2:
                b, _ = min_wall_seconds(side_b, repeats=side_repeats)
                a, last = min_wall_seconds(side_a, repeats=side_repeats)
            else:
                a, last = min_wall_seconds(side_a, repeats=side_repeats)
                b, _ = min_wall_seconds(side_b, repeats=side_repeats)
        finally:
            gc.enable()
        ratios.append(a / b)
        a_best = min(a_best, a)
        b_best = min(b_best, b)
    return statistics.median(ratios) - 1.0, a_best, b_best, last


def test_profiler_off_overhead():
    """Mirror of ``test_run_telemetry_overhead`` for the off path: the
    default pipeline (profiler merged, disabled) vs ``obs.disabled()``,
    paired alternating-order timings, budget <=5% — the same comparison
    PR 1/4/6 pinned for spans/metrics/flight, now crossing every profiler
    hook site.  The *enabled* cost is measured the same way against the
    default pipeline and reported in the artifact; its bound is loose
    (<=25%) because attribution mode is opt-in — the bound exists to catch
    a regression to per-instruction timing, which measures far above it.
    """
    program = build_family("zeus")
    reps = 4

    def run_default():
        obs.reset()  # steady-state cost, not unbounded span accumulation
        obs.flight.enabled = False  # has its own budget and bench
        try:
            for _ in range(reps):
                result = AutoVac().analyze(program)
        finally:
            obs.flight.enabled = True
        return result

    def run_disabled():
        with obs.disabled():
            for _ in range(reps):
                result = AutoVac().analyze(program)
        return result

    def run_prof_on():
        obs.reset()
        obs.flight.enabled = False
        obs.prof.enabled = True
        try:
            for _ in range(reps):
                result = AutoVac().analyze(program)
        finally:
            obs.prof.enabled = False
            obs.flight.enabled = True
        return result

    run_default(), run_disabled(), run_prof_on()  # warm-up all paths
    off_overhead, off_s, base_s, result = _paired_overhead(
        run_default, run_disabled
    )
    assert result.vaccines
    on_overhead, on_s, _, on_result = _paired_overhead(run_prof_on, run_default)
    assert on_result.profile, "profiled mode must actually collect"
    write_artifact(
        "prof_overhead.txt",
        "hot-path profiler overhead on the full pipeline (zeus)\n"
        f"obs.disabled() baseline:       {base_s * 1000:.2f} ms\n"
        f"default (profiler off):        {off_s * 1000:.2f} ms "
        f"-> {off_overhead:+.2%} vs disabled (budget: <=5%)\n"
        f"profiler collecting:           {on_s * 1000:.2f} ms "
        f"-> {on_overhead:+.2%} vs default (bound: <=25%)\n"
        f"profile nodes collected: {len(on_result.profile)}\n"
        "(medians of 11 paired alternating-order ratios, min-of-2 per side)\n",
    )
    assert off_overhead <= 0.05
    assert on_overhead <= 0.25


def _synthetic_profile(n_handlers: int = 40) -> dict:
    """A population-scale-shaped profile: the VM tier nodes, many API
    handler nodes with read_args children, snapshot nodes."""
    profile = {
        "vm;slow": [500_000, 4.0],
        "vm;fast": [2_000_000, 1.5],
        "vm;superblock;compile": [30, 0.02],
        "snapshot;capture": [200, 0.4],
        "snapshot;capture;env_snapshot": [200, 0.3],
        "snapshot;resume": [600, 1.1],
        "snapshot;resume;env_restore": [600, 0.8],
        "rules;daemon": [4_000, 0.05],
    }
    for i in range(n_handlers):
        profile[f"api;Handler{i:03d}"] = [i + 10, 0.002 * (i + 1)]
        profile[f"api;Handler{i:03d};read_args"] = [i + 10, 0.0005 * (i + 1)]
    return profile


def test_prof_latency_baseline():
    """Per-case latencies for ``prof_baseline.json`` (gated in CI):

    * ``pipeline_off`` / ``pipeline_profiled`` — one conficker analysis
      with the profiler off vs collecting (their *relative* drift is the
      regression the gate normalizes out hardware to see);
    * ``export`` — merge 8 per-sample profiles and render every export
      format (tree, folded, table) from the merged result.
    """
    program = build_family("conficker")
    per_case = {}

    def run(profiled: bool):
        obs.reset()
        obs.prof.enabled = profiled
        try:
            return AutoVac().analyze(program)
        finally:
            obs.prof.enabled = False

    per_case["pipeline_off"], _ = min_wall_seconds(lambda: run(False), repeats=5)
    per_case["pipeline_profiled"], analysis = min_wall_seconds(
        lambda: run(True), repeats=5
    )
    assert analysis.profile

    shards = [_synthetic_profile() for _ in range(8)]

    def export():
        merged = merge_profiles(*shards)
        return to_tree(merged), to_folded(merged), render_table(merged)

    per_case["export"], (tree, folded, table) = min_wall_seconds(export, repeats=5)
    assert tree and folded and table

    write_artifact(
        "prof_baseline.json",
        json.dumps({"per_sample_seconds": per_case}, indent=2, sort_keys=True) + "\n",
    )
    lines = ["hot-path profiler latency baseline (best of 5)"]
    for case, seconds in sorted(per_case.items()):
        lines.append(f"  {case:<20s} {seconds * 1e3:8.2f} ms")
    lines.append("")
    lines.append("attribution for one profiled conficker analysis:")
    lines.append(render_table(analysis.profile, top=12).rstrip("\n"))
    write_artifact("prof.txt", "\n".join(lines) + "\n")

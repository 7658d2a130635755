"""AUTOVAC end-to-end benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 15 --trace 0

Samples go through the public ``analyze_population(..., jobs=1)`` entry in
a closed loop, one sample in flight.  The run repeats *passes* over the
workload's corpus until ``--seconds`` of pass time have been measured;
every pass gets a freshly built corpus and ``AutoVac`` (see
``workloads.py``), so no per-``Program`` cache is warm when it starts.

After the timed passes, every sample's analysis is compared with the one
the reference configuration (full rerun, no superblocks) produces, encoded
with the ``tracing.serialize`` codec minus its span/journal/profile
fields.  A mismatch, an exception or a ``SampleFailure`` counts as a
failed sample and makes the exit code non-zero.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones (``layers.py``) plus the tracing overhead.  The last line of standard
output is always ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Callable, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

WORKLOADS = ("survey", "packed", "certify")
#: Set-ups per run (this process plus fresh child processes); the median
#: is reported as ``setup_s``.
SETUP_REPEATS = 5
#: Where the traced run writes its spans (one file per workload).
SPAN_DIR = os.path.join(ROOT, ".perfbench_out")
#: Machine-speed calibration: a fixed pure-Python loop is timed before
#: every sample, outside the sample's own timing.  Times are reported
#: rescaled to a machine on which the loop takes ``NOMINAL_CALIBRATION_S``
#: (its median on a 2-vCPU x86-64 container under CPython 3.11), so a host
#: that runs everything slower for a while does not move the metrics.
CALIBRATION_ROUNDS = 20_000
NOMINAL_CALIBRATION_S = 1.8e-3
#: A sample's scale comes from the median of this many calibrations around
#: it, in run order (one calibration alone is too jittery).
CALIBRATION_WINDOW = 25

_clock = time.perf_counter


def calibrate() -> float:
    start = _clock()
    acc = 0
    for i in range(CALIBRATION_ROUNDS):
        acc += i * i % 7
    return _clock() - start


def speed_scale(calibrations: List[float]) -> float:
    """Factor that rescales a wall time measured alongside ``calibrations``
    to the nominal machine."""
    return NOMINAL_CALIBRATION_S / statistics.median(calibrations)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the workload's first pass, print the set-up seconds, exit",
    )
    return parser.parse_args(argv)


def setup(name: str, seed: int):
    """Imports, the first pass's corpus, and its ``AutoVac``."""
    import workloads

    wl = workloads.workload(name, seed)
    return wl, wl.fresh_pass(0)


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- passes -------------------------------------------------------------------


def fingerprint(analysis) -> str:
    """Digest of an analysis's codec encoding without timing/span fields."""
    from repro.tracing import serialize

    doc = serialize.analysis_to_dict(analysis)
    for key in ("span", "journal", "profile"):
        doc.pop(key, None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class PassResult:
    """One pass: its index and corpus id, wall time and per-sample
    latencies (calibrations excluded), the calibration taken before each
    sample, and the analysis digest per sample name (None: the sample
    failed).  :func:`rescale` fills in ``scales``."""

    def __init__(self, index: int, corpus: int, wall: float, latencies: List[float],
                 calibrations: List[float], digests: Dict[str, Optional[str]]):
        self.index = index
        self.corpus = corpus
        self.wall = wall
        self.latencies = latencies
        self.calibrations = calibrations
        self.scales = [1.0] * len(latencies)
        self.digests = digests

    @property
    def scale(self) -> float:
        return statistics.fmean(self.scales)

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    @property
    def scaled_latencies(self) -> List[float]:
        return [t * s for t, s in zip(self.latencies, self.scales)]


def rescale(passes: List[PassResult]) -> None:
    """Give every sample of ``passes`` (in run order) the speed scale of
    the calibrations around it."""
    cal = [c for r in passes for c in r.calibrations]
    half = CALIBRATION_WINDOW // 2
    scales = [speed_scale(cal[max(0, i - half):i + half + 1]) for i in range(len(cal))]
    for r in passes:
        r.scales, scales = scales[:len(r.calibrations)], scales[len(r.calibrations):]


def run_pass(p, wrap: Optional[Callable] = None) -> PassResult:
    """Analyse one pass through ``analyze_population(jobs=1)``; only that
    call is timed.  ``wrap`` decorates ``AutoVac.analyze`` (tracing)."""
    from repro import obs
    from repro.core.executor import analyze_population

    latencies: List[float] = []
    calibrations: List[float] = []
    analyze = p.autovac.analyze if wrap is None else wrap(p.autovac.analyze)

    def timed(program):
        calibrations.append(calibrate())
        start = _clock()
        try:
            return analyze(program)
        finally:
            latencies.append(_clock() - start)

    p.autovac.analyze = timed
    obs.reset()
    gc.collect()
    start = _clock()
    result = analyze_population(p.programs, jobs=1, autovac=p.autovac)
    wall = _clock() - start - sum(calibrations)
    digests: Dict[str, Optional[str]] = {prog.name: None for prog in p.programs}
    for analysis in result.analyses:
        digests[analysis.program.name] = fingerprint(analysis)
    return PassResult(p.index, p.corpus, wall, latencies, calibrations, digests)


def reference_digests(wl, passes: List[PassResult]) -> Dict[int, Dict[str, Optional[str]]]:
    """Reference-configuration digests for every corpus ``passes`` used."""
    first_index: Dict[int, int] = {}
    for r in passes:
        first_index.setdefault(r.corpus, r.index)
    return {
        corpus: run_pass(wl.reference_pass(index)).digests
        for corpus, index in first_index.items()
    }


def count_failures(passes: List[PassResult], reference: Dict[int, Dict]) -> int:
    """Samples, over all passes, that failed or whose analysis differs from
    the reference configuration's (a sample missing from a pass counts)."""
    return sum(
        1
        for r in passes
        for name, want in reference[r.corpus].items()
        if want is None or r.digests.get(name) != want
    )


def quantile(values: List[float], q: int) -> float:
    """The q-th decile (inclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


# -- the two run modes --------------------------------------------------------


def timed_run(wl, first, seconds: float, observe: Callable = None) -> Dict:
    """Pass after pass until ``seconds`` of pass time are measured."""
    passes: List[PassResult] = []
    p = first
    while True:
        if observe is not None:
            observe(p)
        passes.append(run_pass(p))
        p = None
        if sum(r.wall for r in passes) >= seconds:
            break
        p = wl.fresh_pass(len(passes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rescale(passes)
    latencies = [t for r in passes for t in r.scaled_latencies]
    samples = sum(len(r.digests) for r in passes)
    return {
        "passes": passes,
        "metrics": {
            "throughput_sps": (samples / sum(r.scaled_wall for r in passes), "1/s"),
            "latency_p50_ms": (quantile(latencies, 5) * 1e3, "ms"),
            "latency_p90_ms": (quantile(latencies, 9) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def traced_run(wl, first, seconds: float, observe: Callable = None) -> Dict:
    """Pairs of an untraced and a traced pass over the same corpus, until
    ``seconds`` of pass time are measured.  Work counts are those of the
    first traced pass; times are means over all traced passes."""
    from layers import LayerTracer, layer_metrics

    tracer = LayerTracer()
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    counts: List[Dict[str, int]] = []
    p = first
    while True:
        if observe is not None:
            observe(p)
        untraced.append(run_pass(p))
        p = wl.fresh_pass(len(traced), aligner=tracer.aligner())
        if observe is not None:
            observe(p)
        before = tracer.work_counts()
        tracer.install()
        try:
            traced.append(run_pass(p, wrap=tracer.sample_span))
        finally:
            tracer.uninstall()
        p = None
        counts.append({k: v - before[k] for k, v in tracer.work_counts().items()})
        if sum(r.wall for r in untraced + traced) >= seconds:
            break
        p = wl.fresh_pass(len(traced))
    rescale([r for pair in zip(untraced, traced) for r in pair])

    os.makedirs(SPAN_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(SPAN_DIR, f"{wl.name}.spans.jsonl"))
    samples = sum(len(r.digests) for r in traced)
    metrics = layer_metrics(
        counts, tracer.self_s, tracer.total_s, samples=samples,
        executor_s=sum((r.wall - sum(r.latencies)) * r.scale for r in traced),
        scale=statistics.median(r.scale for r in traced),
    )
    untraced_sps = sum(len(r.digests) for r in untraced) / sum(
        r.scaled_wall for r in untraced
    )
    traced_sps = samples / sum(r.scaled_wall for r in traced)
    metrics["trace.untraced_sps"] = (untraced_sps, "1/s")
    metrics["trace.traced_sps"] = (traced_sps, "1/s")
    metrics["trace.overhead_pct"] = ((untraced_sps / traced_sps - 1.0) * 100.0, "%")
    # Traced passes over one corpus must do identical work, or some state
    # survived from an earlier pass.
    first_counts: Dict[int, Dict[str, int]] = {}
    repeat = all(
        first_counts.setdefault(r.corpus, c) == c for r, c in zip(traced, counts)
    )
    return {
        "passes": untraced + traced,
        "metrics": metrics,
        "work_counts": counts[0],
        "counts_repeat": repeat,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, first = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    setups = [(_clock() - _START) * speed_scale([calibrate() for _ in range(25)])]
    if args.setup_only:
        print(f"{setups[0]!r}")
        return 0
    if args.trace:
        out = traced_run(wl, first, args.seconds)
    else:
        setups += [
            child_setup_seconds(args.workload, args.seed)
            for _ in range(SETUP_REPEATS - 1)
        ]
        out = timed_run(wl, first, args.seconds)
        out["metrics"]["setup_s"] = (statistics.median(setups), "s")
    passes = out["passes"]
    failed = count_failures(passes, reference_digests(wl, passes))
    attempted = sum(len(r.digests) for r in passes)
    metrics = out["metrics"]
    repeat = out.get("counts_repeat", True)
    correct = failed == 0 and repeat

    print(
        f"workload={args.workload} seed={args.seed} passes={len(passes)} "
        f"samples={attempted} failed={failed} failed_ratio={failed / attempted:.4f}"
        + ("" if repeat else " WORK COUNTS DIFFER BETWEEN PASSES OF ONE CORPUS")
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing for the traced benchmark run.

The program itself is not instrumented for this: :class:`LayerTracer`
wraps each layer's public entry point (a function, method or classmethod)
for the duration of one traced pass and restores the original afterwards.
Every wrapped call becomes a span on an in-memory stack:

    (span id, parent id, sample, name, start, end)

A span's *self* time is its duration minus the durations of the wrapped
spans nested directly inside it.  The same wrappers keep the work counts
(steps, API calls, captures, compiles, ...) that do not depend on hardware.
Spans stay in memory until :meth:`LayerTracer.write_spans` writes them out
at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable, Dict, List

from repro.analysis.alignment import align_myers
from repro.core import determinism as core_determinism
from repro.core import stages as core_stages
from repro.core.exclusiveness import ExclusivenessAnalyzer
from repro.core.snapshot import VmSnapshot
from repro.delivery.engine import RuleEngine
from repro.vm import cpu as vm_cpu
from repro.vm import superblock as vm_superblock
from repro.winapi.dispatcher import Dispatcher

_clock = time.perf_counter

#: Stage classes whose ``run`` is one ``stage.<name>`` span per sample.
STAGES = (
    core_stages.Phase1Stage,
    core_stages.ExclusivenessStage,
    core_stages.ImpactStage,
    core_stages.DeterminismStage,
    core_stages.PolicyStage,
    core_stages.ClinicStage,
)

#: Work counts that must repeat exactly for a given seed.
WORK_COUNTS = (
    "vm.record.runs",
    "vm.record.steps",
    "vm.plain.runs",
    "vm.plain.steps",
    "vm.decode.calls",
    "vm.superblock.compiles",
    "winapi.calls",
    "snapshot.captures",
    "snapshot.resumes",
    "align.calls",
    "align.events",
    "taint.records",
    "taint.slices",
    "taint.replays",
    "rules.decisions",
    "rules.hits",
)


class LayerTracer:
    def __init__(self) -> None:
        #: Open spans: [span id, child seconds].
        self._stack: List[list] = []
        self._next_id = 0
        self.sample = ""
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = Counter()
        self.total_s: Dict[str, float] = Counter()
        self.counts: Dict[str, int] = Counter()
        self._saved: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        self.self_s[name] += duration - frame[1]
        self.total_s[name] += duration
        self.spans.append(
            (frame[0], parent[0] if parent else None, self.sample, name, start, end)
        )

    def span(self, name: str, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            frame = self._open()
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, name, start)

        return wrapped

    def sample_span(self, fn: Callable) -> Callable:
        """Root span of one sample (wraps ``AutoVac.analyze``)."""
        span = self.span("pipeline.analyze", fn)

        def analyze(program):
            self.sample = program.name
            return span(program)

        return analyze

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        """Wrap every layer entry point (undone by :meth:`uninstall`)."""
        counts = self.counts
        patch = self._patch
        for cls in STAGES:
            patch(cls, "run", lambda fn, n=cls.name: self.span(f"stage.{n}", fn))

        def cpu_run(fn):
            def run(cpu):
                mode = "vm.record" if cpu.record_instructions else "vm.plain"
                steps, records = cpu.steps, len(cpu.trace.instructions)
                frame = self._open()
                start = _clock()
                try:
                    return fn(cpu)
                finally:
                    self._close(frame, mode, start)
                    counts[f"{mode}.runs"] += 1
                    counts[f"{mode}.steps"] += cpu.steps - steps
                    if cpu.record_instructions:
                        counts["taint.records"] += len(cpu.trace.instructions) - records

            return run

        patch(vm_cpu.CPU, "run", cpu_run)
        patch(vm_cpu, "decoded_program",
              lambda fn: self._counted("vm.decode", "vm.decode.calls", fn))
        patch(vm_superblock, "superblock_cache", lambda fn: self.span("vm.superblock", fn))

        def warm(fn):
            span = self.span("vm.superblock", fn)

            def region_warm(region):
                before = region.cache.compiled
                try:
                    return span(region)
                finally:
                    counts["vm.superblock.compiles"] += region.cache.compiled - before

            return region_warm

        patch(vm_superblock.Region, "warm", warm)
        patch(Dispatcher, "invoke", lambda fn: self._counted("winapi", "winapi.calls", fn))
        patch(VmSnapshot, "capture",
              lambda fn: self._counted("snapshot.capture", "snapshot.captures", fn))
        patch(VmSnapshot, "build_cpu",
              lambda fn: self._counted("snapshot.restore", "snapshot.resumes", fn))
        patch(core_determinism, "backward_slice",
              lambda fn: self._counted("taint.slice", "taint.slices", fn))
        patch(core_determinism, "replay_slice",
              lambda fn: self._counted("taint.replay", "taint.replays", fn))
        patch(ExclusivenessAnalyzer, "filter", lambda fn: self.span("exclusiveness", fn))
        patch(core_stages, "synthesize_policy", lambda fn: self.span("policy.synthesize", fn))
        patch(core_stages, "validate_policy", lambda fn: self.span("policy.validate", fn))
        patch(core_stages, "clinic_test", lambda fn: self.span("clinic", fn))

        def decide(fn):
            span = self.span("rules", fn)

            def engine_decide(engine, event):
                verdict = span(engine, event)
                counts["rules.decisions"] += 1
                if verdict[1] is not None:
                    counts["rules.hits"] += 1
                return verdict

            return engine_decide

        patch(RuleEngine, "decide", decide)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _counted(self, name: str, key: str, fn: Callable) -> Callable:
        """A ``name`` span that also counts its calls under ``key``."""
        span = self.span(name, fn)
        counts = self.counts

        def call(*args, **kwargs):
            counts[key] += 1
            return span(*args, **kwargs)

        return call

    def aligner(self) -> Callable:
        """``align_myers`` wrapped for ``AutoVac(aligner=...)``: the
        pipeline binds its aligner at construction time, so patching the
        module attribute would not reach it."""
        span = self.span("align", align_myers)
        counts = self.counts

        def align(mutated, natural):
            counts["align.calls"] += 1
            counts["align.events"] += len(mutated) + len(natural)
            return span(mutated, natural)

        return align

    # -- results -----------------------------------------------------------

    def work_counts(self) -> Dict[str, int]:
        return {k: self.counts[k] for k in WORK_COUNTS}

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "sample", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(
    counts: List[Dict[str, int]],
    self_s: Dict[str, float],
    total_s: Dict[str, float],
    samples: int,
    executor_s: float,
    scale: float,
) -> Dict[str, tuple]:
    """Per-layer metrics from the traced passes: ``counts`` holds each
    pass's work counts, ``self_s``/``total_s`` the seconds summed over all
    of them, ``samples`` their sample count.  Counts are the first pass's;
    seconds are per pass, stage times per sample.  Seconds are multiplied
    by ``scale``, the machine-speed factor (``executor_s`` already is)."""
    passes = len(counts)
    first = counts[0]
    total = Counter()
    for c in counts:
        total.update(c)
    self_s = Counter({k: v * scale for k, v in self_s.items()})
    total_s = Counter({k: v * scale for k, v in total_s.items()})

    def ratio(num: float, den: float, unit: float = 1.0) -> float:
        return num / den * unit if den else 0.0

    out: Dict[str, tuple] = {
        f"stage.{cls.name}_ms": (ratio(total_s[f"stage.{cls.name}"], samples, 1e3), "ms")
        for cls in STAGES
    }
    out["executor.overhead_ms"] = (ratio(executor_s, samples, 1e3), "ms")
    out.update((key, (first[key], "count")) for key in WORK_COUNTS if key != "rules.hits")
    seconds = {
        "vm.record.self_s": self_s["vm.record"],
        "vm.plain.self_s": self_s["vm.plain"],
        "vm.decode_s": total_s["vm.decode"],
        "vm.superblock.warm_s": self_s["vm.superblock"],
        "winapi.self_s": self_s["winapi"],
        "snapshot.capture_s": total_s["snapshot.capture"],
        "snapshot.restore_s": total_s["snapshot.restore"],
        "align_s": total_s["align"],
        "taint.slice_s": total_s["taint.slice"],
        "taint.replay_s": total_s["taint.replay"],
        "exclusiveness_s": total_s["exclusiveness"],
        "policy.synthesize_s": total_s["policy.synthesize"],
        "policy.validate_s": total_s["policy.validate"],
        "clinic_s": total_s["clinic"],
        "rules.decide_s": total_s["rules"],
    }
    out.update((key, (value / passes, "s")) for key, value in seconds.items())
    for mode in ("vm.record", "vm.plain"):
        out[f"{mode}.ns_per_step"] = (ratio(self_s[mode], total[f"{mode}.steps"], 1e9), "ns")
    out["winapi.us_per_call"] = (ratio(self_s["winapi"], total["winapi.calls"], 1e6), "us")
    out["rules.hit_ratio"] = (ratio(total["rules.hits"], total["rules.decisions"]), "ratio")
    return out

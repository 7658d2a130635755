"""Guards for the benchmark harness itself.

    python3 -m pytest perfbench -q -p no:cacheprovider

Corpus sizes are reduced here so the suite runs in about a minute; the
mechanisms under test (pass construction, tracing, output check, result
line) are the ones the full-size runs use.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTracer  # noqa: E402

ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(autouse=True)
def small_corpora(monkeypatch):
    monkeypatch.setattr(workloads, "SURVEY_SIZE", 16)
    monkeypatch.setattr(workloads, "PACKED_SIZE", 3)


def _traced(name: str, seed: int, observe=None) -> dict:
    wl, first = bench.setup(name, seed)
    out = bench.traced_run(wl, first, seconds=0.0, observe=observe)
    passes = out["passes"]
    assert bench.count_failures(passes, bench.reference_digests(wl, passes)) == 0
    return out


def _objects(p) -> list:
    return list(p.programs) + list(p.autovac.clinic_programs) + [p.autovac]


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_no_two_passes_share_a_program(name):
    seen = []  # holds every pass alive, so ids cannot be recycled
    _traced(name, 1, observe=seen.append)
    wl, first = bench.setup(name, 1)
    bench.timed_run(wl, first, seconds=0.3, observe=seen.append)
    assert len(seen) >= 3
    ids = [{id(obj) for obj in _objects(p)} for p in seen]
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            assert not ids[i] & ids[j], f"passes {i} and {j} share objects"


def test_traced_survey_compiles_like_a_cold_process():
    """The traced pass compiles superblocks, exactly as many as the same
    population analysed once from programs built outside the harness: a
    harness that reused warm programs would compile fewer."""
    out = _traced("survey", 1)
    compiles = out["work_counts"]["vm.superblock.compiles"]
    assert compiles > 0

    from repro import AutoVac
    from repro.core.executor import analyze_population
    from repro.corpus import GeneratorConfig, generate_population

    config = GeneratorConfig(size=workloads.SURVEY_SIZE, seed=1)
    programs = [s.program for s in generate_population(config)]
    tracer = LayerTracer()
    tracer.install()
    try:
        analyze_population(programs, jobs=1, autovac=AutoVac())
    finally:
        tracer.uninstall()
    assert tracer.work_counts()["vm.superblock.compiles"] == compiles


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_work_counts_repeat_for_a_seed(name):
    first = _traced(name, 3)["work_counts"]
    assert first == _traced(name, 3)["work_counts"]
    assert first["winapi.calls"] > 0 and first["vm.plain.steps"] > 0


@pytest.mark.parametrize("name", ["survey", "packed"])
def test_work_counts_follow_the_seed(name):
    assert _traced(name, 3)["work_counts"] != _traced(name, 4)["work_counts"]


def test_certify_exercises_every_layer():
    counts = _traced("certify", 1)["work_counts"]
    for key in ("snapshot.captures", "snapshot.resumes", "align.calls",
                "taint.slices", "taint.replays", "rules.decisions", "taint.records"):
        assert counts[key] > 0, key


def test_a_mismatch_or_failure_counts_as_failed():
    def result(corpus, digests):
        return bench.PassResult(corpus, corpus, 1.0, [], [], digests)

    passes = [
        result(0, {"s1": "a", "s2": "b"}),
        result(0, {"s1": "a", "s2": "x"}),
        result(1, {"s1": "c", "s2": None}),
        result(1, {"s1": "c"}),
    ]
    reference = {0: {"s1": "a", "s2": "b"}, 1: {"s1": "c", "s2": "d"}}
    assert bench.count_failures(passes, reference) == 3
    reference[0]["s1"] = None  # the reference itself failed on s1
    assert bench.count_failures(passes, reference) == 5


def test_survey_passes_cycle_populations_others_repeat_their_corpus():
    corpora = {}
    for name in bench.WORKLOADS:
        wl = workloads.workload(name, 7)
        corpora[name] = [wl.build(k) for k in range(7)]
    survey = corpora["survey"]
    assert [c for c, _ in survey] == list(range(7))
    assert len({tuple(p.disassemble() for p in progs) for _, progs in survey}) == 7
    for name in ("packed", "certify"):
        ids = {c for c, _ in corpora[name]}
        names = {frozenset(p.name for p in progs) for _, progs in corpora[name]}
        assert ids == {0} and len(names) == 1, name
    firsts = [progs[0].name for _, progs in corpora["certify"][:6]]
    assert len(set(firsts)) == 6, "every family leads once per six passes"


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_the_spec(trace, section):
    proc = _run_cli("--workload", "certify", "--seed", "5", "--seconds", "1",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "survey", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

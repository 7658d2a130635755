"""Snapshot-resume equivalence: resumed mutated runs must be
indistinguishable from full reruns.

The snapshot path is a pure optimization — every corpus family, every
sample of a seeded generated population and both evasive programs must
produce a byte-identical encoded ``SampleAnalysis`` (modulo wall-clock
spans) under the default configuration and under the reference one: full
rerun of each mutated run, no superblocks.
"""

from __future__ import annotations

import pytest

from repro.core.candidate import select_candidates
from repro.core.impact import ImpactAnalyzer
from repro.core.pipeline import AutoVac
from repro.core.snapshot import VmSnapshot
from repro.corpus import GeneratorConfig, generate_population
from repro.corpus.evasive import (
    build_control_dependence_evader,
    build_index_launder_evader,
)
from repro.tracing import serialize


def _encoded(analysis) -> dict:
    payload = serialize.analysis_to_dict(analysis)
    payload.pop("span", None)  # wall-clock timings legitimately differ
    # The flight journal records *how* the run executed (snapshot.capture /
    # snapshot.resume events, resumed-vs-rerun mutations) and so differs by
    # design between the two strategies; the equivalence contract covers the
    # analysis results.
    payload.pop("journal", None)
    return payload


FAMILY_NAMES = ["conficker", "zeus", "sality", "qakbot", "ibank", "poisonivy"]

POPULATION_SEED = 23
POPULATION = [
    s.program
    for s in generate_population(GeneratorConfig(size=12, seed=POPULATION_SEED))
]
EVASIVE = [build_control_dependence_evader(), build_index_launder_evader()]
#: Families by family name, generated and evasive programs by program name.
SAMPLE_NAMES = FAMILY_NAMES + [p.name for p in POPULATION + EVASIVE]


@pytest.fixture(scope="module")
def samples(family_programs):
    programs = dict(family_programs)
    programs.update((p.name, p) for p in POPULATION + EVASIVE)
    return programs


@pytest.fixture(scope="module")
def snapshot_analyses(samples):
    """The default configuration: snapshot-resume, superblocks on."""
    av = AutoVac()
    return {name: av.analyze(p) for name, p in samples.items()}


@pytest.fixture(scope="module")
def rerun_analyses(samples):
    """The reference configuration: full rerun, no superblocks."""
    av = AutoVac(snapshot_impact=False, superblock_vm=False)
    return {name: av.analyze(p) for name, p in samples.items()}


@pytest.mark.parametrize("family", SAMPLE_NAMES)
def test_families_identical_under_snapshot_resume(
    family, samples, snapshot_analyses, rerun_analyses
):
    assert family in samples
    assert _encoded(snapshot_analyses[family]) == _encoded(rerun_analyses[family])


def test_families_produce_vaccines(snapshot_analyses):
    # Guard against vacuous equivalence: the snapshot path must still be
    # exercising real Phase-II work for the corpus.
    assert any(a.vaccines for a in snapshot_analyses.values())
    assert any(
        o.mutation_hits > 0 for a in snapshot_analyses.values() for o in a.impacts
    )
    assert any(snapshot_analyses[p.name].vaccines for p in POPULATION)


class TestAnalyzeCandidatesDirect:
    def _candidates(self, program):
        report = select_candidates(program)
        return report, [
            c for c in report.candidates if c.influences_control_flow or c.had_failure
        ]

    @pytest.mark.parametrize("family", ["conficker", "zeus"])
    def test_outcomes_match_legacy_loop(self, family, family_programs):
        program = family_programs[family]
        report, candidates = self._candidates(program)
        assert candidates

        fast = ImpactAnalyzer(snapshot_resume=True).analyze_candidates(
            program, candidates, report.trace
        )
        legacy = ImpactAnalyzer(snapshot_resume=False).analyze_candidates(
            program, candidates, report.trace
        )

        assert len(fast) == len(legacy) == 2 * len(candidates)
        for f, l in zip(fast, legacy):
            assert f.candidate.key == l.candidate.key
            assert f.mechanism == l.mechanism
            assert f.immunization == l.immunization
            assert f.effects == l.effects
            assert f.mutation_hits == l.mutation_hits
            assert [e.context_key() for e in f.alignment.delta_mutated] == [
                e.context_key() for e in l.alignment.delta_mutated
            ]
            assert [e.context_key() for e in f.alignment.delta_natural] == [
                e.context_key() for e in l.alignment.delta_natural
            ]
            assert (
                f.mutated_run.trace.exit_status == l.mutated_run.trace.exit_status
            )
            assert f.mutated_run.trace.steps == l.mutated_run.trace.steps

    def test_resumed_traces_are_complete(self, family_programs):
        """A resumed run's trace contains the shared prefix events too —
        alignment consumes it exactly like a full rerun's trace."""
        program = family_programs["conficker"]
        report, candidates = self._candidates(program)
        fast = ImpactAnalyzer(snapshot_resume=True).analyze_candidates(
            program, candidates, report.trace
        )
        legacy = ImpactAnalyzer(snapshot_resume=False).analyze_candidates(
            program, candidates, report.trace
        )
        for f, l in zip(fast, legacy):
            assert [e.context_key() for e in f.mutated_run.trace.api_calls] == [
                e.context_key() for e in l.mutated_run.trace.api_calls
            ]
            assert [e.event_id for e in f.mutated_run.trace.api_calls] == [
                e.event_id for e in l.mutated_run.trace.api_calls
            ]

    def test_no_candidates_short_circuits(self, family_programs):
        program = family_programs["conficker"]
        report, _ = self._candidates(program)
        assert ImpactAnalyzer().analyze_candidates(program, [], report.trace) == []

    def test_capture_refuses_a_recording_run(self, family_programs):
        """A resume never records or carries taint, so a checkpoint of the
        recording (Phase-I) run would silently drop both."""
        report, _ = self._candidates(family_programs["conficker"])
        cpu = report.run.cpu
        assert cpu.record_instructions and cpu._taint_live()
        with pytest.raises(ValueError, match="recording"):
            VmSnapshot.capture(cpu, report.trace.api_calls[-1])

"""Snapshot-resume equivalence: resumed mutated runs must be
indistinguishable from full reruns.

The snapshot path is a pure optimization — every corpus family must
produce a byte-identical encoded ``SampleAnalysis`` (modulo wall-clock
spans) whether Phase-II impact analysis resumes from checkpoints or
re-executes each mutated run from scratch.
"""

from __future__ import annotations

import pytest

from repro.core.candidate import select_candidates
from repro.core.impact import ImpactAnalyzer
from repro.core.pipeline import AutoVac
from repro.core.snapshot import VmSnapshot, pickle_env_overridden
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


@pytest.fixture(scope="module")
def snapshot_analyses(family_programs):
    av = AutoVac(snapshot_impact=True)
    return {name: av.analyze(p) for name, p in family_programs.items()}


@pytest.fixture(scope="module")
def rerun_analyses(family_programs):
    av = AutoVac(snapshot_impact=False)
    return {name: av.analyze(p) for name, p in family_programs.items()}


@pytest.fixture(scope="module")
def pickle_blob_analyses(family_programs):
    """Snapshot-resume again, but with the legacy pickle-blob environment
    capture forced — the third leg of the equivalence triangle."""
    av = AutoVac(snapshot_impact=True)
    with pickle_env_overridden(True):
        return {name: av.analyze(p) for name, p in family_programs.items()}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_families_identical_under_snapshot_resume(
    family, family_programs, snapshot_analyses, rerun_analyses
):
    assert family in family_programs
    assert _encoded(snapshot_analyses[family]) == _encoded(rerun_analyses[family])


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_families_identical_under_pickle_blob_capture(
    family, snapshot_analyses, pickle_blob_analyses
):
    # Structured restore vs the legacy blob: with the rerun equivalence
    # above, this closes the three-way triangle per family.
    assert _encoded(pickle_blob_analyses[family]) == _encoded(
        snapshot_analyses[family]
    )


def test_families_produce_vaccines(snapshot_analyses):
    # Guard against vacuous equivalence: the snapshot path must still be
    # exercising real Phase-II work for the corpus.
    assert any(a.vaccines for a in snapshot_analyses.values())
    assert any(
        o.mutation_hits > 0 for a in snapshot_analyses.values() for o in a.impacts
    )


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

"""Hot-path profiler (``repro.obs.prof``): collection, determinism, merge,
export formats, and the CLI/report surfaces (PR 9).

The load-bearing property is *determinism*: a profile's path set and counts
depend only on what executed, so ``jobs=1`` and ``jobs=2`` runs of the same
corpus slice produce identical trees (wall times differ, structure and
counts do not).  That is what makes profiles mergeable across workers the
way metrics snapshots already are.
"""

from __future__ import annotations

import json

import pytest

from repro import AutoVac, obs
from repro.cli import main as cli_main
from repro.core.executor import PipelineConfig, analyze_population
from repro.core.report import render_report
from repro.corpus import GeneratorConfig, build_family, generate_population
from repro.obs.prof import (
    Profiler,
    merge_profiles,
    render_table,
    to_folded,
    to_tree,
)
from repro.tracing import serialize
from repro.vm import CPU, assemble
from repro.winapi import Dispatcher
from repro.winenv import SystemEnvironment


@pytest.fixture(autouse=True)
def _clean_prof():
    """Profiling is opt-in; every test starts and ends with it off/empty."""
    obs.prof.enabled = False
    obs.prof.reset()
    yield
    obs.prof.enabled = False
    obs.prof.reset()


def counts(profile):
    """The deterministic projection of a profile: path -> count."""
    return {path: cell[0] for path, cell in profile.items()}


# ---------------------------------------------------------------------------
# unit: Profiler core
# ---------------------------------------------------------------------------


class TestProfilerCore:
    def test_disabled_add_is_noop(self):
        p = Profiler()
        p.add("vm;slow", 1.0)
        assert len(p) == 0 and p.snapshot() == {}

    def test_add_accumulates(self):
        p = Profiler()
        p.enabled = True
        p.add("vm;slow", 0.5, count=3)
        p.add("vm;slow", 0.25)
        assert p.snapshot() == {"vm;slow": [4, 0.75]}

    def test_timed_context(self):
        p = Profiler()
        p.enabled = True
        with p.timed("rules;daemon"):
            pass
        ((count, seconds),) = p.snapshot().values()
        assert count == 1 and seconds >= 0.0

    def test_mark_since_delta(self):
        p = Profiler()
        p.enabled = True
        p.add("api;X", 1.0)
        mark = p.mark()
        p.add("api;X", 0.5)
        p.add("api;Y", 0.25, count=2)
        assert p.since(mark) == {"api;X": [1, 0.5], "api;Y": [2, 0.25]}

    def test_absorb_not_gated_on_enabled(self):
        p = Profiler()  # disabled: absorb is data plumbing, not collection
        p.absorb({"vm;fast": [7, 0.5]})
        p.absorb({"vm;fast": [3, 0.25], "vm;slow": [1, 0.1]})
        assert p.snapshot() == {"vm;fast": [10, 0.75], "vm;slow": [1, 0.1]}

    def test_merge_profiles_commutative(self):
        a = {"vm;slow": [2, 0.2], "api;X": [1, 0.1]}
        b = {"vm;slow": [3, 0.3], "api;Y": [4, 0.4]}
        assert merge_profiles(a, b) == merge_profiles(b, a, None)

    def test_reset_keeps_enabled(self):
        p = Profiler()
        p.enabled = True
        p.add("x", 1.0)
        p.reset()
        assert p.enabled and len(p) == 0


class TestExportFormats:
    PROFILE = {
        "api;Open": [4, 0.4],
        "api;Open;read_args": [4, 0.1],
        "vm;slow": [100, 1.0],
    }

    def test_tree_self_time(self):
        tree = to_tree(self.PROFILE)
        by_name = {node["name"]: node for node in tree}
        api = by_name["api"]  # synthesized interior frame
        assert api["total_seconds"] == pytest.approx(0.4)
        assert api["self_seconds"] == 0.0
        open_node = api["children"][0]
        assert open_node["count"] == 4
        # own cell minus the read_args child
        assert open_node["self_seconds"] == pytest.approx(0.3)
        assert by_name["vm"]["children"][0]["self_seconds"] == pytest.approx(1.0)

    def test_folded_is_self_microseconds(self):
        lines = dict(
            line.rsplit(" ", 1) for line in to_folded(self.PROFILE).splitlines()
        )
        assert lines["api;Open"] == "300000"  # 0.4 total - 0.1 child
        assert lines["api;Open;read_args"] == "100000"
        assert lines["vm;slow"] == "1000000"

    def test_render_table_top(self):
        text = render_table(self.PROFILE, top=1)
        assert "vm;slow" in text and "api;Open" not in text

    def test_render_table_empty(self):
        assert "no profile data" in render_table({})


# ---------------------------------------------------------------------------
# pipeline collection + codec
# ---------------------------------------------------------------------------


class TestPipelineCollection:
    def test_analysis_carries_profile_with_expected_nodes(self):
        with obs.profiled():
            analysis = AutoVac().analyze(build_family("conficker"))
        profile = analysis.profile
        assert profile
        paths = set(profile)
        assert "vm;slow" in paths
        assert any(p.startswith("api;") for p in paths)
        assert any(p.endswith(";read_args") for p in paths)
        assert "snapshot;capture;env_snapshot" in paths
        assert "snapshot;resume;env_restore" in paths

    def test_profile_off_analysis_has_none(self):
        analysis = AutoVac().analyze(build_family("sality"))
        assert analysis.profile is None

    def test_codec_roundtrip_preserves_profile(self):
        with obs.profiled():
            analysis = AutoVac().analyze(build_family("sality"))
        decoded = serialize.analysis_from_dict(
            json.loads(serialize.analysis_to_json(analysis))
        )
        assert decoded.profile == analysis.profile


class TestVmAttribution:
    """Superblock compiles get their own ``vm;superblock;compile`` node,
    one count per compile, instead of hiding in the tier that warmed."""

    LOOP = (
        "main:\n    mov ecx, 300\nspin:\n    mov eax, ecx\n    imul eax, 13\n"
        "    add ebx, eax\n    dec ecx\n    jnz spin\n"
        "    mov edx, ebx\n    mov esi, 7\n    halt\n"
    )
    # An API call, then a loop too short to reach the default threshold.
    COLD = (
        ".section .data\nbuf: .space 16\n.section .text\n"
        "    push 0\n    push buf\n    call @GetComputerNameA\n"
        "    mov ecx, 40\n    xor ebx, ebx\n"
        "spin:\n    mov eax, ecx\n    imul eax, 13\n    add ebx, eax\n"
        "    dec ecx\n    jnz spin\n"
        "    mov edx, ebx\n    mov esi, 7\n    halt\n"
    )

    def _profile(self, src, **kwargs):
        obs.reset()
        env = SystemEnvironment()
        proc = env.spawn_process("t.exe")
        cpu = CPU(
            assemble(src), environment=env, process=proc,
            dispatcher=Dispatcher(env, proc), record_instructions=False,
            superblocks=True, **kwargs,
        )
        with obs.profiled():
            cpu.run()
        return obs.prof.snapshot(), obs.metrics.total("vm.superblocks.compiled")

    def test_eager_compile_node_counts_compiles(self):
        profile, compiled = self._profile(self.LOOP, superblock_threshold=0)
        assert compiled >= 2
        count, seconds = profile["vm;superblock;compile"]
        assert count == compiled
        assert seconds > 0.0

    def test_cold_run_has_no_compile_node(self):
        profile, compiled = self._profile(self.COLD)
        assert compiled == 0
        assert "vm;superblock;compile" not in profile


FAMILY_NAMES = ["conficker", "zeus", "sality", "qakbot", "ibank", "poisonivy"]


def _encoded_results(analysis) -> dict:
    """The analysis minus how it was observed: wall-clock spans, the flight
    journal and the profile itself."""
    payload = serialize.analysis_to_dict(analysis)
    for key in ("span", "journal", "profile"):
        payload.pop(key, None)
    return payload


class TestProfileAgreesWithMetrics:
    """Profile tier counts and VM metrics come from the same step counters,
    flushed at the same place — including runs an interceptor aborts by
    raising (forced re-execution stops at the captured identifier)."""

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_tier_counts_match_vm_metrics(self, family):
        obs.reset()
        with obs.profiled():
            AutoVac().analyze(build_family(family))
        profile = obs.prof.snapshot()
        slow = profile.get("vm;slow", [0])[0]
        fast = profile.get("vm;fast", [0])[0]
        assert slow + fast == obs.metrics.total("vm.instructions")
        assert fast == obs.metrics.total("vm.fast_steps")


class TestProfiledParity:
    """Profiling observes; it never changes a result."""

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_profiled_analysis_equals_unprofiled(self, family):
        plain = AutoVac().analyze(build_family(family))
        with obs.profiled():
            profiled = AutoVac().analyze(build_family(family))
        assert profiled.profile and plain.profile is None
        assert _encoded_results(profiled) == _encoded_results(plain)


class TestDeterminismAcrossJobs:
    SIZE = 4
    SEED = 11

    def _survey(self, jobs, run_dir=None):
        programs = [
            s.program
            for s in generate_population(GeneratorConfig(size=self.SIZE, seed=self.SEED))
        ]
        obs.reset()
        obs.prof.enabled = False
        result = analyze_population(
            programs,
            config=PipelineConfig(profile=True),
            jobs=jobs,
            run_dir=run_dir,
        )
        return result, obs.prof.snapshot()

    def test_jobs2_tree_matches_jobs1(self):
        seq, seq_profile = self._survey(jobs=1)
        par, par_profile = self._survey(jobs=2)
        assert not seq.failures and not par.failures
        assert set(seq_profile) == set(par_profile)
        assert counts(seq_profile) == counts(par_profile)
        # per-sample deltas are identical too (by sample name)
        seq_by_name = {a.program.name: a.profile for a in seq.analyses}
        par_by_name = {a.program.name: a.profile for a in par.analyses}
        assert {n: counts(p) for n, p in seq_by_name.items()} == {
            n: counts(p) for n, p in par_by_name.items()
        }

    def test_profile_jsonl_written(self, tmp_path):
        run_dir = tmp_path / "run"
        result, profile = self._survey(jobs=1, run_dir=run_dir)
        assert profile
        rows = [
            json.loads(line)
            for line in (run_dir / "profile.jsonl").read_text().splitlines()
        ]
        kinds = [row["kind"] for row in rows]
        assert kinds.count("sample.profile") == len(result.analyses)
        assert kinds[-1] == "run.profile"
        merged = merge_profiles(
            *(row["profile"] for row in rows if row["kind"] == "sample.profile")
        )
        assert counts(merged) == counts(rows[-1]["profile"])


# ---------------------------------------------------------------------------
# surfaces: CLI, report, stats
# ---------------------------------------------------------------------------


class TestSurfaces:
    def test_cli_profile_table(self, capsys):
        assert cli_main(["profile", "conficker", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "hot paths for conficker" in out
        assert "vm;slow" in out

    def test_cli_profile_json_tree(self, capsys):
        assert cli_main(["profile", "conficker", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sample"] == "conficker"
        names = {node["name"] for node in doc["tree"]}
        assert {"vm", "api", "snapshot"} <= names

    def test_cli_profile_folded(self, capsys):
        assert cli_main(["profile", "conficker", "--folded"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path and int(value) >= 0

    def test_report_hot_paths_section(self):
        with obs.profiled():
            analysis = AutoVac().analyze(build_family("conficker"))
        report = render_report(analysis)
        assert "## Hot paths" in report
        assert "vm;slow" in report

    def test_stats_renders_profile_and_tiers(self, tmp_path, capsys):
        with obs.profiled():
            AutoVac().analyze(build_family("conficker"))
        snap = tmp_path / "m.json"
        obs.export_json(snap)
        assert cli_main(["stats", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "== hot paths ==" in out
        assert "== vm execution tiers ==" in out
        assert "superblocks:" in out

    def test_prometheus_span_quantiles(self, tmp_path, capsys):
        AutoVac().analyze(build_family("sality"))
        snap = tmp_path / "m.json"
        obs.export_json(snap)
        assert cli_main(["stats", str(snap), "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_span_seconds summary" in out
        assert 'repro_span_seconds{span="pipeline.analyze",quantile="0.5"}' in out
        assert 'repro_span_seconds_count{span="pipeline.analyze"}' in out

    def test_tail_interval_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["tail", "--help"])
        assert "--interval" in capsys.readouterr().out

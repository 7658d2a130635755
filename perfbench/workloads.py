"""The three benchmark workloads, each a pure function of its seed.

A workload hands out one *pass* at a time: a freshly built corpus and a
freshly constructed ``AutoVac``.  Nothing built for one pass is reused by
another, so the per-``Program`` decode and superblock caches (and the
benign suite's) start cold in every pass, as they do for a user who
surveys a new corpus in a new process.

* ``survey``  -- ``generate_population``: the paper's Table-II mix.  Pass
  ``k`` surveys population ``seed + 1_000_000 * k``: one population's work
  varies by about 8% with its seed, and a run that averages several
  populations is steadier from seed to seed.
* ``packed``  -- long untainted unpack loop, then 1-3 mutex markers, a
  beacon and persistence (the impact bench sample, varied by seed).
* ``certify`` -- the six hand-written families, analysed with
  ``run_clinic=True`` against ``benign_suite()`` in seed-shuffled order.
  The first sample of a pass pays for the cold benign suite, so one fixed
  order would tie the latency percentiles to the seed: every six passes
  rotate one shuffled order through all six starting points.

Every workload also builds the *reference* pipeline: the simple
configuration (full rerun, no superblocks) whose analyses are the
specification the timed configuration must reproduce byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro import AutoVac
from repro.corpus import (
    FAMILIES,
    GeneratorConfig,
    benign_suite,
    build_family,
    generate_population,
)
from repro.corpus.builder import (
    MUTEX_ALL_ACCESS,
    AsmBuilder,
    frag_beacon,
    frag_exit,
    frag_persist_run_key,
)
from repro.vm.program import Program

#: Samples per ``survey`` pass (``GeneratorConfig``'s default size).
SURVEY_SIZE = 200
#: Samples per ``packed`` pass.
PACKED_SIZE = 24
#: Unpack-loop rounds per ``packed`` sample (6 instructions per round).
PACKED_ROUNDS = (1000, 3000)

Corpus = Tuple[int, List[Program]]


@dataclass
class Pass:
    index: int
    #: Passes with the same corpus id analyse the same samples.
    corpus: int
    programs: List[Program]
    autovac: AutoVac


@dataclass
class Workload:
    name: str
    seed: int
    #: Pass index -> (corpus id, a freshly built corpus).
    build: Callable[[int], Corpus]
    clinic: bool

    def fresh_pass(self, index: int, **autovac_kwargs) -> Pass:
        """Pass ``index``: a new corpus and a new pipeline, sharing no
        object with any other pass."""
        if self.clinic:
            autovac_kwargs.update(run_clinic=True, clinic_programs=benign_suite())
        corpus, programs = self.build(index)
        return Pass(index, corpus, programs, AutoVac(**autovac_kwargs))

    def reference_pass(self, index: int) -> Pass:
        """Pass ``index``'s corpus under the simple (specification)
        configuration."""
        return self.fresh_pass(index, snapshot_impact=False, superblock_vm=False)


def packed_sample(rng: random.Random, name: str, rounds: int, markers: int) -> Program:
    """An untainted unpack loop of ``rounds`` rounds, then ``markers`` mutex
    infection markers, a C&C beacon and Run-key persistence."""
    b = AsmBuilder(name)
    b.comment("unpack-style compute preamble")
    b.emit(f"    mov ecx, {rounds}")
    loop = b.label("unpack")
    b.emit(
        "    mov eax, ecx",
        f"    imul eax, {rng.choice((13, 17, 31, 37))}",
        f"    xor eax, {hex(rng.randrange(1, 0xFFFF))}",
        "    add ebx, eax",
        "    dec ecx",
        f"    jnz {loop}",
    )
    infected = "infected"
    tag = f"{rng.randrange(16 ** 6):06x}"
    for i in range(markers):
        marker = b.string(f"Global\\pk-{tag}-{i}")
        b.call("OpenMutexA", hex(MUTEX_ALL_ACCESS), "0", marker)
        b.emit("    test eax, eax", f"    jnz {infected}")
        b.call("CreateMutexA", "0", "0", marker)
    frag_beacon(
        b,
        f"c2-{tag}.example-domain.biz",
        rounds=rng.randint(2, 5),
        payload=rng.choice(("SCAN", "PING", "HELO")),
    )
    frag_persist_run_key(b, f"svc{tag}", f"c:\\windows\\system32\\{tag}.exe")
    b.emit("    halt")
    b.label(infected)
    frag_exit(b, 0)
    return b.build(family="packed", category="packed")


def _survey(seed: int, index: int) -> Corpus:
    config = GeneratorConfig(size=SURVEY_SIZE, seed=seed + 1_000_000 * index)
    return index, [sample.program for sample in generate_population(config)]


def _packed(seed: int, index: int) -> Corpus:
    """Sample ``i`` of the seeded order takes stratum ``s`` of
    ``PACKED_ROUNDS`` (a seeded loop length inside it) and ``1 + s % 3``
    markers: every sample differs per seed, but the spread of per-sample
    work, and with it the latency percentiles, barely does."""
    rng = random.Random(f"packed:{seed}")
    lo, hi = PACKED_ROUNDS
    strata = list(range(PACKED_SIZE))
    rng.shuffle(strata)
    return 0, [
        packed_sample(
            rng,
            f"packed_{i:03d}",
            rounds=lo + int((hi - lo) * (s + rng.random()) / PACKED_SIZE),
            markers=1 + s % 3,
        )
        for i, s in enumerate(strata)
    ]


def _certify(seed: int, index: int) -> Corpus:
    names = sorted(FAMILIES)
    block, start = divmod(index, len(names))
    random.Random(f"certify:{seed}:{block}").shuffle(names)
    return 0, [build_family(name) for name in names[start:] + names[:start]]


_BUILDERS = {
    "survey": (_survey, False),
    "packed": (_packed, False),
    "certify": (_certify, True),
}


def workload(name: str, seed: int) -> Workload:
    build, clinic = _BUILDERS[name]
    return Workload(name, seed, lambda index: build(seed, index), clinic)

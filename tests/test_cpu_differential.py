"""Differential testing: the CPU against an independent Python model.

Hypothesis generates random straight-line ALU programs; both the VM and a
direct Python evaluator execute them, and the final register files must
agree.  This is the strongest guard on interpreter semantics (the taint and
slicing layers all sit on top of them).
"""

from __future__ import annotations

from contextlib import nullcontext

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.vm import CPU, assemble
from repro.vm.superblock import DEFAULT_THRESHOLD

REGS = ("eax", "ebx", "ecx", "edx", "esi", "edi")
MASK = 0xFFFFFFFF


def _model_step(state: dict, mnemonic: str, dst: str, src) -> None:
    value = state[src] if isinstance(src, str) else src
    if mnemonic == "mov":
        state[dst] = value & MASK
    elif mnemonic == "add":
        state[dst] = (state[dst] + value) & MASK
    elif mnemonic == "sub":
        state[dst] = (state[dst] - value) & MASK
    elif mnemonic == "xor":
        state[dst] = (state[dst] ^ value) & MASK
    elif mnemonic == "and":
        state[dst] = state[dst] & value & MASK
    elif mnemonic == "or":
        state[dst] = (state[dst] | value) & MASK
    elif mnemonic == "imul":
        state[dst] = (state[dst] * value) & MASK
    elif mnemonic == "shl":
        state[dst] = (state[dst] << (value & 0x1F)) & MASK
    elif mnemonic == "shr":
        state[dst] = (state[dst] >> (value & 0x1F)) & MASK
    elif mnemonic == "inc":
        state[dst] = (state[dst] + 1) & MASK
    elif mnemonic == "dec":
        state[dst] = (state[dst] - 1) & MASK
    elif mnemonic == "neg":
        state[dst] = (-state[dst]) & MASK
    elif mnemonic == "not":
        state[dst] = (~state[dst]) & MASK


binary_ops = st.sampled_from(["mov", "add", "sub", "xor", "and", "or", "imul", "shl", "shr"])
unary_ops = st.sampled_from(["inc", "dec", "neg", "not"])
registers = st.sampled_from(REGS)
immediates = st.integers(min_value=0, max_value=0xFFFFFFFF)

binary_instr = st.tuples(binary_ops, registers, st.one_of(registers, immediates))
unary_instr = st.tuples(unary_ops, registers, st.none())
instructions = st.lists(st.one_of(binary_instr, unary_instr), min_size=1, max_size=30)


@given(instructions)
@settings(max_examples=200, deadline=None)
def test_cpu_matches_python_model(instrs):
    lines = []
    model = {r: 0 for r in REGS}
    for mnemonic, dst, src in instrs:
        if src is None:
            lines.append(f"    {mnemonic} {dst}")
        elif isinstance(src, str):
            lines.append(f"    {mnemonic} {dst}, {src}")
        else:
            lines.append(f"    {mnemonic} {dst}, {src}")
        _model_step(model, mnemonic, dst, src)
    src_text = "main:\n" + "\n".join(lines) + "\n    halt\n"
    cpu = CPU(assemble(src_text), max_steps=1000)
    cpu.run()
    assert cpu.status.value == "halted"
    for reg in REGS:
        assert cpu.regs[reg] == model[reg], (reg, src_text)


@given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_push_pop_lifo(values):
    push_lines = "\n".join(f"    push {v}" for v in values)
    pop_lines = "\n".join("    pop eax" for _ in values)
    cpu = CPU(assemble(f"main:\n{push_lines}\n{pop_lines}\n    halt\n"))
    cpu.run()
    assert cpu.regs["eax"] == values[0]  # last popped = first pushed


@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=100, deadline=None)
def test_comparison_flags_match_semantics(a, b):
    cpu = CPU(assemble(
        f"main:\n    mov eax, {a}\n    cmp eax, {b}\n    halt\n"))
    cpu.run()
    assert cpu.flags["zf"] == (1 if a == b else 0)
    assert cpu.flags["cf"] == (1 if a < b else 0)
    assert cpu.flags["sf"] == (1 if ((a - b) & 0x80000000) else 0)


@given(st.integers(min_value=0, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=60, deadline=None)
def test_unsigned_branch_picks_correct_path(a, b):
    cpu = CPU(assemble(
        f"main:\n    mov eax, {a}\n    cmp eax, {b}\n    jb below\n"
        "    mov ebx, 2\n    halt\nbelow:\n    mov ebx, 1\n    halt\n"))
    cpu.run()
    assert cpu.regs["ebx"] == (1 if a < b else 2)


# ---------------------------------------------------------------------------
# execution-tier parity: slow / fast / superblocks must be indistinguishable
# ---------------------------------------------------------------------------

def _final_state(cpu):
    return (cpu.status, cpu.steps, cpu.pc, dict(cpu.regs), dict(cpu.flags))


def _run_all_tiers(src: str, max_steps: int = 20_000):
    """Final machine state under each execution configuration.

    * slow — recording interpreter (tier 1);
    * fast — predecoded per-instruction loop, superblocks off (tier 2);
    * sb-eager — superblocks on with threshold 0 (every region compiles on
      first entry, the harshest tier-3 coverage);
    * sb-default — superblocks at the default hotness threshold;
    * sb-eager-profiled — sb-eager under ``obs.profiled()``: the profiler's
      segment timers must not change what the machine computes.

    Each configuration assembles its own Program: the superblock cache
    lives on the Program, and sb-default must not inherit sb-eager's
    compiled regions.  Also returns how many regions sb-default compiled.
    """
    states = {}
    compiled = 0
    for label, kwargs in (
        ("slow", dict(record_instructions=True)),
        ("fast", dict(record_instructions=False, superblocks=False)),
        ("sb-eager", dict(record_instructions=False, superblocks=True,
                          superblock_threshold=0)),
        ("sb-default", dict(record_instructions=False, superblocks=True)),
        ("sb-eager-profiled", dict(record_instructions=False, superblocks=True,
                                   superblock_threshold=0)),
    ):
        cpu = CPU(assemble(src), max_steps=max_steps, **kwargs)
        with obs.profiled() if label.endswith("-profiled") else nullcontext():
            cpu.run()
        states[label] = _final_state(cpu)
        if label == "sb-default":
            compiled = cpu._superblocks.compiled
    return states, compiled


def _assert_tier_parity(states):
    reference = states["slow"]
    for label, state in states.items():
        assert state == reference, (label, state, reference)


loop_bodies = st.lists(
    st.one_of(binary_instr, unary_instr), min_size=1, max_size=8
)

#: Loop work as a fraction of ``DEFAULT_THRESHOLD`` steps: below 1 the
#: sb-default loop stays cold, above 1 it compiles mid-loop.
threshold_fractions = st.floats(min_value=0.5, max_value=2.0)


@given(loop_bodies, threshold_fractions, instructions)
@settings(max_examples=60, deadline=None)
def test_tier_parity_on_random_looped_programs(body, fraction, tail):
    """Random back-edge loops + straight-line tails agree across all tiers,
    with trip counts that straddle the default hotness threshold."""
    def fmt(instr):
        mnemonic, dst, src = instr
        if src is None:
            return f"    {mnemonic} {dst}"
        return f"    {mnemonic} {dst}, {src}"

    body = [i for i in body if i[1] != "ebp"]
    loop_len = len(body) + 2
    rounds = max(1, round(fraction * DEFAULT_THRESHOLD / loop_len))
    src = (
        "main:\n"
        + f"    mov ebp, {rounds}\n"
        + "loop:\n"
        + "\n".join(fmt(i) for i in body)
        + "\n    dec ebp\n    jnz loop\n"
        + "\n".join(fmt(i) for i in tail)
        + "\n    halt\n"
    )
    states, compiled = _run_all_tiers(src)
    _assert_tier_parity(states)
    if rounds * loop_len >= DEFAULT_THRESHOLD + loop_len:
        assert compiled >= 1  # sb-default really ran the compiled tier


@given(st.integers(min_value=2, max_value=64), threshold_fractions)
@settings(max_examples=30, deadline=None)
def test_tier_parity_with_taint_points(length, fraction):
    """A buffer filled by a labelled API call, hashed in a loop repeated so
    the hash work straddles the default hotness threshold.  The recording
    run carries the buffer's taint on the slow path and is the reference:
    the untainted tiers (fast loop, superblocks) must finish in its exact
    state."""
    # One hash pass over the default computer name is 120 steps, ~60 in
    # each of the loop's two regions.
    repeats = max(1, round(fraction * DEFAULT_THRESHOLD / 60))
    from repro.winapi import Dispatcher
    from repro.winenv import SystemEnvironment

    src = (
        ".section .data\n"
        f"buf: .space {length + 4}\n"
        ".section .text\n"
        "    push 0\n"
        f"    push buf\n"
        "    call @GetComputerNameA\n"
        f"    mov edi, {repeats}\n"
        "again:\n"
        "    xor esi, esi\n"
        "    mov ebx, 5381\n"
        "hash:\n"
        "    xor eax, eax\n"
        "    movb eax, [buf+esi]\n"
        "    test eax, eax\n"
        "    jz done\n"
        "    imul ebx, 33\n"
        "    add ebx, eax\n"
        "    inc esi\n"
        "    jmp hash\n"
        "done:\n"
        "    dec edi\n"
        "    jnz again\n"
        "    halt\n"
    )
    states = {}
    compiled = 0
    for label, kwargs in (
        ("slow", dict(record_instructions=True)),
        ("fast", dict(record_instructions=False, superblocks=False)),
        ("sb-eager", dict(record_instructions=False, superblocks=True, superblock_threshold=0)),
        ("sb-default", dict(record_instructions=False, superblocks=True)),
    ):
        env = SystemEnvironment()
        proc = env.spawn_process("t.exe")
        cpu = CPU(
            assemble(src),  # a fresh superblock cache per configuration
            environment=env,
            process=proc,
            dispatcher=Dispatcher(env, proc),
            **kwargs,
        )
        cpu.run()
        states[label] = _final_state(cpu)
        if label == "slow":
            assert cpu.trace.predicates  # the hash really ran on tainted bytes
        else:
            assert not cpu._taint_live()
        if label == "sb-default":
            compiled = cpu._superblocks.compiled
    assert states["fast"] == states["slow"]
    assert states["sb-eager"] == states["slow"]
    assert states["sb-default"] == states["slow"]
    if fraction >= 1.2:
        assert compiled >= 1  # sb-default really ran the compiled tier

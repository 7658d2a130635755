"""Interpreting CPU with inline forward taint propagation.

The CPU executes one :class:`Program` inside one guest process.  It is the
DynamoRIO-replacement: in a recording run (Phase I) every step records a
def/use :class:`~repro.tracing.events.InstructionRecord` (for backward
slicing), labelled API calls mint taint, and every tainted ``cmp``/``test``
records a :class:`~repro.tracing.events.TaintedPredicateEvent` (Phase-I
candidate signal).  Every other run is untainted and compares API-call
traces only.  API calls trap into an injected dispatcher.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, List, Optional, Tuple

from .. import obs
from ..taint.labels import EMPTY, TagSet, union
from ..tracing.events import ApiCallEvent, InstructionRecord, TaintedPredicateEvent
from ..tracing.trace import Trace
from . import superblock as superblock_mod
from .decode import decoded_program
from .memory import Memory, MemoryFault, STACK_TOP, TEXT_BASE
from .operands import ApiRef, Imm, Mem, Operand, Reg, mask32, to_signed
from .program import Program


class ExitStatus(enum.Enum):
    RUNNING = "running"
    HALTED = "halted"            # program ran off its own accord (halt)
    TERMINATED = "terminated"    # ExitProcess/TerminateProcess on itself
    BUDGET = "budget_exhausted"  # paper's 1-minute cap analogue
    FAULT = "fault"              # crash (bad memory, bad jump…)


class CpuFault(Exception):
    """Internal faults that end the run with ``ExitStatus.FAULT``."""


class _VmFlushCache:
    """Counter handles reused by ``CPU._flush_obs`` across runs.

    Keyed on the obs registry generation the same way as
    ``Dispatcher._FlushCache``: ``obs.reset()`` bumps ``metrics.generation``
    and discards the counter families these handles point into, so a
    generation mismatch drops every handle.
    """

    __slots__ = (
        "generation",
        "instructions",
        "api_calls",
        "tainted_predicates",
        "fast_steps",
        "sb_compiled",
        "sb_entries",
        "sb_guard_exits",
        "runs",
    )

    def __init__(self) -> None:
        self.generation = -1
        self.instructions = None
        self.api_calls = None
        self.tainted_predicates = None
        self.fast_steps = None
        self.sb_compiled = None
        self.sb_entries = None
        self.sb_guard_exits = None
        #: status value -> vm.runs counter handle.
        self.runs: dict = {}

    def refresh(self, metrics) -> None:
        if self.generation != metrics.generation:
            self.generation = metrics.generation
            self.instructions = metrics.counter("vm.instructions")
            self.api_calls = metrics.counter("vm.api_calls")
            self.tainted_predicates = metrics.counter("vm.tainted_predicates")
            self.fast_steps = metrics.counter("vm.fast_steps")
            self.sb_compiled = metrics.counter("vm.superblocks.compiled")
            self.sb_entries = metrics.counter("vm.superblocks.entries")
            self.sb_guard_exits = metrics.counter("vm.superblocks.guard_exits")
            self.runs = {}


_VM_FLUSH_CACHE = _VmFlushCache()


class CPU:
    """One guest hardware thread.

    Parameters
    ----------
    program:
        Assembled guest program.
    dispatcher:
        Object with ``invoke(cpu, api_name) -> None`` handling ``call @Api``
        (the winapi layer).  May be ``None`` for pure computations.
    process:
        The :class:`~repro.winenv.processes.Process` this program runs as.
    max_steps:
        Execution budget; the paper caps profiling runs at one minute, we cap
        at an instruction count.
    record_instructions:
        Make this the recording run: keep per-step def/use records (for
        backward slicing) *and* carry taint — labelled API calls mint tags
        only when this is on (see ``ApiContext.mint_tag``).  Off, the run
        is untainted and executes on the fast tiers; taint injected by hand
        before ``run()`` still propagates, on the slow path.
    taint_addresses:
        Pointer-taint policy (off by default, matching the paper): when on,
        a memory load's result also carries the taint of the registers used
        to *compute the address*, defeating table-lookup taint laundering
        (``movb eax, [table+tainted_index]``) at the cost of over-tainting —
        the §VII trade-off.
    """

    def __init__(
        self,
        program: Program,
        environment=None,
        process=None,
        dispatcher=None,
        max_steps: int = 200_000,
        record_instructions: bool = True,
        trace: Optional[Trace] = None,
        taint_addresses: bool = False,
        superblocks: Optional[bool] = None,
        superblock_threshold: Optional[int] = None,
    ) -> None:
        self.program = program
        self.environment = environment
        self.process = process
        self.dispatcher = dispatcher
        self.max_steps = max_steps
        self.record_instructions = record_instructions
        # Def/use accumulation only feeds InstructionRecords; skip the
        # per-access bookkeeping entirely when nothing consumes it.
        self._track = record_instructions
        self.taint_addresses = taint_addresses

        self.memory = Memory()
        program.load_into(self.memory)

        self.regs = {name: 0 for name in ("eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp")}
        self.reg_taint = {name: EMPTY for name in self.regs}
        self.regs["esp"] = STACK_TOP
        self.regs["ebp"] = STACK_TOP

        self.flags = {"zf": 0, "sf": 0, "cf": 0}
        self.flag_taint: TagSet = EMPTY

        self.pc = program.entry
        self.steps = 0
        self.status = ExitStatus.RUNNING
        self.fault_reason: Optional[str] = None
        self.callstack: List[int] = []

        self.trace = trace if trace is not None else Trace(program_name=program.name)
        self.trace.program_name = program.name

        # Per-step def/use accumulators (reset each step).
        self._uses: List[Tuple] = []
        self._defs: List[Tuple] = []
        self._api_step_recorded = False
        self._last_addr_taint: TagSet = EMPTY

        #: Predecoded (full, fast, text) handler per instruction.
        self._decoded = decoded_program(program)
        #: Steps/events already accounted before this CPU started (0 for a
        #: fresh run; the snapshot's prefix for a resumed one) — so
        #: ``_flush_obs`` reports only what *this* CPU executed.
        self._steps_at_start = 0
        self._events_at_start = len(self.trace.api_calls)
        self._predicates_at_start = len(self.trace.predicates)
        # The untainted tiers are legal only when nothing is recorded; a
        # non-recording run mints no taint, so ``run()`` decides once.
        self._allow_fast = not record_instructions
        self._fast_mode = self._allow_fast
        self._init_superblocks(superblocks, superblock_threshold)

    def _init_superblocks(
        self, superblocks: Optional[bool], threshold: Optional[int]
    ) -> None:
        """Attach the per-program superblock cache (tier 3).

        Superblocks are only legal when instruction recording is off (they
        produce no InstructionRecords and carry no taint); with recording on
        the cache is not even attached.  Like the fast loop they only run
        while no live taint exists."""
        enabled = (
            superblock_mod.default_enabled() if superblocks is None else superblocks
        )
        self._superblocks = (
            superblock_mod.superblock_cache(self.program, threshold)
            if enabled and self._allow_fast
            else None
        )
        # Plain-int run accumulators, flushed once by ``_flush_obs``.
        self._sb_entries = 0
        self._sb_guard_exits = 0
        sb = self._superblocks
        self._sb_compiled_base = sb.compiled if sb is not None else 0
        self._sb_compile_s_base = sb.compile_s if sb is not None else 0.0
        self._slow_steps = 0

    @classmethod
    def resume(
        cls,
        program: Program,
        environment,
        process,
        dispatcher,
        *,
        memory: Memory,
        regs: dict,
        flags: dict,
        pc: int,
        steps: int,
        callstack: List[int],
        trace: Trace,
        max_steps: int = 200_000,
        superblocks: Optional[bool] = None,
        superblock_threshold: Optional[int] = None,
    ) -> "CPU":
        """Build a CPU mid-run from restored machine state (see
        :mod:`repro.core.snapshot`) instead of a fresh image load.

        A resumed run never records and starts untainted: snapshots are
        only taken of non-recording runs, which carry no taint.

        ``pc``/``steps`` name the instruction the resumed run executes
        first; the budget check compares the *cumulative* step count against
        ``max_steps``, so a resumed run exhausts its budget at exactly the
        same instruction a full rerun would.
        """
        cpu = cls.__new__(cls)
        cpu.program = program
        cpu.environment = environment
        cpu.process = process
        cpu.dispatcher = dispatcher
        cpu.max_steps = max_steps
        cpu.record_instructions = False
        cpu._track = False
        cpu.taint_addresses = False
        cpu.memory = memory
        cpu.regs = regs
        cpu.reg_taint = {name: EMPTY for name in regs}
        cpu.flags = flags
        cpu.flag_taint = EMPTY
        cpu.pc = pc
        cpu.steps = steps
        cpu.status = ExitStatus.RUNNING
        cpu.fault_reason = None
        cpu.callstack = callstack
        cpu.trace = trace
        cpu.trace.program_name = program.name
        cpu._uses = []
        cpu._defs = []
        cpu._api_step_recorded = False
        cpu._last_addr_taint = EMPTY
        cpu._decoded = decoded_program(program)
        cpu._steps_at_start = steps
        cpu._events_at_start = len(trace.api_calls)
        cpu._predicates_at_start = len(trace.predicates)
        cpu._allow_fast = True
        cpu._fast_mode = True
        # A resumed pc may land mid-region: that index simply is not a
        # region entry, so execution proceeds per-instruction until the
        # next entry pc — no special casing needed.
        cpu._init_superblocks(superblocks, superblock_threshold)
        return cpu

    def _taint_live(self) -> bool:
        """Any live taint anywhere in the machine (injected by hand before
        ``run()``)?  Exact: ``Memory`` drops per-byte entries when a byte
        is overwritten untainted, and EMPTY tag sets are falsy."""
        return bool(
            self.flag_taint
            or self.memory._taint
            or any(self.reg_taint.values())
        )

    # ------------------------------------------------------------------
    # register / memory access with def-use tracking
    # ------------------------------------------------------------------

    def get_reg(self, name: str) -> Tuple[int, TagSet]:
        if self._track:
            self._uses.append(("reg", name))
        return self.regs[name], self.reg_taint[name]

    def set_reg(self, name: str, value: int, taint: TagSet = EMPTY) -> None:
        if self._track:
            self._defs.append(("reg", name))
        self.regs[name] = mask32(value)
        self.reg_taint[name] = taint

    def _mem_address(self, op: Mem) -> int:
        addr = op.disp
        addr_taints = []
        if op.base:
            value, taint = self.get_reg(op.base)
            addr += value
            if taint:
                addr_taints.append(taint)
        if op.index:
            value, taint = self.get_reg(op.index)
            addr += value * op.scale
            if taint:
                addr_taints.append(taint)
        self._last_addr_taint = union(*addr_taints) if addr_taints else EMPTY
        return mask32(addr)

    def read_mem(self, addr: int, size: int) -> Tuple[int, TagSet]:
        try:
            value, taint = self.memory.read_span(addr, size)
        except MemoryFault as exc:
            # Byte-loop parity: bytes before the faulting one were used.
            if self._track:
                self._note_partial(self._uses, addr, size, exc.addr)
            raise
        if self._track:
            uses = self._uses
            a0 = addr & 0xFFFFFFFF
            if a0 + size <= 0x1_0000_0000:
                for i in range(size):
                    uses.append(("mem", a0 + i))
            else:
                for i in range(size):
                    uses.append(("mem", (addr + i) & 0xFFFFFFFF))
        return value, taint

    def write_mem(self, addr: int, value: int, size: int, taint: TagSet = EMPTY) -> None:
        try:
            self.memory.write_span(addr, value, size, taint)
        except MemoryFault as exc:
            # Byte-loop parity: bytes before the faulting one were written.
            if self._track:
                self._note_partial(self._defs, addr, size, exc.addr)
            raise
        if self._track:
            defs = self._defs
            a0 = addr & 0xFFFFFFFF
            if a0 + size <= 0x1_0000_0000:
                for i in range(size):
                    defs.append(("mem", a0 + i))
            else:
                for i in range(size):
                    defs.append(("mem", (addr + i) & 0xFFFFFFFF))

    @staticmethod
    def _note_partial(log: list, addr: int, size: int, fault_addr: int) -> None:
        for i in range(size):
            a = mask32(addr + i)
            if a == fault_addr:
                break
            log.append(("mem", a))

    # ------------------------------------------------------------------
    # operand evaluation
    # ------------------------------------------------------------------

    def read_operand(self, op: Operand) -> Tuple[int, TagSet]:
        if isinstance(op, Reg):
            return self.get_reg(op.name)
        if isinstance(op, Imm):
            return mask32(op.value), EMPTY
        if isinstance(op, Mem):
            addr = self._mem_address(op)
            value, taint = self.read_mem(addr, op.size)
            if self.taint_addresses and self._last_addr_taint:
                taint = union(taint, self._last_addr_taint)
            return value, taint
        raise CpuFault(f"cannot read operand {op}")

    def write_operand(self, op: Operand, value: int, taint: TagSet = EMPTY) -> None:
        if isinstance(op, Reg):
            self.set_reg(op.name, value, taint)
            return
        if isinstance(op, Mem):
            self.write_mem(self._mem_address(op), value, op.size, taint)
            return
        raise CpuFault(f"cannot write operand {op}")

    # ------------------------------------------------------------------
    # stack helpers (shared with the API dispatcher)
    # ------------------------------------------------------------------

    def push(self, value: int, taint: TagSet = EMPTY) -> None:
        esp, esp_taint = self.get_reg("esp")
        esp = mask32(esp - 4)
        self.set_reg("esp", esp, esp_taint)
        self.write_mem(esp, value, 4, taint)

    def pop(self) -> Tuple[int, TagSet]:
        esp, esp_taint = self.get_reg("esp")
        value, taint = self.read_mem(esp, 4)
        self.set_reg("esp", mask32(esp + 4), esp_taint)
        return value, taint

    def stack_arg(self, index: int) -> Tuple[int, TagSet]:
        """Read stdcall argument ``index`` (0-based) at ``[esp + 4*index]``."""
        esp = self.regs["esp"]
        return self.read_mem(mask32(esp + 4 * index), 4)

    def read_stack_args(self, count: int) -> Tuple[List[int], List[TagSet]]:
        """Read stdcall slots 0..count-1 in one pass.

        Same values, taints, and per-byte use records as ``count``
        individual :meth:`stack_arg` calls, but with a single mapped-region
        check for the whole block — the dispatcher pre-reads every declared
        argument on every API call, which made this the hottest read path
        in API-dense samples."""
        esp = self.regs["esp"]
        a0 = esp & 0xFFFFFFFF
        last = a0 + 4 * count - 1
        values: List[int] = []
        taints: List[TagSet] = []
        if count and last <= 0xFFFFFFFF:
            mem = self.memory
            for start, end in mem._regions:
                if start <= a0 and last < end:
                    data = mem._bytes
                    tmap = mem._taint
                    track = self._track
                    for k in range(count):
                        a = a0 + 4 * k
                        values.append(
                            data.get(a, 0)
                            | data.get(a + 1, 0) << 8
                            | data.get(a + 2, 0) << 16
                            | data.get(a + 3, 0) << 24
                        )
                        if tmap and (
                            a in tmap
                            or a + 1 in tmap
                            or a + 2 in tmap
                            or a + 3 in tmap
                        ):
                            taints.append(
                                union(
                                    *(
                                        t
                                        for j in range(4)
                                        if (t := tmap.get(a + j))
                                    )
                                )
                            )
                        else:
                            taints.append(EMPTY)
                        if track:
                            self._uses.extend(
                                (("mem", a), ("mem", a + 1), ("mem", a + 2), ("mem", a + 3))
                            )
                    return values, taints
        for k in range(count):
            value, taint = self.read_mem(mask32(esp + 4 * k), 4)
            values.append(value)
            taints.append(taint)
        return values, taints

    # ------------------------------------------------------------------
    # execution loop
    # ------------------------------------------------------------------

    def run(self) -> Trace:
        """Execute until exit, fault, or budget exhaustion.

        Three execution tiers share one exact machine model:

        1. ``step()`` — full slow path (taint, def/use, events): the
           recording run, and any run given live taint by hand;
        2. ``_run_fast()`` — predecoded per-instruction loop for every
           other run, which carries no taint (API calls mint none);
        3. compiled superblocks — one dispatch per hot region, entered from
           the fast loop.

        The tier is chosen once, here: nothing can bring taint into a
        non-recording run once it has started.

        With ``obs.prof`` on, each ``_run_fast()`` segment is timed by one
        ``perf_counter`` pair and the rest of the run is billed to the slow
        tier — segment granularity, never per instruction or per region.
        """
        # Callers may have injected taint by hand before run().
        fast = self._fast_mode = self._allow_fast and not self._taint_live()
        prof = obs.prof if obs.prof.enabled else None
        perf = time.perf_counter
        t_run = perf() if prof is not None else 0.0
        fast_s = 0.0
        try:
            while self.status is ExitStatus.RUNNING:
                if fast:
                    if prof is None:
                        self._run_fast()
                    else:
                        t0 = perf()
                        self._run_fast()
                        fast_s += perf() - t0
                    if self.status is not ExitStatus.RUNNING:
                        break
                # The instruction the fast loop stopped at (an API call,
                # typically) needs one full slow step.
                self.step()
        finally:
            # Also reached when an interceptor aborts the run by raising:
            # metrics and profile then still count the same steps.
            self._flush_obs(prof, t_run, fast_s)
        self.trace.exit_status = self.status.value
        self.trace.steps = self.steps
        if self.process is not None and self.process.exit_code is not None:
            self.trace.exit_code = self.process.exit_code
        return self.trace

    def _run_fast(self) -> None:
        """Inner interpreter loop of an untainted run.

        Executes predecoded untainted handlers back to back — no def/use
        lists, no TagSet plumbing, no InstructionRecord bookkeeping — and
        returns to the full loop at the first instruction without a fast
        form (an API call, or any terminal condition).  Hot region entries
        dispatch once into a compiled superblock instead of once per
        instruction."""
        decoded = self._decoded
        n = len(decoded)
        base = TEXT_BASE
        max_steps = self.max_steps
        sb = self._superblocks
        entries = sb.entries if sb is not None else None
        entered = guards = 0
        try:
            while True:
                if self.steps >= max_steps:
                    self.status = ExitStatus.BUDGET
                    return
                idx = self.pc - base
                if not 0 <= idx < n:
                    self.status = ExitStatus.FAULT
                    self.fault_reason = f"pc 0x{self.pc:08x} outside .text"
                    return
                if entries is not None:
                    region = entries[idx]
                    if region is not None:
                        fn = region.fn
                        if fn is None:
                            fn = region.warm()
                        if fn is not None:
                            r = fn(self)
                            if r:
                                entered += 1
                                if self.status is not ExitStatus.RUNNING:
                                    return
                                # Region chaining: a closure whose exit pc
                                # is another region's entry returns that
                                # Region — dispatch straight into it.  The
                                # closure's own chunked-budget guard
                                # subsumes the loop-top budget check; a
                                # refusal or a cold successor falls back to
                                # the probe above, which re-counts exactly
                                # as an un-chained arrival would.
                                while r is not True:
                                    nfn = r.fn
                                    if nfn is None:
                                        break  # cold successor: probe warms it
                                    r2 = nfn(self)
                                    if not r2:
                                        break  # refusal: probe re-counts it
                                    entered += 1
                                    if self.status is not ExitStatus.RUNNING:
                                        return
                                    r = r2
                                continue
                            # Chunked budget refused: execute the region
                            # per-instruction instead.
                            guards += 1
                fast = decoded[idx][1]
                if fast is None:
                    return
                pc = self.pc
                self.steps += 1
                self.pc = pc + 1  # default fallthrough; jumps overwrite
                try:
                    fast(self)
                except (MemoryFault, CpuFault) as exc:
                    self.status = ExitStatus.FAULT
                    # pc has already advanced; name the faulting instruction.
                    self.fault_reason = f"{exc} (pc 0x{pc:08x})"
                    return
                if self.status is not ExitStatus.RUNNING:
                    return
        finally:
            if sb is not None:
                self._sb_entries += entered
                self._sb_guard_exits += guards

    def _flush_obs(self, prof, t_run: float, fast_s: float) -> None:
        """Report run totals into the metrics registry and, when ``prof`` is
        set, the tier profile.

        The per-instruction loop stays uninstrumented (every added branch
        there is ~1% interpreter overhead); counts the interpreter already
        keeps are flushed once per run instead — the cheap-hook contract.
        ``t_run`` is the run's ``perf_counter`` start, ``fast_s`` the time
        spent in ``_run_fast()`` segments (compiled regions and compiles
        included); the rest of the run is the slow tier's.
        """
        executed = self.steps - self._steps_at_start
        # Steps that avoided the slow path (fast loop + superblocks).
        fast_steps = executed - self._slow_steps
        sb = self._superblocks
        if prof is not None:
            compiles = sb.compiled - self._sb_compiled_base if sb is not None else 0
            compile_s = sb.compile_s - self._sb_compile_s_base if compiles else 0.0
            if self._slow_steps:
                prof.add(
                    "vm;slow", time.perf_counter() - t_run - fast_s, self._slow_steps
                )
            if fast_steps:
                # Compiles run inside fast segments; bill them separately.
                prof.add("vm;fast", fast_s - compile_s, fast_steps)
            if compiles:
                prof.add("vm;superblock;compile", compile_s, compiles)
        metrics = obs.metrics
        if not metrics.enabled:
            return
        # Handles are cached across runs and dropped when obs.reset() bumps
        # the registry generation (same scheme as Dispatcher.flush_obs).
        cache = _VM_FLUSH_CACHE
        cache.refresh(metrics)
        status = self.status.value
        runs = cache.runs.get(status)
        if runs is None:
            runs = cache.runs[status] = metrics.counter("vm.runs", status=status)
        cache.instructions.inc(executed)
        runs.inc()
        cache.api_calls.inc(len(self.trace.api_calls) - self._events_at_start)
        cache.tainted_predicates.inc(len(self.trace.predicates) - self._predicates_at_start)
        cache.fast_steps.inc(fast_steps)
        if sb is not None:
            cache.sb_compiled.inc(sb.compiled - self._sb_compiled_base)
            cache.sb_entries.inc(self._sb_entries)
            cache.sb_guard_exits.inc(self._sb_guard_exits)
        flush = getattr(self.dispatcher, "flush_obs", None)
        if flush is not None:
            flush(self.trace.api_calls[self._events_at_start:])

    def terminate(self, exit_code: int = 0) -> None:
        """Called by ExitProcess-style APIs."""
        self.status = ExitStatus.TERMINATED
        if self.process is not None:
            self.process.terminate(exit_code)

    def step(self) -> None:
        if self.status is not ExitStatus.RUNNING:
            return
        if self.steps >= self.max_steps:
            self.status = ExitStatus.BUDGET
            return
        idx = self.pc - TEXT_BASE
        if not 0 <= idx < len(self._decoded):
            self.status = ExitStatus.FAULT
            self.fault_reason = f"pc 0x{self.pc:08x} outside .text"
            return
        full, _fast, text = self._decoded[idx]
        if self._track:
            self._uses = []
            self._defs = []
        self._api_step_recorded = False
        self._step_esp = self.regs["esp"]
        self._step_ebp = self.regs["ebp"]
        seq = self.steps
        pc = self.pc
        self.steps += 1
        self._slow_steps += 1
        self.pc += 1  # default fallthrough; jumps overwrite
        try:
            full(self, pc, seq)
        except (MemoryFault, CpuFault) as exc:
            self.status = ExitStatus.FAULT
            # pc advanced before the handler ran; report the pc of the
            # instruction that actually faulted.
            self.fault_reason = f"{exc} (pc 0x{pc:08x})"
            return
        if self.record_instructions and not self._api_step_recorded:
            self.trace.instructions.append(
                InstructionRecord(
                    seq=seq,
                    pc=pc,
                    text=text,
                    defs=tuple(self._defs),
                    uses=tuple(self._uses),
                    esp=self._step_esp,
                    ebp=self._step_ebp,
                )
            )

    # ------------------------------------------------------------------
    # per-instruction semantics
    # ------------------------------------------------------------------

    def _lea(self, dst: Operand, mem: Operand) -> None:
        if not isinstance(mem, Mem):
            raise CpuFault("lea needs a memory operand")
        taints = []
        if mem.base:
            _, t = self.get_reg(mem.base)
            taints.append(t)
        if mem.index:
            _, t = self.get_reg(mem.index)
            taints.append(t)
        self.write_operand(dst, self._mem_address(mem), union(*taints))

    def _ret(self, ops: Tuple[Operand, ...]) -> None:
        value, _ = self.pop()
        if ops:
            extra, _ = self.read_operand(ops[0])
            self.set_reg("esp", mask32(self.regs["esp"] + extra), self.reg_taint["esp"])
        if self.callstack:
            self.callstack.pop()
        self.pc = value

    def _unary(self, m: str, dst: Operand) -> None:
        value, taint = self.read_operand(dst)
        if m == "inc":
            result = value + 1
        elif m == "dec":
            result = value - 1
        elif m == "not":
            result = ~value
        else:  # neg
            result = -value
        result = mask32(result)
        self.write_operand(dst, result, taint)
        if m in ("inc", "dec", "neg"):
            self._set_flags(result, taint, cf=None)

    def _binary(self, m: str, dst: Operand, src: Operand) -> None:
        # xor r, r zeroes the register and *clears* taint (the classic
        # untainting idiom every taint engine must honour).
        if m == "xor" and isinstance(dst, Reg) and isinstance(src, Reg) and dst.name == src.name:
            self.get_reg(dst.name)
            self.set_reg(dst.name, 0, EMPTY)
            self._set_flags(0, EMPTY, cf=0)
            return
        a, ta = self.read_operand(dst)
        b, tb = self.read_operand(src)
        cf = 0
        if m == "add":
            result = a + b
            cf = 1 if result > 0xFFFFFFFF else 0
        elif m == "sub":
            result = a - b
            cf = 1 if a < b else 0
        elif m == "xor":
            result = a ^ b
        elif m == "and":
            result = a & b
        elif m == "or":
            result = a | b
        elif m == "shl":
            result = a << (b & 0x1F)
        elif m == "shr":
            result = a >> (b & 0x1F)
        else:  # imul / mul
            result = a * b
        result = mask32(result)
        taint = union(ta, tb)
        self.write_operand(dst, result, taint)
        self._set_flags(result, taint, cf=cf)

    def _set_flags(self, result: int, taint: TagSet, cf: Optional[int]) -> None:
        self.flags["zf"] = 1 if result == 0 else 0
        self.flags["sf"] = 1 if result & 0x80000000 else 0
        if cf is not None:
            self.flags["cf"] = cf
        self.flag_taint = taint
        if self._track:
            self._defs.append(("flags",))

    def _compare(self, m: str, lhs: Operand, rhs: Operand, pc: int, seq: int, text: str) -> None:
        a, ta = self.read_operand(lhs)
        b, tb = self.read_operand(rhs)
        if m == "cmp":
            result = mask32(a - b)
            cf = 1 if a < b else 0
        else:  # test
            result = a & b
            cf = 0
        taint = union(ta, tb)
        self._set_flags(result, taint, cf=cf)
        if taint:
            self.trace.predicates.append(
                TaintedPredicateEvent(seq=seq, pc=pc, instr_text=text, tags=taint, lhs=a, rhs=b)
            )
            # Slow path only by construction: tainted cmp/test never runs on
            # the predecoded fast path, so the fast loop stays journal-free.
            flight = obs.flight
            if flight.enabled:
                # One journal event per (site, taint set) per sample: loop
                # iterations and re-runs (capture, mutations, determinism)
                # repeat the same predicate with the same causes and would
                # only bloat the journal.
                key = ("predicate", pc, tuple(sorted(t.event_id for t in taint)))
                if flight.recall(key) is None:
                    seeds = {flight.recall(("api", t.event_id)) for t in taint}
                    flight_id = flight.record(
                        "predicate.tainted",
                        causes=tuple(sorted(s for s in seeds if s is not None)),
                        pc=pc,
                        instr=text,
                    )
                    flight.remember(key, flight_id)
                    for t in taint:
                        # First predicate consuming each API's taint: cited by
                        # candidate events as the control-flow evidence.
                        flight.remember(("predicate_for", t.event_id), flight_id)

    def _jump(self, m: str, target: Operand) -> None:
        taken = True
        if m != "jmp":
            if self._track:
                self._uses.append(("flags",))
            zf, sf, cf = self.flags["zf"], self.flags["sf"], self.flags["cf"]
            taken = {
                "je": zf == 1,
                "jz": zf == 1,
                "jne": zf == 0,
                "jnz": zf == 0,
                "jl": sf == 1,
                "jge": sf == 0,
                "jle": sf == 1 or zf == 1,
                "jg": sf == 0 and zf == 0,
                "jb": cf == 1,
                "jae": cf == 0,
                "jbe": cf == 1 or zf == 1,
                "ja": cf == 0 and zf == 0,
                "js": sf == 1,
                "jns": sf == 0,
            }[m]
        if taken:
            value, _ = self.read_operand(target)
            self.pc = value

    def _call(self, target: Operand, pc: int, seq: int, text: str) -> None:
        if isinstance(target, ApiRef):
            if self.dispatcher is None:
                raise CpuFault(f"no API dispatcher for {target}")
            self.dispatcher.invoke(self, target.name, caller_pc=pc, seq=seq)
            return
        value, _ = self.read_operand(target)
        self.push(self.pc)  # return address (already points past the call)
        self.callstack.append(pc)
        self.pc = value

    # ------------------------------------------------------------------
    # hooks used by the API dispatcher
    # ------------------------------------------------------------------

    def note_use(self, location: Tuple) -> None:
        if self._track:
            self._uses.append(location)

    def note_def(self, location: Tuple) -> None:
        if self._track:
            self._defs.append(location)

    def record_api_step(self, seq: int, pc: int, text: str, event_id: int) -> None:
        """Append the API pseudo-instruction's def/use record."""
        if self.record_instructions:
            self.trace.instructions.append(
                InstructionRecord(
                    seq=seq,
                    pc=pc,
                    text=text,
                    defs=tuple(self._defs),
                    uses=tuple(self._uses),
                    api_event_id=event_id,
                    esp=getattr(self, "_step_esp", self.regs["esp"]),
                    ebp=getattr(self, "_step_ebp", self.regs["ebp"]),
                )
            )
        self._api_step_recorded = True

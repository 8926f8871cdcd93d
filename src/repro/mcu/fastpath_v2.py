"""Content-specialized, batch-fused translation (fastpath tier 2).

The kernels this repository generates keep their adjacency tables,
weight words, and block descriptors in *read-only* regions whose bytes
are known before the first run, and §4.1's static-control-flow
discipline means every branch decision and every effective address is
independent of the input once that frozen content is fixed.

Tier 2 turns that into a specializer: :func:`build_specialization`
*symbolically executes* the program exactly once, with

- read-only region bytes, entry registers (all zero), and NZV flags
  held **concrete**, and
- writable region bytes held **symbolic** (each first-read byte becomes
  a load atom; stored values become expression nodes),

and declines — leaving the run to the interpreter — the moment a
branch consults a symbolic flag, a load/store address is symbolic, or
the trace leaves the program (``pc N out of range``).  This check is
self-contained and sound by induction: as long as every branch up to
the current instruction was decided by concrete values, the trace *is*
the unique execution path for every possible input, so its cycle total,
op counts, and region traffic are input-independent constants.  The
trace prices each instruction it executes with the board's
``CycleCosts`` exactly as the interpreter does — using the branch
decision it just made — so the recorded cycles are the interpreter's
cycles for every input.

The recorded expression DAG is then emitted as one NumPy function over
2-D ``(batch, region_size)`` uint8 arrays whose cost scales with the
number of layers, not neurons (:class:`_LayerEmitter`): loaded
activations — sign-extended ones included — are gathered into one
matrix, every needed affine accumulator (partial sums a kernel spills
and reloads are inlined away) becomes one column of a single ``X @ W``
product, and each step of the per-neuron rescale / bias / ReLU /
saturate chain runs as one lane-wide operation over all neurons.  The
product runs in float BLAS only when the frozen weights bound every
partial sum below the type's exact-integer limit, else in int64, which
is exact mod 2**32 even when it wraps (2**32 divides 2**64); every
uint32 lane operation wraps exactly like the interpreter's
``& 0xFFFFFFFF``.  The whole admitted batch runs in a single call.

Batch semantics are *sequential-equivalent*: running ``fn`` over a
batch leaves row ``k``'s final RAM equal to what ``k`` sequential runs
would produce, provided no cell is read-before-write in one run and
written by another (the ``reads_before_write``/``dirty_cells`` sets let
callers verify this; :class:`repro.deploy.artifact.DeployedModel`
checks it per layer pipeline before fusing).

This module is pure (no locks, no global state): caching, statistics,
and engine dispatch live in :mod:`repro.mcu.fastpath`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.mcu.cpu import (
    _OP_INDEX,
    _OPS,
    CycleCosts,
    _branch_taken,
    _cost_vectors,
    _to_signed,
    subtract_flags,
)
from repro.mcu.isa import (
    ACCESS_WIDTH,
    COND_BRANCH_OPS,
    LOAD_OPS,
    NUM_REGS,
    SIGNED_LOADS,
    STORE_OPS,
    Op,
    Program,
)
from repro.mcu.memory import MemoryMap

_MASK32 = 0xFFFF_FFFF

#: Dynamic instruction budget for the specialize-time trace.  Programs
#: whose single execution exceeds it decline to the interpreter (the
#: trace would dominate specialization time without bounding emitted
#: code size).
TRACE_BUDGET = 1_500_000


def specialization_hash(memory: MemoryMap) -> str:
    """SHA-256 over the frozen (read-only) region content.

    Two memory maps with identical layout but different flash bytes
    (e.g. two models sharing one kernel template) must never share a
    specialization; this hash extends the tier-2 cache key.
    """
    digest = hashlib.sha256()
    for region in memory.regions:
        if region.writable:
            continue
        digest.update(
            f"{region.name}:{region.base}:{region.size}:".encode()
        )
        digest.update(bytes(region.data))
    return digest.hexdigest()


@dataclass(frozen=True)
class SpecializedProgram:
    """One content-specialized, batch-fused program plus its constants.

    Everything the interpreter would *compute* about a run — cycles,
    instruction count, op counts, per-region traffic — is
    input-independent for an accepted program, so it is recorded here
    once at specialize time.
    """

    program: Program
    #: ``fn(mats) -> [r0 .. r12]`` where ``mats`` holds one
    #: ``(batch, size)`` uint8 array per writable region, in region
    #: order.  Mutates ``mats`` in place to each row's final RAM.
    fn: Callable
    source: str
    cycles: int
    instructions: int
    op_count_items: tuple[tuple[Op, int], ...]
    #: Per memory region, in region order:
    #: (loads, bytes_loaded, stores, bytes_stored) of one run.
    traffic: tuple[tuple[int, int, int, int], ...]
    #: Writable cells ``(region_index, offset)`` read before any write
    #: in one run (their initial bytes feed the computation).
    reads_before_write: frozenset
    #: Writable cells written by one run.
    dirty_cells: frozenset

    def __deepcopy__(self, memo: dict) -> "SpecializedProgram":
        # Immutable and content-addressed: fleet replicas share one
        # specialization.
        return self

    def op_counts(self) -> dict[Op, int]:
        return dict(self.op_count_items)


def build_specialization(
    program: Program,
    memory: MemoryMap,
    costs: CycleCosts,
) -> SpecializedProgram | str:
    """Specialize ``program`` against ``memory``'s frozen content.

    Returns the :class:`SpecializedProgram`, priced with ``costs``, or a
    human-readable decline reason when the program is not
    input-independent enough (callers then run the interpreter).
    """
    try:
        return _Specializer(program, memory, costs).run()
    except _Decline as exc:
        return exc.reason


# -- batch state helpers ---------------------------------------------------


def make_batch_state(memory: MemoryMap, batch: int) -> list[np.ndarray]:
    """``(batch, size)`` uint8 arrays seeded from current RAM content.

    One array per writable region, in region order — the ``mats``
    argument of :attr:`SpecializedProgram.fn`.
    """
    mats = []
    for region in memory.regions:
        if region.writable:
            row = np.frombuffer(bytes(region.data), dtype=np.uint8)
            mats.append(np.repeat(row[None, :], batch, axis=0))
    return mats


def commit_batch_row(
    memory: MemoryMap, mats: list[np.ndarray], row: int
) -> None:
    """Copy one batch row's final RAM back into ``memory``.

    After a fused batch, committing the *last* row reproduces the
    memory state ``batch`` sequential runs would leave behind.
    """
    position = 0
    for region in memory.regions:
        if region.writable:
            region.data[:] = mats[position][row].tobytes()
            position += 1


def charge_batch_traffic(
    memory: MemoryMap, sp: SpecializedProgram, batch: int
) -> None:
    """Advance per-region access counters for ``batch`` fused runs."""
    for region, (loads, lbytes, stores, sbytes) in zip(
        memory.regions, sp.traffic
    ):
        region.loads += batch * loads
        region.bytes_loaded += batch * lbytes
        region.stores += batch * stores
        region.bytes_stored += batch * sbytes


# -- symbolic values -------------------------------------------------------


class _Decline(Exception):
    """Raised when the trace leaves the input-independent fragment."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


def _srep(value: int) -> int:
    """Signed 32-bit representative of ``value`` mod 2**32."""
    value &= _MASK32
    return value - (1 << 32) if value >= (1 << 31) else value


class _Sym:
    """``(base + sum(coef * node)) mod 2**32`` over DAG node values.

    Immutable once constructed; ``terms`` maps node id to a nonzero
    signed-32-bit coefficient.  Keeping values affine as long as
    possible is what lets unrolled accumulator chains collapse into a
    single gather-matmul at emission time.
    """

    __slots__ = ("base", "terms")

    def __init__(self, base: int, terms: dict) -> None:
        self.base = base & _MASK32
        self.terms = terms


def _mk(base: int, terms: dict):
    if not terms:
        return base & _MASK32
    return _Sym(base, terms)


def _accumulate(terms: dict, nid: int, coef: int) -> None:
    """``terms[nid] += coef`` mod 2**32, dropping a zero coefficient."""
    merged = _srep(terms.get(nid, 0) + coef)
    if merged:
        terms[nid] = merged
    else:
        terms.pop(nid, None)


def _v_add(a, b):
    if isinstance(a, int):
        if isinstance(b, int):
            return (a + b) & _MASK32
        # Terms are never mutated once a _Sym holds them: share them.
        return _Sym(a + b.base, b.terms)
    if isinstance(b, int):
        return _Sym(a.base + b, a.terms)
    if len(a.terms) < len(b.terms):
        a, b = b, a
    terms = dict(a.terms)
    for nid, coef in b.terms.items():
        _accumulate(terms, nid, coef)
    return _mk(a.base + b.base, terms)


def _v_scale(a, c: int):
    """``(a * c) mod 2**32`` for a constant multiplier ``c``."""
    if isinstance(a, int):
        return (a * c) & _MASK32
    terms = {}
    for nid, coef in a.terms.items():
        scaled = _srep(coef * c)
        if scaled:
            terms[nid] = scaled
    return _mk(a.base * c, terms)


def _v_sub(a, b):
    return _v_add(a, _v_scale(b, -1))


class _Dag:
    """Hash-consed expression nodes; ids are topological by construction."""

    def __init__(self) -> None:
        self.nodes: list[tuple] = []
        self._memo: dict[tuple, int] = {}

    def intern(self, node: tuple) -> int:
        nid = self._memo.get(node)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(node)
            self._memo[node] = nid
        return nid


def _materialize(dag: _Dag, value):
    """Value as a reference: ``("k", const)`` or ``("n", node_id)``."""
    if isinstance(value, int):
        return ("k", value & _MASK32)
    items = sorted(value.terms.items())
    if value.base == 0 and len(items) == 1 and items[0][1] == 1:
        return ("n", items[0][0])
    return ("n", dag.intern(("aff", value.base, tuple(items))))


def _of_node(nid: int) -> _Sym:
    return _Sym(0, {nid: 1})


def _sex(dag: _Dag, ref, width: int):
    """Sign-extend a value known to be below ``2**(8*width)``."""
    sign = 1 << (8 * width - 1)
    if ref[0] == "k":
        return ((ref[1] ^ sign) - sign) & _MASK32
    return _of_node(dag.intern(("sex", ref[1], width)))


def _v_bitop(dag: _Dag, opname: str, a, b):
    if isinstance(a, int) and isinstance(b, int):
        if opname == "and":
            return a & b
        if opname == "or":
            return a | b
        return a ^ b
    if opname == "and":
        if (isinstance(a, int) and a == 0) or (isinstance(b, int) and b == 0):
            return 0
        if isinstance(a, int) and a == _MASK32:
            return b
        if isinstance(b, int) and b == _MASK32:
            return a
    else:
        if isinstance(a, int) and a == 0:
            return b
        if isinstance(b, int) and b == 0:
            return a
    ra, rb = _materialize(dag, a), _materialize(dag, b)
    ra, rb = min(ra, rb), max(ra, rb)  # commutative: canonical order
    return _of_node(dag.intern(("bin", opname, ra, rb)))


# -- the specializer -------------------------------------------------------

#: Trace-loop instruction kinds, the first field of a decoded
#: instruction, in the loop's test order (most executed first).
#: ``SUBI`` decodes as ``ADDI`` of the negated immediate.
(
    _K_MEM, _K_ADDI, _K_BCOND, _K_SUBSI, _K_ADD, _K_SUB, _K_CMP, _K_CMPI,
    _K_MOVI, _K_MOV, _K_SHIFT, _K_MUL, _K_BITOP, _K_B, _K_HALT,
) = range(15)

_SHIFT_NAMES = {Op.LSLI: "shl", Op.LSRI: "shr", Op.ASRI: "sar"}
_BITOP_NAMES = {Op.AND: "and", Op.ORR: "or", Op.EOR: "xor"}
_KINDS = {
    **dict.fromkeys(LOAD_OPS | STORE_OPS, _K_MEM),
    **dict.fromkeys(COND_BRANCH_OPS, _K_BCOND),
    **dict.fromkeys(_SHIFT_NAMES, _K_SHIFT),
    **dict.fromkeys(_BITOP_NAMES, _K_BITOP),
    Op.ADDI: _K_ADDI, Op.SUBI: _K_ADDI, Op.SUBSI: _K_SUBSI, Op.ADD: _K_ADD,
    Op.SUB: _K_SUB, Op.CMP: _K_CMP, Op.CMPI: _K_CMPI, Op.MOVI: _K_MOVI,
    Op.MOV: _K_MOV, Op.MUL: _K_MUL, Op.B: _K_B, Op.HALT: _K_HALT,
}
#: Every NZV flag tuple ``subtract_flags`` can return.
_FLAG_STATES = tuple(
    (n, z, v) for n in (False, True) for z in (False, True)
    for v in (False, True)
)


def _decode(program: Program, costs: CycleCosts) -> list[tuple]:
    """Per pc, ``(kind, op ordinal, a, b, c, plain cost, taken cost,
    extra)``.

    ``a``/``b``/``c`` are the operands as plain ints, immediates masked
    the way the interpreter masks them (the flag-setting compares keep
    theirs signed); the costs are ``CPU.run``'s.  ``extra`` carries
    what the loop would otherwise look up per execution: a memory op's
    ``(width, is_load, signed, offset_is_reg)``, a conditional branch's
    taken decision per flag tuple, a shift's or bit op's name.
    """
    plain_cost, taken_cost = _cost_vectors(costs)
    code = []
    for instr in program.instructions:
        op = instr.op
        ordinal = _OP_INDEX[op]
        kind = _KINDS[op]
        a, b, c = (*(int(o) for o in instr.operands), None, None, None)[:3]
        extra = None
        if kind == _K_MEM:
            if not instr.offset_is_reg:
                c &= _MASK32
            extra = (
                ACCESS_WIDTH[op], op in LOAD_OPS, op in SIGNED_LOADS,
                instr.offset_is_reg,
            )
        elif kind == _K_BCOND:
            extra = {
                flags: _branch_taken(op, *flags) for flags in _FLAG_STATES
            }
        elif kind == _K_SHIFT:
            extra = _SHIFT_NAMES[op]
        elif kind == _K_BITOP:
            extra = _BITOP_NAMES[op]
        elif op is Op.ADDI:
            c &= _MASK32
        elif op is Op.SUBI:
            c = -c & _MASK32
        elif kind == _K_MOVI:
            b &= _MASK32
        code.append(
            (kind, ordinal, a, b, c, plain_cost[ordinal],
             taken_cost[ordinal], extra)
        )
    return code


class _Specializer:
    def __init__(
        self,
        program: Program,
        memory: MemoryMap,
        costs: CycleCosts,
    ) -> None:
        self.program = program
        self.memory = memory
        self.costs = costs
        self.dag = _Dag()
        self.regions = memory.regions
        self.bounds = [(r.base, r.base + r.size) for r in self.regions]
        #: Per pc, the region its last access hit, tried first next time.
        self.last_region = [0] * len(program.instructions)
        #: Per-region offset -> int byte | ("n", byte_node_id).
        self.overlay: list[dict] = [{} for _ in self.regions]
        self.rbw: set = set()
        self.dirty: set = set()
        self.traffic = [[0, 0, 0, 0] for _ in self.regions]

    # -- trace ------------------------------------------------------------

    def run(self) -> SpecializedProgram:
        # Priced per executed instruction exactly like CPU.run.
        code = _decode(self.program, self.costs)
        n_instrs = len(code)
        budget = TRACE_BUDGET
        dag = self.dag
        access = self._access
        counts = [0] * len(_OPS)
        cycles = 0
        regs: list = [0] * NUM_REGS
        flags: tuple | None = (False, False, False)
        pc = 0
        executed = 0

        while True:
            if executed >= budget:
                raise _Decline(
                    f"one execution exceeds the {budget}-instruction "
                    f"specialization budget"
                )
            if not 0 <= pc < n_instrs:
                raise _Decline(f"pc {pc} out of range")
            kind, ordinal, a, b, c, plain, taken, extra = code[pc]
            executed += 1
            counts[ordinal] += 1

            if kind == _K_MEM:
                access(pc, a, b, c, extra, regs)
            elif kind == _K_ADDI:
                x = regs[b]
                regs[a] = (
                    (x + c) & _MASK32 if isinstance(x, int) else _v_add(x, c)
                )
            elif kind == _K_BCOND:
                if flags is None:
                    raise _Decline(
                        "branch at pc "
                        f"{pc} depends on input data (symbolic flags)"
                    )
                if extra[flags]:
                    cycles += taken
                    pc = a
                    continue
            elif kind == _K_SUBSI:
                x = regs[b]
                if isinstance(x, int):
                    regs[a] = (x - c) & _MASK32
                    flags = subtract_flags(_to_signed(x), c)
                else:
                    regs[a] = _v_add(x, -c & _MASK32)
                    flags = None
            elif kind == _K_ADD:
                x, y = regs[b], regs[c]
                if isinstance(x, int) and isinstance(y, int):
                    regs[a] = (x + y) & _MASK32
                else:
                    regs[a] = _v_add(x, y)
            elif kind == _K_SUB:
                x, y = regs[b], regs[c]
                if isinstance(x, int) and isinstance(y, int):
                    regs[a] = (x - y) & _MASK32
                else:
                    regs[a] = _v_sub(x, y)
            elif kind == _K_CMP:
                x, y = regs[a], regs[b]
                flags = (
                    subtract_flags(_to_signed(x), _to_signed(y))
                    if isinstance(x, int) and isinstance(y, int)
                    else None
                )
            elif kind == _K_CMPI:
                x = regs[a]
                flags = (
                    subtract_flags(_to_signed(x), b)
                    if isinstance(x, int) else None
                )
            elif kind == _K_MOVI:
                regs[a] = b
            elif kind == _K_MOV:
                regs[a] = regs[b]
            elif kind == _K_SHIFT:
                regs[a] = self._shift(regs[b], c, extra)
            elif kind == _K_MUL:
                regs[a] = self._mul(regs[b], regs[c])
            elif kind == _K_BITOP:
                regs[a] = _v_bitop(dag, extra, regs[b], regs[c])
            elif kind == _K_B:
                cycles += taken
                pc = a
                continue
            else:  # _K_HALT
                cycles += plain
                break
            cycles += plain
            pc += 1

        op_counts = {_OPS[i]: c for i, c in enumerate(counts) if c}
        return self._finish(regs, cycles, executed, op_counts)

    # -- value helpers ----------------------------------------------------

    def _mul(self, a, b):
        if isinstance(a, int) and isinstance(b, int):
            # Congruent with signed x signed mod 2**32.
            return (a * b) & _MASK32
        if isinstance(b, int):
            return _v_scale(a, _srep(b))
        if isinstance(a, int):
            return _v_scale(b, _srep(a))
        ra = _materialize(self.dag, a)
        rb = _materialize(self.dag, b)
        ra, rb = min(ra, rb), max(ra, rb)
        return _of_node(self.dag.intern(("bin", "mul", ra, rb)))

    def _shift(self, a, amount: int, kind: str):
        if amount < 0:
            raise _Decline(f"negative shift immediate {amount}")
        if isinstance(a, int):
            if kind == "shl":
                return (a << amount) & _MASK32
            if kind == "shr":
                return a >> amount
            return (_to_signed(a) >> amount) & _MASK32
        if amount == 0:
            return a
        if kind == "shl":
            return _v_scale(a, (1 << amount) & _MASK32)
        if kind == "shr":
            if amount >= 32:
                return 0
            ref = _materialize(self.dag, a)
            return _of_node(self.dag.intern(("bin", "shr", ref, amount)))
        # Arithmetic: shifting by >= 31 replicates the sign bit, so the
        # emitted int32 shift clamps exactly.
        ref = _materialize(self.dag, a)
        return _of_node(
            self.dag.intern(("bin", "sar", ref, min(amount, 31)))
        )

    # -- memory -----------------------------------------------------------

    def _access(
        self, pc: int, rd: int, rn: int, offset, mem: tuple, regs: list
    ) -> None:
        width, is_load, signed, offset_is_reg = mem
        base = regs[rn]
        if offset_is_reg:
            offset = regs[offset]
        if isinstance(base, int) and isinstance(offset, int):
            addr = (base + offset) & _MASK32
        else:
            addr = _v_add(base, offset)
            if not isinstance(addr, int):
                raise _Decline(
                    f"address at pc {pc} depends on input data"
                )
        # Regions do not overlap, so the last hit is the only match
        # whenever it contains the access.
        region_index = self.last_region[pc]
        lo, hi = self.bounds[region_index]
        if not (lo <= addr and addr + width <= hi):
            for region_index, (lo, hi) in enumerate(self.bounds):
                if lo <= addr and addr + width <= hi:
                    break
            else:
                raise _Decline(
                    f"unmapped {width}-byte access at 0x{addr:08x} "
                    f"(error path runs on the interpreter)"
                )
            self.last_region[pc] = region_index
        region = self.regions[region_index]
        cell = addr - region.base
        if is_load:
            counters = self.traffic[region_index]
            counters[0] += 1
            counters[1] += width
            if not region.writable:
                value = int.from_bytes(
                    region.data[cell:cell + width], "little", signed=signed
                )
                regs[rd] = value & _MASK32
            else:
                regs[rd] = self._load_symbolic(
                    region_index, cell, width, signed
                )
            return
        if not region.writable:
            raise _Decline(
                f"store to read-only region {region.name!r} "
                f"(error path runs on the interpreter)"
            )
        counters = self.traffic[region_index]
        counters[2] += 1
        counters[3] += width
        self._store_symbolic(region_index, cell, width, regs[rd])

    def _load_symbolic(self, j: int, off: int, width: int, signed: bool):
        overlay = self.overlay[j]
        cells = [overlay.get(off + i) for i in range(width)]
        dag = self.dag
        if all(cell is None for cell in cells):
            for i in range(width):
                self.rbw.add((j, off + i))
            nid = dag.intern(("load", j, off, width))
            if signed:
                return _sex(dag, ("n", nid), width)
            return _of_node(nid)
        # Store-to-load forwarding: the span holds consecutive bytes of
        # one previously stored node S.
        if all(
            isinstance(cell, tuple)
            and dag.nodes[cell[1]][:1] == ("byte",)
            and dag.nodes[cell[1]][2] == i
            and dag.nodes[cell[1]][1] == dag.nodes[cells[0][1]][1]
            for i, cell in enumerate(cells)
        ):
            source = dag.nodes[cells[0][1]][1]
            if width == 4:
                return _of_node(source)
            masked = _v_bitop(
                dag, "and", _of_node(source), (1 << (8 * width)) - 1
            )
            if signed:
                return _sex(dag, _materialize(dag, masked), width)
            return masked
        # General recompose from mixed concrete/symbolic/initial bytes.
        base = 0
        terms: dict = {}
        for i, cell in enumerate(cells):
            shift = 8 * i
            if cell is None:
                self.rbw.add((j, off + i))
                nid = dag.intern(("load", j, off + i, 1))
            elif isinstance(cell, int):
                base += cell << shift
                continue
            else:
                nid = cell[1]
            _accumulate(terms, nid, 1 << shift)
        value = _mk(base, terms)
        if signed:
            # The recomposed value is < 2**(8*width): each byte term
            # contributes at most 255 << (8*i), so no 32-bit wrap.
            return _sex(dag, _materialize(dag, value), width)
        return value

    def _store_symbolic(self, j: int, off: int, width: int, value) -> None:
        overlay = self.overlay[j]
        for i in range(width):
            self.dirty.add((j, off + i))
        if not isinstance(value, int):
            ref = _materialize(self.dag, value)
            if ref[0] == "n":
                source = ref[1]
                for i in range(width):
                    overlay[off + i] = (
                        "n", self.dag.intern(("byte", source, i))
                    )
                return
            value = ref[1]
        masked = value & ((1 << (8 * width)) - 1)
        for i in range(width):
            overlay[off + i] = (masked >> (8 * i)) & 255

    # -- emission ---------------------------------------------------------

    def _finish(
        self, regs: list, cycles: int, executed: int, op_counts: dict
    ) -> SpecializedProgram:
        reg_refs = [_materialize(self.dag, value) for value in regs]
        writebacks: list[tuple[int, int, object]] = []
        for j, overlay in enumerate(self.overlay):
            for off in sorted(overlay):
                writebacks.append((j, off, overlay[off]))
        emitter = _LayerEmitter(self.dag.nodes, self.regions)
        source = emitter.emit(reg_refs, writebacks)
        namespace: dict = {
            "_np": np,
            "_U32": np.uint32,
            "_I32": np.int32,
            "_I64": np.int64,
            "_F32": np.float32,
            "_F64": np.float64,
            "_bytes": _lane_bytes,
            **_VIEW_NAMES,
            **emitter.consts,
        }
        code = compile(
            source, f"<fastpath-v2:{self.program.name}>", "exec"
        )
        exec(code, namespace)  # noqa: S102 - our own generated source

        return SpecializedProgram(
            program=self.program,
            fn=namespace["_fastpath_v2"],
            source=source,
            cycles=cycles,
            instructions=executed,
            op_count_items=tuple(op_counts.items()),
            traffic=tuple(tuple(t) for t in self.traffic),
            reads_before_write=frozenset(self.rbw),
            dirty_cells=frozenset(self.dirty),
        )


# -- layer-level emission --------------------------------------------------

#: Little-endian element type, variable name in the generated code, and
#: largest magnitude of each atom matrix, keyed by (width, signed).
_ATOM_VIEWS = {
    (1, False): (np.dtype("u1"), "_V1u", (1 << 8) - 1),
    (1, True): (np.dtype("i1"), "_V1s", 1 << 7),
    (2, False): (np.dtype("<u2"), "_V2u", (1 << 16) - 1),
    (2, True): (np.dtype("<i2"), "_V2s", 1 << 15),
    (4, False): (np.dtype("<u4"), "_V4u", (1 << 32) - 1),
    (4, True): (np.dtype("<i4"), "_V4s", 1 << 31),
}
_VIEW_NAMES = {name: dtype for dtype, name, _ in _ATOM_VIEWS.values()}

#: BLAS product types, narrowest first, with the magnitude below which
#: every integer is exact (2 ** significand bits).
_FLOAT_PRODUCTS = (
    (np.float32, "_F32", 1 << 24),
    (np.float64, "_F64", 1 << 53),
)

_BIN_SYMBOLS = {"and": "&", "or": "|", "xor": "^", "mul": "*"}


def _lane_bytes(group: np.ndarray) -> np.ndarray:
    """``(batch, 4 * lanes)`` little-endian bytes of a uint32 lane group."""
    return np.ascontiguousarray(group, dtype="<u4").view(np.uint8)


def _operand_ids(node: tuple) -> tuple:
    kind = node[0]
    if kind in ("sex", "byte"):
        return (node[1],)
    if kind == "bin":
        return tuple(
            ref[1] for ref in node[2:]
            if isinstance(ref, tuple) and ref[0] == "n"
        )
    if kind == "aff":
        return tuple(nid for nid, _ in node[2])
    return ()


class _LayerEmitter:
    """Emits a specialized DAG as layer-level NumPy statements.

    Values live in *lane groups*: ``(batch, lanes)`` uint32 arrays,
    named ``g<k>``.  Group 0 is the affine product: every value that is
    affine in the loaded *atoms* (unsigned loads and sign-extended
    loads, gathered into one integer matrix per region, width and
    signedness) is one column of a single ``X @ W`` per program.
    Affine nodes that only feed other affine nodes are inlined into
    them (exact mod 2**32), so partial accumulators a kernel spills to
    RAM and reloads never reach the output.  Every other needed node
    joins the group of its shape — kind, operator, shift or byte index,
    and the group of each operand — so one statement computes the same
    step of every neuron's post-accumulation chain, with per-lane
    constants as constant vectors.  Writebacks are one fancy-index
    store per (region, source group).
    """

    def __init__(self, nodes: list, regions) -> None:
        self.nodes = nodes
        writable = [j for j, region in enumerate(regions) if region.writable]
        self.positions = {j: k for k, j in enumerate(writable)}
        self.consts: dict[str, np.ndarray] = {}
        #: node id -> (group, lane)
        self.loc: dict[int, tuple[int, int]] = {}
        #: Group-0 columns: (atom id -> coefficient, base).
        self.columns: list[tuple[dict, int]] = []
        self.groups: dict[tuple, int] = {}
        #: Per group: its signature and one (operands, consts) per lane.
        self.signatures: list = [None]
        self.members: list[list] = [[]]

    def emit(self, reg_refs: list, writebacks: list) -> str:
        nodes = self.nodes
        roots = [ref[1] for ref in reg_refs if ref[0] == "n"]
        roots += [
            nodes[cell[1]][1] for _, _, cell in writebacks
            if isinstance(cell, tuple)
        ]
        live, needed = self._demand(roots)
        self._place(self._flatten(live, needed), needed)
        self._order_columns()
        lines = ["def _fastpath_v2(mats):"]
        if self.columns:
            lines += self._product()
        for g in range(1, len(self.members)):
            lines.append(f"    g{g} = {self._group_expr(g)}")
        lines += self._writebacks(writebacks)
        returns = ", ".join(
            repr(ref[1]) if ref[0] == "k"
            else "g{}[:, {}]".format(*self.loc[ref[1]])
            for ref in reg_refs
        )
        lines.append(f"    return [{returns}]")
        return "\n".join(lines) + "\n"

    # -- analysis ---------------------------------------------------------

    def _is_atom(self, nid: int) -> bool:
        node = self.nodes[nid]
        if node[0] == "load":
            return True
        if node[0] != "sex":
            return False
        source = self.nodes[node[1]]
        return source[0] == "load" and source[3] == node[2]

    def _demand(self, roots: list) -> tuple[set, set]:
        """Nodes the roots depend on, and those needing a lane value.

        An affine node's atom operands go into the product and its
        affine operands are inlined into it, so neither needs a value
        of its own unless another consumer or a root asks for one.
        """
        nodes = self.nodes
        live, needed = set(roots), set(roots)
        for nid in range(max(live, default=-1), -1, -1):
            if nid not in live or self._is_atom(nid):
                continue
            inline = nodes[nid][0] == "aff"
            for child in _operand_ids(nodes[nid]):
                live.add(child)
                if not inline or not (
                    nodes[child][0] == "aff" or self._is_atom(child)
                ):
                    needed.add(child)
        return live, needed

    def _flatten(self, live: set, needed: set) -> dict:
        """Affine node -> (base, terms) with unneeded affine children
        substituted; ids are topological, so children come first."""
        flat: dict = {}
        for nid in sorted(live):
            node = self.nodes[nid]
            if node[0] != "aff":
                continue
            base, terms = node[1], {}
            for child, coef in node[2]:
                if child in flat and child not in needed:
                    child_base, child_terms = flat[child]
                    base += coef * child_base
                    for leaf, k in child_terms.items():
                        _accumulate(terms, leaf, coef * k)
                else:
                    _accumulate(terms, child, coef)
            flat[nid] = (base & _MASK32, terms)
        return flat

    def _place(self, flat: dict, needed: set) -> None:
        nodes = self.nodes
        for nid in sorted(needed):
            node = nodes[nid]
            kind = node[0]
            if self._is_atom(nid):
                self.loc[nid] = self._column({nid: 1}, 0)
            elif kind == "aff":
                base, terms = flat[nid]
                atoms = {
                    leaf: c for leaf, c in terms.items() if self._is_atom(leaf)
                }
                others = sorted(
                    (leaf, c) for leaf, c in terms.items() if leaf not in atoms
                )
                if atoms and not others:
                    self.loc[nid] = self._column(atoms, base)
                    continue
                operands = [self.loc[leaf] for leaf, _ in others]
                coefs = [c & _MASK32 for _, c in others]
                if atoms:
                    operands.insert(0, self._column(atoms, base))
                    coefs.insert(0, 1)
                    base = 0
                self._lane(nid, "aff", None, operands, (*coefs, base))
            elif kind == "bin" and node[1] in ("shr", "sar"):
                self._lane(
                    nid, "bin", node[1:4:2], [self.loc[node[2][1]]]
                )
            elif kind == "bin":
                self._lane(nid, "bin", node[1], [
                    ref if ref[0] == "k" else self.loc[ref[1]]
                    for ref in node[2:]
                ])
            else:  # sex of a non-atom, byte
                self._lane(nid, kind, node[2], [self.loc[node[1]]])

    def _order_columns(self) -> None:
        """Renumber group-0 columns in the order lane groups read them,
        so the common case reads the product whole instead of through a
        permuting gather."""
        order: dict[int, int] = {}
        for lanes in self.members[1:]:
            for operands, _ in lanes:
                for op in operands:
                    if op[0] == 0:
                        order.setdefault(op[1], len(order))
        for col in range(len(self.columns)):
            order.setdefault(col, len(order))
        self.columns = [self.columns[old] for old in order]

        def moved(loc):
            return (0, order[loc[1]]) if loc[0] == 0 else loc

        self.loc = {nid: moved(loc) for nid, loc in self.loc.items()}
        for lanes in self.members[1:]:
            lanes[:] = [
                ([moved(op) for op in operands], consts)
                for operands, consts in lanes
            ]

    def _column(self, atoms: dict, base: int) -> tuple[int, int]:
        self.columns.append((atoms, base))
        return 0, len(self.columns) - 1

    def _lane(self, nid, kind, param, operands, consts=()) -> None:
        signature = (kind, param, tuple(op[0] for op in operands))
        g = self.groups.get(signature)
        if g is None:
            g = self.groups[signature] = len(self.members)
            self.signatures.append(signature)
            self.members.append([])
        self.loc[nid] = (g, len(self.members[g]))
        self.members[g].append((operands, consts))

    # -- code -------------------------------------------------------------

    def _const(self, values, dtype) -> str:
        name = f"_K{len(self.consts)}"
        self.consts[name] = np.asarray(values, dtype=dtype)
        return name

    def _slice(self, idx: list) -> str | None:
        """``idx`` as slice text when it is a progression, else ``None``."""
        step = idx[1] - idx[0] if len(idx) > 1 else 1
        if step > 0 and all(b - a == step for a, b in zip(idx, idx[1:])):
            stop = idx[-1] + 1
            return f"{idx[0]}:{stop}" + (f":{step}" if step > 1 else "")
        return None

    def _select(self, array: str, idx: list) -> str:
        """Columns ``idx`` of ``array``, C-ordered (``[:, idx]`` with an
        index array would return a Fortran-ordered copy)."""
        cut = self._slice(idx)
        if cut is not None:
            return f"{array}[:, {cut}]"
        return f"{array}.take({self._const(idx, np.intp)}, 1)"

    def _atom_key(self, nid: int) -> tuple[int, int, bool, int]:
        """(region, width, signed, offset) of an atom."""
        node = self.nodes[nid]
        signed = node[0] == "sex"
        load = self.nodes[node[1]] if signed else node
        return load[1], load[3], signed, load[2]

    def _product(self) -> list[str]:
        """Gather the atom matrices and emit ``g0 = X @ W``.

        A BLAS float product when every column's worst case — the sum of
        |coef| times its atom matrix's largest magnitude — stays below
        the float type's exact-integer limit, so every partial sum is an
        exact integer; the int64 product, exact mod 2**32, otherwise.
        """
        rows: dict[tuple, set] = {}
        worst = 0
        for atoms, _ in self.columns:
            bound = 0
            for atom, coef in atoms.items():
                region, width, signed, offset = self._atom_key(atom)
                rows.setdefault((region, width, signed), set()).add(
                    (offset, atom)
                )
                bound += abs(coef) * _ATOM_VIEWS[width, signed][2]
            worst = max(worst, bound)
        dtype, cast = next(
            ((dtype, cast) for dtype, cast, limit in _FLOAT_PRODUCTS
             if worst < limit),
            (np.int64, "_I64"),
        )
        parts = []
        for (region, width, signed), members in sorted(rows.items()):
            members = sorted(members)
            offsets = [offset for offset, _ in members]
            matrix = f"mats[{self.positions[region]}]"
            first, span = offsets[0], offsets[-1] + width - offsets[0]
            if span <= 2 * width * len(offsets) and all(
                (off - first) % width == 0 for off in offsets
            ):
                # Read the whole aligned span as one slice; the cells
                # between atoms get zero rows in W.
                row_of = {
                    atom: (off - first) // width for off, atom in members
                }
                gather = f"{matrix}[:, {first}:{first + span}]"
                n_rows = span // width
            else:
                row_of = {atom: row for row, (_, atom) in enumerate(members)}
                gather = self._select(
                    matrix, [off + b for off in offsets for b in range(width)]
                )
                n_rows = len(offsets)
            weights = np.zeros((n_rows, len(self.columns)), np.int64)
            for col, (terms, _) in enumerate(self.columns):
                for atom, coef in terms.items():
                    if atom in row_of:
                        weights[row_of[atom], col] = coef
            if (width, signed) != (1, False):
                gather += f".view({_ATOM_VIEWS[width, signed][1]})"
            parts.append(
                f"{gather}.astype({cast}) @ {self._const(weights, dtype)}"
            )
        lines = [f"    _P = {' + '.join(parts)}"]
        total = "_P" if cast == "_I64" else "_P.astype(_I64)"
        bases = [base for _, base in self.columns]
        if any(bases):
            total = f"({total} + {self._const(bases, np.int64)})"
        lines.append(f"    g0 = {total}.astype(_U32)")
        return lines

    def _width(self, g: int) -> int:
        return len(self.members[g]) if g else len(self.columns)

    def _operand(self, column: list) -> str:
        """One operand position across a group's lanes."""
        if column[0][0] == "k":
            values = [value for _, value in column]
            if len(set(values)) == 1:
                return repr(values[0])
            return self._const(values, np.uint32)
        g = column[0][0]
        lanes = [lane for _, lane in column]
        if lanes == list(range(self._width(g))):
            return f"g{g}"
        return self._select(f"g{g}", lanes)

    def _group_expr(self, g: int) -> str:
        kind, param, _ = self.signatures[g]
        lanes = self.members[g]
        ops = [
            self._operand([lane[0][k] for lane in lanes])
            for k in range(len(lanes[0][0]))
        ]
        if kind == "bin":
            if isinstance(param, tuple):
                opname, amount = param
                if opname == "shr":
                    return f"{ops[0]} >> {amount}"
                return f"({ops[0]}.view(_I32) >> {amount}).view(_U32)"
            return f"{ops[0]} {_BIN_SYMBOLS[param]} {ops[1]}"
        if kind == "sex":
            sign = 1 << (8 * param - 1)
            return f"({ops[0]} ^ {sign}) - {sign}"
        if kind == "byte":
            return (
                f"({ops[0]} >> {8 * param}) & 255" if param
                else f"{ops[0]} & 255"
            )
        *coefs, base = [
            self._operand([("k", lane[1][k]) for lane in lanes])
            for k in range(len(lanes[0][1]))
        ]
        if not ops:  # every term cancelled: a per-lane constant
            return f"_np.zeros((len(mats[0]), {len(lanes)}), _U32) + {base}"
        terms = [
            operand if coef == "1" else f"{coef} * {operand}"
            for operand, coef in zip(ops, coefs)
        ]
        if base != "0":
            terms.append(base)
        return " + ".join(terms)

    def _writebacks(self, writebacks: list) -> list[str]:
        """One store per (region, source): constants or a lane group."""
        stores: dict[tuple, tuple[list, list]] = {}
        for j, off, cell in writebacks:
            if isinstance(cell, int):
                key, value = (self.positions[j], "k"), cell
            else:
                _, source, byte = self.nodes[cell[1]]
                g, lane = self.loc[source]
                key, value = (self.positions[j], g), 4 * lane + byte
            dst, src = stores.setdefault(key, ([], []))
            dst.append(off)
            src.append(value)
        lines, viewed = [], set()
        for (position, g), (dst, src) in stores.items():
            cut = self._slice(dst) or self._const(dst, np.intp)
            target = f"mats[{position}][:, {cut}]"
            if g == "k":
                lines.append(f"    {target} = {self._const(src, np.uint8)}")
                continue
            if g not in viewed:
                viewed.add(g)
                lines.append(f"    b{g} = _bytes(g{g})")
            lines.append(f"    {target} = {self._select(f'b{g}', src)}")
        return lines

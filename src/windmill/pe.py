"""Processing element core: configuration words, ALU, and the 4-stage pipeline.

Configuration word layout (64 bits, reserved bits must be zero)::

    63:59  opcode          5 bits
    58:55  src0_sel        4 bits
    54:51  src1_sel        4 bits
    50:47  dst_sel         4 bits
    46:31  imm16           16 bits (ALU immediate, sign-extended; LSU base
                           address, zero-extended)
    30:23  iter_count      8 bits (0 and 1 both mean a single execution)
    22:19  shared_reg_idx  4 bits (stride selector for affine LSU steps)
    18:16  next_step       3 bits (0 = fall through to pc+1, else absolute)
    15:0   reserved        must be zero

Pipeline: fetch, decode, execute, write-back. A word fetched at cycle t
executes at t+2 (accumulator updated there) and drives its outbound value
during t+3, so neighbors can consume it at t+4. Execution fires only when
every required operand is valid; an op with an invalid operand holds its
stage and does not modify the accumulator. Directional tokens are one-deep:
a producer stalls in write-back until the consumer latch is free, which is
what lets statically scheduled programs tolerate dynamic memory stalls.

The Iteration Control Block repeats the word at pc ``iter_count`` times
(each instance carries its iteration index, from 0 on every entry to the
step, used by affine LSU addressing), then jumps to ``next_step``. HALT
drains the pipeline, freezes the PE and raises its done flag; walking past
the last context word does the same.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

from .arch import ArchParams, ExecMode, PeType
from .errors import (AddressOutOfRange, BitstreamTargetInvalid, CapacityExceeded,
                     DecodeError, EncodeError)
from .interconnect import Direction

MASK32 = 0xFFFFFFFF


class Opcode(IntEnum):
    NOP = 0
    ADD = 1
    SUB = 2
    MUL = 3
    AND = 4
    OR = 5
    XOR = 6
    SHL = 7
    SHR = 8
    CMP_LT = 9
    SEL = 10
    ROUTE = 12   # 11 (a deleted op) stays undefined, so no other op changes encoding
    LOAD = 13
    STORE = 14
    HALT = 15


# Binary ALU opcodes with plain (a, b) -> result semantics.
BINARY_OPS = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR,
              Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.CMP_LT)

MEMORY_OPS = (Opcode.LOAD, Opcode.STORE)


class SrcSel(IntEnum):
    """Operand source select. N..W2 read the direction input latches."""

    N = 0
    S = 1
    E = 2
    W = 3
    N2 = 4
    S2 = 5
    E2 = 6
    W2 = 7
    ACC = 8
    IMM = 9
    SREG = 10
    NONE = 11  # constant zero, always valid


class DstSel(IntEnum):
    """Result destination. N..W2 send to the neighbor in that direction."""

    N = 0
    S = 1
    E = 2
    W = 3
    N2 = 4
    S2 = 5
    E2 = 6
    W2 = 7
    ACC = 8
    RTT = 9   # controller PEs only: emit a decoded host-table action
    SREG = 10
    NONE = 11


_DIR_BY_SEL = {s: Direction[s.name] for s in SrcSel if s.value <= 7}
_DST_DIR = {d: Direction[d.name] for d in DstSel if d.value <= 7}

# Affine LSU stride table, indexed by the shared_reg_idx field.
STRIDES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 256, -1, -4)


def sign_extend16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


def to_signed32(value: int) -> int:
    value &= MASK32
    return value - 0x100000000 if value & 0x80000000 else value


class ConfigWord(NamedTuple):
    """One decoded configuration word; immutable and hashable."""

    opcode: Opcode = Opcode.NOP
    src0: SrcSel = SrcSel.N
    src1: SrcSel = SrcSel.N
    dst: DstSel = DstSel.N
    imm16: int = 0
    iter_count: int = 0
    shared_reg_idx: int = 0
    next_step: int = 0

    @property
    def iterations(self) -> int:
        return max(1, self.iter_count)


# the word layout, per ConfigWord field in order: (lowest bit, mask, values), where
# values holds exactly the field's defined values, values[v] what v decodes to: an
# enum's {value: member} table, which misses on a hole such as opcode 11, or a range
_OPS, _SRCS, _DSTS = ({m.value: m for m in enum} for enum in (Opcode, SrcSel, DstSel))
_LAYOUT = ((59, 0x1F, _OPS), (55, 0xF, _SRCS), (51, 0xF, _SRCS), (47, 0xF, _DSTS),
           (31, 0xFFFF, range(1 << 16)), (23, 0xFF, range(1 << 8)), (19, 0xF, range(1 << 4)),
           (16, 0x7, range(1 << 3)))


# bounded like ``_predecode``; validate_bitstream finds here, for free, the
# words that encode checked when the mapper packed them
@lru_cache(maxsize=1024)
def _undefined_field(word: ConfigWord) -> str | None:
    """The first field of ``word`` that is not one of its defined values, if any."""
    for name, value, (_, _, values) in zip(ConfigWord._fields, word, _LAYOUT):
        if value not in values:
            top = max(values)
            return f"{name}={value} is " + ("undefined" if 0 <= value <= top
                                            else f"outside 0..{top}")
    return None


@lru_cache(maxsize=1024)
def encode(word: ConfigWord) -> int:
    """Pack a ConfigWord into its 64-bit value; rejects undefined fields."""
    problem = _undefined_field(word)
    if problem is not None:
        raise EncodeError(problem)
    return sum(value << low for value, (low, _, _) in zip(word, _LAYOUT))


@lru_cache(maxsize=1024)
def decode(value: int) -> ConfigWord:
    """Unpack a 64-bit value; rejects reserved bits and illegal encodings."""
    if not 0 <= value < (1 << 64):
        raise DecodeError(f"value {value:#x} is not a 64-bit word")
    if value & 0xFFFF:
        raise DecodeError(f"reserved bits 15:0 are nonzero in {value:#018x}")
    try:
        return ConfigWord(*[values[(value >> low) & mask] for low, mask, values in _LAYOUT])
    except LookupError:   # a field value its table does not hold
        raw = ConfigWord(*[(value >> low) & mask for low, mask, _ in _LAYOUT])
        raise DecodeError(_undefined_field(raw)) from None


def context_capacity(exec_mode: ExecMode, context_depth_mcmd: int) -> int:
    """Words of context memory per PE: ``ArchParams.context_capacity``."""
    return ArchParams(exec_mode=exec_mode,
                      context_depth_mcmd=context_depth_mcmd).context_capacity()


# One function per binary ALU opcode. Each masks its result (and, where the
# operation is not modular, its inputs) to 32 bits, so any int operands give
# the same result as masking them first.
_ALU = {
    Opcode.ADD: lambda a, b: (a + b) & MASK32,
    Opcode.SUB: lambda a, b: (a - b) & MASK32,
    Opcode.MUL: lambda a, b: (a * b) & MASK32,
    Opcode.AND: lambda a, b: a & b & MASK32,
    Opcode.OR: lambda a, b: (a | b) & MASK32,
    Opcode.XOR: lambda a, b: (a ^ b) & MASK32,
    Opcode.SHL: lambda a, b: (a << (b & 31)) & MASK32,
    Opcode.SHR: lambda a, b: (a & MASK32) >> (b & 31),
    Opcode.CMP_LT: lambda a, b: 1 if to_signed32(a) < to_signed32(b) else 0,
}


def alu_eval(opcode: Opcode, a: int, b: int) -> int:
    """Reference two's-complement semantics for the binary ALU opcodes.

    32-bit wrapping arithmetic; MUL keeps the low 32 bits; shift amounts are
    masked to 5 bits; SHR is a logical right shift; CMP_LT compares signed.
    """
    fn = _ALU.get(opcode)
    if fn is None:
        raise ValueError(f"{opcode} is not a binary ALU opcode")
    return fn(a, b)


def lsu_addr(word: ConfigWord, iter_idx: int, src1_value: int | None) -> int:
    """Word address for a memory op.

    Affine (src1 = NONE): base from imm16 plus the selected stride times the
    iteration index. Non-affine: the src1 operand value is the address.
    """
    if word.src1 == SrcSel.NONE:
        addr = (word.imm16 & 0xFFFF) + STRIDES[word.shared_reg_idx] * iter_idx
    else:
        addr = src1_value & MASK32
    if addr < 0:
        raise AddressOutOfRange(f"negative generated address {addr}")
    return addr


# --- bitstream wire format ---------------------------------------------------
#
# Per-PE record: 32-bit little-endian header (row in bits 31:24, col in
# 23:16, word count in 15:0) followed by count 64-bit little-endian words.

_HEADER = struct.Struct("<I")
_WORD = struct.Struct("<Q")


def record_holders(params: ArchParams, row: int, col: int) -> tuple:
    """The PEs a record for (row, col) configures: under SCMD its row shares
    one stream, so every PE of that row."""
    if params.exec_mode is ExecMode.SCMD:
        return tuple((row, c) for c in range(params.cols))
    return ((row, col),)


def pack_bitstream(records: list[tuple[int, int, list[ConfigWord]]]) -> bytes:
    out = bytearray()
    for row, col, words in records:
        if not (0 <= row < 256 and 0 <= col < 256 and len(words) < 65536):
            raise EncodeError(f"bitstream record ({row},{col}) header field overflow")
        out += _HEADER.pack((row << 24) | (col << 16) | len(words))
        for w in words:
            out += _WORD.pack(encode(w))
    return bytes(out)


def unpack_bitstream(blob: bytes) -> list[tuple[int, int, list[ConfigWord]]]:
    records = []
    off = 0
    while off < len(blob):
        if off + 4 > len(blob):
            raise DecodeError("truncated bitstream header")
        (header,) = _HEADER.unpack_from(blob, off)
        off += 4
        row, col, count = header >> 24, (header >> 16) & 0xFF, header & 0xFFFF
        present = min(count, (len(blob) - off) // 8)
        words = [decode(value) for value in struct.unpack_from(f"<{present}Q", blob, off)]
        off += 8 * present
        if present < count:
            raise DecodeError(f"truncated record for PE ({row},{col})")
        records.append((row, col, words))
    return records


def validate_bitstream(machine, records: list[tuple[int, int, list[ConfigWord]]]):
    """Static legality of a bitstream against a ``plugins.MachineRecord``.

    Every field a defined value, memory ops only on LSUs, the RTT
    destination only on the CPE and, in the words that emit, only with a
    nibble the machine's RTT maps to an action a controller may queue, a
    directional select (N..W2) the word reads only where a link of its PE
    fills that latch, one it drives only when some link of the machine runs
    that way (a drive off the grid edge is legal and drops its value),
    shared-register selects the PE reads or writes within the register
    count, capacity respected, all targets inside the grid. The rules hold
    on every PE a record configures (under SCMD its whole row:
    ``record_holders``), and no PE is configured twice. Each word is checked
    once per process for each PE type, register count, pair of
    link-direction sets and set of controller nibbles it meets.
    """
    params = machine.params
    cap = params.context_capacity()
    n_sregs = params.shared_reg_count
    directions = machine.derived(_link_directions)
    cell_directions = machine.derived(_cell_directions)
    # the RTT payload nibbles a controller may emit: every action but load_manifest
    nibbles = frozenset(op for op, action in machine.rtt.items() if action != "load_manifest")
    seen = set()
    for row, col, words in records:
        if not (0 <= row < params.rows and 0 <= col < params.cols):
            raise BitstreamTargetInvalid(f"record targets ({row},{col}) outside grid")
        for r, c in record_holders(params, row, col):
            if (r, c) in seen:
                raise BitstreamTargetInvalid(f"duplicate record for PE ({r},{c})")
            seen.add((r, c))
            if len(words) > cap:
                raise CapacityExceeded(f"PE ({r},{c}): {len(words)} words > capacity {cap}")
            pe_type, links = params.pe_type(r, c), cell_directions[(r, c)]
            for i, w in enumerate(words):
                problem = _word_problem(w, pe_type, n_sregs, links, directions, nibbles)
                if problem is not None:
                    raise BitstreamTargetInvalid(f"PE ({r},{c}) word {i}: {problem}")


def _link_directions(machine) -> frozenset:
    """The directions the machine's links run in, anywhere on the grid."""
    return frozenset(d for out in machine.ports.values() for d in out)


def _cell_directions(machine) -> dict:
    """Per cell, the directions its links run in: the latches its neighbors
    fill. Equal sets are one object, so a memo hit compares by identity."""
    shared: dict = {}
    return {rc: shared.setdefault(frozenset(out), frozenset(out))
            for rc, out in machine.ports.items()}


# bounded like its sibling memos; a config re-registered per job, or a word
# many PEs share, is checked once per process
@lru_cache(maxsize=1024)
def _word_problem(w: ConfigWord, pe_type: PeType, n_sregs: int, cell_directions: frozenset,
                  directions: frozenset, nibbles: frozenset) -> str | None:
    """Why ``w`` may not sit on a PE of that type, if it may not."""
    problem = _undefined_field(w)
    if problem is not None:
        return problem
    if w.opcode in MEMORY_OPS and pe_type is not PeType.LSU:
        return f"{Opcode(w.opcode).name} on a {pe_type.name}"
    if w.dst == DstSel.RTT and pe_type is not PeType.CPE:
        return f"RTT destination on a {pe_type.name}"
    # the rest reads the word as the PE runs it, so only a select it reads,
    # or a destination it writes, needs a link or names a register: a HALT's
    # all-zero fields encode N, and the index field is also a memory op's
    # stride selector
    _, _, srcs, pulls, to, to_arg, *_ = _predecode(w)
    if to == _TO_RTT and to_arg >> 12 not in nibbles:
        return f"controller action nibble {to_arg >> 12:#x} undefined"
    used = [("reads", d, cell_directions) for d in pulls]
    if to == _TO_LATCH:
        used.append(("drives", to_arg, directions))
    for verb, direction, links in used:
        if direction not in links:
            owner = "the PE" if direction in directions else "the machine"
            return f"{verb} {direction.name}, but {owner} has no {direction.name} link"
    if w.shared_reg_idx >= n_sregs and (to == _TO_SREG or (_S_SREG, w.shared_reg_idx) in srcs):
        return f"shared register {w.shared_reg_idx} (count {n_sregs})"
    return None


# --- runtime -----------------------------------------------------------------
#
# _predecode turns a ConfigWord into a flat tuple, memoised process-wide, so the
# per-cycle path does no Enum hashing or property lookup. The tuple depends
# on the word's value alone, not on the PE that holds it:
#
#     (kind, alu, srcs, pulls, to, to_arg, entry, iterations, next_step, word)
#
# kind        one of the _K_* codes below; alu is the _ALU function of an
#             _K_ALU word. Every kind fires only once all of srcs are valid, so
#             its result is a function of their values alone, not of timing
# srcs        the required operands in firing order, each (_S_* code, arg):
#             the entry latch Direction, a constant, or a shared-register index
# pulls       the latch directions among srcs, each once, consumed when the
#             word fires
# to          one of the _TO_* codes, _TO_NONE for the opcodes that write no
#             result (NOP, STORE, HALT); to_arg is the shared-register index, the
#             RTT payload or the drive Direction, and entry is the latch the
#             value lands in at the receiver, which write-back finds in the
#             PE's port table (no neighbor: the value drops off the grid)
# word        the ConfigWord itself, for the memory-address path and
#             ``PE.context``

_K_NOP, _K_ALU, _K_ROUTE, _K_SEL, _K_LOAD, _K_STORE, _K_HALT = range(7)
_KIND = {Opcode.NOP: _K_NOP, Opcode.ROUTE: _K_ROUTE, Opcode.SEL: _K_SEL,
         Opcode.LOAD: _K_LOAD, Opcode.STORE: _K_STORE, Opcode.HALT: _K_HALT,
         **{op: _K_ALU for op in BINARY_OPS}}

_S_LATCH, _S_CONST, _S_ACC, _S_SREG = range(4)

_TO_NONE, _TO_ACC, _TO_LATCH, _TO_SREG, _TO_RTT = range(5)


def _required(word: ConfigWord) -> tuple:
    """The source selects an opcode needs valid before it can fire."""
    op = word.opcode
    if op in (Opcode.NOP, Opcode.HALT):
        return ()
    if op == Opcode.ROUTE:
        return (word.src0,)
    if op == Opcode.LOAD:
        return () if word.src1 == SrcSel.NONE else (word.src1,)
    if op == Opcode.STORE:
        return (word.src0,) if word.src1 == SrcSel.NONE else (word.src0, word.src1)
    return (word.src0, word.src1)


# decoded sources that do not depend on the word's other fields
_FIXED_SOURCE = {SrcSel.NONE: (_S_CONST, 0), SrcSel.ACC: (_S_ACC, None),
                 **{s: (_S_LATCH, d) for s, d in _DIR_BY_SEL.items()}}
# decoded destinations that do not depend on the word's other fields; a
# directional one is (drive direction, entry latch at the receiver)
_FIXED_DESTINATION = {DstSel.NONE: (_TO_NONE, None, None), DstSel.ACC: (_TO_ACC, None, None),
                      **{s: (_TO_LATCH, d, d.opposite) for s, d in _DST_DIR.items()}}


def _source(sel: SrcSel, word: ConfigWord) -> tuple:
    fixed = _FIXED_SOURCE.get(sel)
    if fixed is not None:
        return fixed
    if sel == SrcSel.IMM:
        return (_S_CONST, sign_extend16(word.imm16) & MASK32)
    return (_S_SREG, word.shared_reg_idx)


def _destination(word: ConfigWord) -> tuple:
    if word.opcode in (Opcode.NOP, Opcode.STORE, Opcode.HALT):   # no result to write
        return _FIXED_DESTINATION[DstSel.NONE]
    fixed = _FIXED_DESTINATION.get(word.dst)
    if fixed is not None:
        return fixed
    if word.dst == DstSel.SREG:
        return (_TO_SREG, word.shared_reg_idx, None)
    return (_TO_RTT, word.imm16, None)


# bounded: a compile-and-run loop brings new words with every graph; 1024
# holds the words configs keep reusing at ~0.5 MB
@lru_cache(maxsize=1024)
def _predecode(word: ConfigWord) -> tuple:
    """The runtime tuple of ``word``, shared by every PE and config that
    holds an equal word."""
    srcs = tuple(_source(sel, word) for sel in _required(word))
    pulls = tuple(dict.fromkeys(arg for kind, arg in srcs if kind == _S_LATCH))
    return (_KIND[word.opcode], _ALU.get(word.opcode), srcs, pulls, *_destination(word),
            word.iterations, word.next_step, word)


def predecode(words) -> tuple:
    """``words`` as a context ``PE.load_context`` takes: their runtime tuples."""
    return tuple(map(_predecode, words))


class PE:
    """One processing element's architectural and pipeline state.

    ``tick`` advances all four stages one cycle against start-of-cycle
    snapshots provided by the surrounding array (input latches, shared
    registers, memory responses), making intra-cycle evaluation order
    irrelevant. Pipeline slots hold pre-decoded words (see ``_predecode``).
    """

    __slots__ = ("coord", "ports", "_code", "pc", "iteration", "latch",
                 "acc", "f_slot", "d_slot", "x_slot", "w_slot", "done", "active_cycles")

    def __init__(self, coord, ports: dict[Direction, tuple]):
        self.coord = coord
        self.ports = ports  # outgoing direction -> destination coord
        self._code: tuple = ()   # the loaded context, pre-decoded
        self.pc = 0
        self.iteration = 0   # of the word at pc; back to 0 whenever pc moves
        # input latches: entry direction -> value (present = occupied)
        self.latch: dict[Direction, int] = {}
        self.acc = 0
        # pipeline slots
        self.f_slot: tuple | None = None   # (decoded word, iter)
        self.d_slot: tuple | None = None   # (decoded word, iter)
        self.x_slot: tuple | None = None   # (decoded word, value), None while memory answers
        self.w_slot: tuple | None = None   # (decoded word, value)
        self.done = True
        self.active_cycles = 0

    # -- configuration flow (never touches data-flow latches) ------------

    @property
    def context(self) -> list[ConfigWord]:
        """The loaded words, read back from their pre-decoded form."""
        return [dec[9] for dec in self._code]

    def load_context(self, code: tuple):
        """Load a validated context, pre-decoded by ``predecode``, by
        reference; ``launch_reset`` arms it."""
        self._code = code

    def launch_reset(self):
        """Start of a compute phase: rewind the ICB and clear data-flow state."""
        self.pc = self.iteration = 0
        self.latch.clear()
        self.acc = 0
        self.f_slot = self.d_slot = self.x_slot = self.w_slot = None
        self.done = not self._code

    # -- data flow --------------------------------------------------------

    def tick(self, bus) -> bool:
        """Advance one cycle; False exactly when it changed no slot, counter
        or flag and staged no bus effect, or held its decoded word for a
        missing operand: either way it cannot move next cycle unless woken.
        A held tick still runs its write-back and a fetch into an empty fetch
        slot. A PE waiting on memory counts an active cycle, so it always
        returns True. Latch effects are appended to the bus's ``deliveries``
        and ``consumes`` lists."""
        if self.done:
            return False
        moved = held = False
        # write back: drive the outbound value, or stall on a full latch
        w = self.w_slot
        if w is not None:
            dec, value = w
            to = dec[4]
            dest = self.ports.get(dec[5]) if to == _TO_LATCH else None
            receiver = None if dest is None else bus.pes[dest]
            if receiver is None or dec[6] not in receiver.latch:
                if receiver is not None:
                    bus.deliveries.append((receiver, dec[6], value))
                elif to == _TO_SREG:
                    bus.sreg_write(self.coord, dec[5], value)
                elif to == _TO_RTT:
                    bus.rtt_action(self.coord, dec[5])
                self.w_slot = None   # a latch value with no neighbor drops off the grid
                moved = True
        # execute
        x = self.x_slot
        if x is not None:
            dec, value = x
            if value is None:
                value = bus.mem_response(self.coord)  # None until the reply arrives
                if value is not None:
                    self._complete(dec, value)   # a STORE writes no destination
                self.active_cycles += 1
                moved = True
            elif self.w_slot is None:
                # the result waited for the write-back slot to drain
                self.w_slot, self.x_slot = x, None
                moved = True
        elif self.d_slot is not None:
            if self._execute(bus):
                moved = True
            else:
                # held: decode cannot pass the word, and only a delivery into a
                # latch it pulls, a shared-register commit or the consume a
                # blocked write-back waits on can move the PE next cycle. The
                # tick still fetches into an empty slot, and reports no move.
                moved, held = False, True
        # decode
        if self.d_slot is None and self.f_slot is not None:
            self.d_slot, self.f_slot = self.f_slot, None
            moved = True
        # fetch
        if self.f_slot is not None:
            return moved
        code = self._code
        pc = self.pc
        if pc >= len(code):
            if self.d_slot is None and self.x_slot is None and self.w_slot is None:
                self.done = moved = True
            return moved
        dec = code[pc]
        if dec[0] == _K_HALT and (self.d_slot is not None or self.x_slot is not None
                                  or self.w_slot is not None):
            return moved  # let the pipeline drain before the freeze enters it
        iteration = self.iteration
        self.f_slot = (dec, iteration)
        if iteration + 1 < dec[7]:
            self.iteration = iteration + 1
        else:   # a step is left only after its last iteration, so each is entered at 0
            self.pc = pc + 1 if dec[8] == 0 else dec[8]
            self.iteration = 0
        return not held

    def _execute(self, bus) -> bool:
        """Fire the decoded word and return True when every required operand
        is valid; otherwise hold it, leaving the accumulator untouched."""
        dec, iter_idx = self.d_slot
        kind = dec[0]
        if kind == _K_HALT:   # fetched only behind an empty pipeline: write-back is empty
            # freeze: context stays loaded for a later relaunch
            self.d_slot = self.f_slot = None
            self.pc = len(self._code)
            self.done = True
            return True
        latch = self.latch
        vals = []
        for src, arg in dec[2]:
            if src == _S_LATCH:
                if arg not in latch:
                    return False
                vals.append(latch[arg])
            elif src == _S_CONST:
                vals.append(arg)
            else:
                value, valid = self._operand(src, arg, bus)
                if not valid:
                    return False
                vals.append(value)
        for direction in dec[3]:
            bus.consumes.append((self, direction))
        if kind == _K_ALU:
            result = dec[1](vals[0], vals[1])
        elif kind == _K_ROUTE:
            result = vals[0]
        elif kind == _K_SEL:
            result = vals[1] if vals[0] != 0 else 0
        else:
            result = None   # NOP, or a memory op
        if kind == _K_LOAD or kind == _K_STORE:
            self._mem_request(dec, iter_idx, vals, bus)   # a faulting post counts no cycle
        else:
            self._complete(dec, result)
        self.d_slot = None
        self.active_cycles += 1
        return True

    def waiting_on(self, bus) -> str:
        """What a sleeping PE waits for: a full latch, or operands it lacks."""
        if self.w_slot is not None:
            direction, entry = self.w_slot[0][5:7]
            return f"PE {self.coord} blocked on ({self.ports[direction]}, {entry.name})"
        lacks = [f"latch {arg.name}" if src == _S_LATCH else f"shared register {arg}"
                 for src, arg in self.d_slot[0][2] if not self._operand(src, arg, bus)[1]]
        return f"PE {self.coord} lacks {' and '.join(lacks)}"

    def _operand(self, src: int, arg, bus) -> tuple[int, bool]:
        """(value, valid) of one decoded source."""
        if src == _S_LATCH:
            return self.latch.get(arg, 0), arg in self.latch
        if src == _S_CONST:
            return arg, True
        if src == _S_ACC:
            return self.acc, True
        return bus.sreg_read(self.coord, arg)

    def _mem_request(self, dec, iter_idx: int, vals: list, bus):
        """Post a memory op to the scratchpad; execute waits for the reply."""
        word = dec[9]
        addr = lsu_addr(word, iter_idx, vals[-1] if word.src1 != SrcSel.NONE else None)
        store = dec[0] == _K_STORE
        bus.mem_request(self.coord, "write" if store else "read", addr,
                        vals[0] if store else None)
        self.x_slot = (dec, None)

    def _complete(self, dec, result):
        """Execute-stage completion: accumulator updates land here; outbound
        destinations continue to the write-back stage."""
        self.x_slot = None
        to = dec[4]
        if to == _TO_NONE:
            return
        value = result & MASK32
        if to == _TO_ACC:
            self.acc = value
        elif self.w_slot is None:
            self.w_slot = (dec, value)
        else:
            self.x_slot = (dec, value)

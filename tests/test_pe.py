"""Config word encoding, ALU semantics, and the 4-stage pipeline."""

import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from windmill.arch import (ArchParams, ExecMode, TopologyKind, standard_preset,
                           validate, with_default_type_map)
from windmill.errors import (BitstreamTargetInvalid, CapacityExceeded, DecodeError,
                             EncodeError)
from windmill.interconnect import Direction
from windmill.pe import (PE, BINARY_OPS, MEMORY_OPS, ConfigWord, DstSel, Opcode, SrcSel,
                         _predecode, _required, _undefined_field, alu_eval,
                         context_capacity, decode, encode, lsu_addr, pack_bitstream,
                         predecode, unpack_bitstream, validate_bitstream)
from windmill.plugins import DEFAULT_RTT, HOST_RTT, read_machine, standard_machine
from windmill.system import SystemSim

from test_machine import build_with, provider

# --- encode / decode -----------------------------------------------------------

VALID_WORDS = st.builds(
    ConfigWord,
    opcode=st.sampled_from(Opcode),
    src0=st.sampled_from(SrcSel),
    src1=st.sampled_from(SrcSel),
    dst=st.sampled_from(DstSel),
    imm16=st.integers(0, 0xFFFF),
    iter_count=st.integers(0, 0xFF),
    shared_reg_idx=st.integers(0, 0xF),
    next_step=st.integers(0, 0x7),
)

# each ConfigWord field's bound: one past its largest enum value, else 1 << bit width
FIELD_BOUNDS = (16, 12, 12, 12, 1 << 16, 1 << 8, 1 << 4, 1 << 3)
UNDEFINED_OPCODE = 11   # the one hole below an enum field's bound


class TestEncoding:
    def test_all_zero_is_nop(self):
        assert encode(ConfigWord()) == 0
        assert decode(0).opcode is Opcode.NOP

    def test_golden_add_imm(self):
        """ADD with src0 from the north latch, src1 immediate 5, into acc."""
        word = ConfigWord(Opcode.ADD, SrcSel.N, SrcSel.IMM, DstSel.ACC, imm16=5)
        # derived once from the documented field offsets
        expected = (1 << 59) | (0 << 55) | (9 << 51) | (8 << 47) | (5 << 31)
        assert expected == 0x084C000280000000
        assert encode(word) == expected

    @given(VALID_WORDS)
    def test_roundtrip(self, word):
        assert decode(encode(word)) == word

    def test_roundtrip_random_corpus(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            word = ConfigWord(
                opcode=rng.choice(tuple(Opcode)),
                src0=SrcSel(rng.randrange(12)),
                src1=SrcSel(rng.randrange(12)),
                dst=DstSel(rng.randrange(12)),
                imm16=rng.randrange(1 << 16),
                iter_count=rng.randrange(1 << 8),
                shared_reg_idx=rng.randrange(1 << 4),
                next_step=rng.randrange(1 << 3),
            )
            assert decode(encode(word)) == word

    def test_reserved_bits_rejected(self):
        with pytest.raises(DecodeError):
            decode(1)

    def test_bad_opcode_rejected(self):
        with pytest.raises(DecodeError):
            decode(16 << 59)

    def test_bad_select_rejected(self):
        with pytest.raises(DecodeError):
            decode(13 << 55)

    @pytest.mark.parametrize("value, message", [
        (16 << 59, "opcode=16 is outside 0..15"),
        ((1 << 59) | (12 << 55), "src0=12 is outside 0..11"),
        (15 << 51, "src1=15 is outside 0..11"),
        ((31 << 59) | (13 << 47), "opcode=31 is outside 0..15"),
        (13 << 47, "dst=13 is outside 0..11"),
    ])
    def test_undefined_encoding_names_the_first_bad_field(self, value, message):
        with pytest.raises(DecodeError, match=f"^{message}$"):
            decode(value)

    @pytest.mark.parametrize("value, shown", [(1 << 64, "0x10000000000000000"), (-1, "-0x1")])
    def test_value_wider_than_a_word_rejected(self, value, shown):
        with pytest.raises(DecodeError, match=f"^value {shown} is not a 64-bit word$"):
            decode(value)

    def test_opcode_11_undefined_at_decode(self):
        with pytest.raises(DecodeError, match="^opcode=11 is undefined$"):
            decode(UNDEFINED_OPCODE << 59)

    def test_opcode_11_undefined_at_encode(self):
        with pytest.raises(EncodeError, match="^opcode=11 is undefined$"):
            encode(ConfigWord(opcode=UNDEFINED_OPCODE))

    def test_field_overflow_rejected(self):
        with pytest.raises(EncodeError):
            encode(ConfigWord(imm16=1 << 16))

    @pytest.mark.parametrize("word, message", [
        (ConfigWord(opcode=99), "opcode=99 is outside 0..15"),
        (ConfigWord(Opcode.ADD, SrcSel.IMM, 77), "src1=77 is outside 0..11"),
        (ConfigWord(dst=12), "dst=12 is outside 0..11"),
    ])
    def test_undefined_enum_value_rejected(self, word, message):
        """An out-of-enum value raises; masking it would write another member."""
        with pytest.raises(EncodeError, match=message):
            encode(word)

    @given(st.tuples(*[st.integers(-2, bound + 2) for bound in FIELD_BOUNDS]))
    def test_accepted_words_roundtrip(self, fields):
        """Any int fields: encode accepts exactly the defined words, and
        decoding what it packs gives the word back."""
        word = ConfigWord(*fields)
        if (all(0 <= v < bound for v, bound in zip(fields, FIELD_BOUNDS))
                and word.opcode != UNDEFINED_OPCODE):
            assert decode(encode(word)) == word
        else:
            with pytest.raises(EncodeError):
                encode(word)


class TestCodecMemo:
    def test_memos_are_bounded(self):
        assert encode.cache_info().maxsize is not None
        assert decode.cache_info().maxsize is not None
        assert _undefined_field.cache_info().maxsize is not None

    @pytest.mark.parametrize("call, bad, error", [
        (encode, ConfigWord(opcode=99), EncodeError),
        (decode, 16 << 59, DecodeError),
        (decode, 1, DecodeError),
    ])
    def test_errors_are_not_cached(self, call, bad, error):
        for _ in range(2):
            with pytest.raises(error):
                call(bad)

    def test_memoised_words_are_equal_values(self):
        word = ConfigWord(Opcode.ADD, SrcSel.N, SrcSel.IMM, DstSel.ACC, imm16=5)
        assert encode(word) == encode(ConfigWord(*map(int, word))) == 0x084C000280000000
        assert decode(encode(word)) is decode(0x084C000280000000)


class TestCapacity:
    def test_mcmd(self):
        assert context_capacity(ExecMode.MCMD, 16) == 16

    def test_scmd_eightfold(self):
        assert context_capacity(ExecMode.SCMD, 16) == 128

    @pytest.mark.parametrize("depth", range(1, 65))
    def test_ratio_definitional(self, depth):
        assert context_capacity(ExecMode.SCMD, depth) \
            == 8 * context_capacity(ExecMode.MCMD, depth)


# --- ALU -------------------------------------------------------------------------


def reference_alu(op, a, b):
    """Independent scalar model: C-style 32-bit two's complement."""
    s = lambda x: struct.unpack("<i", struct.pack("<I", x & 0xFFFFFFFF))[0]
    if op is Opcode.ADD:
        return (a + b) % 2**32
    if op is Opcode.SUB:
        return (a - b) % 2**32
    if op is Opcode.MUL:
        return (a * b) % 2**32
    if op is Opcode.AND:
        return a & b
    if op is Opcode.OR:
        return a | b
    if op is Opcode.XOR:
        return a ^ b
    if op is Opcode.SHL:
        return (a << (b % 32)) % 2**32
    if op is Opcode.SHR:
        return a >> (b % 32)
    if op is Opcode.CMP_LT:
        return int(s(a) < s(b))
    raise AssertionError(op)


class TestAlu:
    @pytest.mark.parametrize("op", BINARY_OPS, ids=lambda o: o.name)
    def test_matches_reference_100k(self, op):
        rng = random.Random(hash(op.name) & 0xFFFF)
        randbits = rng.getrandbits
        for _ in range(100_000):
            a, b = randbits(32), randbits(32)
            assert alu_eval(op, a, b) == reference_alu(op, a, b)

    def test_wrapping_edges(self):
        assert alu_eval(Opcode.ADD, 0xFFFFFFFF, 1) == 0
        assert alu_eval(Opcode.SUB, 0, 1) == 0xFFFFFFFF
        assert alu_eval(Opcode.MUL, 0x10000, 0x10000) == 0
        assert alu_eval(Opcode.CMP_LT, 0xFFFFFFFF, 0) == 1  # -1 < 0 signed

    @pytest.mark.parametrize("op", [op for op in Opcode if op not in BINARY_OPS],
                             ids=lambda o: o.name)
    def test_other_opcodes_rejected(self, op):
        with pytest.raises(ValueError, match="is not a binary ALU opcode$"):
            alu_eval(op, 1, 2)


class TestLsuAddr:
    def test_affine_unit_stride(self):
        word = ConfigWord(Opcode.LOAD, src1=SrcSel.NONE, imm16=0, shared_reg_idx=1)
        assert [lsu_addr(word, i, None) for i in range(4)] == [0, 1, 2, 3]

    def test_affine_stride_two(self):
        word = ConfigWord(Opcode.LOAD, src1=SrcSel.NONE, imm16=8, shared_reg_idx=2)
        assert lsu_addr(word, 3, None) == 14

    def test_non_affine_from_operand(self):
        word = ConfigWord(Opcode.LOAD, src1=SrcSel.W)
        assert lsu_addr(word, 0, 42) == 42

    def test_plain_int_twin_is_affine_too(self):
        word = ConfigWord(Opcode.LOAD, src1=SrcSel.NONE, imm16=8, shared_reg_idx=2)
        assert lsu_addr(int_twin(word), 3, None) == 14


# --- decode and validate by value -----------------------------------------------


def int_twin(word):
    """``word`` with every field a plain int: equal and hash-equal to it."""
    return ConfigWord(*map(int, word))


class TestByValue:
    """Equal words decode and validate alike, so one memo serves every config."""

    @given(VALID_WORDS)
    def test_plain_int_twin_decodes_alike(self, word):
        twin = int_twin(word)
        assert twin == word and hash(twin) == hash(word)
        assert _predecode.__wrapped__(twin) == _predecode.__wrapped__(word)

    def test_route_twin(self):
        twin = ConfigWord(12, 3, 0, 2)
        word = ConfigWord(Opcode.ROUTE, SrcSel.W, SrcSel.N, DstSel.E)
        assert twin == word
        assert _required(twin) == _required(word) == (SrcSel.W,)
        _predecode.cache_clear()
        assert _predecode(twin) is _predecode(word)
        assert _predecode.cache_info().misses == 1

    @pytest.mark.parametrize("opcode", [Opcode.ADD, Opcode.STORE])
    def test_latch_read_twice_is_pulled_once(self, opcode):
        """Both operands from latch N: two sources, one consume."""
        dec = _predecode.__wrapped__(ConfigWord(opcode, SrcSel.N, SrcSel.N, DstSel.ACC))
        assert [arg for _, arg in dec[2]] == [Direction.N, Direction.N]
        assert dec[3] == (Direction.N,)

    @pytest.mark.parametrize("dst", [DstSel.RTT, int(DstSel.RTT)])
    def test_rtt_destination_on_a_gpe_rejected(self, dst):
        word = ConfigWord(Opcode.ROUTE, SrcSel.IMM, SrcSel.NONE, dst, imm16=0x3000)
        with pytest.raises(BitstreamTargetInvalid) as exc:
            validate_bitstream(standard_machine(standard_preset()), [(2, 2, [word])])
        assert str(exc.value) == "PE (2,2) word 0: RTT destination on a GPE"

    @pytest.mark.parametrize("opcode", [op for op in Opcode if op not in MEMORY_OPS])
    @pytest.mark.parametrize("nibble, rtt", [
        pytest.param(0x0, DEFAULT_RTT, id="0"), pytest.param(0x5, DEFAULT_RTT, id="5"),
        pytest.param(0xF, DEFAULT_RTT, id="15"),
        pytest.param(0x2, {**DEFAULT_RTT, 0x02: "load_manifest", 0x05: "load_data"},
                     id="2-load_manifest")])
    def test_undefined_controller_action_rejected(self, opcode, nibble, rtt):
        """Words that emit carry an RTT payload whose nibble the machine's RTT
        maps to an action a controller may queue, any but load_manifest; NOP
        and HALT never emit, so their payload is free."""
        machine = read_machine(build_with(standard_preset(), provider("HostBridge", HOST_RTT, rtt)))
        word = ConfigWord(opcode, SrcSel.IMM, SrcSel.IMM, DstSel.RTT, imm16=nibble << 12 | 7)
        load_data = next(op for op, action in rtt.items() if action == "load_data")
        good = word._replace(imm16=load_data << 12 | 7)
        if opcode in (Opcode.NOP, Opcode.HALT):
            SystemSim(machine).register_config(0, [(1, 1, [word])])   # the CPE
            return
        with pytest.raises(BitstreamTargetInvalid) as exc:
            SystemSim(machine).register_config(0, [(1, 1, [good, word])])
        assert str(exc.value) == f"PE (1,1) word 1: controller action nibble {nibble:#x} undefined"

    @pytest.mark.parametrize("word, problem", [
        (ConfigWord(opcode=99), "opcode=99 is outside 0..15"),
        (ConfigWord(Opcode.ADD, SrcSel.IMM, 77, DstSel.ACC), "src1=77 is outside 0..11"),
        (ConfigWord(UNDEFINED_OPCODE, SrcSel.N, SrcSel.S, DstSel.ACC), "opcode=11 is undefined"),
    ])
    def test_undefined_field_rejected_at_registration(self, word, problem):
        """A hand-built word with an undefined value is refused before any
        cycle runs, naming the PE and word; its plain-int twin of a defined
        word still registers."""
        system = SystemSim(standard_preset())
        with pytest.raises(BitstreamTargetInvalid) as exc:
            system.register_config(0, [(2, 2, [ConfigWord(), word])])
        assert str(exc.value) == f"PE (2,2) word 1: {problem}"
        system.register_config(0, [(2, 2, [int_twin(ConfigWord(Opcode.ADD, SrcSel.IMM))])])

    def test_int_twin_memory_op_on_a_gpe_named(self):
        with pytest.raises(BitstreamTargetInvalid) as exc:
            validate_bitstream(standard_machine(standard_preset()),
                               [(2, 2, [int_twin(ConfigWord(Opcode.LOAD))])])
        assert str(exc.value) == "PE (2,2) word 0: LOAD on a GPE"

    @pytest.mark.parametrize("dst", [DstSel.SREG, int(DstSel.SREG)])
    def test_sreg_destination_index_checked(self, dst):
        word = ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, dst, shared_reg_idx=7)
        with pytest.raises(BitstreamTargetInvalid) as exc:
            validate_bitstream(standard_machine(standard_preset()), [(2, 2, [word])])
        assert str(exc.value) == "PE (2,2) word 0: shared register 7 (count 4)"


# --- pipeline harness --------------------------------------------------------------


class FakeBus:
    """Single-PE test double implementing the array-side bus protocol:
    write-back reads a receiver's latch through ``pes``, and the PE appends
    deliveries and consumes, by PE object, to the two staging lists, which
    ``end_cycle`` applies."""

    def __init__(self, pes):
        self.pes = dict(pes)
        self.consumes = []
        self.deliveries = []
        self.mem_requests = []
        self.responses = {}
        self._next_responses = {}
        self.sreg = {}
        self.rtt_actions = []

    def sreg_read(self, coord, idx):
        return self.sreg.get(idx, (0, False))

    def sreg_write(self, coord, idx, value):
        self.sreg[idx] = (value, True)

    def mem_request(self, coord, op, addr, data=None):
        self.mem_requests.append((coord, op, addr, data))

    def mem_response(self, coord):
        return self.responses.pop(coord, None)

    def rtt_action(self, coord, imm16):
        self.rtt_actions.append((coord, imm16))

    def end_cycle(self):
        for pe, direction in set(self.consumes):
            del pe.latch[direction]
        self.consumes.clear()
        for pe, direction, value in self.deliveries:
            assert direction not in pe.latch
            pe.latch[direction] = value
        self.deliveries.clear()
        self.responses = self._next_responses
        self._next_responses = {}


def make_pe(words, coord=(0, 0), ports=None):
    pe = PE(coord, ports or {})
    pe.load_context(predecode(words))
    pe.launch_reset()
    return pe


def tick_n(pe, bus, n):
    for _ in range(n):
        pe.tick(bus)
        bus.end_cycle()


ADD_ACC_1 = ConfigWord(Opcode.ADD, SrcSel.ACC, SrcSel.IMM, DstSel.ACC, imm16=1)


class TestPipeline:
    def test_nop_only_bookkeeping(self):
        pe = make_pe([ConfigWord()])
        bus = FakeBus({(0, 0): pe})
        tick_n(pe, bus, 8)
        assert pe.done
        assert pe.acc == 0
        assert bus.deliveries == [] and bus.mem_requests == []

    def test_add_imm_completes_cycle_3(self):
        """Cold pipeline: fetch, decode, execute; acc holds 5 after cycle 3."""
        word = ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=5)
        pe = make_pe([word])
        bus = FakeBus({(0, 0): pe})
        tick_n(pe, bus, 2)
        assert pe.acc == 0
        tick_n(pe, bus, 1)
        assert pe.acc == 5

    def test_two_imm_sum(self):
        """2 + 3 across two words (one immediate field per word)."""
        words = [
            ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=2),
            ConfigWord(Opcode.ADD, SrcSel.ACC, SrcSel.IMM, DstSel.ACC, imm16=3),
        ]
        pe = make_pe(words)
        bus = FakeBus({(0, 0): pe})
        tick_n(pe, bus, 4)
        assert pe.acc == 5

    def test_result_visible_to_neighbor_at_writeback(self):
        """Output parked in the neighbor latch exactly 4 cycles after fetch."""
        sink = make_pe([], coord=(0, 1))
        word = ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E, imm16=7)
        pe = make_pe([word], ports={Direction.E: (0, 1)})
        bus = FakeBus({(0, 0): pe, (0, 1): sink})
        tick_n(pe, bus, 3)
        assert Direction.W not in sink.latch
        tick_n(pe, bus, 1)
        assert sink.latch[Direction.W] == 7

    def test_back_to_back_one_op_per_cycle(self):
        pe = make_pe([ADD_ACC_1] * 8)
        bus = FakeBus({(0, 0): pe})
        tick_n(pe, bus, 10)
        assert pe.acc == 8

    def test_iteration_count_then_jump(self):
        """iter_count=4: pc leaves step 0 exactly after the 4th execution."""
        w0 = ConfigWord(Opcode.ADD, SrcSel.ACC, SrcSel.IMM, DstSel.ACC,
                        imm16=1, iter_count=4, next_step=1)
        pe = make_pe([w0, ConfigWord(opcode=Opcode.HALT)])
        bus = FakeBus({(0, 0): pe})
        execs_at_transition = None
        for _ in range(16):
            pe.tick(bus)
            bus.end_cycle()
            if execs_at_transition is None and pe.pc == 1:
                execs_at_transition = pe.acc
        assert pe.acc == 4         # exactly four executions
        assert pe.done

    def test_iteration_index_drives_affine_stream(self):
        word = ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                          imm16=4, iter_count=3, shared_reg_idx=2)
        pe = make_pe([word])
        bus = FakeBus({(0, 0): pe})
        for _ in range(12):
            pe.tick(bus)
            for coord, op, addr, data in bus.mem_requests:
                bus._next_responses[coord] = addr
            bus.mem_requests.clear()
            bus.end_cycle()
        # base 4, stride 2: last loaded address is 8
        assert pe.acc == 8
        assert pe.done

    def test_loop_back_edge_reenters_its_target_at_iteration_0(self):
        """Every step is entered at iteration 0, a back-edge's target too, so
        a looped affine LOAD replays its address stream. A next_step of 0
        falls through, so the loop's target is step 1, behind a NOP."""
        words = [ConfigWord(opcode=Opcode.NOP),
                 ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                            imm16=4, iter_count=3, shared_reg_idx=2),
                 ConfigWord(opcode=Opcode.NOP, next_step=1)]
        pe = make_pe(words)
        bus = FakeBus({(0, 0): pe})
        posted = []
        while len(posted) < 6:
            pe.tick(bus)
            for coord, op, addr, data in bus.mem_requests:
                bus._next_responses[coord] = addr
                posted.append(addr)
            bus.mem_requests.clear()
            bus.end_cycle()
        assert posted == [4, 6, 8, 4, 6, 8]

    def test_invalid_operand_stalls_and_preserves_acc(self):
        word = ConfigWord(Opcode.ADD, SrcSel.W, SrcSel.IMM, DstSel.ACC, imm16=10)
        pe = make_pe([word])
        pe.acc = 99
        bus = FakeBus({(0, 0): pe})
        tick_n(pe, bus, 6)
        assert pe.acc == 99 and not pe.done   # starved, never fired
        pe.latch[Direction.W] = 5
        tick_n(pe, bus, 2)
        assert pe.acc == 15 and pe.done

    def test_halt_waits_for_outbound_drain(self):
        sink = make_pe([], coord=(0, 1))
        sink.latch[Direction.W] = 0xEE          # neighbor latch occupied
        words = [ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E, imm16=1),
                 ConfigWord(opcode=Opcode.HALT)]
        pe = make_pe(words, ports={Direction.E: (0, 1)})
        bus = FakeBus({(0, 0): pe, (0, 1): sink})
        tick_n(pe, bus, 8)
        assert not pe.done                      # blocked on the full latch
        del sink.latch[Direction.W]
        tick_n(pe, bus, 3)
        assert pe.done
        assert sink.latch[Direction.W] == 1

    def test_load_context_never_touches_data_latches(self):
        pe = make_pe([ADD_ACC_1] * 4)
        bus = FakeBus({(0, 0): pe})
        tick_n(pe, bus, 3)
        pe.latch[Direction.N] = 1234
        frozen = (dict(pe.latch), pe.acc, pe.f_slot, pe.d_slot,
                  pe.x_slot, pe.w_slot)
        pe.load_context(predecode([ConfigWord()] * 2))
        assert (dict(pe.latch), pe.acc, pe.f_slot, pe.d_slot,
                pe.x_slot, pe.w_slot) == frozen

    def test_scmd_capacity_exercised(self):
        """validate_bitstream is the one capacity check: an SCMD row's
        context holds 8x the MCMD depth, and not one word more."""
        params = replace(standard_preset(), exec_mode=ExecMode.SCMD, context_depth_mcmd=16)
        machine = standard_machine(validate(params))
        assert context_capacity(ExecMode.SCMD, 16) == 128
        validate_bitstream(machine, [(2, 0, [ConfigWord()] * 128)])
        with pytest.raises(CapacityExceeded, match=r"^PE \(2,0\): 129 words > capacity 128$"):
            validate_bitstream(machine, [(2, 0, [ConfigWord()] * 129)])


# --- bitstream wire format ------------------------------------------------------


class TestBitstream:
    def test_roundtrip(self):
        records = [
            (0, 0, [ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC,
                               imm16=5), ConfigWord(opcode=Opcode.HALT)]),
            (3, 7, [ConfigWord()]),
        ]
        assert unpack_bitstream(pack_bitstream(records)) == records

    def test_header_layout(self):
        blob = pack_bitstream([(2, 5, [])])
        assert blob == struct.pack("<I", (2 << 24) | (5 << 16) | 0)

    @pytest.mark.parametrize("record, shown", [
        ((256, 0, []), "256,0"), ((0, 256, []), "0,256"),
        ((0, -1, []), "0,-1"), ((1, 2, [ConfigWord()] * 65536), "1,2"),
    ])
    def test_header_field_overflow_rejected(self, record, shown):
        """Row and column are 8-bit header fields, the word count 16-bit."""
        with pytest.raises(EncodeError,
                           match=rf"^bitstream record \({shown}\) header field overflow$"):
            pack_bitstream([record])

    def test_truncated_rejected(self):
        blob = pack_bitstream([(0, 0, [ConfigWord()])])
        with pytest.raises(DecodeError):
            unpack_bitstream(blob[:-1])

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_truncated_header_rejected(self, size):
        header = pack_bitstream([(0, 0, [])])
        with pytest.raises(DecodeError, match="^truncated bitstream header$"):
            unpack_bitstream(header[:size])
        with pytest.raises(DecodeError, match="^truncated bitstream header$"):
            unpack_bitstream(header + header[:size])

    def test_record_over_capacity_rejected(self):
        with pytest.raises(CapacityExceeded, match=r"^PE \(2,2\): 17 words > capacity 16$"):
            validate_bitstream(standard_machine(standard_preset()), [(2, 2, [ConfigWord()] * 17)])

    def test_memory_op_on_gpe_rejected(self):
        machine = standard_machine(standard_preset())
        rec = [(1, 2, [ConfigWord(Opcode.LOAD)])]   # (1,2) is a GPE
        with pytest.raises(BitstreamTargetInvalid):
            validate_bitstream(machine, rec)

    def test_two_hop_requires_one_hop_topology(self):
        """The standard mesh has no N2 link anywhere; the error names the
        select and the missing direction."""
        machine = standard_machine(standard_preset())
        rec = [(1, 2, [ConfigWord(Opcode.ADD, SrcSel.N2, SrcSel.IMM, DstSel.ACC)])]
        with pytest.raises(BitstreamTargetInvalid) as exc:
            validate_bitstream(machine, rec)
        assert str(exc.value) == "PE (1,2) word 0: reads N2, but the machine has no N2 link"

    def test_two_row_one_hop_grid_has_no_vertical_two_hop_link(self):
        """Two rows leave no room for an N2/S2 link, while four columns
        still have E2/W2 links."""
        machine = standard_machine(validate(with_default_type_map(
            ArchParams(rows=2, cols=4, topology=TopologyKind.ONE_HOP, cpe_enabled=False))))
        drive = ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E2, imm16=1)
        validate_bitstream(machine, [(1, 1, [drive])])
        with pytest.raises(BitstreamTargetInvalid) as exc:
            validate_bitstream(machine, [(1, 1, [drive._replace(dst=DstSel.N2)])])
        assert str(exc.value) == "PE (1,1) word 0: drives N2, but the machine has no N2 link"

    def test_drive_off_the_grid_edge_accepted(self):
        """A direction is legal machine-wide: the top row's N drive has no
        receiver and drops its value, as it always has."""
        word = ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.N, imm16=1)
        validate_bitstream(standard_machine(standard_preset()), [(0, 2, [word])])

    def test_scmd_records_on_one_row_are_duplicates(self):
        """Under SCMD a record configures every PE of its row."""
        machine = standard_machine(replace(standard_preset(), exec_mode=ExecMode.SCMD))
        halt = [ConfigWord(opcode=Opcode.HALT)]
        validate_bitstream(machine, [(2, 3, halt), (3, 3, halt)])
        with pytest.raises(BitstreamTargetInvalid, match=r"duplicate record for PE \(2,0\)"):
            validate_bitstream(machine, [(2, 3, halt), (2, 5, halt)])

    def test_read_off_the_grid_edge_rejected(self):
        """A read is judged at its own PE: no link feeds the top row's N latch."""
        word = ConfigWord(Opcode.ADD, SrcSel.N, SrcSel.NONE, DstSel.ACC)
        machine = standard_machine(standard_preset())
        validate_bitstream(machine, [(1, 2, [word])])
        with pytest.raises(BitstreamTargetInvalid) as exc:
            validate_bitstream(machine, [(0, 2, [word])])
        assert str(exc.value) == "PE (0,2) word 0: reads N, but the PE has no N link"

    def test_target_outside_grid_rejected(self):
        with pytest.raises(BitstreamTargetInvalid):
            validate_bitstream(standard_machine(standard_preset()), [(9, 0, [])])

    # each distinct (word, PE type) pair is checked once per call; the error
    # still names the first offending PE and word
    LOAD3 = ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, imm16=3)
    TO_RTT = ConfigWord(Opcode.ROUTE, SrcSel.IMM, SrcSel.NONE, DstSel.RTT, imm16=0x3000)

    @pytest.mark.parametrize("records, message", [
        # the same illegal word on two GPEs
        ([(2, 3, [ConfigWord(), LOAD3]), (2, 2, [LOAD3])], "PE (2,3) word 1: LOAD on a GPE"),
        # legal on an LSU first, then on a GPE
        ([(0, 0, [ConfigWord(), LOAD3]), (2, 2, [ConfigWord(opcode=Opcode.HALT), LOAD3])],
         "PE (2,2) word 1: LOAD on a GPE"),
        # legal on the CPE first, then on a GPE
        ([(1, 1, [TO_RTT]), (3, 3, [ConfigWord(), ConfigWord(), TO_RTT])],
         "PE (3,3) word 2: RTT destination on a GPE"),
    ])
    def test_first_offending_pe_and_word_named(self, records, message):
        with pytest.raises(BitstreamTargetInvalid) as exc:
            validate_bitstream(standard_machine(standard_preset()), records)
        assert str(exc.value) == message

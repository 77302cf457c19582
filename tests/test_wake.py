"""Event-driven PE scheduling: a PE outside the awake set could not progress.

An RPU ticks only the live PEs in its awake set. A tick that changes
nothing, or that holds the decoded word for a missing operand, takes the PE
out of the set; a held tick still runs its write-back and a fetch into an
empty fetch slot. A launch or a shared-register commit puts every live PE
back; otherwise a wake is precise: a delivery wakes its receiver only if the
decoded word waiting to fire pulls that latch, and a consume wakes the
latch's driver only if its write-back waits on that latch. A tick stages its
latch effects by appending to the bus's ``deliveries`` and ``consumes``
lists. The oracle below checks, after every simulated cycle, that each live
PE outside the awake set would still change nothing if ticked now: a copy of
it is ticked against a read-only bus that sees the RPU's current latches,
shared registers and responses, and whose staging lists stay empty.
"""

import copy
import random
from dataclasses import replace
from pathlib import Path

import pytest

from windmill.arch import TopologyKind, parse_arch_file, validate
from windmill.interconnect import Direction
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg, reference_execute
from windmill.pe import PE, ConfigWord, DstSel, Opcode, SrcSel, unpack_bitstream
from windmill.system import HostCommand, SystemSim, run_protocol

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH
from test_e2e import random_dfg
from test_pe import FakeBus, make_pe

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TOPOLOGIES = (TopologyKind.MESH2D, TopologyKind.TORUS, TopologyKind.ONE_HOP)
W = ConfigWord


class ReadOnlyBus:
    """An RPU's start-of-next-cycle view, read with ``.get`` only; every
    effect method records its call instead of staging it, and the latch
    effects land in staging lists of its own."""

    def __init__(self, rpu, now):
        self.rpu = rpu
        self.pes = rpu.pes   # write-back reads a receiver's latch through it
        self.now = now   # the cycle about to tick
        self.effects = []
        self.deliveries = []
        self.consumes = []

    def sreg_read(self, coord, idx):
        return self.rpu.sregs.read(coord, idx)

    def mem_response(self, coord):
        due, value = self.rpu._responses.get(coord, (self.now, None))
        return value if due <= self.now else None

    def __getattr__(self, name):
        if name not in ("sreg_write", "mem_request", "rtt_action"):
            raise AttributeError(name)
        return lambda *args: self.effects.append((name, args))


def pe_state(pe):
    """Every slot of ``pe``, by name: all the state a PE holds."""
    return {name: getattr(pe, name) for name in type(pe).__slots__}


class SleepOracle:
    """A ``trace_hook`` that checks, after every cycle, every live PE that is
    not in its RPU's awake set."""

    def __init__(self):
        self.checks = 0

    def __call__(self, system):
        for rpu in system.rpus:
            assert set(rpu.awake) <= set(rpu.live)
            for pe in rpu.live:
                if pe in rpu.awake:
                    continue
                # the port table and the decoded context are read-only
                twin = copy.deepcopy(pe, {id(pe.ports): pe.ports, id(pe._code): pe._code})
                bus = ReadOnlyBus(rpu, system.stats.total_cycles)
                assert twin.tick(bus) is False, pe.coord
                assert pe_state(twin) == pe_state(pe), pe.coord
                assert bus.effects == bus.deliveries == bus.consumes == [], pe.coord
                self.checks += 1


def run_checked(params, records, image, base, n):
    system = SystemSim(params)
    oracle = SleepOracle()
    system.trace_hook = oracle
    results, stats = run_protocol(system, records, image, base, n)
    return results, stats, oracle.checks


def arch(name, **overrides):
    params = parse_arch_file((FIXTURES / name).read_text())
    return validate(replace(params, **overrides))


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_kernels_keep_the_sleep_invariant(name):
    text, _, base, n = ALL_KERNELS[name]()
    params = arch("standard.arch", context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    rng = random.Random(f"wake-{name}")
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
    results, _, checks = run_checked(params, records, image, base, n)
    assert results == reference_execute(dfg, image)[base:base + n]
    assert checks > 0


@pytest.mark.parametrize("k", range(21))
def test_random_graphs_keep_the_sleep_invariant(k):
    rng = random.Random(9000 + k)
    text, _, base, n = random_dfg(rng, n_ops=rng.randint(14, 40))
    params = arch("standard_deep.arch", topology=TOPOLOGIES[k % 3])
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
    results, _, checks = run_checked(params, records, image, base, n)
    assert results == reference_execute(dfg, image)[base:base + n], text
    assert checks > 0


def run_config(records, observe=None):
    """Load config 0 into RPU 0 of an 8x8 array and launch it, under the
    oracle; ``observe(rpu)`` also runs after every cycle."""
    system = SystemSim(arch("standard.arch"))
    oracle = SleepOracle()

    def hook(system):
        oracle(system)
        if observe is not None:
            observe(system.rpus[0])

    system.trace_hook = hook
    system.register_config(0, records)
    system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
    system.run()
    return system.rpus[0], oracle.checks


def test_write_back_backpressure_keeps_the_sleep_invariant():
    """A producer streams four values east into a consumer that starts
    late: it sleeps blocked in write-back, and each consume wakes it."""
    producer = [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E, imm16=5, iter_count=4),
                W(opcode=Opcode.HALT)]
    consumer = [W(opcode=Opcode.NOP, iter_count=12),
                W(Opcode.ADD, SrcSel.W, SrcSel.ACC, DstSel.ACC, iter_count=4),
                W(opcode=Opcode.HALT)]
    rpu, checks = run_config([(2, 2, producer), (2, 3, consumer)])
    assert rpu.pes[(2, 3)].acc == 20
    assert checks > 0


def test_shared_register_reader_keeps_the_sleep_invariant():
    """The reader sleeps on an invalid shared register; the commit wakes it."""
    writer = [W(opcode=Opcode.NOP, iter_count=6),
              W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.SREG, imm16=77, shared_reg_idx=2),
              W(opcode=Opcode.HALT)]
    reader = [W(Opcode.ADD, SrcSel.SREG, SrcSel.IMM, DstSel.ACC, imm16=1, shared_reg_idx=2),
              W(opcode=Opcode.HALT)]
    rpu, checks = run_config([(1, 1, writer), (6, 6, reader)])
    assert rpu.pes[(6, 6)].acc == 78
    assert checks > 0


def test_delivery_wakes_only_a_pe_whose_word_pulls_the_latch():
    """(2,2)'s word pulls W and N. It falls asleep lacking both; the value
    (2,3) drives into its E latch leaves it asleep, the one (1,2) drives
    into N wakes it, and the one (2,1) drives into W lets it fire."""
    target = [W(Opcode.ADD, SrcSel.W, SrcSel.N, DstSel.ACC), W(opcode=Opcode.HALT)]
    east = [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.W, imm16=1), W(opcode=Opcode.HALT)]
    north = [W(opcode=Opcode.NOP, iter_count=4),
             W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.S, imm16=20), W(opcode=Opcode.HALT)]
    west = [W(opcode=Opcode.NOP, iter_count=10),
            W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E, imm16=300), W(opcode=Opcode.HALT)]
    seen = []   # after each cycle: (2,2)'s filled latches, and whether it is awake

    def observe(rpu):
        pe = rpu.pes[(2, 2)]
        seen.append((set(pe.latch), pe in rpu.awake))

    rpu, checks = run_config([(2, 2, target), (2, 3, east), (1, 2, north), (2, 1, west)],
                             observe)
    assert rpu.pes[(2, 2)].acc == 320
    first_e = next(i for i, (latches, _) in enumerate(seen) if Direction.E in latches)
    first_n = next(i for i, (latches, _) in enumerate(seen) if Direction.N in latches)
    assert 0 < first_e < first_n
    assert not any(awake for _, awake in seen[first_e - 1:first_n])
    assert seen[first_n][1]
    assert checks > 0


def test_consume_does_not_wake_a_driver_with_an_empty_write_back():
    """(3,2) drives one value into (3,3)'s W latch and then sleeps, its
    write-back empty, on a word that waits for (4,2)'s value. (3,3)
    consumes the W latch while (3,2) sleeps; that consume leaves it asleep."""
    driver = [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E, imm16=5),
              W(Opcode.ADD, SrcSel.S, SrcSel.ACC, DstSel.ACC), W(opcode=Opcode.HALT)]
    consumer = [W(opcode=Opcode.NOP, iter_count=6),
                W(Opcode.ADD, SrcSel.W, SrcSel.IMM, DstSel.ACC, imm16=1), W(opcode=Opcode.HALT)]
    south = [W(opcode=Opcode.NOP, iter_count=12),
             W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.N, imm16=7), W(opcode=Opcode.HALT)]
    seen = []   # after each cycle: (3,3) holds W, (3,2)'s write-back is empty, (3,2) is awake

    def observe(rpu):
        driver_pe = rpu.pes[(3, 2)]
        seen.append((Direction.W in rpu.pes[(3, 3)].latch, driver_pe.w_slot is None,
                     driver_pe in rpu.awake))

    rpu, checks = run_config([(3, 2, driver), (3, 3, consumer), (4, 2, south)], observe)
    assert (rpu.pes[(3, 3)].acc, rpu.pes[(3, 2)].acc) == (6, 7)
    consumed = next(i for i in range(1, len(seen)) if seen[i - 1][0] and not seen[i][0])
    assert seen[consumed - 1][1:] == (True, False)   # asleep before, write-back empty
    assert seen[consumed][1:] == (True, False)       # and the consume left it asleep
    assert checks > 0


def snapshot(pe, bus):
    state = {k: list(v) if isinstance(v, list) else dict(v) if isinstance(v, dict) else v
             for k, v in pe_state(pe).items()}
    effects = (len(bus.deliveries), len(bus.consumes), dict(bus.sreg),
               len(bus.rtt_actions))
    return state, effects


def test_tick_reports_exactly_the_cycles_that_change_something():
    """Random programs under random operand arrivals and downstream drains:
    ``tick`` returns False exactly when neither the PE nor the bus changed,
    or the decoded word was held for a missing operand. A held tick may still
    have changed something: its write-back drove, or it fetched."""
    rng = random.Random(4)
    sels = (SrcSel.W, SrcSel.N, SrcSel.IMM, SrcSel.ACC, SrcSel.NONE, SrcSel.SREG)
    dsts = (DstSel.E, DstSel.E, DstSel.ACC, DstSel.SREG, DstSel.NONE)
    ops = (Opcode.ADD, Opcode.SUB, Opcode.ROUTE, Opcode.SEL, Opcode.NOP, Opcode.HALT)
    outcomes = set()   # (returned, held, changed)
    for _ in range(300):
        words = [W(rng.choice(ops), rng.choice(sels), rng.choice(sels), rng.choice(dsts),
                   imm16=rng.randrange(8), iter_count=rng.randrange(3),
                   next_step=rng.randrange(2))
                 for _ in range(rng.randint(1, 4))]
        sink = make_pe([], coord=(0, 1))
        pe = make_pe(words, ports={Direction.E: (0, 1)})
        bus = FakeBus({(0, 0): pe, (0, 1): sink})
        for _ in range(30):
            if pe.done:
                break
            for entry in (Direction.W, Direction.N):
                if rng.random() < 0.2 and entry not in pe.latch:
                    pe.latch[entry] = rng.randrange(4)
            if rng.random() < 0.3:
                sink.latch.pop(Direction.W, None)
            if rng.random() < 0.1:
                bus.sreg[0] = (rng.randrange(4), True)
            before = snapshot(pe, bus)
            decoded = pe.d_slot if pe.x_slot is None else None   # the word execute tries
            moved = pe.tick(bus)
            held = decoded is not None and pe.d_slot is decoded
            changed = snapshot(pe, bus) != before
            assert moved is (changed and not held), words
            outcomes.add((moved, held, changed))
            bus.end_cycle()
    assert outcomes == {(True, False, True), (False, False, False), (False, True, False),
                        (False, True, True)}


def test_a_held_tick_that_drives_its_write_back_sleeps(monkeypatch):
    """(2,2) drives 5 east in the same tick its next word is held lacking W:
    that tick returns False, and (2,2) is not ticked again until the value
    (2,1) drives lands in its W latch."""
    target = [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E, imm16=5),
              W(Opcode.ADD, SrcSel.W, SrcSel.ACC, DstSel.ACC), W(opcode=Opcode.HALT)]
    east = [W(Opcode.ADD, SrcSel.W, SrcSel.ACC, DstSel.ACC), W(opcode=Opcode.HALT)]
    west = [W(opcode=Opcode.NOP, iter_count=10),
            W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E, imm16=300), W(opcode=Opcode.HALT)]
    ticks = []   # per tick of (2,2) in the run: (cycle, write-back drove, word held, returned)
    tick = PE.tick

    def recorded(self, bus):
        drives, decoded = self.w_slot is not None, self.d_slot
        moved = tick(self, bus)
        if self.coord == (2, 2) and not isinstance(bus, ReadOnlyBus):   # not the oracle's twin
            ticks.append((bus.now, drives and self.w_slot is None,
                          decoded is not None and self.d_slot is decoded, moved))
        return moved

    monkeypatch.setattr(PE, "tick", recorded)
    filled = []   # after each cycle: (2,2) holds W

    def observe(rpu):
        filled.append(Direction.W in rpu.pes[(2, 2)].latch)

    rpu, checks = run_config([(2, 2, target), (2, 3, east), (2, 1, west)], observe)
    assert (rpu.pes[(2, 2)].acc, rpu.pes[(2, 3)].acc) == (300, 5)   # its 5 went east
    at = next(i for i, (_, drove, held, _) in enumerate(ticks) if drove and held)
    cycle, _, _, moved = ticks[at]
    assert moved is False
    landed = filled.index(True)   # the cycle whose end delivers into W
    assert landed > cycle + 1
    assert ticks[at + 1][0] == landed + 1, ticks
    assert checks > 0


def test_starving_pe_reports_no_progress_until_its_operand_lands():
    pe = make_pe([W(Opcode.ADD, SrcSel.W, SrcSel.IMM, DstSel.ACC, imm16=3)])
    bus = FakeBus({(0, 0): pe})
    progress = []
    for _ in range(6):
        progress.append(pe.tick(bus))
        bus.end_cycle()
    # fetch, then decode; from then on the word waits on latch W
    assert progress == [True, True, False, False, False, False]
    pe.latch[Direction.W] = 4
    assert pe.tick(bus) is True
    assert pe.acc == 7

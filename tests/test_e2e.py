"""End-to-end equivalence: simulate(map(dfg)) must reproduce the reference
executor bit for bit, for arbitrary graphs, grids, and topologies."""

import random

import pytest

from windmill.arch import ArchParams, TopologyKind, perimeter_lsu_map, validate
from windmill.errors import Unmappable
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg, reference_execute
from windmill.pe import Opcode, SrcSel, unpack_bitstream
from windmill.system import SystemSim, run_protocol

OPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr", "lt"]


def make_arch(rows=8, cols=8, topology=TopologyKind.MESH2D, depth=16):
    return validate(ArchParams(
        rows=rows, cols=cols, pe_type_map=perimeter_lsu_map(rows, cols, None),
        topology=topology, cpe_enabled=False, rpu_count=1,
        context_depth_mcmd=depth))


def random_dfg(rng, n_in=8, n_ops=20, n_out=4, weird=True):
    """Random DAG exercising fanout, constants, selects, dynamic loads."""
    lines = [f"in i{k} {k}" for k in range(n_in)]
    ids = [f"i{k}" for k in range(n_in)]
    consts = 0
    for k in range(n_ops):
        roll = rng.random()
        if weird and roll < 0.08:
            lines.append(f"c{consts} const {rng.randint(-2**31, 2**31 - 1)}")
            ids.append(f"c{consts}")
            consts += 1
            continue
        if weird and roll < 0.14 and n_in >= 4:
            # dynamic load constrained into the read-only input region
            mask = n_in - 1 if n_in & (n_in - 1) == 0 else 3
            src = rng.choice(ids)
            lines.append(f"msk{k} and {src} cmask{k}")
            lines.append(f"cmask{k} const {mask}")
            lines.append(f"n{k} load msk{k}")
            ids.append(f"n{k}")
            continue
        if weird and roll < 0.2:
            p, a, b = (rng.choice(ids) for _ in range(3))
            lines.append(f"n{k} sel {p} {a} {b}")
            ids.append(f"n{k}")
            continue
        a, b = rng.choice(ids), rng.choice(ids)
        lines.append(f"n{k} {rng.choice(OPS)} {a} {b}")
        ids.append(f"n{k}")
    value_ids = [i for i in ids if not i.startswith("cmask")]
    outs = rng.sample(value_ids, min(n_out, len(value_ids)))
    for j, nid in enumerate(outs):
        lines.append(f"out {nid} {n_in + j}")
    return "\n".join(lines), n_in, n_in, len(outs)


@pytest.mark.parametrize("seed", range(12))
def test_random_graphs_mesh(seed):
    rng = random.Random(1000 + seed)
    text, n_in, base, n_out = random_dfg(rng, n_ops=14 + seed)
    params = make_arch()
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    for trial in range(2):
        image = [rng.getrandbits(32) for _ in range(base)] + [0] * n_out
        system = SystemSim(params)
        got, _ = run_protocol(system, records, image, base, n_out)
        assert got == reference_execute(dfg, image)[base:base + n_out], \
            f"seed {seed} trial {trial}\n{text}"


@pytest.mark.parametrize("topology", [TopologyKind.TORUS, TopologyKind.ONE_HOP])
@pytest.mark.parametrize("seed", range(4))
def test_random_graphs_other_topologies(topology, seed):
    rng = random.Random(7000 + seed)
    text, n_in, base, n_out = random_dfg(rng, n_ops=16)
    params = make_arch(topology=topology)
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n_out
    system = SystemSim(params)
    got, _ = run_protocol(system, records, image, base, n_out)
    assert got == reference_execute(dfg, image)[base:base + n_out], text


@pytest.mark.parametrize("seed", range(4))
def test_random_graphs_small_grids(seed):
    rng = random.Random(4000 + seed)
    text, n_in, base, n_out = random_dfg(rng, n_in=4, n_ops=8, n_out=2,
                                         weird=False)
    params = make_arch(rows=4, cols=4)
    dfg = parse_dfg(text)
    try:
        records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    except Unmappable:
        return
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n_out
    system = SystemSim(params)
    got, _ = run_protocol(system, records, image, base, n_out)
    assert got == reference_execute(dfg, image)[base:base + n_out], text


def test_deep_chain_through_accumulator():
    """A long serial dependency on few PEs exercises acc reuse and flushes."""
    lines = ["in x 0"]
    prev = "x"
    for k in range(24):
        lines.append(f"n{k} add {prev} {prev}")
        prev = f"n{k}"
    lines.append(f"out {prev} 1")
    text = "\n".join(lines)
    params = make_arch(rows=4, cols=4, depth=32)
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    image = [3, 0]
    system = SystemSim(params)
    got, _ = run_protocol(system, records, image, 1, 1)
    assert got == [(3 * 2 ** 24) & 0xFFFFFFFF]


def test_wide_fanout_single_producer():
    """One value consumed by many PEs stresses send chains and ordering."""
    lines = ["in x 0", "in y 1"]
    outs = []
    for k in range(12):
        lines.append(f"k{k} const {k + 1}")
        lines.append(f"n{k} mul x k{k}")
        lines.append(f"m{k} add n{k} y")
        outs.append(f"m{k}")
    for j, nid in enumerate(outs):
        lines.append(f"out {nid} {2 + j}")
    text = "\n".join(lines)
    params = make_arch(depth=32)  # 13 words of fanout land on one LSU
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    rng = random.Random(3)
    image = [rng.getrandbits(32), rng.getrandbits(32)] + [0] * 12
    system = SystemSim(params)
    got, _ = run_protocol(system, records, image, 2, 12)
    assert got == reference_execute(dfg, image)[2:14]


def test_operand_read_twice_from_one_latch():
    """``v add a a`` with ``a`` arriving over a link reads one latch for both
    operands; the word consumes that latch once and the value is still
    doubled."""
    text = "in a 0\nv add a a\nout v 1"
    params = make_arch()
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    assert any(w.opcode == Opcode.ADD and w.src0 == w.src1 and w.src0 < SrcSel.ACC
               for _, _, words in records for w in words)
    rng = random.Random(11)
    for _ in range(4):
        image = [rng.getrandbits(32), 0]
        got, _ = run_protocol(SystemSim(params), records, image, 1, 1)
        assert got == reference_execute(dfg, image)[1:2]


def memory_dfg(rng, n_in=8, n_ops=10):
    """A random DAG with loads of constant addresses and stores at constant
    and computed addresses. Loads read only the input words; the two outs,
    the two constant-address stores and two 8-word windows, one per
    computed-address store, follow them. Returns the text and image length."""
    lines = [f"in i{k} {k}" for k in range(n_in)]
    ids = [f"i{k}" for k in range(n_in)]
    for k in range(2):
        lines += [f"la{k} const {rng.randrange(n_in)}", f"l{k} load la{k}"]
        ids.append(f"l{k}")
    for k in range(n_ops):
        lines.append(f"n{k} {rng.choice(OPS)} {rng.choice(ids)} {rng.choice(ids)}")
        ids.append(f"n{k}")
    lines += [f"out {rng.choice(ids)} {n_in + j}" for j in range(2)]
    for k in range(2):
        lines += [f"sa{k} const {n_in + 2 + k}", f"s{k} store sa{k} {rng.choice(ids)}"]
    for k in range(2):
        lines += [f"m{k} const 7", f"b{k} const {n_in + 4 + 8 * k}",
                  f"w{k} and {rng.choice(ids)} m{k}", f"wa{k} add w{k} b{k}",
                  f"t{k} store wa{k} {rng.choice(ids)}"]
    return "\n".join(lines), n_in + 20


@pytest.mark.parametrize("topology", list(TopologyKind))
@pytest.mark.parametrize("seed", range(3))
def test_stores_and_constant_loads(topology, seed):
    rng = random.Random(9000 + seed)
    text, size = memory_dfg(rng)
    params = make_arch(topology=topology)
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    words = [w for _, _, ws in records for w in ws]
    # both store forms and the affine load of a constant address are emitted
    assert any(w.opcode == Opcode.STORE and w.src1 == SrcSel.NONE and w.imm16 == 10
               for w in words)
    assert any(w.opcode == Opcode.STORE and w.src1 != SrcSel.NONE for w in words)
    assert sum(w.opcode == Opcode.LOAD and w.src1 == SrcSel.NONE for w in words) == 10
    image = [rng.getrandbits(32) for _ in range(8)] + [0] * (size - 8)
    got, _ = run_protocol(SystemSim(params), records, image, 8, size - 8)
    assert got == reference_execute(dfg, image)[8:size], text

"""Mapping legality and emission."""

import random
import re

import pytest

from windmill.arch import ArchParams, PeType, TopologyKind, perimeter_lsu_map, validate
from windmill.dfg import Dfg, DfgNode, parse_dfg, reference_execute
from windmill.errors import CyclicGraph, ParseError, Unmappable
from windmill.mapper import Mapping, emit_bitstream, map_dfg
from windmill.pe import Opcode, unpack_bitstream, validate_bitstream
from windmill.plugins import standard_machine
from windmill.system import SystemSim, run_protocol

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH, vecadd
from test_e2e import make_arch, memory_dfg
# the language's tests live in test_dfg.py; collected here too, they keep
# the test ids they had before the language left this module
from test_dfg import TestParse, TestReferenceExecute  # noqa: F401


def tiny_arch(rows=2, cols=2, grid=("GG", "GL"), **kw):
    pe_map = tuple(tuple(PeType(ch) for ch in row) for row in grid)
    defaults = dict(rows=rows, cols=cols, pe_type_map=pe_map, sm_banks=4,
                    bank_depth=16, cpe_enabled=False)
    defaults.update(kw)
    return validate(ArchParams(**defaults))


def standard_no_cpe(rows=8, cols=8, **kw):
    return validate(ArchParams(rows=rows, cols=cols,
                               pe_type_map=perimeter_lsu_map(rows, cols, None),
                               cpe_enabled=False, **kw))


def kernel_arch(name):
    return standard_no_cpe(context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])


ABC_CHAIN = """
a const 2
b const 3
c const 4
s add a b
p mul s c
out p 8
"""


def check_mapping_wellformed(mapping: Mapping):
    """Re-validate the documented legality rules from scratch."""
    seen = {}
    for op in mapping.micro_ops:
        assert (op.pe, op.step) not in seen
        seen[(op.pe, op.step)] = op
        if op.opcode in (Opcode.LOAD, Opcode.STORE):
            assert mapping.params.pe_type(*op.pe) is PeType.LSU
    from windmill.interconnect import neighbor_map
    ports = neighbor_map(mapping.params.topology,
                         (mapping.params.rows, mapping.params.cols))
    for path in mapping.routes.values():
        for a, b in zip(path, path[1:]):
            assert b in ports[a].values()


class TestMap:
    def test_single_add_schedules_one_step_chain(self):
        arch = tiny_arch()
        mapping = map_dfg(parse_dfg("x const 1\ny add x x\nout y 0\n"), arch)
        check_mapping_wellformed(mapping)

    def test_abc_chain_optimal_shape(self):
        """The classic 3-op chain: the add and mul sit at distance <= 1 and
        run on consecutive steps with no transport between them; total
        compute depth equals the dependency chain lower bound."""
        arch = tiny_arch()
        mapping = map_dfg(parse_dfg(ABC_CHAIN), arch)
        check_mapping_wellformed(mapping)
        s_add, s_mul = mapping.schedule["s"], mapping.schedule["p"]
        p_add, p_mul = mapping.placement["s"], mapping.placement["p"]
        assert s_mul == s_add + 1
        assert abs(p_add[0] - p_mul[0]) + abs(p_add[1] - p_mul[1]) <= 1
        assert ("s", "p") not in mapping.routes or len(mapping.routes[("s", "p")]) <= 2
        # chain depth lower bound: materialized const -> add -> mul
        assert s_mul == 3

    def test_route_inserted_for_distant_consumer(self):
        arch = tiny_arch(rows=3, cols=3, grid=("GGG", "GGG", "GGL"))
        text = "a const 1\nb const 2\ns add a b\nout s 0\n"
        mapping = map_dfg(parse_dfg(text), arch)
        check_mapping_wellformed(mapping)

    def test_too_large_for_grid(self):
        arch = tiny_arch(rows=2, cols=2, grid=("GL", "LG"))
        text, *_ = vecadd(32)  # 64 loads, 32 adds, 32 stores
        with pytest.raises(Unmappable):
            map_dfg(parse_dfg(text), arch)

    def test_sixtyfour_nodes_on_2x2(self):
        """Either a clean resource failure or schedule length >= 64/4."""
        arch = tiny_arch(rows=2, cols=2, grid=("GG", "GG"),
                         context_depth_mcmd=64)
        lines = ["x0 const 1"]
        for i in range(1, 64):
            lines.append(f"x{i} add x{i - 1} x{i - 1}")
        try:
            mapping = map_dfg(parse_dfg("\n".join(lines)), arch)
        except Unmappable:
            return
        assert mapping.schedule_length >= 16

    def test_unmappable_reports_blocking_node(self):
        arch = tiny_arch(rows=2, cols=2, grid=("GG", "GG"))  # no LSU at all
        with pytest.raises(Unmappable) as err:
            map_dfg(parse_dfg("in a 0\nout a 1\n"), arch)
        assert err.value.node is not None

    def test_merge_loops_unmappable(self):
        text = "start const 0\np phi start q\none const 1\nq add p one\n"
        with pytest.raises(ParseError, match="unknown op 'phi'"):
            map_dfg(parse_dfg(text), tiny_arch())

    def test_hand_built_cycle_unmappable(self):
        """``Dfg`` is public, so the mapper meets unparsed graphs; a loop in
        one ends in the language's own cycle error, as in the parser."""
        nodes = {"x": DfgNode("x", "add", ("y", "y")), "y": DfgNode("y", "add", ("x", "x"))}
        dfg = Dfg(nodes, decls=[("node", "x"), ("node", "y")])
        with pytest.raises(CyclicGraph, match=r"^cycle through \['x', 'y'\]$"):
            map_dfg(dfg, tiny_arch())

    def test_no_gpe_array_refuses_alu_ops(self):
        arch = tiny_arch(grid=("LL", "LL"))
        want = "no PE of the required type available (blocking node: b)"
        with pytest.raises(Unmappable, match=f"^{re.escape(want)}$"):
            map_dfg(parse_dfg("in a 0\nb add a a\nout b 1\n"), arch)

    def test_scmd_mode_refused(self):
        from windmill.arch import ExecMode
        arch = standard_no_cpe(exec_mode=ExecMode.SCMD)
        with pytest.raises(Unmappable):
            map_dfg(parse_dfg(vecadd(4)[0]), arch)

    def test_monotonicity_growing_array(self):
        """Anything mappable on an n-grid stays mappable on n+1."""
        rng = random.Random(13)
        for trial in range(6):
            text, n_in, base, n = _random_dag(rng, n_ops=10 + 4 * trial)
            dfg = parse_dfg(text)
            mapped_small = True
            try:
                map_dfg(dfg, standard_no_cpe(4, 4))
            except Unmappable:
                mapped_small = False
            if mapped_small:
                for size in (5, 6, 8):
                    check_mapping_wellformed(map_dfg(dfg, standard_no_cpe(size, size)))

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_kernels_map_on_standard_grid(self, name):
        text, *_ = ALL_KERNELS[name]()
        mapping = map_dfg(parse_dfg(text), kernel_arch(name))
        check_mapping_wellformed(mapping)

    def test_wide_constant_materialization(self):
        arch = standard_no_cpe(4, 4)
        text = "big const 0x12345678\nneg const -123456\ns add big neg\nout s 0\n"
        mapping = map_dfg(parse_dfg(text), arch)
        check_mapping_wellformed(mapping)


class TestEmit:
    def test_deterministic_bytes(self):
        arch = tiny_arch()
        dfg = parse_dfg(ABC_CHAIN)
        a = emit_bitstream(map_dfg(dfg, arch))
        b = emit_bitstream(map_dfg(parse_dfg(ABC_CHAIN), arch))
        assert a == b

    def test_single_node_one_record(self):
        """An add of twin constants folds into one word on one PE."""
        arch = tiny_arch()
        blob = emit_bitstream(map_dfg(parse_dfg("x const 21\nz add x x\n"), arch))
        records = unpack_bitstream(blob)
        assert len(records) == 1
        words = records[0][2]
        assert [w.opcode for w in words] == [Opcode.ADD, Opcode.HALT]

    def test_emitted_streams_validate(self):
        for name in sorted(ALL_KERNELS):
            text, *_ = ALL_KERNELS[name]()
            arch = kernel_arch(name)
            blob = emit_bitstream(map_dfg(parse_dfg(text), arch))
            validate_bitstream(standard_machine(arch), unpack_bitstream(blob))

    def test_every_used_pe_ends_with_halt(self):
        arch = standard_no_cpe()
        blob = emit_bitstream(map_dfg(parse_dfg(vecadd(4)[0]), arch))
        for _, _, words in unpack_bitstream(blob):
            assert words[-1].opcode is Opcode.HALT


def _random_dag(rng, n_ops=12, n_in=4):
    ops = ["add", "sub", "mul", "and", "or", "xor"]
    lines = [f"in i{k} {k}" for k in range(n_in)]
    ids = [f"i{k}" for k in range(n_in)]
    for k in range(n_ops):
        a, b = rng.choice(ids), rng.choice(ids)
        lines.append(f"n{k} {rng.choice(ops)} {a} {b}")
        ids.append(f"n{k}")
    for j, nid in enumerate(ids[-3:]):
        lines.append(f"out {nid} {n_in + j}")
    return "\n".join(lines), n_in, n_in, 3


# --- memory order ----------------------------------------------------------------

# a memory op holds its LSU until memory answers, but nothing orders memory
# ops on different LSUs: before map_dfg refused them, each of these graphs
# simulated to other words than reference_execute gives. Each names the two
# ops its refusal names.
RACES = {
    # the early store's word is read by a load whose address arrives late
    "load-after-store": ("in a 0\nin i 1\nv0 add a a\nz0 sub a a\nw0 add i z0\n"
                         "w1 add w0 z0\nw2 add w1 z0\nx load w2\nst store i v0\n"
                         "out x 8\n", ("x", "st")),
    # a store declared first, whose value arrives late, against a later read
    "store-value-late": ("in a 0\nin i 1\nz0 sub a a\nv0 add a z0\nv1 add v0 z0\n"
                         "st store i v1\nin j 1\nx load j\nout x 8\n", ("st", "j")),
    # the oracle applies an out after every store
    "out-before-store": ("in a 0\nc const 10\nz0 sub a a\nv0 add a z0\nv1 add v0 c\n"
                         "s store c v1\nout a 10\n", ("s", "out 0")),
    "two-stores": ("in a 0\nc const 10\nz0 sub a a\nv0 add a z0\nv1 add v0 c\n"
                   "s0 store c v1\ns1 store c a\n", ("s0", "s1")),
}

# graphs whose reads feed their writes, or whose spans are disjoint: accepted
ORDERED = {
    "read-modify-write": "c const 5\nx load c\ny add x x\ns store c y\n",
    "in-then-out": "in a 5\nb add a a\nout b 5\n",
    "masked-load-beside-outs": ("in i0 0\nin i1 1\nk const 7\nm and i1 k\nn load m\n"
                                "out n 8\nout i0 9\n"),
    **{f"memory_dfg-{seed}": memory_dfg(random.Random(9100 + seed))[0] for seed in range(3)},
}


@pytest.mark.parametrize("text, ops", RACES.values(), ids=RACES)
def test_memory_ops_that_may_race_are_unmappable(text, ops):
    with pytest.raises(Unmappable) as exc:
        map_dfg(parse_dfg(text), standard_no_cpe())
    assert str(exc.value) == (f"memory ops {ops[0]} and {ops[1]} may touch one word "
                              "in an order the machine does not keep")


def test_address_spans_are_walked_without_recursion():
    """2000 exact adds bound a store to word 2001, which an ``in`` reads."""
    text = ("c const 1\nx0 add c c\n" + "".join(f"x{k} add x{k - 1} c\n" for k in range(1, 2000))
            + "s store x1999 c\nin b 2001\n")
    with pytest.raises(Unmappable, match="memory ops s and b may touch one word"):
        map_dfg(parse_dfg(text), standard_no_cpe())


@pytest.mark.parametrize("topology", [TopologyKind.MESH2D, TopologyKind.TORUS,
                                      TopologyKind.ONE_HOP], ids=lambda t: t.value)
@pytest.mark.parametrize("name", ORDERED)
def test_ordered_memory_ops_match_the_reference(name, topology):
    dfg, params = parse_dfg(ORDERED[name]), make_arch(topology=topology)
    rng = random.Random(f"ordered/{name}/{topology.value}")
    image = [rng.getrandbits(32) for _ in range(32)]
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    got, _ = run_protocol(SystemSim(params), records, image, 0, 32)
    assert got == reference_execute(dfg, image)[:32]

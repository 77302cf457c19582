"""DFG parsing, the reference executor, and mapping legality."""

import random

import pytest

from windmill.arch import ArchParams, PeType, perimeter_lsu_map, validate
from windmill.errors import CyclicGraph, ParseError, UnboundOperand, Unmappable
from windmill.mapper import (Dfg, DfgNode, Mapping, emit_bitstream, map_dfg, parse_dfg,
                             reference_execute)
from windmill.pe import Opcode, unpack_bitstream, validate_bitstream
from windmill.plugins import standard_machine

from kernels import (ALL_KERNELS, KERNEL_CONTEXT_DEPTH, matmul4,
                     reference_model, vecadd)


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


class TestParse:
    def test_single_add_of_constants(self):
        dfg = parse_dfg("x const 1\ny const 2\nz add x y\n")
        assert len(dfg.nodes) == 3
        assert dfg.nodes["z"].operands == ("x", "y")

    def test_diamond(self):
        text = ("in a 0\nin b 1\nm mul a b\ns add a b\nd sub m s\nout d 2\n")
        dfg = parse_dfg(text)
        assert len(dfg.nodes) == 5
        edges = [(ref, n.id) for n in dfg.nodes.values() for ref in n.operands]
        assert len(edges) == 6

    def test_cycle_rejected(self):
        with pytest.raises(CyclicGraph, match=r"^cycle through \['x', 'y'\]$"):
            parse_dfg("x add y y\ny add x x\n")

    def test_merge_closed_cycle_parses(self):
        """A loop closed by a merge is no graph of the language: ``phi`` is
        an unknown op, and the whole graph is a parse error."""
        text = ("start const 0\np phi start q\none const 1\nq add p one\n")
        with pytest.raises(ParseError, match="unknown op 'phi'") as err:
            parse_dfg(text)
        assert err.value.line == 2

    @pytest.mark.parametrize("text, line", [
        # a plain cycle declared next to a merge-closed loop
        ("start const 0\np phi start q\none const 1\nq add p one\n"
         "x add y y\ny add x x\n", 2),
        # a plain cycle feeding a merge-closed loop
        ("x add y y\ny add x x\np phi x q\none const 1\nq add p one\n", 3),
    ])
    def test_cycle_beside_a_merge_loop_rejected(self, text, line):
        with pytest.raises(ParseError, match="unknown op 'phi'") as err:
            parse_dfg(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text, message, line", [
        ("in a\n", "in directive needs: in <id> <addr>", 1),
        ("in a 0 1\n", "in directive needs: in <id> <addr>", 1),
        ("in a 0\nout a\n", "out directive needs: out <id> <addr>", 2),
        ("x\n", "node line needs: <id> <op> ...", 1),
        ("x const\n", "const needs one literal operand", 1),
        ("x const 1 2\n", "const needs one literal operand", 1),
        ("in a 0\nb foo a a\n", "unknown op 'foo'", 2),
        ("in a 0\nb phi a a\n", "unknown op 'phi'", 2),
        ("in a 0\nb add a\n", "add takes 2 operands, got 1", 2),
        ("in a 0\nb sel a a\n", "sel takes 3 operands, got 2", 2),
        ("x const 1z\n", "expected a number, got '1z'", 1),
        ("in a zero\n", "expected a number, got 'zero'", 1),
        ("x const 1\nout x 0x\n", "expected a number, got '0x'", 2),
    ])
    def test_malformed_line(self, text, message, line):
        with pytest.raises(ParseError) as err:
            parse_dfg(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("text, message", [
        ("a const 1\ns store a a\nb add s a\n", "node 'b' reads store node 's'"),
        ("a const 1\nout b 0\n", "out directive references unknown 'b'"),
        ("a const 1\ns store a a\nout s 0\n", "out directive reads store node 's'"),
    ])
    def test_unbound_reference(self, text, message):
        with pytest.raises(UnboundOperand, match=f"^{message}$"):
            parse_dfg(text)

    def test_unbound_operand(self):
        with pytest.raises(UnboundOperand):
            parse_dfg("z add x y\n")

    def test_duplicate_id(self):
        with pytest.raises(ParseError):
            parse_dfg("x const 1\nx const 2\n")

    def test_duplicate_out_address(self):
        with pytest.raises(ParseError):
            parse_dfg("x const 1\nout x 0\nout x 0\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_dfg("# nothing here\n")

    @pytest.mark.parametrize("text, line", [
        # lowering names its own nodes $out<k>; a user id must not collide
        ("in a 0\nin b 1\nout a 2\n$out0 sub a b\nq mul $out0 b\nout q 3\n", 4),
        ("in a 0\nx.1 add a a\n", 2),
        ("in 9a 0\n", 1),
        ("x const 1\nout x-y 0\n", 2),
    ])
    def test_identifier_grammar(self, text, line):
        with pytest.raises(ParseError, match="bad identifier") as exc:
            parse_dfg(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text, line", [
        # reference_execute would write the image's last word
        ("in a 0\nin b 1\nc add a b\nout c -1\n", 4),
        ("in a -2\nout a 0\n", 1),
        ("in a 0\nout a -0x10\n", 2),
    ])
    def test_negative_address_rejected(self, text, line):
        with pytest.raises(ParseError, match="negative address") as exc:
            parse_dfg(text)
        assert exc.value.line == line


class TestReferenceExecute:
    def test_vecadd_trivial(self):
        text, n_in, base, n = vecadd(2)
        image = [1, 2, 3, 4] + [0] * 2
        out = reference_execute(parse_dfg(text), image)
        assert out[base:base + n] == [4, 6]

    def test_matmul_vs_schoolbook(self):
        text, n_in, base, n = matmul4()
        rng = random.Random(5)
        for _ in range(10):
            image = [rng.getrandbits(32) for _ in range(48)]
            got = reference_execute(parse_dfg(text), image)
            assert got == reference_model("matmul4", image)

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_kernels_vs_independent_models(self, name):
        text, n_in, base, n = ALL_KERNELS[name]()
        rng = random.Random(hash(name) & 0xFFFF)
        dfg = parse_dfg(text)
        for _ in range(20):
            image = [rng.getrandbits(32) for _ in range(base + n)]
            assert reference_execute(dfg, image) == reference_model(name, image)

    def test_explicit_load_store(self):
        text = ("five const 5\nzero const 0\nv load zero\nd add v v\n"
                "w store five d\n")
        out = reference_execute(parse_dfg(text), [21, 0, 0, 0, 0, 0])
        assert out[5] == 42

    def test_sel_semantics(self):
        text = "in p 0\nin a 1\nin b 2\nr sel p a b\nout r 3\n"
        dfg = parse_dfg(text)
        assert reference_execute(dfg, [0, 11, 22, 0])[3] == 22
        assert reference_execute(dfg, [9, 11, 22, 0])[3] == 11
        assert reference_execute(dfg, [0x80000000, 11, 22, 0])[3] == 11

    @pytest.mark.parametrize("first, second, want", [("y", "x", 5), ("x", "y", 7)])
    def test_stores_to_one_address_apply_in_declaration_order(self, first, second, want):
        text = f"in x 0\nin y 1\na const 3\ns1 store a {first}\ns2 store a {second}\n"
        assert reference_execute(parse_dfg(text), [5, 7, 0, 0])[3] == want

    @pytest.mark.parametrize("text, message", [
        ("in a 4\nout a 0\n", "input address 4 outside the image"),
        ("k const -1\nv load k\nout v 0\n", "input address 4294967295 outside the image"),
        ("k const 4\ns store k k\n", "store address 4 outside the image"),
    ])
    def test_address_outside_the_image(self, text, message):
        with pytest.raises(UnboundOperand, match=f"^{message}$"):
            reference_execute(parse_dfg(text), [1, 2, 3, 4])

    def test_out_past_the_image_extends_it(self):
        assert reference_execute(parse_dfg("in a 1\nout a 5\n"), [1, 2]) == [1, 2, 0, 0, 0, 2]

    def test_wrapping_matches_alu(self):
        text = "in a 0\nin b 1\nm mul a b\nout m 2\n"
        out = reference_execute(parse_dfg(text), [0xFFFFFFFF, 2, 0])
        assert out[2] == 0xFFFFFFFE


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
        """``Dfg`` is public, so the mapper checks for loops itself."""
        nodes = {"x": DfgNode("x", "add", ("y", "y")), "y": DfgNode("y", "add", ("x", "x"))}
        dfg = Dfg(nodes, decls=[("node", "x"), ("node", "y")])
        with pytest.raises(Unmappable, match="graph contains loops"):
            map_dfg(dfg, tiny_arch())

    def test_no_gpe_array_refuses_alu_ops(self):
        arch = tiny_arch(grid=("LL", "LL"))
        with pytest.raises(Unmappable, match="^no general-purpose PEs in this array$"):
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

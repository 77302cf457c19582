"""The DFG language and its oracle: parsing, validation, reference execution.

``windmill.dfg`` is the judge of the compiler in ``windmill.mapper``, so it
must not share the compiler's code: the guard below pins its imports.
"""

import ast
import random
from pathlib import Path

import pytest

from windmill.errors import CyclicGraph, ParseError, UnboundOperand
from windmill.dfg import parse_dfg, reference_execute

from kernels import ALL_KERNELS, matmul4, reference_model, vecadd

DFG_PY = Path(__file__).resolve().parent.parent / "src" / "windmill" / "dfg.py"


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



def test_the_language_imports_no_compiler():
    """``dfg`` reads only the error types and the PE's ALU semantics from the
    package; the mapper, plugins, system and CLI import it, never the reverse."""
    tree = ast.parse(DFG_PY.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {m for m in imported if m.startswith(".") or m.startswith("windmill")}
    assert package == {".errors", ".pe"}

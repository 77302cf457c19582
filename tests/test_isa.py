"""The ISA as a whole: every op's result is timing-independent, and
``docs/formats.md`` states exactly the encodings the code defines."""

import re
from pathlib import Path

import pytest

from windmill.arch import standard_preset
from windmill.errors import DecodeError
from windmill.pe import (BINARY_OPS, MEMORY_OPS, ConfigWord as W, DstSel, Opcode, SrcSel,
                         alu_eval, decode)
from windmill.system import HostCommand, SystemSim

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"

# --- timing independence -------------------------------------------------------

# the opcodes that fire on operands: all but NOP, HALT and the memory ops
FIRING_OPS = [op for op in Opcode if op not in (Opcode.NOP, Opcode.HALT, *MEMORY_OPS)]
NORTH_VALUE, SOUTH_VALUE = 6, 3


def sender(value, dst, delay):
    """Send ``value`` toward ``dst`` after ``delay`` NOPs, as a memory stall
    upstream of the producer would delay it."""
    return [W()] * delay + [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, dst, imm16=value),
                            W(opcode=Opcode.HALT)]


def meet(op, north_delay, south_delay):
    """PE (3,3) runs ``op N, S -> ACC``; PE (2,3) sends NORTH_VALUE south and
    PE (4,3) sends SOUTH_VALUE north, each after its delay. Returns its acc."""
    system = SystemSim(standard_preset())
    system.register_config(0, [
        (2, 3, sender(NORTH_VALUE, DstSel.S, north_delay)),
        (3, 3, [W(op, SrcSel.N, SrcSel.S, DstSel.ACC), W(opcode=Opcode.HALT)]),
        (4, 3, sender(SOUTH_VALUE, DstSel.N, south_delay))])
    system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
    system.run()
    return system.rpus[0].pes[(3, 3)].acc


@pytest.mark.parametrize("op", FIRING_OPS, ids=lambda op: op.name)
def test_every_firing_op_is_timing_independent(op):
    """Whatever the arrival order of its operands, an op yields one result:
    the property that lets a static schedule tolerate any memory stall."""
    results = {meet(op, d0, d1) for d0 in range(4) for d1 in range(4)}
    assert len(results) == 1
    if op in BINARY_OPS:
        assert results == {alu_eval(op, NORTH_VALUE, SOUTH_VALUE)}


# --- docs/formats.md against the code ----------------------------------------------


def section(text, start, end):
    """The text from ``start`` up to ``end``, on one line, backticks dropped."""
    i = text.index(start)
    return " ".join(text[i:text.index(end, i)].replace("`", "").split())


NAMES = r"(?P<names>[A-Z][A-Z0-9_]*(?: [A-Z][A-Z0-9_]*)*)"
VALUES = r"(?P<low>\d+)(?:\.\.(?P<high>\d+))?"   # n, or the run n..m


def values(match):
    return range(int(match["low"]), int(match["high"] or match["low"]) + 1)


def undefined(text):
    """The values ``text`` calls decode errors, as in ``11 and 16..31 are``."""
    listed = re.search(r"([\d.]+(?:(?:, | and )[\d.]+)*) are decode errors", text).group(1)
    return {v for match in re.finditer(VALUES, listed) for v in values(match)}


def named(matches):
    """{value: name} from matches whose names run over their values in order."""
    table = {}
    for match in matches:
        names = match["names"].split()
        assert len(names) == len(values(match)), names
        table.update(zip(values(match), names))
    return table


def refused(shift, width):
    """The values of the field at ``shift`` that decode rejects."""
    out = set()
    for v in range(1 << width):
        try:
            decode(v << shift)
        except DecodeError:
            out.add(v)
    return out


def test_opcode_table_matches_the_isa():
    doc = section(FORMATS.read_text(), "63:59  opcode", "58:55")
    defined = named(re.finditer(NAMES + r" \(" + VALUES + r"\)", doc))
    assert defined == {op.value: op.name for op in Opcode}
    assert undefined(doc) == refused(59, 5)


def test_select_paragraph_matches_the_isa():
    doc = section(FORMATS.read_text(), "Source selects:", "Affine stride table")
    sources, destinations = doc.split("Destination selects")
    src = named(re.finditer(VALUES + " = " + NAMES, sources))
    assert src == {sel.value: sel.name for sel in SrcSel}
    dst = {**src, **named(re.finditer(VALUES + " = " + NAMES, destinations))}
    assert dst == {sel.value: sel.name for sel in DstSel}
    for shift in (55, 51, 47):   # src0, src1, dst: destinations mirror sources
        assert undefined(sources) == refused(shift, 4)

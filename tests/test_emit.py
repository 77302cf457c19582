"""Emission against the word path: ``emit_bitstream`` packs each op's encoded
head OR-ed with its immediate, one record per PE; it must give the bytes
``pack_bitstream`` gives for the ConfigWords the ops spell."""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from windmill.arch import parse_arch_file, validate
from windmill.errors import EncodeError
from windmill.mapper import Mapping, MicroOp, emit_bitstream, map_dfg, parse_dfg
from windmill.pe import ConfigWord, Opcode, pack_bitstream

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH
from test_decode_memo import workloads  # noqa: F401 (a fixture)
from test_sim_golden import standard_arch

RANDOM_GRAPHS = 60


def word_path(mapping: Mapping) -> bytes:
    """The bitstream of ``mapping`` through ConfigWord records: per PE in
    coordinate order, its ops by step, then a HALT."""
    per_pe = {}
    for op in mapping.micro_ops:
        per_pe.setdefault(op.pe, []).append(op)
    return pack_bitstream([
        (row, col, [ConfigWord(op.opcode, op.src0, op.src1, op.dst, op.imm & 0xFFFF, iter_count=1)
                    for op in sorted(per_pe[(row, col)], key=lambda o: o.step)]
         + [ConfigWord(opcode=Opcode.HALT)])
        for row, col in sorted(per_pe)])


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_kernels_emit_as_the_word_path(name):
    text, *_ = ALL_KERNELS[name]()
    params = standard_arch(context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])
    mapping = map_dfg(parse_dfg(text), params)
    assert emit_bitstream(mapping) == word_path(mapping)


def test_random_graphs_emit_as_the_word_path(workloads):  # noqa: F811
    deep = parse_arch_file((Path(__file__).resolve().parent.parent / "fixtures"
                            / "standard_deep.arch").read_text())
    machines = [validate(replace(deep, topology=t)) for t in workloads.TOPOLOGIES]
    for i in range(RANDOM_GRAPHS):
        rng = random.Random(f"emit-{i}")
        text = workloads.random_dag(rng, rng.randint(workloads.MIN_OPS, workloads.MAX_OPS))
        mapping = map_dfg(parse_dfg(text), machines[i % len(machines)])
        assert emit_bitstream(mapping) == word_path(mapping), i


@pytest.mark.parametrize("ops", [
    [MicroOp((256, 0), 1, Opcode.ADD)],
    [MicroOp((1, 2), step, Opcode.ADD) for step in range(1, 65536)],   # 65,536 with the HALT
], ids=["row", "word-count"])
def test_oversized_record_rejected(ops):
    mapping = Mapping(standard_arch(), micro_ops=ops)
    with pytest.raises(EncodeError, match="header field overflow$"):
        emit_bitstream(mapping)

"""The decoded-word memo: one decode per distinct word value per process,
shared by every PE, config, ``SystemSim`` and topology that holds the word;
and the template memo beneath it: one compiled execute stage per word shape."""

import functools
import importlib.util
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from windmill.arch import TopologyKind, parse_arch_file, validate
from windmill.interconnect import neighbor_map
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg, reference_execute
from windmill.pe import (_TO_LATCH, ConfigWord, DstSel, Opcode, SrcSel, _predecode, _template,
                         predecode, unpack_bitstream)
from windmill.system import SystemSim, _loadable, run_protocol

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH
from test_sim_golden import GOLDEN, standard_arch

# fir4's stats row on torus, recorded when every load decoded its own words
# against its PE's port table
TORUS_FIR4 = "136,224,34592,0,19,0,1,4,0"


@functools.cache
def fir4(topology: TopologyKind):
    """fir4 mapped for ``topology`` on the standard arch, over the golden image:
    (params, records, image, base, n, reference results)."""
    text, _, base, n = ALL_KERNELS["fir4"]()
    params = standard_arch(topology=topology, context_depth_mcmd=KERNEL_CONTEXT_DEPTH["fir4"])
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    rng = random.Random("golden-fir4")
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
    return params, records, image, base, n, reference_execute(dfg, image)[base:base + n]


def run(topology: TopologyKind):
    params, records, image, base, n, want = fir4(topology)
    system = SystemSim(params)
    results, stats = run_protocol(system, records, image, base, n)
    assert results == want
    return system, stats


def test_memo_is_bounded():
    assert _predecode.cache_info().maxsize is not None


def test_fresh_system_decodes_nothing_again():
    first, _ = run(TopologyKind.MESH2D)
    misses = _predecode.cache_info().misses
    second, stats = run(TopologyKind.MESH2D)
    assert _predecode.cache_info().misses == misses
    assert stats.csv_row() == GOLDEN["fir4"][0]
    pes = first.rpus[0].pes
    assert pes.keys() == second.rpus[0].pes.keys()
    for coord, pe in second.rpus[0].pes.items():
        assert pe._code == pes[coord]._code
        assert all(a is b for a, b in zip(pe._code, pes[coord]._code))


def test_torus_config_drives_off_the_mesh_edge_with_shared_words():
    """The torus mapping drives outward from edge PEs with words that the mesh
    mapping also holds, so the memo hands one decode to both."""
    mesh = neighbor_map(TopologyKind.MESH2D, (8, 8))
    outward = {w for r, c, words in fir4(TopologyKind.TORUS)[1] for w in words
               if _predecode(w)[4] == _TO_LATCH and _predecode(w)[5] not in mesh[(r, c)]}
    mesh_words = {w for _, _, words in fir4(TopologyKind.MESH2D)[1] for w in words}
    assert outward & mesh_words


@pytest.mark.parametrize("order", [(TopologyKind.MESH2D, TopologyKind.TORUS),
                                   (TopologyKind.TORUS, TopologyKind.MESH2D)])
def test_topologies_share_the_memo_in_either_order(order):
    _predecode.cache_clear()
    want = {TopologyKind.MESH2D: GOLDEN["fir4"][0], TopologyKind.TORUS: TORUS_FIR4}
    for topology in order:
        _, stats = run(topology)
        assert stats.csv_row() == want[topology]


def test_template_memo_is_bounded():
    assert _template.cache_info().maxsize is not None


ADD_N = ConfigWord(Opcode.ADD, SrcSel.N, SrcSel.IMM, DstSel.E, imm16=5)
SUB_SREG = ConfigWord(Opcode.SUB, SrcSel.SREG, SrcSel.W, DstSel.SREG, shared_reg_idx=1)
LOAD_ACC = ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, imm16=3)


# the part of the runtime tuple that must tell the twins apart
CONSTS, DESTINATION = 10, slice(4, 7)   # consts; (to, to_arg, entry)


@pytest.mark.parametrize("word, twin, own", [
    (ADD_N, ADD_N._replace(imm16=0xFFFF), CONSTS),
    (ADD_N, ADD_N._replace(src0=SrcSel.S, dst=DstSel.W), CONSTS),
    (SUB_SREG, SUB_SREG._replace(shared_reg_idx=3), CONSTS),
    (LOAD_ACC, LOAD_ACC._replace(dst=DstSel.E), DESTINATION),
    (LOAD_ACC, LOAD_ACC._replace(dst=DstSel.NONE), DESTINATION),
], ids=["imm16", "latch-direction", "shared-register-index", "load-to-latch", "load-to-none"])
def test_words_of_one_shape_share_one_template(word, twin, own):
    """A template holds no field value: words that differ only in one run
    the same compiled execute stage, each with its own constants. A memory
    op's template leaves the destination to the response, so a LOAD to ACC,
    to a latch and to NONE share one, each with its own destination."""
    dec, twin_dec = _predecode.__wrapped__(word), _predecode.__wrapped__(twin)
    assert dec[1] is twin_dec[1]
    assert dec[own] != twin_dec[own]


@pytest.fixture()
def workloads(monkeypatch):
    """The benchmark's workload module, loaded without writing beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_a_second_pass_over_random_graphs_compiles_no_template(workloads):
    """Seeded ``random_dag`` maps, decoded again once the word memo is
    dropped, meet only the templates their first decode compiled."""
    deep = parse_arch_file((Path(__file__).resolve().parent.parent / "fixtures"
                            / "standard_deep.arch").read_text())
    contexts = []
    for i in range(12):
        rng = random.Random(f"template-memo-{i}")
        params = validate(replace(deep, topology=workloads.TOPOLOGIES[i % 3]))
        text = workloads.random_dag(rng, rng.randint(workloads.MIN_OPS, workloads.MAX_OPS))
        records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg(text), params)))
        contexts += [words for _, _, words in records]
    first = [predecode(words) for words in contexts]
    compiled = _template.cache_info().misses
    _predecode.cache_clear()
    assert [predecode(words) for words in contexts] == first
    assert _template.cache_info().misses == compiled


@pytest.mark.parametrize("memos", [(_predecode,), (_predecode, _template)],
                         ids=["words", "words-and-templates"])
def test_cold_memos_run_as_a_warm_one(memos):
    """fir4 after its config, word and template memos are dropped decodes
    and compiles again, and gives the golden row a warm run gives."""
    _, warm = run(TopologyKind.MESH2D)
    for memo in (_loadable, *memos):
        memo.cache_clear()
    _, cold = run(TopologyKind.MESH2D)
    assert cold.csv_row() == warm.csv_row() == GOLDEN["fir4"][0]
    assert all(memo.cache_info().misses > 0 for memo in memos)

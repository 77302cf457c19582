"""The decoded-word memo: one decode per distinct word value per process,
shared by every PE, config, ``SystemSim`` and topology that holds the word."""

import functools
import random

import pytest

from windmill.arch import TopologyKind
from windmill.interconnect import neighbor_map
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg, reference_execute
from windmill.pe import _TO_LATCH, _predecode, unpack_bitstream
from windmill.system import SystemSim, run_protocol

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

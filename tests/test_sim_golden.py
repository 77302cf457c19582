"""Pinned modelled behaviour: the simulator's stats and results must not drift.

Each run below was recorded once and is asserted exactly: the stats CSV row
(cycles, PE activity, conflicts, DMA stalls, toggles, host commands) and the
result words. A change to any of them is a change to the modelled machine
and must be intended, explained, and re-recorded.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from windmill.arch import parse_arch_file, validate
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg, reference_execute
from windmill.pe import ConfigWord, DstSel, Opcode, SrcSel, unpack_bitstream
from windmill.system import HostCommand, SystemSim, run_protocol

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def standard_arch(**overrides):
    params = parse_arch_file((FIXTURES / "standard.arch").read_text())
    return validate(replace(params, **overrides))


def run_kernel(name):
    """One kernel on the standard 4-RPU arch (CPE on) over a seeded image."""
    text, _, base, n = ALL_KERNELS[name]()
    params = standard_arch(context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])
    dfg = parse_dfg(text)
    records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
    rng = random.Random(f"golden-{name}")
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
    results, stats = run_protocol(SystemSim(params), records, image, base, n)
    return results, stats, reference_execute(dfg, image)[base:base + n]


PHASES, BATCH, RESULT_SM, RESULT_EXT = 3, 8, 100, 1000


def pingpong_config():
    """LSU (0,2) streams BATCH words down to GPE (1,2), which folds them and
    returns the sum for the LSU to store at RESULT_SM."""
    lsu = [ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.S,
                      imm16=0, iter_count=BATCH, shared_reg_idx=1),
           ConfigWord(Opcode.STORE, SrcSel.S, SrcSel.NONE, DstSel.NONE,
                      imm16=RESULT_SM),
           ConfigWord(opcode=Opcode.HALT)]
    gpe = [ConfigWord(Opcode.ADD, SrcSel.ACC, SrcSel.N, DstSel.ACC,
                      iter_count=BATCH),
           ConfigWord(Opcode.ROUTE, SrcSel.ACC, SrcSel.NONE, DstSel.N),
           ConfigWord(opcode=Opcode.HALT)]
    return [(0, 2, lsu), (1, 2, gpe)]


def run_pingpong():
    """PHASES streamed phases on all four RPUs: each RPU stages phase 0,
    streams the later phases into the DMA half behind compute, and stores
    each phase's sum to the host."""
    params = standard_arch()
    rpus = params.rpu_count
    rng = random.Random("golden-pingpong")
    image = [rng.getrandbits(32) for _ in range(rpus * PHASES * BATCH)]
    system = SystemSim(params, image)
    system.register_config(0, pingpong_config())
    script = []
    for i in range(rpus):
        base = i * PHASES * BATCH
        script.append(HostCommand(0x02, (1 << i, base, 0, BATCH, 1)))
        script += [HostCommand(0x02, (1 << i, base + BATCH * k, 0, BATCH, 0))
                   for k in range(1, PHASES)]
    for k in range(PHASES):
        script.append(HostCommand(0x01, ((1 << rpus) - 1, 0)))
        script.append(HostCommand(0x03, ((1 << rpus) - 1,)))
        script += [HostCommand(0x04, (1 << i, RESULT_SM, RESULT_EXT + PHASES * i + k, 1))
                   for i in range(rpus)]
    system.submit_script(script)
    stats = system.run()
    want = [sum(image[(PHASES * i + k) * BATCH:(PHASES * i + k + 1) * BATCH]) & 0xFFFFFFFF
            for i in range(rpus) for k in range(PHASES)]
    return system.results_words(rpus * PHASES, RESULT_EXT), stats, want


# recorded stats CSV rows and result words
GOLDEN = {
    "dot": ("68,84,17324,0,17,0,1,4,0", [298963081]),
    "fir4": ("163,251,41477,0,19,0,1,4,0",
             [3398866363, 733809183, 3418286171, 2449513115, 2835950123, 1248701958,
              1428881039, 3246911762]),
    "matmul4": ("366,914,92782,6,48,0,1,4,0",
                [2640169216, 258213249, 1045195460, 446584042, 180282478, 1948022231,
                 1996418222, 3073887417, 2353235126, 2129225259, 3826339846, 577561735,
                 1207499746, 3797819801, 4189683533, 568193775]),
    "reduction": ("68,84,17324,0,17,0,1,4,0", [1944686853]),
    "vecadd": ("85,186,21574,11,48,0,1,4,0",
               [3437788316, 3205232742, 588160465, 2703600275, 948169958, 3217365488,
                3730825713, 3965400865, 1788237311, 1098421253, 1097586913, 2621515882,
                1769139895, 3407819083, 2739757152, 2272644995]),
    "pingpong": ("100,324,25276,0,108,0,12,30,0",
                 [836127971, 4001435491, 2513616455, 821572541, 697556814, 1078285642,
                  140000244, 2130159106, 609403078, 3448588819, 2487772822, 3491315738]),
}


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_kernel_golden(name):
    results, stats, want = run_kernel(name)
    assert results == want
    assert (stats.csv_row(), results) == GOLDEN[name]


def test_pingpong_golden():
    results, stats, want = run_pingpong()
    assert results == want
    assert stats.pingpong_toggles == 4 * PHASES
    assert (stats.csv_row(), results) == GOLDEN["pingpong"]

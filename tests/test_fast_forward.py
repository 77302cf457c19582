"""Build only what runs: the DMA-only fast-forward and lazy PE arrays.

``SystemSim.run`` streams the cycles in which only DMA words move in one
call; a ``trace_hook`` observes every cycle and so turns that off. Each run
below goes both ways and must agree on the stats row, per-PE activity,
per-LSU grants, the results and every word of every RPU's scratchpad.
"""

import random
from dataclasses import replace

import pytest

from windmill.mapper import emit_bitstream, map_dfg, parse_dfg
from windmill.pe import ConfigWord as W, DstSel, Opcode, SrcSel, unpack_bitstream
from windmill.system import HostCommand, SystemSim, run_protocol

import test_sim_golden
import test_system
from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH
from test_e2e import make_arch, random_dfg
from test_wake import TOPOLOGIES


@pytest.fixture()
def streamed(monkeypatch):
    """Counts the cycles the fast-forward streams past; a ticked DMA word,
    which also goes through `DmaController.stream`, is not counted."""
    count = [0]
    dma_only_cycles = SystemSim._dma_only_cycles

    def counting(self):
        skip = dma_only_cycles(self)
        count[0] += skip
        return skip

    monkeypatch.setattr(SystemSim, "_dma_only_cycles", counting)
    return count


def outcome(system, results):
    st = system.stats
    return (st.csv_row(), st.pe_active, st.grants_per_lsu, results,
            [rpu.sram.data for rpu in system.rpus])


def both_ways(run):
    """``run(traced)`` -> outcome, once cycle by cycle and once fast."""
    slow, fast = run(True), run(False)
    assert fast == slow
    return fast


def new_system(params, traced, image=None):
    system = SystemSim(params, image)
    if traced:
        system.trace_hook = lambda s: None
    return system


def protocol_run(params, records, image, base, n):
    def run(traced):
        system = new_system(params, traced)
        results, _ = run_protocol(system, records, image, base, n)
        return outcome(system, results)
    return run


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_kernels(name, streamed):
    text, _, base, n = ALL_KERNELS[name]()
    params = test_sim_golden.standard_arch(context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])
    records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg(text), params)))
    rng = random.Random(f"fast-{name}")
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
    both_ways(protocol_run(params, records, image, base, n))
    assert streamed[0] > 0   # the staging load ran ahead of the launch


def test_pingpong(monkeypatch):
    """The 3-phase ping-pong golden run on all four RPUs."""
    def run(traced):
        systems = []

        def make(params, image):
            systems.append(new_system(params, traced, image))
            return systems[-1]

        monkeypatch.setattr(test_sim_golden, "SystemSim", make)
        results, _, want = test_sim_golden.run_pingpong()
        assert results == want
        return outcome(systems[0], results)

    both_ways(run)


@pytest.mark.parametrize("phases", [2, 4])
def test_controller_workload(phases, streamed, monkeypatch):
    """``TestCpe``'s controller run: the actions the controller queues while
    its phase runs hold the fast-forward until they are carried out, and the
    staging batch each queues is fast-forwarded behind its phase."""
    def run(traced):
        monkeypatch.setattr(test_system, "SystemSim",
                            lambda params, image: new_system(params, traced, image))
        system, _ = test_system.TestCpe().run_workload(phases, with_cpe=True)
        return outcome(system, system.rpus[0].action_log)

    both_ways(run)
    assert streamed[0] > 0


def ring_run(traced):
    """RPU 0 stages data, then reads words 3..6 of never-configured RPU 1
    over the ring, keeping the last, while its next batch streams in."""
    params = replace(test_sim_golden.standard_arch(), rpu_count=2)
    system = new_system(params, traced, list(range(300)))
    for rpu in system.rpus:
        for i in range(8):
            rpu.sram.data[i] = rpu.id * 100 + i
    remote = params.sm_words + 3
    system.register_config(0, [
        (0, 1, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, imm16=remote,
                  iter_count=4, shared_reg_idx=1),
                W(Opcode.ROUTE, SrcSel.ACC, SrcSel.NONE, DstSel.W),
                W(opcode=Opcode.HALT)]),
        (0, 0, [W(Opcode.STORE, SrcSel.E, SrcSel.NONE, DstSel.NONE, imm16=50),
                W(opcode=Opcode.HALT)])])
    # the streamed batch queues before the launch it overlaps
    system.submit_script([HostCommand(0x02, (0x1, 0, 0, 100, 1)),
                          HostCommand(0x02, (0x1, 100, 0, 150, 0)),
                          HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,)),
                          HostCommand(0x04, (0x1, 50, 7, 1))])
    system.run()
    return system, outcome(system, system.results_words(1, 7))


def test_ring_read_from_unconfigured_neighbor(streamed):
    outcome_ = both_ways(lambda traced: ring_run(traced)[1])
    assert outcome_[3] == [106]   # the last of RPU 1 words 3..6
    assert streamed[0] > 0


def test_unconfigured_rpu_builds_no_pes():
    system, _ = ring_run(False)
    params = system.params
    assert len(system.rpus[0].pes) == params.rows * params.cols
    assert system.rpus[1].pes == {}
    st = system.stats
    every_pe = params.rpu_count * params.rows * params.cols
    assert len(st.pe_active) == every_pe
    assert all(st.pe_active[(1, coord)] == 0 for coord in params.coords())
    assert st.pe_idle_cycles == st.total_cycles * every_pe - st.pe_active_cycles


@pytest.mark.parametrize("seed", range(21))
def test_random_graphs(seed):
    rng = random.Random(9100 + seed)
    text, _, base, n_out = random_dfg(rng, n_ops=12 + seed)
    params = replace(make_arch(topology=TOPOLOGIES[seed % 3], depth=32),
                     rpu_count=1 + seed % 2)
    records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg(text), params)))
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n_out
    both_ways(protocol_run(params, records, image, base, n_out))


@pytest.mark.parametrize("length", [3, 50, 398, 399, 400, 401, 402])
def test_cycle_limit_during_a_long_batch(length):
    """No phase runs, so a tight cycle limit bounds nothing: both RPUs
    stream their batches to the end, RPU 1 long after RPU 0's
    ``length``-word batch, and the fast-forward lands on the ticked run's
    cycle and words."""
    def run(traced):
        system = new_system(replace(test_sim_golden.standard_arch(), rpu_count=2), traced,
                            list(range(1000)))
        system.cycle_limit = 25
        system.submit_script([HostCommand(0x02, (0x3, 0, 0, length, 1)),
                              HostCommand(0x02, (0x2, 10, 0, 600, 1))])
        system.run()
        return system.stats.total_cycles, [rpu.sram.data for rpu in system.rpus]

    total, (data0, data1) = both_ways(run)
    assert total == length + 600   # RPU 1's two batches, one word a cycle
    assert data0 == list(range(length)) + [0] * (len(data0) - length)
    assert data1 == list(range(10, 610)) + [0] * (len(data1) - 600)   # the 600 words overwrite


def test_rpu_leaving_the_active_set_touches_no_half():
    """An RPU whose batch ended stops reporting DMA traffic to a
    ``trace_hook`` while another RPU still streams."""
    system = new_system(replace(test_sim_golden.standard_arch(), rpu_count=2), False,
                        list(range(100)))
    system.submit_script([HostCommand(0x02, (0x1, 0, 0, 10, 1)),
                          HostCommand(0x02, (0x2, 0, 0, 40, 1))])
    dma_cycles = [0, 0]

    def hook(sys_):
        for rpu in sys_.rpus:
            dma_cycles[rpu.id] += rpu.cycle_dma_half is not None

    system.trace_hook = hook
    system.run()
    assert dma_cycles == [10, 40]

"""The event scheduler skips only futile ticks, and frees what it ran.

A reference scheduler ticks every live PE every cycle. Against it, the awake
set must give the same stats row, per-PE activity, per-LSU grants and
results, exactly as many PE ticks that change something, and strictly fewer
PE ticks in all wherever the reference makes a tick that changes nothing.
"""

import gc
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from windmill.arch import TopologyKind, parse_arch_file, validate
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg
from windmill.pe import PE, unpack_bitstream
from windmill.system import Rpu, SystemSim, run_protocol

import test_system
from kernels import ALL_KERNELS
from test_e2e import random_dfg

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TOPOLOGIES = (TopologyKind.MESH2D, TopologyKind.TORUS, TopologyKind.ONE_HOP)


def tick_every_live_pe(self, now):
    """Reference ``Rpu.tick_pes``: tick every live PE. The PEs that moved are
    the awake set ``end_cycle`` wakes into, so its deadlock rule reads the
    same."""
    self.now = now
    moved = [pe for pe in self.live if pe.tick(self)]
    self.live = [pe for pe in self.live if not pe.done]
    self.awake = dict.fromkeys(pe for pe in moved if not pe.done)


def random_graph_run(k):
    rng = random.Random(7000 + k)
    text, _, base, n = random_dfg(rng, n_ops=rng.randint(14, 40))
    params = parse_arch_file((FIXTURES / "standard_deep.arch").read_text())
    params = validate(replace(params, topology=TOPOLOGIES[k % 3]))
    records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg(text), params)))
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
    results, stats = run_protocol(SystemSim(params), records, image, base, n)
    return stats.csv_row(), stats.grants_per_lsu, stats.pe_active, results


def observed(run):
    """Stats row, per-LSU grants, per-PE activity and results of one run."""
    if str(run).startswith("random"):
        return random_graph_run(int(run[len("random"):]))
    return test_system.TestRing()._observed(run)


# the ring and stage runs of test_system, the ping-pong golden, the kernels and
# seeded random graphs over the three topologies
RUNS = ["ring", 4, 5, "pingpong", *sorted(ALL_KERNELS), *(f"random{k}" for k in range(6))]


@pytest.mark.parametrize("run", RUNS)
def test_event_scheduler_skips_only_futile_ticks(run, monkeypatch):
    ticks = Counter()   # PE.tick results: True when the tick changed something
    tick = PE.tick

    def counted(self, bus):
        moved = tick(self, bus)
        ticks[moved] += 1
        return moved

    monkeypatch.setattr(PE, "tick", counted)
    event = observed(run)
    event_ticks = dict(ticks)
    ticks.clear()
    monkeypatch.setattr(Rpu, "tick_pes", tick_every_live_pe)
    assert observed(run) == event
    assert event_ticks[True] == ticks[True]
    if ticks[False]:
        assert sum(event_ticks.values()) < sum(ticks.values())
    else:   # the ring and stage runs never stall a PE, so no tick is futile
        assert event_ticks == ticks


# PE.tick calls of the ping-pong golden and of each kernel: a PE leaves the
# awake set in the tick that holds its decoded word, so a change that brings
# futile ticks back fails here
TICKS = {"pingpong": 540, "dot": 335, "fir4": 729, "matmul4": 1995, "reduction": 335,
         "vecadd": 601}


@pytest.mark.parametrize("run", ["pingpong", *sorted(ALL_KERNELS)])
def test_tick_count_is_pinned(run, monkeypatch):
    calls = 0
    tick = PE.tick

    def counted(self, bus):
        nonlocal calls
        calls += 1
        return tick(self, bus)

    monkeypatch.setattr(PE, "tick", counted)
    observed(run)
    assert calls == TICKS[run]


def test_a_finished_run_leaves_no_cyclic_garbage():
    """No PE refers to another PE, so a finished SystemSim is freed by
    reference counting alone: the cycle collector finds nothing."""
    params = parse_arch_file((FIXTURES / "standard.arch").read_text())
    text, _, base, n = ALL_KERNELS["fir4"]()
    records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg(text), params)))
    image = list(range(base)) + [0] * n
    gc.collect()
    gc.disable()
    try:
        system = SystemSim(params)
        run_protocol(system, records, image, base, n)
        del system
        assert gc.collect() == 0
    finally:
        gc.enable()

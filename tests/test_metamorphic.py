"""Metamorphic relations on modelled performance.

Golden files pin the stats of a run; they say that a count moved, not
whether it should have. Each relation below is a pair of runs that the
machine's own symmetries say must agree, so it needs no golden. Every
relation runs each of the five kernels on ``fixtures/standard.arch`` with
the 4-step host script and compares, per run, the stats row, the per-PE
activity and per-LSU grants of the RPU it ran on, and the result words;
the results-only relations change what the machine's timing rests on, so
they compare the result words alone. Every run's result words equal the
oracle's.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from windmill.arch import parse_arch_file, validate
from windmill.errors import CycleLimitExceeded
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg, reference_execute
from windmill.pe import unpack_bitstream
from windmill.plugins import standard_machine
from windmill.system import (DEFAULT_CYCLE_LIMIT, HostCommand, SimStats, SystemSim,
                             four_step_script)

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
UNUSED_WORDS = 100


def kernel_case(name):
    text, _, base, n = ALL_KERNELS[name]()
    params = parse_arch_file((FIXTURES / "standard.arch").read_text())
    params = validate(replace(params, context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name]))
    records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg(text), params)))
    rng = random.Random(f"metamorphic-{name}")
    image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
    return params, records, image, base, n


def simulate(params, records, image, base, n, rpu=0, load_len=None, config_id=0,
             cycle_limit=DEFAULT_CYCLE_LIMIT):
    """Run the 4-step script on RPU ``rpu``, with the config registered and
    loaded under ``config_id``, streaming the first ``load_len`` image words
    (all of them by default)."""
    system = SystemSim(params, image, cycle_limit)
    system.register_config(config_id, records)
    load_len = len(image) if load_len is None else load_len
    script = four_step_script(load_len, base, n)
    script[0] = HostCommand(0x01, (1, config_id))
    system.submit_script([HostCommand(c.opcode, (1 << rpu, *c.args[1:])) for c in script])
    system.run()
    return system


def observe(params, records, image, base, n, rpu=0, **run):
    """The stats row, per-PE activity and per-LSU grants of RPU ``rpu``, and
    the result words, of a ``simulate`` run. The stats row's pe_idle_cycles
    leaves out the RPUs other than ``rpu``, which never run."""
    system = simulate(params, records, image, base, n, rpu, **run)
    stats = system.stats
    row = {c: getattr(stats, c) for c in SimStats.CSV_COLUMNS}
    row["pe_idle_cycles"] -= (params.rpu_count - 1) * stats.total_cycles * len(system.machine.cells)
    per_rpu = [{coord: count for (r, coord), count in counts.items() if r == rpu}
               for counts in (stats.pe_active, stats.grants_per_lsu)]
    return row, per_rpu, system.results_words(n)


def on_each_rpu(params, records, image, base, n):
    """The same config and image on mask 1, 2, 4 or 8."""
    return [observe(params, records, image, base, n, rpu=k) for k in range(params.rpu_count)]


def with_unused_words(params, records, image, base, n):
    """The image, and the image with words appended that no command reads."""
    unused = [random.Random(len(image)).getrandbits(32) for _ in range(UNUSED_WORDS)]
    return [observe(params, records, image, base, n),
            observe(params, records, image + unused, base, n, load_len=len(image))]


def on_one_and_four_rpus(params, records, image, base, n):
    """A mask-1 run on a one-RPU and on a four-RPU machine: they differ only
    in pe_idle_cycles, by the cycles of the three RPUs that never run."""
    assert params.rpu_count == 4
    one = validate(replace(params, rpu_count=1))
    return [observe(one, records, image, base, n), observe(params, records, image, base, n)]


def under_another_config_id(params, records, image, base, n):
    """The config registered and loaded as config 0, and as config 3."""
    return [observe(params, records, image, base, n),
            observe(params, records, image, base, n, config_id=3)]


def at_the_tightest_cycle_limit(params, records, image, base, n):
    """The default cycle limit, and the tightest one the run passes at: a
    phase of R cycles passes at R, and at R - 1 it raises in its cycle R - 1,
    which ends with a PE still live."""
    tight = simulate(params, records, image, base, n).rpus[0].running_cycles
    with pytest.raises(CycleLimitExceeded, match=f"no completion within {tight - 1} cycles"):
        simulate(params, records, image, base, n, cycle_limit=tight - 1)
    return [observe(params, records, image, base, n),
            observe(params, records, image, base, n, cycle_limit=tight)]


def results(machine, records, image, base, n):
    """The result words of a ``simulate`` run, as a one-field observation."""
    return (simulate(machine, records, image, base, n).results_words(n),)


def with_banks_of_another_depth(params, records, image, base, n):
    """16 banks of 256 words, and 8 of 512: the scratchpad keeps its size, so
    every kernel address fits both. Bank conflicts and cycles may move."""
    assert (params.sm_banks, params.bank_depth) == (16, 256)
    other = validate(replace(params, sm_banks=8, bank_depth=512))
    return [results(p, records, image, base, n) for p in (params, other)]


def with_the_arbiter_order_reversed(params, records, image, base, n):
    """The arbiter's requesters in raster order with the ring port last, and
    in the reverse order. Which contender a bank grants first may move."""
    machine = standard_machine(params)
    reversed_order = replace(machine, pai_order=machine.pai_order[::-1])
    return [results(m, records, image, base, n) for m in (machine, reversed_order)]


RELATIONS = {"each_rpu": on_each_rpu, "unused_words": with_unused_words,
             "one_and_four_rpus": on_one_and_four_rpus, "config_id": under_another_config_id,
             "cycle_limit": at_the_tightest_cycle_limit,
             "bank_geometry": with_banks_of_another_depth,
             "arbiter_order": with_the_arbiter_order_reversed}


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
@pytest.mark.parametrize("relation", RELATIONS)
def test_relation_holds(relation, name):
    case = kernel_case(name)
    first, *others = RELATIONS[relation](*case)
    assert others
    for other in others:
        assert other == first
    _, _, image, base, n = case
    assert first[-1] == reference_execute(parse_dfg(ALL_KERNELS[name]()[0]), image)[base:base + n]

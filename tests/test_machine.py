"""The machine record: one sealed build drives the mapper and the simulator.

``topology_plugin`` is the example of customising the machine by replacing
one plugin. It provides a standard port table without the links a rule
cuts. Nothing outside this file changes: the mapper routes around the cut
links, the simulator drops a value driven into one, and a kernel mapped on
the cut table still computes what ``reference_execute`` does. Cut from the
1-hop table instead, the same rule adds distance-2 links to a mesh, and the
mapper, the bitstream validator and the simulator all use them.
"""

import ast
import random
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType

import pytest

from windmill.arch import (ArchParams, PeType, SharedRegScope, TopologyKind, parse_arch_file,
                           validate)
from windmill.elab import Plugin
from windmill.errors import BitstreamTargetInvalid, MissingService, Unmappable, ValidationError
from windmill.interconnect import Direction, neighbor_map
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg, reference_execute
from windmill.pe import ConfigWord, DstSel, Opcode, SrcSel, unpack_bitstream
from windmill.plugins import (HOST_RTT, SHARED_MEMORY, SHARED_REGS, TOPOLOGY, build_system,
                              elaborate_arch, read_machine, standard_plugins)
from windmill.system import HostCommand, SystemSim, parse_script, run_protocol

import kernels
from test_system import cfg_word

ROOT = Path(__file__).resolve().parent.parent
STANDARD = parse_arch_file((ROOT / "fixtures" / "standard.arch").read_text())
GAP_ROW = 3


def provider(name, key, payload):
    return Plugin(name, provides=frozenset({key}),
                  on_early=lambda ctx, params: ctx.provide(key, payload))


def topology_plugin(cut, topology=None):
    """A Topology providing the standard table of ``topology`` (by default
    the params') less each link (coord, drive direction) for which ``cut``
    is true."""
    def early(ctx, params):
        full = neighbor_map(topology or params.topology, (params.rows, params.cols))
        ctx.provide(TOPOLOGY, MappingProxyType({
            coord: MappingProxyType({d: to for d, to in out.items() if not cut(coord, d)})
            for coord, out in full.items()}))
    return Plugin("Topology", provides=frozenset({TOPOLOGY}), on_early=early)


def build_with(params, *replacements):
    """The standard roster with the plugins of the same names replaced."""
    by_name = {p.name: p for p in replacements}
    return elaborate_arch(params, [by_name.get(p.name, p) for p in standard_plugins(params)])


def gap(coord, direction):
    return coord[0] == GAP_ROW and direction in (Direction.E, Direction.W)


def crosses_gap(mapping):
    return any(a[0] == b[0] == GAP_ROW
               for path in mapping.routes.values() for a, b in zip(path, path[1:]))


class TestGapTopology:
    """Row 3 has no E/W links, in either direction."""

    ctx = build_with(STANDARD, topology_plugin(gap))

    def test_mapper_routes_around_the_gap(self):
        text, n_in, result_addr, result_len = kernels.dot()
        dfg = parse_dfg(text)
        assert crosses_gap(map_dfg(dfg, STANDARD))
        machine = read_machine(self.ctx)
        mapping = map_dfg(dfg, machine)
        assert not crosses_gap(mapping)
        records = unpack_bitstream(emit_bitstream(mapping))
        drives = [(row, col, Direction[w.dst.name]) for row, col, words in records
                  for w in words if w.dst <= DstSel.W2
                  and w.opcode not in (Opcode.NOP, Opcode.STORE, Opcode.HALT)]
        assert drives
        assert all(d in machine.ports[(row, col)] for row, col, d in drives)
        rng = random.Random("gap-topology")
        image = [rng.getrandbits(32) for _ in range(n_in)] + [0] * result_len
        results, _ = run_protocol(build_system(self.ctx), records, image,
                                  result_addr, result_len)
        assert results == reference_execute(dfg, image)[result_addr:result_addr + result_len]

    def test_a_drive_across_the_gap_drops_its_value(self):
        """(3, 2) drives east into (3, 3): the mesh fills its west latch, the
        gap drops the value. A word of (3, 3) that reads W is rejected on
        the gap, where no link of (3, 3) can fill that latch."""
        send = ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E, imm16=7)
        receive = ConfigWord(Opcode.ADD, SrcSel.W, SrcSel.NONE, DstSel.ACC)
        halt = ConfigWord(opcode=Opcode.HALT)

        def run(system, receiver):
            system.register_config(0, [(GAP_ROW, 2, [send, halt]), (GAP_ROW, 3, receiver)])
            system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
            system.run()
            return system.rpus[0].pes[(GAP_ROW, 3)]

        assert run(build_system(elaborate_arch(STANDARD)), [receive, halt]).acc == 7
        assert run(build_system(elaborate_arch(STANDARD)), [halt]).latch == {Direction.W: 7}
        assert run(build_system(self.ctx), [halt]).latch == {}
        with pytest.raises(BitstreamTargetInvalid,
                           match=r"PE \(3,3\) word 0: reads W, but the PE has no W link"):
            run(build_system(self.ctx), [receive, halt])


def express(coord, direction):
    """Cut from the 1-hop table: every distance-2 link but row 3's E2/W2."""
    return direction.is_two_hop and not (
        coord[0] == GAP_ROW and direction in (Direction.E2, Direction.W2))


class TestExpressRow:
    """The mesh plus 1-hop E2/W2 links along row 3; the params still say mesh2d."""

    ctx = build_with(STANDARD, topology_plugin(express, TopologyKind.ONE_HOP))

    @pytest.mark.parametrize("kernel", [kernels.dot, kernels.vecadd, kernels.fir4])
    def test_kernels_use_the_links_and_compute_the_reference(self, kernel):
        text, n_in, result_addr, result_len = kernel()
        dfg = parse_dfg(text)
        records = unpack_bitstream(emit_bitstream(map_dfg(dfg, read_machine(self.ctx))))
        assert any({w.src0, w.src1} & {SrcSel.E2, SrcSel.W2} or w.dst in (DstSel.E2, DstSel.W2)
                   for _, _, words in records for w in words)
        rng = random.Random(kernel.__name__)
        image = [rng.getrandbits(32) for _ in range(n_in)] + [0] * result_len
        results, _ = run_protocol(build_system(self.ctx), records, image,
                                  result_addr, result_len)
        assert results == reference_execute(dfg, image)[result_addr:result_addr + result_len]

    def test_an_e2_drive_lands_two_cells_east(self):
        """(3, 2) drives E2; (3, 4) reads it from its W2 latch."""
        send = ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E2, imm16=7)
        receive = ConfigWord(Opcode.ADD, SrcSel.W2, SrcSel.NONE, DstSel.ACC)
        halt = ConfigWord(opcode=Opcode.HALT)
        system = build_system(self.ctx)
        system.register_config(0, [(GAP_ROW, 2, [send, halt]), (GAP_ROW, 4, [receive, halt])])
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        system.run()
        assert system.rpus[0].pes[(GAP_ROW, 4)].acc == 7


def test_only_the_fields_a_word_uses_need_a_link():
    """Without N/S links a copy still maps, validates and runs: its HALT
    words' all-zero fields encode N, but a HALT reads and drives nothing."""
    ctx = build_with(STANDARD, topology_plugin(lambda coord, d: d in (Direction.N, Direction.S)))
    records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg("in a 0\nout a 1\n"),
                                                      read_machine(ctx))))
    assert ConfigWord(Opcode.HALT) in (w for _, _, words in records for w in words)
    results, _ = run_protocol(build_system(ctx), records, [5, 0], 1, 1)
    assert results == [5]
    read_n = ConfigWord(Opcode.ADD, SrcSel.N, SrcSel.NONE, DstSel.ACC)
    with pytest.raises(BitstreamTargetInvalid, match="reads N, but the machine has no N link"):
        build_system(ctx).register_config(0, [(2, 2, [read_n])])


def test_one_way_link_fails_the_build():
    """(2, 2) still drives east into (2, 3), which has no link back west."""
    ctx = build_with(STANDARD,
                     topology_plugin(lambda coord, d: (coord, d) == ((2, 3), Direction.W)))
    with pytest.raises(ValidationError, match=r"\(2, 2\) -E-> \(2, 3\)"):
        build_system(ctx)


@pytest.mark.parametrize("bad", [
    replace(STANDARD, pe_type_map=STANDARD.pe_type_map + STANDARD.pe_type_map[:1]),
    replace(STANDARD, pe_type_map=tuple(row[:-1] for row in STANDARD.pe_type_map)),
    replace(STANDARD, pe_type_map=tuple(tuple(PeType.GPE if t is PeType.CPE else t for t in row)
                                        for row in STANDARD.pe_type_map)),
], ids=["extra-row", "short-rows", "cpe-enabled-without-cpe"])
def test_the_callers_params_are_validated(bad):
    """The record rebuilds its params from the build, which must not trim
    or repair the params the caller described."""
    for build in (SystemSim, lambda p: build_system(elaborate_arch(p)), elaborate_arch):
        with pytest.raises(ValidationError):
            build(bad)


def test_unreachable_destination_is_unmappable():
    """No E/W link joins columns 1 and 2, and each LSU holds one op, so the
    store sits across the cut from the load it reads."""
    lsu, gpe = PeType.LSU, PeType.GPE
    params = validate(ArchParams(rows=2, cols=4, cpe_enabled=False, context_depth_mcmd=2,
                                 pe_type_map=((lsu, gpe, gpe, lsu), (gpe,) * 4)))
    cut = {(1, Direction.E), (2, Direction.W)}
    ctx = build_with(params, topology_plugin(lambda coord, d: (coord[1], d) in cut))
    with pytest.raises(Unmappable, match=r"no link path from \(0, 0\) to \(0, 3\)"):
        map_dfg(parse_dfg("in a 0\nout a 1\n"), read_machine(ctx))


def test_the_machine_reads_every_service():
    rtt = {0x01: "load_config", 0x03: "launch"}
    sregs = {"mode": SharedRegScope.ROW, "count": 2}
    memory = {"banks": 4, "depth": 64, "width": 32}
    ctx = build_with(STANDARD, provider("SharedRegs", SHARED_REGS, sregs),
                     provider("SharedMemory", SHARED_MEMORY, memory),
                     provider("HostBridge", HOST_RTT, rtt))
    machine = read_machine(ctx)
    params = machine.params
    assert (params.shared_reg_mode, params.shared_reg_count) == (SharedRegScope.ROW, 2)
    assert (params.sm_banks, params.bank_depth) == (4, 64)
    system = SystemSim(machine)
    assert system.machine.rtt is rtt
    assert system.rpus[0].sram.words == 256


def test_a_roster_without_a_service_has_no_machine():
    """Without HostBridge (and the Cpe that needs it) the build seals, but it
    describes no host command decode."""
    plugins = [p for p in standard_plugins(STANDARD) if p.name not in ("HostBridge", "Cpe")]
    with pytest.raises(MissingService) as err:
        read_machine(elaborate_arch(STANDARD, plugins))
    assert err.value.unmet == [("machine", "host-rtt")]


def test_an_rtt_action_the_simulator_does_not_carry_out_has_no_machine():
    """Only the five actions of the standard table may be decoded to: a
    misspelt one would be queued, logged and never carried out."""
    rtt = {0x01: "load_config", 0x03: "lunch", 0x04: "store"}
    with pytest.raises(ValidationError, match="^host-rtt: unknown action 'lunch'; "
                                              "host-rtt: unknown action 'store'$"):
        read_machine(build_with(STANDARD, provider("HostBridge", HOST_RTT, rtt)))


def test_a_controller_decodes_its_writes_through_the_machines_rtt():
    """A HostBridge that swaps the opcodes of load_config and launch: the
    controller's nibble 3 is load_config too, its operand config 7, not a
    launch nor a load of config 0."""
    rtt = {0x01: "launch", 0x02: "load_data", 0x03: "load_config", 0x04: "store_results",
           0x05: "load_manifest"}
    system = build_system(build_with(STANDARD, provider("HostBridge", HOST_RTT, rtt)))
    seven = [(2, 2, [ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=7),
                     ConfigWord(opcode=Opcode.HALT)])]
    system.register_config(0, [(1, 1, [cfg_word(0x3, 7), ConfigWord(opcode=Opcode.HALT)])])
    system.register_config(7, seven)
    system.submit_script(parse_script("03 1 0\n01 1\n"))
    system.run()
    rpu = system.rpus[0]
    assert rpu.action_log == ["load_config", "launch", "load_config"]
    assert rpu.pes[(2, 2)].context == seven[0][2] and rpu.pes[(1, 1)].context == []


def test_a_cell_without_a_pe_has_no_machine():
    ctx = build_with(STANDARD, Plugin("Lsu"))   # emits none of the 28 LSUs
    with pytest.raises(ValidationError,
                       match=r"^build emitted no PE for cells \[\(0, 0\), \(0, 1\), \(0, 2\), "
                             r"\(0, 3\)\]$"):
        read_machine(ctx)


def test_no_consumer_builds_its_own_machine_description():
    """The simulator, the mapper, the PE core and the CLI read the machine
    record; none of them makes a port table, names the HostBridge's standard
    RTT, or imports the topology kind: the CLI's sweep reads it through arch's
    key table, and the others learn which links exist from the record's port
    table alone."""
    for name in ("system.py", "mapper.py", "pe.py", "cli.py"):
        tree = ast.parse((ROOT / "src" / "windmill" / name).read_text(encoding="utf-8"))
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert "neighbor_map" not in called, name
        named = {getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
        assert "DEFAULT_RTT" not in named, name
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert "TopologyKind" not in imported, name
        if name == "cli.py":
            continue   # prints the resource report's topology column
        assert not any(isinstance(node, ast.Attribute) and node.attr == "topology"
                       for node in ast.walk(tree)), name

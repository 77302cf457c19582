"""Topology adjacency, per-cycle value exchange, and scoped shared registers."""

from dataclasses import replace

import pytest

from windmill.arch import ArchParams, SharedRegScope, TopologyKind, with_default_type_map
from windmill.interconnect import (Direction, SharedRegFile, neighbor_map, neighbors,
                                   scope_of)
from windmill.mapper import _route_tables, _Scheduler
from windmill.pe import PE, ConfigWord, DstSel, Opcode, SrcSel, predecode
from windmill.plugins import standard_machine
from windmill.system import SystemSim

from test_pe import FakeBus


def mesh_degree(r, c, rows, cols):
    return 4 - (r in (0, rows - 1)) - (c in (0, cols - 1))


def onehop_degree(r, c, rows, cols):
    d2 = (r >= 2) + (r <= rows - 3) + (c >= 2) + (c <= cols - 3)
    return mesh_degree(r, c, rows, cols) + d2


class TestNeighbors:
    def test_mesh_corner(self):
        assert len(neighbors(TopologyKind.MESH2D, (0, 0), (8, 8))) == 2

    def test_torus_always_four(self):
        for coord in [(0, 0), (3, 5), (7, 7)]:
            assert len(neighbors(TopologyKind.TORUS, coord, (8, 8))) == 4

    def test_onehop_center(self):
        got = neighbors(TopologyKind.ONE_HOP, (3, 3), (8, 8))
        assert len(got) == 8
        dist2 = [d for d, _ in got if d.is_two_hop]
        assert len(dist2) == 4

    def test_degree_formulas_exhaustive(self):
        """Closed-form degrees on every grid up to 16x16."""
        for rows in range(2, 17):
            for cols in range(2, 17):
                for r in range(rows):
                    for c in range(cols):
                        dims = (rows, cols)
                        assert len(neighbors(TopologyKind.MESH2D, (r, c), dims)) \
                            == mesh_degree(r, c, rows, cols)
                        assert len(neighbors(TopologyKind.TORUS, (r, c), dims)) == 4
                        assert len(neighbors(TopologyKind.ONE_HOP, (r, c), dims)) \
                            == onehop_degree(r, c, rows, cols)

    def test_symmetry(self):
        """u reaches v via d iff v reaches u via the opposite direction."""
        for topo in TopologyKind:
            for r in range(5):
                for c in range(4):
                    for d, dest in neighbors(topo, (r, c), (5, 4)):
                        back = dict(neighbors(topo, dest, (5, 4)))
                        assert back[d.opposite] == (r, c)

    def test_no_self_links(self):
        for topo in TopologyKind:
            for rows, cols in [(2, 2), (2, 3), (4, 4)]:
                for r in range(rows):
                    for c in range(cols):
                        for _, dest in neighbors(topo, (r, c), (rows, cols)):
                            assert dest != (r, c)

    def test_neighbor_map_is_one_read_only_table_per_geometry(self):
        """One machine record per architecture holds one read-only port
        table, shared by the record's mapper tables and its PEs."""
        params = with_default_type_map(ArchParams(rows=4, cols=5, topology=TopologyKind.TORUS))
        machine = standard_machine(params)
        assert standard_machine(replace(params)) is machine
        ports = machine.ports
        assert standard_machine(replace(params, topology=TopologyKind.MESH2D)).ports is not ports
        assert dict(ports[(0, 0)]) == dict(neighbors(TopologyKind.TORUS, (0, 0), (4, 5)))
        links, _ = machine.derived(_route_tables)
        assert {coord: {link[0]: link[1] for link in row} for coord, row in links.items()} \
            == {coord: dict(row) for coord, row in ports.items()}
        assert _Scheduler(machine, 4).links is links
        rpu = SystemSim(machine).rpus[0]
        rpu.load_config([])
        assert all(pe.ports is ports[coord] for coord, pe in rpu.pes.items())
        with pytest.raises(TypeError):
            ports[(9, 9)] = {}
        with pytest.raises(TypeError):
            ports[(0, 0)][Direction.N] = (1, 1)
        with pytest.raises(TypeError):
            del ports[(0, 0)][Direction.N]


def drive(topology, dims, sends):
    """Run real PEs wired by ``neighbor_map`` against test_pe's FakeBus.

    ``sends`` maps a coordinate to the (direction, value) its one word
    drives; every other PE has no context. Returns what was delivered,
    as (receiving coordinate, entry latch) -> value, and the PEs.
    """
    ports = neighbor_map(topology, dims)
    pes = {coord: PE(coord, ports[coord]) for coord in ports}
    for coord, (direction, value) in sends.items():
        word = ConfigWord(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel[direction.name],
                          imm16=value)
        pes[coord].load_context(predecode([word]))
    for pe in pes.values():
        pe.launch_reset()
    bus = FakeBus(pes)
    delivered = {}
    for _ in range(8):
        for pe in pes.values():
            pe.tick(bus)
        for receiver, entry, value in bus.deliveries:
            assert (receiver.coord, entry) not in delivered
            delivered[(receiver.coord, entry)] = value
        bus.end_cycle()
    assert all(pe.done for pe in pes.values())
    return delivered, pes


class TestExchange:
    """Per-cycle value exchange as the machine runs it: a PE's write back
    drives one value per link into the receiver's entry latch, the
    opposite of the drive direction."""

    def test_no_outputs_no_inputs(self):
        delivered, _ = drive(TopologyKind.MESH2D, (8, 8), {})
        assert delivered == {}

    def test_east_drive_reads_west(self):
        delivered, pes = drive(TopologyKind.MESH2D, (8, 8), {(2, 2): (Direction.E, 7)})
        assert delivered == {((2, 3), Direction.W): 7}
        assert pes[(2, 3)].latch == {Direction.W: 7}

    def test_value_conservation(self):
        sends = {(r, c): (Direction.S, r * 8 + c) for r in range(7) for c in range(8)}
        delivered, _ = drive(TopologyKind.MESH2D, (8, 8), sends)
        assert sorted(delivered.values()) == sorted(v for _, v in sends.values())

    def test_torus_permutation_route(self):
        """Everyone drives east on a torus: a full permutation, wrapped."""
        sends = {(r, c): (Direction.E, 4 * r + c) for r in range(4) for c in range(4)}
        delivered, _ = drive(TopologyKind.TORUS, (4, 4), sends)
        assert len(delivered) == 16
        for r in range(4):
            for c in range(4):
                assert delivered[((r, (c + 1) % 4), Direction.W)] == 4 * r + c

    def test_edge_drive_is_lost_on_mesh(self):
        delivered, pes = drive(TopologyKind.MESH2D, (4, 4), {(0, 0): (Direction.N, 9)})
        assert delivered == {}
        assert pes[(0, 0)].done and pes[(0, 0)].active_cycles == 1


class TestSharedRegs:
    def test_global_scope_cross_array(self):
        f = SharedRegFile(SharedRegScope.GLOBAL, (8, 8))
        f.write((0, 0), 2, 0xABCD)
        f.commit()
        assert f.read((7, 7), 2) == (0xABCD, True)

    def test_row_scope_isolation(self):
        f = SharedRegFile(SharedRegScope.ROW, (8, 8))
        f.write((0, 0), 0, 5)
        f.commit()
        assert f.read((1, 0), 0) == (0, False)
        assert f.read((0, 7), 0) == (5, True)

    def test_line_scope_is_column(self):
        f = SharedRegFile(SharedRegScope.LINE, (8, 8))
        f.write((0, 3), 0, 9)
        f.commit()
        assert f.read((7, 3), 0) == (9, True)
        assert f.read((0, 4), 0) == (0, False)

    def test_quadrant_partition(self):
        dims = (8, 8)
        assert scope_of(SharedRegScope.QUADRANT, (3, 3), dims) \
            != scope_of(SharedRegScope.QUADRANT, (4, 4), dims)
        # scopes partition the grid for every mode
        for mode in SharedRegScope:
            seen = {}
            for r in range(8):
                for c in range(8):
                    seen.setdefault(scope_of(mode, (r, c), dims), []).append((r, c))
            assert sum(len(v) for v in seen.values()) == 64

    def test_write_conflict_lowest_coord_wins(self):
        f = SharedRegFile(SharedRegScope.GLOBAL, (8, 8))
        f.write((5, 5), 1, 111)
        f.write((2, 2), 1, 222)
        f.write((2, 3), 1, 333)
        f.commit()
        assert f.read((0, 0), 1) == (222, True)
        assert f.conflicts == 2

    def test_reads_see_previous_cycle(self):
        f = SharedRegFile(SharedRegScope.GLOBAL, (4, 4))
        f.write((0, 0), 0, 7)
        assert f.read((3, 3), 0) == (0, False)  # not yet committed
        f.commit()
        assert f.read((3, 3), 0) == (7, True)

"""Grid topologies and scoped shared registers.

Three topologies connect the PE grid: the plain 2D mesh, the torus (mesh
with wraparound), and the 1-hop network (mesh plus straight-line distance-2
links). Every link has one cycle of latency, including the distance-2 links.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .arch import IdentityEnum, SharedRegScope, TopologyKind
from .errors import SimulationError

Coord = tuple[int, int]


class Direction(IdentityEnum):
    # (row delta, col delta); *2 variants are the distance-2 straight links
    N = (-1, 0)
    S = (1, 0)
    E = (0, 1)
    W = (0, -1)
    N2 = (-2, 0)
    S2 = (2, 0)
    E2 = (0, 2)
    W2 = (0, -2)

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]

    @property
    def is_two_hop(self) -> bool:
        dr, dc = self.value
        return abs(dr) + abs(dc) == 2


_OPPOSITE = {d: Direction((-d.value[0], -d.value[1])) for d in Direction}


def neighbors(topology: TopologyKind, coord: Coord, dims: Coord) -> list[tuple[Direction, Coord]]:
    """Outgoing ports of the PE at in-grid ``coord``: (direction, destination).

    Mesh: in-grid orthogonal adjacents. Torus: orthogonal with wraparound
    (directions are always 4; destinations may coincide on 2-wide grids).
    1-hop: mesh links plus in-grid distance-2 straight links.
    """
    rows, cols = dims
    r, c = coord
    out = []
    for d in Direction:   # N S E W, then the distance-2 links N2 S2 E2 W2
        if d.is_two_hop and topology is not TopologyKind.ONE_HOP:
            break
        nr, nc = r + d.value[0], c + d.value[1]
        if topology is TopologyKind.TORUS:
            out.append((d, (nr % rows, nc % cols)))
        elif 0 <= nr < rows and 0 <= nc < cols:
            out.append((d, (nr, nc)))
    return out


def neighbor_map(topology: TopologyKind, dims: Coord) -> Mapping[Coord, Mapping[Direction, Coord]]:
    """Outgoing ports for every coordinate, as one read-only table, outer and
    inner mappings alike: the standard Topology plugin's service payload."""
    rows, cols = dims
    return MappingProxyType({
        (r, c): MappingProxyType(dict(neighbors(topology, (r, c), dims)))
        for r in range(rows) for c in range(cols)
    })


# --- shared registers --------------------------------------------------------


def scope_of(mode: SharedRegScope, coord: Coord, dims: Coord) -> int:
    """Scope instance owning a coordinate. Instances partition the grid."""
    rows, cols = dims
    r, c = coord
    if mode is SharedRegScope.LINE:
        return c
    if mode is SharedRegScope.ROW:
        return r
    if mode is SharedRegScope.QUADRANT:
        return 2 * (r >= rows // 2) + (c >= cols // 2)
    return 0


class SharedRegFile:
    """Scoped 32-bit registers for cross-schedule delivery.

    Reads see the state committed at the end of the previous cycle: a
    register is valid once written, and ``committed`` holds exactly the
    valid ones, keyed by (scope instance, index). A register is written
    once per launch, so a reader sees one value whenever it reads: a write
    to a valid register is a machine fault. Writes are staged and committed
    together; two writes to the same register in one cycle resolve to the
    lowest (row, col) writer and count a conflict. Indices are trusted:
    registration bounds them by the register count.
    """

    def __init__(self, mode: SharedRegScope, dims: Coord):
        self.mode = mode
        self.dims = dims
        self.committed: dict[tuple[int, int], int] = {}
        self.pending: dict[tuple[int, int], tuple[Coord, int]] = {}
        self.conflicts = 0

    def read(self, coord: Coord, idx: int) -> tuple[int, bool]:
        value = self.committed.get((scope_of(self.mode, coord, self.dims), idx))
        return (0, False) if value is None else (value, True)

    def write(self, coord: Coord, idx: int, value: int):
        """Stage a write; committed at cycle end by ``commit``."""
        s = scope_of(self.mode, coord, self.dims)
        key = (s, idx)
        if key in self.committed:
            raise SimulationError(f"PE {coord} writes shared register {idx} (scope {s}), "
                                  "already written in this launch")
        prior = self.pending.get(key)
        if prior is None:
            self.pending[key] = (coord, value)
        else:
            self.conflicts += 1
            if coord < prior[0]:
                self.pending[key] = (coord, value)

    def commit(self):
        for key, (_, value) in self.pending.items():
            self.committed[key] = value & 0xFFFFFFFF
        self.pending.clear()

    def clear(self):
        self.committed.clear()
        self.pending.clear()

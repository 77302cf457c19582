"""Architecture parameter schema, validation, and the description file format.

An architecture instance is one ``ArchParams`` value: grid geometry, the
per-cell PE type map, interconnect topology, execution mode, shared-memory
banking, shared-register scoping and the host-system counts. ``validate``
checks every invariant and reports all violations at once. ``derive_counts``
turns validated parameters and a port table into a resource report (PE counts
by type, context bits, memory bytes, link counts).

The on-disk form is a small ``key = value`` text format under three section
headers, with the PE type map written as rows of single-letter codes::

    [array]
    rows = 8
    cols = 8
    topology = mesh2d
    exec_mode = mcmd
    data_width = 32
    LLLLLLLL
    LCGGGGGL
    ...

    [memory]
    sm_banks = 16
    bank_depth = 256
    bank_width = 32

    [system]
    rpu_count = 4
    cpe = on
    context_depth_mcmd = 16
    shared_reg_mode = global
    shared_reg_count = 4

Unknown keys are rejected. ``serialize`` and ``parse_arch_file`` round-trip.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from enum import Enum

from .errors import ParseError, ValidationError


class IdentityEnum(Enum):
    # members are singletons compared by identity, so hash them by identity:
    # Enum's default hashes the name in Python code
    __hash__ = object.__hash__


class PeType(IdentityEnum):
    GPE = "G"
    LSU = "L"
    CPE = "C"


class TopologyKind(IdentityEnum):
    MESH2D = "mesh2d"
    ONE_HOP = "onehop"
    TORUS = "torus"


class ExecMode(IdentityEnum):
    SCMD = "scmd"
    MCMD = "mcmd"


class SharedRegScope(IdentityEnum):
    LINE = "line"        # one scope per column
    ROW = "row"          # one scope per row
    QUADRANT = "quadrant"
    GLOBAL = "global"


# SCMD shares one configuration stream across a PE row, freeing the context
# memory to hold this many times more words than MCMD.
SCMD_CONTEXT_FACTOR = 8


@dataclass(frozen=True)
class ArchParams:
    rows: int = 8
    cols: int = 8
    pe_type_map: tuple[tuple[PeType, ...], ...] = ()
    topology: TopologyKind = TopologyKind.MESH2D
    exec_mode: ExecMode = ExecMode.MCMD
    data_width: int = 32
    sm_banks: int = 16
    bank_depth: int = 256
    bank_width: int = 32
    context_depth_mcmd: int = 16
    shared_reg_mode: SharedRegScope = SharedRegScope.GLOBAL
    shared_reg_count: int = 4
    rpu_count: int = 4
    cpe_enabled: bool = True

    def pe_type(self, row: int, col: int) -> PeType:
        t = self.pe_type_map[row][col]
        if t is PeType.CPE and not self.cpe_enabled:
            return PeType.GPE
        return t

    def coords(self):
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)

    @property
    def sm_words(self) -> int:
        return self.sm_banks * self.bank_depth

    def context_capacity(self) -> int:
        """Configuration words one PE can hold under the execution mode."""
        if self.exec_mode is ExecMode.SCMD:
            return SCMD_CONTEXT_FACTOR * self.context_depth_mcmd
        return self.context_depth_mcmd


def perimeter_lsu_map(rows: int, cols: int, cpe_at: tuple[int, int] | None = (1, 1)):
    """Type map with LSUs on the grid perimeter, GPEs inside, one CPE.

    The CPE sits in the interior cell adjacent to the host-bridge corner,
    (1, 1) by default. Pass ``cpe_at=None`` for a CPE-free map.
    """
    grid = []
    for r in range(rows):
        row = []
        for c in range(cols):
            if r in (0, rows - 1) or c in (0, cols - 1):
                row.append(PeType.LSU)
            elif cpe_at is not None and (r, c) == cpe_at:
                row.append(PeType.CPE)
            else:
                row.append(PeType.GPE)
        grid.append(tuple(row))
    return tuple(grid)


def with_default_type_map(params: ArchParams) -> ArchParams:
    """``params`` with the perimeter-LSU map for its size; the CPE sits at
    (1, 1) when enabled."""
    if errs := _size_errors(params):   # refused first: a rows x cols map could fill memory
        raise ValidationError(errs)
    cpe_at = (1, 1) if params.cpe_enabled else None
    return replace(params, pe_type_map=perimeter_lsu_map(params.rows, params.cols, cpe_at))


def standard_preset() -> ArchParams:
    """The reference 8x8 instance: 28 perimeter LSUs around 35 GPEs and one
    CPE, a 2D mesh, and 16 banks of 256x32-bit shared memory."""
    return ArchParams(pe_type_map=perimeter_lsu_map(8, 8))


def _size_errors(params: ArchParams) -> list[str]:
    return [f"{name}: must be in 2..256 (8-bit bitstream header field)"
            for name in ("rows", "cols") if not 2 <= getattr(params, name) <= 256]


def validate(params: ArchParams) -> ArchParams:
    """Check every invariant; raise ValidationError listing all violations."""
    errs = _size_errors(params)
    if len(params.pe_type_map) != params.rows:
        errs.append(f"pe_type_map: {len(params.pe_type_map)} rows, expected {params.rows}")
    else:
        for r, row in enumerate(params.pe_type_map):
            if len(row) != params.cols:
                errs.append(f"pe_type_map: row {r} has {len(row)} cells, expected {params.cols}")
    if params.sm_banks < 1 or params.sm_banks & (params.sm_banks - 1):
        errs.append("sm_banks: must be a power of two")
    if params.bank_depth < 2 or params.bank_depth & (params.bank_depth - 1):
        errs.append("bank_depth: must be a power of two >= 2 (ping-pong halves split "
                    "on the top row-address bit)")
    if params.bank_width != params.data_width:
        errs.append(f"bank_width: {params.bank_width} != data_width {params.data_width}")
    if params.data_width != 32:
        errs.append("data_width: only 32-bit datapaths are supported")
    if params.context_depth_mcmd < 1:
        errs.append("context_depth_mcmd: must be >= 1")
    if params.shared_reg_count < 1 or params.shared_reg_count > 16:
        errs.append("shared_reg_count: must be in 1..16 (4-bit register index)")
    if params.rpu_count < 1:
        errs.append("rpu_count: must be >= 1")
    if not errs and params.cpe_enabled:
        n_cpe = sum(row.count(PeType.CPE) for row in params.pe_type_map)
        if n_cpe != 1:
            errs.append(f"pe_type_map: exactly one CPE per RPU required, found {n_cpe}")
    if errs:
        raise ValidationError(errs)
    return params


@dataclass(frozen=True)
class ResourceReport:
    """Pure function of validated parameters; what a generated instance costs
    in countable resources (the desk-scale stand-in for silicon area)."""

    rows: int
    cols: int
    gpe_count: int
    lsu_count: int
    cpe_count: int
    topology: str
    exec_mode: str
    links_directed: int
    context_words_per_pe: int
    context_bits_total: int
    sm_banks: int
    bank_depth: int
    bank_width: int
    sm_bytes: int
    shared_reg_mode: str
    shared_reg_count: int
    rpu_count: int

    def csv_row(self) -> str:
        return ",".join(str(getattr(self, c)) for c in self.CSV_COLUMNS)


ResourceReport.CSV_COLUMNS = tuple(f.name for f in fields(ResourceReport))


def derive_counts(params: ArchParams, ports: Mapping) -> ResourceReport:
    """The report of a machine with ``params`` and the port table ``ports``
    (coord -> {drive direction: neighbor})."""
    counts = {PeType.GPE: 0, PeType.LSU: 0, PeType.CPE: 0}
    for r, c in params.coords():
        counts[params.pe_type(r, c)] += 1
    cap = params.context_capacity()
    n_pes = params.rows * params.cols
    return ResourceReport(
        rows=params.rows,
        cols=params.cols,
        gpe_count=counts[PeType.GPE],
        lsu_count=counts[PeType.LSU],
        cpe_count=counts[PeType.CPE],
        topology=params.topology.value,
        exec_mode=params.exec_mode.value,
        links_directed=sum(map(len, ports.values())),
        context_words_per_pe=cap,
        context_bits_total=cap * 64 * n_pes,
        sm_banks=params.sm_banks,
        bank_depth=params.bank_depth,
        bank_width=params.bank_width,
        sm_bytes=params.sm_banks * params.bank_depth * params.bank_width // 8,
        shared_reg_mode=params.shared_reg_mode.value,
        shared_reg_count=params.shared_reg_count,
        rpu_count=params.rpu_count,
    )


# --- description file parsing ----------------------------------------------

_SECTIONS = ("array", "memory", "system")

# the description's keys in ``serialize`` order: key -> (section, ArchParams
# field, type); the type map is written as rows of letter codes instead
_SCHEMA = {
    "rows": ("array", "rows", int), "cols": ("array", "cols", int),
    "topology": ("array", "topology", TopologyKind),
    "exec_mode": ("array", "exec_mode", ExecMode),
    "data_width": ("array", "data_width", int),
    "sm_banks": ("memory", "sm_banks", int), "bank_depth": ("memory", "bank_depth", int),
    "bank_width": ("memory", "bank_width", int),
    "rpu_count": ("system", "rpu_count", int), "cpe": ("system", "cpe_enabled", bool),
    "context_depth_mcmd": ("system", "context_depth_mcmd", int),
    "shared_reg_mode": ("system", "shared_reg_mode", SharedRegScope),
    "shared_reg_count": ("system", "shared_reg_count", int),
}


def read_value(key: str, text: str, lineno: int | None = None):
    """Read ``text`` as a value of description key ``key``: an integer in any
    base ``int(text, 0)`` reads, on/off, or an enum value in any case. Text
    the key does not take raises ParseError at ``lineno``."""
    kind = _SCHEMA[key][2]
    try:
        if kind is int:
            return int(text, 0)
        if kind is bool:
            return {"on": True, "off": False}[text.lower()]
        return kind(text.lower())
    except (KeyError, ValueError):
        expected = ("an integer" if kind is int else "on/off" if kind is bool
                    else "one of " + "/".join(e.value for e in kind))
        raise ParseError(f"{key}: expected {expected}, got {text!r}", lineno) from None


def parse_arch_file(text: str) -> ArchParams:
    """Parse and validate one architecture description."""
    section = None
    values: dict[str, object] = {}
    grid_rows: list[tuple[PeType, ...]] = []
    saw_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_any = True
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise ParseError("content before any section header", lineno)
        if "=" in line:
            key, _, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            entry = _SCHEMA.get(key)
            if entry is None:
                raise ParseError(f"unknown key {key!r}", lineno)
            if entry[0] != section:
                raise ParseError(f"key {key!r} belongs in [{entry[0]}]", lineno)
            if entry[1] in values:
                raise ParseError(f"duplicate key {key!r}", lineno)
            values[entry[1]] = read_value(key, value, lineno)
            continue
        if section == "array" and set(line) <= {"G", "L", "C"}:
            grid_rows.append(tuple(PeType(ch) for ch in line))
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno)

    if not saw_any:
        raise ParseError("empty architecture description", 1)

    params = ArchParams(pe_type_map=tuple(grid_rows), **values)
    if not grid_rows:
        # no explicit map: default to the perimeter-LSU pattern
        params = with_default_type_map(params)
    return validate(params)


def serialize(params: ArchParams) -> str:
    """Canonical text form; parses back to an equal ArchParams."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key, (home, name, _) in _SCHEMA.items():
            if home == section:
                value = getattr(params, name)
                if isinstance(value, bool):
                    value = "on" if value else "off"
                lines.append(f"{key} = {value.value if isinstance(value, Enum) else value}")
        if section == "array":
            lines += ["".join(t.value for t in row) for row in params.pe_type_map]
        lines.append("")
    return "\n".join(lines)

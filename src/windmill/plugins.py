"""The standard plugin roster, and the one machine record a sealed build makes.

Topology validates the caller's params and provides the port table,
SharedRegs and SharedMemory their settings, HostBridge the register
transformation table (RTT), a read-only map from host opcode to action. The
GPE, LSU and CPE plugins split the grid cells; detaching the CPE leaves no
residue, as the GPE plugin claims any controller cell nobody spoke for.

``read_machine`` reads a sealed build into one immutable ``MachineRecord``,
which the mapper and the simulator read; the resource report reads the same
as-built params and port table. Replace a plugin and each of them sees the
change. ``standard_machine(params)`` is the standard roster's record,
elaborated once per architecture.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType

from .arch import ArchParams, PeType, derive_counts, validate
from .elab import BuildContext, Plugin, ServiceKey, ServiceKind, elaborate
from .errors import MissingService, ValidationError
from .interconnect import neighbor_map
from .system import DEFAULT_CYCLE_LIMIT, SystemSim

TOPOLOGY = ServiceKey("topology", ServiceKind.SIGNAL_BUNDLE)
SHARED_MEMORY = ServiceKey("shared-memory", ServiceKind.SIGNAL_BUNDLE)
SHARED_REGS = ServiceKey("shared-regs", ServiceKind.PARAMETER_SET)
HOST_RTT = ServiceKey("host-rtt", ServiceKind.CALLBACK)
CPE_CELLS = ServiceKey("cpe-cells", ServiceKind.PARAMETER_SET)


def _raw_cells(params: ArchParams, wanted: PeType):
    for r, row in enumerate(params.pe_type_map):
        for c, t in enumerate(row):
            if t is wanted:
                yield (r, c)


def topology_plugin() -> Plugin:
    def config(ctx, params):
        validate(params)

    def early(ctx, params):
        ctx.provide(TOPOLOGY, neighbor_map(params.topology, (params.rows, params.cols)))

    return Plugin("Topology", provides=frozenset({TOPOLOGY}),
                  on_config=config, on_early=early)


def shared_reg_plugin() -> Plugin:
    def early(ctx, params):
        ctx.provide(SHARED_REGS, {"mode": params.shared_reg_mode,
                                  "count": params.shared_reg_count})

    return Plugin("SharedRegs", provides=frozenset({SHARED_REGS}), on_early=early)


def shared_memory_plugin() -> Plugin:
    def early(ctx, params):
        ctx.provide(SHARED_MEMORY, {"banks": params.sm_banks,
                                    "depth": params.bank_depth,
                                    "width": params.bank_width})

    def late(ctx, params):
        geo = ctx.get_service(SHARED_MEMORY)
        ctx.emit("shared_memory", "memory", banks=geo["banks"], depth=geo["depth"],
                 width=geo["width"])

    return Plugin("SharedMemory", provides=frozenset({SHARED_MEMORY}),
                  on_early=early, on_late=late)


# the standard RTT; the simulator decodes host and controller commands through it
DEFAULT_RTT = MappingProxyType({0x01: "load_config", 0x02: "load_data", 0x03: "launch",
                                0x04: "store_results", 0x05: "load_manifest"})


def host_bridge_plugin() -> Plugin:
    def early(ctx, params):
        ctx.provide(HOST_RTT, DEFAULT_RTT)

    def late(ctx, params):
        ctx.emit("host_bridge", "bridge", rpu_count=params.rpu_count)

    return Plugin("HostBridge", provides=frozenset({HOST_RTT}),
                  on_early=early, on_late=late)


def cpe_plugin() -> Plugin:
    def early(ctx, params):
        ctx.provide(CPE_CELLS, tuple(_raw_cells(params, PeType.CPE)))

    def late(ctx, params):
        for r, c in ctx.get_service(CPE_CELLS):
            ctx.emit(f"pe_{r}_{c}", "pe", row=r, col=c, pe_type="CPE")

    return Plugin("Cpe", provides=frozenset({CPE_CELLS}),
                  requires=frozenset({HOST_RTT}), on_early=early, on_late=late)


def gpe_plugin() -> Plugin:
    def late(ctx, params):
        claimed = ctx.try_service(CPE_CELLS) or ()
        cells = list(_raw_cells(params, PeType.GPE))
        # authored fallback: unclaimed controller cells become plain GPEs
        cells += [cell for cell in _raw_cells(params, PeType.CPE)
                  if cell not in claimed]
        for r, c in sorted(cells):
            ctx.emit(f"pe_{r}_{c}", "pe", row=r, col=c, pe_type="GPE")

    return Plugin("Gpe", requires=frozenset({TOPOLOGY, SHARED_REGS}), on_late=late)


def lsu_plugin() -> Plugin:
    def late(ctx, params):
        for r, c in _raw_cells(params, PeType.LSU):
            ctx.emit(f"pe_{r}_{c}", "pe", row=r, col=c, pe_type="LSU")

    return Plugin("Lsu", requires=frozenset({TOPOLOGY, SHARED_MEMORY}), on_late=late)


def standard_plugins(params: ArchParams) -> list[Plugin]:
    plugins = [
        topology_plugin(),
        shared_reg_plugin(),
        shared_memory_plugin(),
        host_bridge_plugin(),
        gpe_plugin(),
        lsu_plugin(),
    ]
    if params.cpe_enabled:
        plugins.append(cpe_plugin())
    return plugins


def elaborate_arch(params: ArchParams, plugins: list[Plugin] | None = None) -> BuildContext:
    return elaborate(plugins if plugins is not None else standard_plugins(params), params)


# --- the machine record --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MachineRecord:
    """One built machine: everything the mapper and the simulator read."""

    params: ArchParams        # as built
    ports: Mapping            # coord -> {drive direction: neighbor}, read-only
    rtt: Mapping              # host opcode -> action, for host and controller commands
    cells: tuple              # (coord, PE type, port row) of every cell, in raster order
    pai_order: tuple          # arbiter requesters: LSUs in raster order, then the ring port
    lsu_report_order: tuple   # LSUs as ``grants_per_lsu`` lists them: by str(coord)
    _derived: dict = field(default_factory=dict, repr=False)

    def derived(self, build):
        """``build(self)``, computed once per record: a table a consumer
        derives from the machine, such as the mapper's route tables."""
        table = self._derived.get(build)
        if table is None:
            table = self._derived[build] = build(self)
        return table


def _as_built(ctx: BuildContext) -> tuple[ArchParams, Mapping, Mapping]:
    """The params, port table and RTT of a sealed build: the cell map from
    the emitted PEs, every other setting from its service."""
    keys = (TOPOLOGY, SHARED_REGS, SHARED_MEMORY, HOST_RTT)
    missing = [key.name for key in keys if key not in ctx.services]
    if missing:
        raise MissingService([("machine", name) for name in missing])
    ports, sregs, memory, rtt = (ctx.services[key][1] for key in keys)
    params: ArchParams = ctx.params
    built = {(a.detail["row"], a.detail["col"]): PeType[a.detail["pe_type"]]
             for a in ctx.artifacts if a.kind == "pe"}
    missing = [c for c in params.coords() if c not in built]
    if missing:
        raise ValidationError([f"build emitted no PE for cells {missing[:4]}"])
    grid = tuple(tuple(built[(r, c)] for c in range(params.cols))
                 for r in range(params.rows))
    params = validate(replace(
        params, pe_type_map=grid, cpe_enabled=any(PeType.CPE in row for row in grid),
        shared_reg_mode=sregs["mode"], shared_reg_count=sregs["count"],
        sm_banks=memory["banks"], bank_depth=memory["depth"], bank_width=memory["width"]))
    return params, ports, rtt


def read_machine(ctx: BuildContext) -> MachineRecord:
    """The machine a sealed build describes. Raises ValidationError when a
    cell has no PE or no port row, a link has no way back, or the RTT holds
    more than 16 entries or an action the simulator does not carry out."""
    params, ports, rtt = _as_built(ctx)
    if len(rtt) > 16:
        raise ValidationError([f"host-rtt: must hold at most 16 entries, found {len(rtt)}"])
    unknown = [f"host-rtt: unknown action {a!r}" for a in rtt.values()
               if a not in DEFAULT_RTT.values()]
    if unknown:
        raise ValidationError(unknown)
    cells = tuple((rc, params.pe_type(*rc), ports.get(rc)) for rc in params.coords())
    # a port row per cell, each link with a way back: a consumed latch wakes its
    # driver through the opposite port, and route distances search from the goal
    one_way = [f"{a} -{d.name}-> {b}" for a, row in ports.items() for d, b in row.items()
               if b not in ports or ports[b].get(d.opposite) != a]
    if one_way or len(ports) != len(cells) or any(row is None for _, _, row in cells):
        raise ValidationError([f"topology: want a row per cell, no one-way link: {one_way[:4]}"])
    lsus = tuple(rc for rc, pe_type, _ in cells if pe_type is PeType.LSU)
    return MachineRecord(params, ports, rtt, cells, (*lsus, ("ring",)),
                         tuple(sorted(lsus, key=str)))


# bounded: a run builds few architectures, and a large grid's record is large
@lru_cache(maxsize=16)
def standard_machine(params: ArchParams) -> MachineRecord:
    """The standard roster's machine for ``params``, elaborated once per
    architecture."""
    return read_machine(elaborate_arch(params))


def report_from_build(ctx: BuildContext):
    """Resource report of the machine actually built."""
    params, ports, _ = _as_built(ctx)
    return derive_counts(params, ports)


def build_system(ctx: BuildContext, data_image=None,
                 cycle_limit=DEFAULT_CYCLE_LIMIT) -> SystemSim:
    """Instantiate the simulator exactly as elaborated."""
    return SystemSim(read_machine(ctx), data_image, cycle_limit)

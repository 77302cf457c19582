"""The standard plugin roster: how one array instance gets elaborated.

Each hardware concern is a plugin. The grid cells are split between the
GPE, LSU and CPE plugins; shared memory, shared registers, the topology
and the host bridge are services other plugins look up. Detaching the CPE
plugin leaves no controller residue: the GPE plugin explicitly claims any
controller cell nobody spoke for, which is the authored fallback path.

``build_system`` turns a sealed build context into a runnable simulator,
reconstructing the cell map from the emitted artifacts so that whatever
was detached at elaboration time is genuinely absent from the machine.
"""

from __future__ import annotations

from dataclasses import replace

from .arch import ArchParams, PeType, derive_counts, validate
from .elab import BuildContext, Plugin, ServiceKey, ServiceKind, elaborate
from .errors import ValidationError
from .interconnect import neighbor_map
from .system import DEFAULT_CYCLE_LIMIT, SystemSim, default_rtt

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


def host_bridge_plugin() -> Plugin:
    def early(ctx, params):
        ctx.provide(HOST_RTT, default_rtt())

    def late(ctx, params):
        ctx.emit("host_bridge", "bridge", rpu_count=params.rpu_count)

    return Plugin("HostBridge", provides=frozenset({HOST_RTT}),
                  on_early=early, on_late=late)


def cpe_plugin() -> Plugin:
    def early(ctx, params):
        ctx.provide(CPE_CELLS, tuple(_raw_cells(params, PeType.CPE)))

    def late(ctx, params):
        ctx.get_service(HOST_RTT)  # the controller's command path
        for r, c in ctx.get_service(CPE_CELLS):
            ctx.emit(f"pe_{r}_{c}", "pe", row=r, col=c, pe_type="CPE")

    return Plugin("Cpe", provides=frozenset({CPE_CELLS}),
                  requires=frozenset({HOST_RTT}), on_early=early, on_late=late)


def gpe_plugin() -> Plugin:
    def late(ctx, params):
        ctx.get_service(TOPOLOGY)
        ctx.get_service(SHARED_REGS)
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
        ctx.get_service(TOPOLOGY)
        ctx.get_service(SHARED_MEMORY)
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


def report_from_build(ctx: BuildContext):
    """Resource report measured over the artifacts actually emitted."""
    return derive_counts(_params_from_artifacts(ctx))


def _params_from_artifacts(ctx: BuildContext) -> ArchParams:
    params: ArchParams = ctx.params
    cells = {}
    for a in ctx.artifacts:
        if a.kind == "pe":
            cells[(a.detail["row"], a.detail["col"])] = PeType[a.detail["pe_type"]]
    missing = [c for c in params.coords() if c not in cells]
    if missing:
        raise ValidationError([f"build emitted no PE for cells {missing[:4]}"])
    grid = tuple(tuple(cells[(r, c)] for c in range(params.cols))
                 for r in range(params.rows))
    has_cpe = any(t is PeType.CPE for row in grid for t in row)
    return validate(replace(params, pe_type_map=grid, cpe_enabled=has_cpe))


def build_system(ctx: BuildContext, data_image=None,
                 cycle_limit=DEFAULT_CYCLE_LIMIT) -> SystemSim:
    """Instantiate the simulator exactly as elaborated."""
    return SystemSim(_params_from_artifacts(ctx), data_image, cycle_limit)

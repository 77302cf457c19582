"""Parameterized CGRA toolkit: generator, cycle-level simulator, mapper."""

__version__ = "0.1.0"

from .arch import ArchParams, derive_counts, parse_arch_file, serialize, standard_preset
from .elab import BuildContext, Plugin, ServiceKey, elaborate
from .dfg import Dfg, parse_dfg, reference_execute
from .mapper import emit_bitstream, map_dfg
from .pe import ConfigWord, Opcode, context_capacity, decode, encode
from .plugins import build_system, elaborate_arch, standard_plugins
from .system import SimStats, SystemSim, run_protocol

__all__ = [
    "ArchParams", "BuildContext", "ConfigWord", "Dfg", "Opcode", "Plugin",
    "ServiceKey", "SimStats", "SystemSim", "build_system", "context_capacity",
    "decode", "derive_counts", "elaborate", "elaborate_arch", "emit_bitstream",
    "encode", "map_dfg", "parse_arch_file", "parse_dfg", "reference_execute",
    "run_protocol", "serialize", "standard_plugins", "standard_preset",
]

"""Exception hierarchy shared across the toolkit.

Build-time errors (elaboration, validation, parsing, mapping) and run-time
errors (simulation) both derive from WindmillError so the CLI can map them
onto its stable exit codes.
"""


class WindmillError(Exception):
    """Base class for all toolkit errors."""


# --- elaboration ----------------------------------------------------------

class DuplicatePlugin(WindmillError):
    """A plugin with the same name was already registered."""


class MissingService(WindmillError):
    """A required service has no registered provider.

    Carries the full list of unmet (requirer, service) pairs so a failed
    build reports every missing dependency, not just the first.
    """

    def __init__(self, unmet):
        self.unmet = list(unmet)
        chain = "; ".join(f"{who} -> {key}" for who, key in self.unmet)
        super().__init__(f"unmet service dependencies: {chain}")


class PhaseViolation(WindmillError):
    """A callback attempted an action reserved for a different build phase."""


# --- parameters and file formats ------------------------------------------

class ValidationError(WindmillError):
    """One or more architecture parameters violate their invariants.

    ``errors`` holds every violation message, each prefixed by the
    offending field name.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ParseError(WindmillError):
    """Malformed input text. ``line`` is 1-based when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# --- PE core ---------------------------------------------------------------

class DecodeError(WindmillError):
    """A 64-bit configuration word has an illegal field encoding."""


class EncodeError(WindmillError):
    """A configuration field value is outside its bit range."""


class CapacityExceeded(WindmillError):
    """More configuration words than the context memory can hold."""


# --- memory ----------------------------------------------------------------

class AddressOutOfRange(WindmillError):
    """A word address falls outside the addressed memory."""


# --- system ----------------------------------------------------------------

class UnknownOpcode(WindmillError):
    """Host command opcode not present in the decode table."""


class ProtocolOrderViolation(WindmillError):
    """Host protocol step issued from an illegal state (e.g. launch before
    any configuration was loaded)."""


class BitstreamTargetInvalid(WindmillError):
    """A bitstream record targets a PE that does not exist, or uses an
    encoding illegal for the target (memory op on a non-LSU, a directional
    select the word uses in which no link of the machine runs)."""


class CycleLimitExceeded(WindmillError):
    """A host launch and the phases chained to it ran ``cycle_limit`` cycles
    with a PE still live."""


class DeadlockDetected(CycleLimitExceeded):
    """Every live PE of a running RPU waits on an event no PE can cause."""


class SimulationError(WindmillError):
    """Internal machine-state inconsistency detected mid-run."""


# --- mapper ----------------------------------------------------------------

class CyclicGraph(WindmillError):
    """The dataflow graph contains a cycle."""


class UnboundOperand(WindmillError):
    """A node references an operand id that is never defined."""


class Unmappable(WindmillError):
    """The mapper ran out of resources. ``node`` names the blocker."""

    def __init__(self, message, node=None):
        self.node = node
        if node is not None:
            message = f"{message} (blocking node: {node})"
        super().__init__(message)

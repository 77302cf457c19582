"""Dependency-driven plugin/service elaboration framework.

A build is described by a set of plugins. Each plugin names the services it
provides and requires, and contributes three phase callbacks:

* ``on_config`` -- parameter negotiation; no services exist yet.
* ``on_early``  -- service payload instantiation (``provide``).
* ``on_late``   -- artifact emission; consumes services via ``get_service``.

``elaborate`` runs every plugin's callback for a phase before any plugin
enters the next phase (blocking phase barriers), then seals the context.
Callbacks run in registration order within a phase, so identical plugin
lists and parameters always produce byte-identical builds.

Removing a plugin removes everything it contributed: a sealed context never
contains an artifact or service entry naming an unregistered plugin. A
plugin that needs a detached provider fails the build with the full list of
unmet dependencies; fallbacks are authored explicitly by the surviving
plugins via ``try_service``, never injected implicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from .errors import DuplicatePlugin, MissingService, PhaseViolation


class ServiceKind(Enum):
    SIGNAL_BUNDLE = "signal-bundle"
    PARAMETER_SET = "parameter-set"
    CALLBACK = "callback"


@dataclass(frozen=True)
class ServiceKey:
    """Identity of one pluggable service. Names are unique per build."""

    name: str
    kind: ServiceKind = ServiceKind.PARAMETER_SET

    def __str__(self):
        return self.name


class Phase(Enum):
    CONFIG = "config"
    EARLY = "early"
    LATE = "late"
    SEALED = "sealed"


PhaseCallback = Callable[["BuildContext", Any], None]


def _noop(ctx, params):
    return None


@dataclass
class Plugin:
    """Unit of pluggable elaboration.

    Callbacks must be pure functions of (context, params): no hidden state,
    no ordering tricks, so that rebuilding from the same inputs reproduces
    the same artifact bit for bit.
    """

    name: str
    provides: frozenset[ServiceKey] = frozenset()
    requires: frozenset[ServiceKey] = frozenset()
    on_config: PhaseCallback = _noop
    on_early: PhaseCallback = _noop
    on_late: PhaseCallback = _noop

    def __post_init__(self):
        self.provides = frozenset(self.provides)
        self.requires = frozenset(self.requires)
        overlap = self.provides & self.requires
        if overlap:
            raise ValueError(
                f"plugin {self.name!r} both provides and requires: "
                f"{sorted(k.name for k in overlap)}"
            )


@dataclass
class Artifact:
    """One emitted architecture component, tagged with its origin plugin."""

    name: str
    kind: str
    plugin: str
    detail: dict = field(default_factory=dict)


class BuildContext:
    """Mutable elaboration state; immutable once sealed."""

    def __init__(self, params: Any = None):
        self.params = params
        self.plugins: list[Plugin] = []
        self.phase = Phase.CONFIG
        # ServiceKey -> (provider plugin name, payload)
        self.services: dict[ServiceKey, tuple[str, Any]] = {}
        self.artifacts: list[Artifact] = []
        # (requirer plugin, service name, provider plugin), recorded for each
        # declared requirement once the early phase met it, and at each lookup
        self.dependency_edges: list[tuple[str, str, str]] = []
        # (plugin name, phase, sequence index) per executed callback
        self.phase_log: list[tuple[str, str, int]] = []
        self._active: Plugin | None = None   # the plugin whose callback runs

    # -- registration --------------------------------------------------

    def register(self, plugin: Plugin) -> "BuildContext":
        if self.phase is not Phase.CONFIG:
            raise PhaseViolation("plugins may only be registered before elaboration")
        if any(p.name == plugin.name for p in self.plugins):
            raise DuplicatePlugin(f"plugin {plugin.name!r} registered twice")
        self.plugins.append(plugin)
        return self

    # -- service table ---------------------------------------------------

    def provide(self, key: ServiceKey, payload: Any):
        """Install the payload for a service the active plugin declared."""
        if self.phase is not Phase.EARLY:
            raise PhaseViolation(f"provide({key}) outside the early phase")
        plugin = self._active
        if key not in plugin.provides:
            raise PhaseViolation(
                f"plugin {plugin.name!r} never declared that it provides {key}"
            )
        if key in self.services:
            other = self.services[key][0]
            raise DuplicatePlugin(f"service {key} provided by both {other!r} and {plugin.name!r}")
        self.services[key] = (plugin.name, payload)

    def get_service(self, key: ServiceKey) -> Any:
        """Look up a service payload, recording the dependency edge."""
        if self.phase not in (Phase.EARLY, Phase.LATE):
            raise PhaseViolation(f"get_service({key}) outside early/late phases")
        caller = self._active
        entry = self.services.get(key)
        if entry is None:
            raise MissingService([(caller.name, key.name)])
        provider, payload = entry
        edge = (caller.name, key.name, provider)
        if edge not in self.dependency_edges:
            self.dependency_edges.append(edge)
        return payload

    def try_service(self, key: ServiceKey) -> Any | None:
        """Optional lookup for authored fallbacks; None when unprovided."""
        if self.services.get(key) is None:
            return None
        return self.get_service(key)

    def emit(self, name: str, kind: str, **detail):
        if self.phase is not Phase.LATE:
            raise PhaseViolation(f"artifact {name!r} emitted outside the late phase")
        plugin = self._active
        self.artifacts.append(Artifact(name, kind, plugin.name, dict(detail)))

    # -- introspection ---------------------------------------------------

    def artifacts_by_plugin(self, plugin_name: str) -> list[Artifact]:
        return [a for a in self.artifacts if a.plugin == plugin_name]

    def services_by_plugin(self, plugin_name: str) -> list[ServiceKey]:
        return [k for k, (prov, _) in self.services.items() if prov == plugin_name]

    def serialize(self) -> bytes:
        """Canonical byte form of the sealed build, for determinism checks."""
        doc = {
            "params": repr(self.params),
            "plugins": [p.name for p in self.plugins],
            "services": sorted(
                (k.name, k.kind.value, prov) for k, (prov, _) in self.services.items()
            ),
            "artifacts": [
                {"name": a.name, "kind": a.kind, "plugin": a.plugin,
                 "detail": {k: repr(v) for k, v in sorted(a.detail.items())}}
                for a in self.artifacts
            ],
            "edges": sorted(self.dependency_edges),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    # -- internals -------------------------------------------------------

    def _run_phase(self, phase: Phase):
        self.phase = phase
        attr = {Phase.CONFIG: "on_config", Phase.EARLY: "on_early", Phase.LATE: "on_late"}[phase]
        for plugin in self.plugins:
            self._active = plugin
            try:
                getattr(plugin, attr)(self, self.params)
            finally:
                self._active = None
            self.phase_log.append((plugin.name, phase.value, len(self.phase_log)))

    def _check_requirements(self):
        unmet = []
        for plugin in self.plugins:
            for key in sorted(plugin.requires, key=lambda k: k.name):
                if key in self.services:   # no lookup has run, so the edge is new
                    self.dependency_edges.append((plugin.name, key.name, self.services[key][0]))
                else:
                    unmet.append((plugin.name, key.name))
        if unmet:
            raise MissingService(unmet)


def elaborate(plugins: list[Plugin], params: Any = None) -> BuildContext:
    """Run the three-phase build over the given plugins and seal the result.

    Every plugin finishes a phase before any plugin starts the next one.
    Declared requirements are checked after the early phase, so a missing
    provider aborts the build with the complete unmet-dependency list
    before any artifact is emitted.
    """
    ctx = BuildContext(params)
    for p in plugins:
        ctx.register(p)
    try:
        ctx._run_phase(Phase.CONFIG)
        ctx._run_phase(Phase.EARLY)
        ctx._check_requirements()
        ctx._run_phase(Phase.LATE)
    finally:   # also on failure: a context a callback kept takes no entry outside one
        ctx.phase = Phase.SEALED
    return ctx

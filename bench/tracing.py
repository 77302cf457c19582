"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public entry points of each windmill module
with timing wrappers: module functions in every windmill namespace that
bound them (``windmill.cli`` imports ``map_dfg``, ``build_system`` and
friends by name, so those bindings are patched too), and methods on their
classes. Each wrapper keeps per-name aggregates in memory: call count,
total time, and self time, which is the total minus the time of the spans
it called. Nothing is recorded while ``active`` is false, so input
generation and the oracle stay out of the numbers. ``uninstall`` restores
the originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# metric stem -> (module, attribute path) of the wrapped entry point
TARGETS = {
    "arch.parse": ("windmill.arch", "parse_arch_file"),
    "plugins.elaborate": ("windmill.plugins", "elaborate_arch"),
    "plugins.build_system": ("windmill.plugins", "build_system"),
    "mapper.parse": ("windmill.mapper", "parse_dfg"),
    "mapper.map": ("windmill.mapper", "map_dfg"),
    "mapper.emit": ("windmill.mapper", "emit_bitstream"),
    "pe.unpack": ("windmill.pe", "unpack_bitstream"),
    "pe.validate": ("windmill.pe", "validate_bitstream"),
    "pe.tick": ("windmill.pe", "PE.tick"),
    "interconnect.sreg_commit": ("windmill.interconnect", "SharedRegFile.commit"),
    "memory.arbitrate": ("windmill.memory", "PaiArbiter.arbitrate"),
    "memory.dma_step": ("windmill.memory", "DmaController.step"),
    "system.init": ("windmill.system", "SystemSim.__init__"),
    "system.register_config": ("windmill.system", "SystemSim.register_config"),
    "system.run": ("windmill.system", "SystemSim.run"),
    "system.tick": ("windmill.system", "SystemSim.tick"),
    "system.tick_pes": ("windmill.system", "Rpu.tick_pes"),
    "system.end_cycle": ("windmill.system", "Rpu.end_cycle"),
    "cli.map": ("windmill.cli", "cmd_map"),
    "cli.sim": ("windmill.cli", "cmd_sim"),
}

# set-up spans reported per set-up, in ms
SETUP_TIMES = ("arch.parse", "plugins.elaborate", "plugins.build_system",
               "mapper.parse", "mapper.map", "mapper.emit", "pe.unpack")

# (metric, unit): every per-layer metric, in report order. "_ms" metrics are
# inclusive time unless SELF_TIMES lists their stem.
PER_LAYER = (
    [("setup.import_ms", "ms")]
    + [(f"setup.{stem}_ms", "ms") for stem in SETUP_TIMES]
    + [(f"{stem}_ms", "ms/job") for stem in
       ("arch.parse", "plugins.elaborate", "plugins.build_system",
        "mapper.parse", "mapper.map", "mapper.emit")]
    + [("mapper.ops", "ops/map"), ("mapper.route_ops", "ops/map"),
       ("mapper.schedule_len", "steps/map"), ("mapper.pes_used", "PEs/map"),
       ("mapper.bitstream_bytes", "B/map"), ("mapper.unmappable", "count"),
       ("pe.unpack_ms", "ms/job"), ("pe.validate_ms", "ms/job"),
       ("pe.validate_calls", "calls/job"), ("pe.tick_ms", "ms/job"),
       ("pe.tick_calls", "calls/job"), ("pe.active_cycles", "cycles/job"),
       ("pe.fire_ratio", "ratio"), ("pe.util", "ratio"),
       ("interconnect.sreg_commit_ms", "ms/job"),
       ("interconnect.sreg_conflicts", "count/job"),
       ("memory.arbitrate_ms", "ms/job"), ("memory.dma_step_ms", "ms/job"),
       ("memory.grants", "count/job"), ("memory.bank_conflicts", "count/job"),
       ("memory.grant_ratio", "ratio"), ("memory.dma_stall_cycles", "cycles/job"),
       ("memory.pingpong_toggles", "count/job"),
       ("system.init_ms", "ms/job"), ("system.register_config_ms", "ms/job"),
       ("system.run_ms", "ms/job"), ("system.tick_ms", "ms/job"),
       ("system.tick_pes_ms", "ms/job"), ("system.end_cycle_ms", "ms/job"),
       ("system.idle_rpu_tick_ratio", "ratio"), ("system.host_commands", "count/job"),
       ("cli.map_ms", "ms/job"), ("cli.sim_ms", "ms/job"),
       ("trace.untraced_jobs_per_s", "1/s"), ("trace.jobs_per_s", "1/s"),
       ("trace.overhead_pct", "%")]
)

# per-layer metrics where a larger value is better; for every other one,
# smaller is better (less time, fewer calls, stalls, conflicts or idle ticks)
HIGHER_IS_BETTER = {"pe.fire_ratio", "pe.util", "memory.grant_ratio",
                    "trace.untraced_jobs_per_s", "trace.jobs_per_s"}

# stems whose "_ms" metric is self time: the layer's own work, not its callees
SELF_TIMES = {"pe.tick", "system.tick", "system.tick_pes", "system.end_cycle"}

# SimStats fields summed over every SystemSim.run
_STAT_FIELDS = ("total_cycles", "pe_active_cycles", "arbiter_grants", "bank_conflicts",
                "dma_stall_cycles", "pingpong_toggles", "host_commands", "sreg_conflicts")


def _observe_map(tracer, args, mapping):
    tracer.add("maps", 1)
    tracer.add("ops", len(mapping.placement))
    tracer.add("route_ops", mapping.route_op_count())
    tracer.add("schedule_len", mapping.schedule_length)
    tracer.add("pes_used", len(mapping.pes_used()))


def _observe_emit(tracer, args, blob):
    tracer.add("emits", 1)
    tracer.add("bitstream_bytes", len(blob))


def _observe_tick_pes(tracer, args, _):
    if args[0].status != "running":
        tracer.add("idle_tick_pes", 1)


def _observe_run(tracer, args, stats):
    for name in _STAT_FIELDS:
        tracer.add(name, getattr(stats, name))
    configured = sum(1 for rpu in args[0].rpus for p in rpu.pes.values() if p.context)
    tracer.add("configured_pe_cycles", configured * stats.total_cycles)


_OBSERVERS = {"mapper.map": _observe_map, "mapper.emit": _observe_emit,
              "system.tick_pes": _observe_tick_pes, "system.run": _observe_run}


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.spans: dict[tuple[str, str], list] = {}   # (phase, stem) -> [count, total, self]
        self.counts: dict[tuple[str, str], float] = {}
        self._stack = [0.0]                            # child time of each open span
        self._undo: list = []

    def add(self, key: str, value):
        k = (self.phase, key)
        self.counts[k] = self.counts.get(k, 0) + value

    def _wrap(self, stem, fn):
        tracer, stack, observe = self, self._stack, _OBSERVERS.get(stem)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.add(f"{stem}:{type(exc).__name__}", 1)
                raise
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dur
                agg = tracer.spans.setdefault((tracer.phase, stem), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def install(self):
        for stem, (modname, path) in TARGETS.items():
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(stem, original))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(stem, original)
            for name, mod in list(sys.modules.items()):
                if (name == "windmill" or name.startswith("windmill.")) \
                        and getattr(mod, path, None) is original:
                    self._undo.append((mod, path, original))
                    setattr(mod, path, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting -------------------------------------------------------------

    def _ms(self, phase, stem, per):
        agg = self.spans.get((phase, stem))
        if agg is None or not per:
            return 0.0
        return (agg[2] if stem in SELF_TIMES else agg[1]) * 1e3 / per

    def _calls(self, phase, stem):
        agg = self.spans.get((phase, stem))
        return agg[0] if agg else 0

    def _count(self, key, phases=("setup", "jobs")):
        return sum(self.counts.get((p, key), 0) for p in phases)

    def metrics(self, jobs: int, setups: int, import_s: float, untraced_jps: float,
                traced_jps: float) -> dict:
        """Every PER_LAYER metric. Job-phase values are means per job; mapper
        counts are means per mapped graph, over set-up and jobs together."""
        out = {"setup.import_ms": import_s * 1e3}
        for stem in SETUP_TIMES:
            out[f"setup.{stem}_ms"] = self._ms("setup", stem, setups)
        for metric, unit in PER_LAYER:
            stem = metric[:-3]
            if unit == "ms/job":
                out[metric] = self._ms("jobs", stem, jobs)
        maps = self._count("maps")
        for key in ("ops", "route_ops", "schedule_len", "pes_used"):
            out[f"mapper.{key}"] = self._count(key) / maps if maps else 0.0
        emits = self._count("emits")
        out["mapper.bitstream_bytes"] = self._count("bitstream_bytes") / emits if emits else 0.0
        out["mapper.unmappable"] = self._count("mapper.map:Unmappable")

        def per_job(key):
            return self._count(key, ("jobs",)) / jobs if jobs else 0.0

        ticks = self._calls("jobs", "pe.tick")
        active = self._count("pe_active_cycles", ("jobs",))
        pe_cycles = self._count("configured_pe_cycles", ("jobs",))
        grants = self._count("arbiter_grants", ("jobs",))
        conflicts = self._count("bank_conflicts", ("jobs",))
        tick_pes = self._calls("jobs", "system.tick_pes")
        out.update({
            "pe.validate_calls": self._calls("jobs", "pe.validate") / jobs if jobs else 0.0,
            "pe.tick_calls": ticks / jobs if jobs else 0.0,
            "pe.active_cycles": per_job("pe_active_cycles"),
            "pe.fire_ratio": active / ticks if ticks else 0.0,
            "pe.util": active / pe_cycles if pe_cycles else 0.0,
            "interconnect.sreg_conflicts": per_job("sreg_conflicts"),
            "memory.grants": per_job("arbiter_grants"),
            "memory.bank_conflicts": per_job("bank_conflicts"),
            "memory.grant_ratio": grants / (grants + conflicts) if grants + conflicts else 0.0,
            "memory.dma_stall_cycles": per_job("dma_stall_cycles"),
            "memory.pingpong_toggles": per_job("pingpong_toggles"),
            "system.idle_rpu_tick_ratio":
                self._count("idle_tick_pes", ("jobs",)) / tick_pes if tick_pes else 0.0,
            "system.host_commands": per_job("host_commands"),
            "trace.untraced_jobs_per_s": untraced_jps,
            "trace.jobs_per_s": traced_jps,
            "trace.overhead_pct": (1 - traced_jps / untraced_jps) * 100 if untraced_jps else 0.0,
        })
        return {name: out[name] for name, _ in PER_LAYER}

    def dump(self) -> dict:
        """The raw aggregates, for the run's trace file."""
        spans = [{"phase": p, "name": stem, "count": a[0], "total_ms": a[1] * 1e3,
                  "self_ms": a[2] * 1e3} for (p, stem), a in sorted(self.spans.items())]
        counts = [{"phase": p, "name": k, "value": v}
                  for (p, k), v in sorted(self.counts.items())]
        return {"spans": spans, "counts": counts}

"""The benchmark's per-layer tracer must still find every entry point it wraps.

``bench/tracing.py`` patches module functions by name and methods through
``owner.__dict__[attr]``, so a method moved to a base class or renamed would
break ``bench/run.py --trace 1``. The tracer is loaded from its file without
writing anything next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from windmill import cli, dfg, mapper
from windmill.system import SystemSim, _loadable, run_protocol

from test_sim_golden import pingpong_config, standard_arch

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracing):
    for stem, (modname, path) in tracing.TARGETS.items():
        module = importlib.import_module(modname)
        if "." in path:
            cls_name, attr = path.split(".")
            assert callable(vars(getattr(module, cls_name)).get(attr)), stem
        else:
            assert callable(getattr(module, path, None)), stem


def test_traced_run_records_the_system_layers(tracing):
    _loadable.cache_clear()   # a config seen before on this machine is not validated again
    tracer = tracing.Tracer()
    run = SystemSim.__dict__["run"]
    tracer.install()
    try:
        tracer.active = True
        tracer.phase = "jobs"
        system = SystemSim(standard_arch())
        run_protocol(system, pingpong_config(), list(range(8)), 0, 1)
    finally:
        tracer.uninstall()
    assert SystemSim.__dict__["run"] is run
    counts = {stem: agg[0] for (phase, stem), agg in tracer.spans.items()}
    for stem in ("system.init", "system.register_config", "system.run", "system.tick",
                 "system.tick_pes", "system.end_cycle", "pe.validate", "pe.tick",
                 "memory.arbitrate", "memory.dma_step"):
        assert counts.get(stem, 0) > 0, stem
    assert tracer.counts[("jobs", "configured_pe_cycles")] > 0


def test_the_bench_reads_the_language_through_the_mapper():
    """The bench names the parser and the oracle as ``mapper.*``; they are the
    language's own functions, so a patch of one reaches every caller."""
    assert mapper.parse_dfg is dfg.parse_dfg
    assert mapper.reference_execute is dfg.reference_execute


def test_traced_cli_map_records_the_parse(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.phase = "jobs"
        code = cli.main(["map", "--arch", str(ROOT / "fixtures" / "standard.arch"),
                         "--dfg", str(ROOT / "fixtures" / "vecadd16.dfg"),
                         "--out", str(tmp_path / "v.bit")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli.parse_dfg is dfg.parse_dfg
    counts = {stem: agg[0] for (phase, stem), agg in tracer.spans.items()}
    for stem in ("mapper.parse", "mapper.map", "mapper.emit"):
        assert counts.get(stem) == 1, stem

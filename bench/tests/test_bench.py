"""The benchmark's own checks: its metric tables, its inputs and its oracles.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_metric_tables():
    spec = _spec()
    # stream_ring runs on demand; BENCHMARK.json lists the two steadier workloads
    assert [w["name"] for w in spec["workloads"]] == ["kernels_std", "compile_random"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["per_layer"] if m["better"] == "higher"} == \
        tracing.HIGHER_IS_BETTER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_job_lists_hold_whole_rounds_of_job_kinds():
    for n in (run.JOBS, run.TRACE_JOBS):
        assert n % len(workloads.KERNELS) == 0
        assert n % workloads.StreamRing.VARIANTS == 0
        assert n % 2 == 0      # compile_random sizes come in pairs
    assert run.JOBS >= 100 and run.JOBS >= run.FIXED_JOBS


def test_stable_seed_does_not_depend_on_the_process():
    code = "import workloads; print(workloads.stable_seed(7, 'kernels_std/3'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]),
               PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) == workloads.stable_seed(7, "kernels_std/3")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_jobs_pass_the_oracle_and_match_the_golden_records(name, tmp_path):
    wl = workloads.WORKLOADS[name](ROOT, str(tmp_path))
    wl.setup()
    dev = run.load_seeds()["development"]
    loop = run.run_passes(wl, dev, run.GUARD_JOBS, 0, 1, run.SimClock())
    assert loop.failed == 0
    assert run.guard_mismatches(name, dev, loop.records) == []
    assert run.golden_records(name, dev) is not None


def test_oracle_rejects_a_wrong_result(tmp_path):
    wl = workloads.WORKLOADS["stream_ring"](ROOT, str(tmp_path))
    wl.setup()
    job = wl.job(5, 0)
    out = wl.run(job)
    assert wl.check(job, out)
    out.results[3] ^= 1
    assert not wl.check(job, out)


def test_end_to_end_run_reports_every_metric_with_zero_error_rate():
    proc = _bench("--workload", "kernels_std", "--seed", "5", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.JOBS * run.MIN_PASSES
    assert {m: d["unit"] for m, d in result["metrics"].items()} == \
        {m: u for m, u, _ in run.END_TO_END}
    assert all(d["value"] > 0 for d in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "kernels_std", "--seed", "5", "--seconds", "0.1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {m: d["unit"] for m, d in result["metrics"].items()} == dict(tracing.PER_LAYER)
    metrics = {m: d["value"] for m, d in result["metrics"].items()}
    assert metrics["pe.validate_calls"] == 5     # one per RPU at registration, one at load
    assert metrics["setup.mapper.map_ms"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "kernels_std", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

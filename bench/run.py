"""windmill benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload kernels_std --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

Each run sets up once in this process, replays the golden guard jobs (also
the warm-up), then makes passes over a list of JOBS jobs until
``--seconds`` have passed and at least MIN_PASSES passes are done. Every
pass draws new inputs for each job of the list, of the same kind and size.
Every output is checked against an oracle that does not use the
simulator; neither the check nor input generation is timed.

The host-time metrics are costs at the reference host speed: right before
each job a fixed calibration loop measures how fast the host runs at that
moment, the job's time is scaled by it (see ``calibrate``), and each job's
cost is the median of its scaled times over the passes. ``setup_s`` is the
median over SETUP_REPEATS fresh processes of the time from their start to
the end of set-up, scaled the same way.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run splits its time between an untraced and a traced
loop over the same jobs and reports the per-layer metrics and the tracing
overhead. A full report and, when traced, the raw span aggregates go to
``bench/out/``. ``--workload all`` runs each workload in its own process
and prints every metric as a table.

The exit code is 0 when every job was correct, 1 when some output was
wrong, and 2 when the benchmark could not run at all (for instance when
``src/windmill`` is missing from the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

WORKLOAD_NAMES = ("kernels_std", "compile_random", "stream_ring")
JOBS = 108              # one pass: whole rounds of every workload's job kinds, and
                        # ten jobs above job_ms_p90
MIN_PASSES = 3          # each job's cost is the median of at least this many times
FIXED_JOBS = 100        # the first jobs of the first pass: model_cycles and the golden guard
GUARD_JOBS = 6          # development-seed jobs replayed by every run
TRACE_JOBS = 36         # the job list of a traced run
SETUP_REPEATS = 25      # fresh-process set-ups, spread over the run
SETUP_CALIBRATIONS = 5  # calibrations before and after each of them

# (metric, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_ms_p50", "ms", "lower"),
    ("job_ms_p90", "ms", "lower"),
    ("sim_kcycles_per_s", "kcycles/s", "higher"),
    ("model_cycles", "cycles", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def load_seeds() -> dict:
    with open(os.path.join(BENCH_DIR, "seeds.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_windmill() -> float:
    """Import windmill from this checkout's ``src``; return the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "windmill", "__init__.py")):
        raise ImportError(f"no windmill package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import windmill
    elapsed = perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(windmill.__file__))) != SRC:
        raise ImportError(f"windmill imported from {windmill.__file__}, not {SRC}")
    return elapsed


# --- measurement pieces --------------------------------------------------------------


class SimClock:
    """Host time spent inside ``SystemSim.run``.

    One wrapper call per job, so it stays on in untraced runs.
    """

    def __init__(self):
        self.seconds = 0.0

    def install(self):
        from windmill.system import SystemSim
        original = SystemSim.run
        clock = self

        def run(sim, *args, **kwargs):
            t0 = perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                clock.seconds += perf_counter() - t0

        SystemSim.run = run


class _Cell:
    __slots__ = ("value", "acc", "next")

    def __init__(self, value):
        self.value = value
        self.acc = 0
        self.next = None

    def step(self, table) -> int:
        x = (self.value * 1103515245 + 12345) & 0xFFFFFFFF
        self.acc = (self.acc + table[x & 63] + self.next.value) & 0xFFFFFFFF
        self.value = x
        return x & 1


def _calibration_work() -> int:
    cells = [_Cell(i) for i in range(64)]
    for i, cell in enumerate(cells):
        cell.next = cells[(i + 1) % 64]
    table = {k: k * k for k in range(64)}
    total = 0
    for _ in range(60):
        for cell in cells:
            total += cell.step(table)
    return total


# _calibration_work's time on a quiet stretch of the reference host (2 vCPUs,
# Python 3.11.7); it only sets the scale of the host-time metrics
CALIBRATION_REF_S = 1.30e-3


def calibrate() -> float:
    """The host's slowdown at this moment: calibration time / CALIBRATION_REF_S.

    Other tenants of a shared host slow it by up to 2x for tens of seconds
    at a time. A fixed loop of the same kind of work as the simulator
    (objects, attribute access, dict lookups, 32-bit arithmetic), which
    uses nothing of windmill, slows down with it. Dividing a job's time by
    the slowdown measured right before the job gives its cost at the
    reference speed; a change to windmill moves the job's time and not the
    calibration.
    """
    t0 = perf_counter()
    _calibration_work()
    return (perf_counter() - t0) / CALIBRATION_REF_S


class Loop:
    """Results of passes over one job list."""

    def __init__(self, n_jobs: int):
        self.job_s: list[float] = []               # every job's host time, in run order
        self.slowdown: list[float] = []            # calibrate() before each of them
        self.cost_s = [[] for _ in range(n_jobs)]  # per job: host time / slowdown
        self.sim_cost_s = [[] for _ in range(n_jobs)]   # the part inside SystemSim.run
        self.sim_cycles = [[] for _ in range(n_jobs)]   # per job: modelled cycles
        self.failed = 0
        self.records: list[tuple[str, str]] = []   # first pass: (SimStats row, result digest)
        self.cycles: list[int] = []                # first pass: modelled cycles
        self.passes = 0
        self.pauses = 0


def run_one(wl, job, tracer=None):
    """Run and check one job; return (seconds, outcome or None)."""
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        out = wl.run(job)
    except Exception:
        out = None
        traceback.print_exc(file=sys.stderr)
    finally:
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    if out is not None:
        try:
            ok = wl.check(job, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            print(f"error: {wl.name} job output differs from the oracle", file=sys.stderr)
            out = None
    return dt, out


def run_passes(wl, seed: int, n_jobs: int, seconds: float, min_passes: int, clock: SimClock,
               tracer=None, pause=None, pauses: int = 0) -> Loop:
    """Passes over jobs ``0 .. n_jobs - 1`` of ``seed`` until at least
    ``min_passes`` are done and ``seconds`` have passed; the last pass may
    stop part way. Pass ``p`` runs draw ``p`` of each job.

    ``pause`` is called ``pauses`` times, evenly over the loop's time (its
    own time not counted), so that what it measures sees the same spread of
    host speed as the jobs do.
    """
    from workloads import words_digest
    loop = Loop(n_jobs)
    start = perf_counter()
    paused = 0.0

    def finished():
        return loop.passes >= min_passes and perf_counter() - start - paused >= seconds

    while not finished():
        jobs = [wl.job(seed, index, loop.passes) for index in range(n_jobs)]
        for index, job in enumerate(jobs):
            if finished():
                break
            if (loop.pauses < pauses
                    and perf_counter() - start - paused >= loop.pauses * seconds / pauses):
                t0 = perf_counter()
                pause()
                paused += perf_counter() - t0
                loop.pauses += 1
            slowdown = calibrate()
            sim_before = clock.seconds
            dt, out = run_one(wl, job, tracer)
            loop.job_s.append(dt)
            loop.slowdown.append(slowdown)
            if loop.passes == 0:
                loop.records.append(("failed", "") if out is None
                                    else (out.stats_row, words_digest(out.results)))
                loop.cycles.append(0 if out is None else out.cycles)
            if out is None:
                loop.failed += 1
                continue
            loop.cost_s[index].append(dt / slowdown)
            loop.sim_cost_s[index].append((clock.seconds - sim_before) / slowdown)
            loop.sim_cycles[index].append(out.cycles)
        else:
            loop.passes += 1
    for _ in range(loop.pauses, pauses):
        pause()
    return loop


def golden_path(workload: str, seed: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}-seed{seed}.json")


def golden_records(workload: str, seed: int):
    path = golden_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return [tuple(r) for r in json.load(fh)["jobs"]]


def write_golden(workload: str, seed: int, records):
    from windmill.system import SimStats
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    head = {"workload": workload, "seed": seed,
            "columns": ["simstats_csv_row", "result_digest"],
            "simstats_columns": list(SimStats.CSV_COLUMNS)}
    jobs = ",\n  ".join(json.dumps(list(r)) for r in records)
    with open(golden_path(workload, seed), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head)[:-1] + ', "jobs": [\n  ' + jobs + "\n]}\n")


def guard_mismatches(workload: str, seed: int, records) -> list[int]:
    """Indices where modelled stats or result digests differ from the golden."""
    want = golden_records(workload, seed)
    if want is None:
        return []
    return [i for i, (got, exp) in enumerate(zip(records, want)) if got != exp]


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from the start of a fresh process to the end of its set-up,
    divided by the host's slowdown (``calibrate``) just before and after."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    slowdown = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process for {workload} failed (exit {code})")
    slowdown += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return elapsed / statistics.median(slowdown)


def fingerprint() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit(), "windmill_lines": windmill_lines()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def windmill_lines() -> int:
    pkg = os.path.join(SRC, "windmill")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


# --- one workload --------------------------------------------------------------------


def end_to_end(loop: Loop, setup_s) -> dict:
    """The end-to-end metrics; host times and cycles are each job's median over the passes."""
    job_ms = [statistics.median(costs) * 1e3 for costs in loop.cost_s]
    sim_s = sum(statistics.median(costs) for costs in loop.sim_cost_s)
    sim_cycles = sum(statistics.median(cycles) for cycles in loop.sim_cycles)
    return {
        "setup_s": statistics.median(setup_s),
        "jobs_per_s": len(job_ms) / sum(job_ms) * 1e3,
        "job_ms_p50": statistics.median_high(job_ms),
        "job_ms_p90": statistics.quantiles(job_ms, n=10)[8],
        "sim_kcycles_per_s": sim_cycles / sim_s / 1e3,
        "model_cycles": statistics.fmean(loop.cycles[:FIXED_JOBS]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def bench_workload(args, import_s: float, workdir: str) -> int:
    import workloads
    from tracing import PER_LAYER, Tracer

    seeds = load_seeds()
    make = workloads.WORKLOADS[args.workload]
    clock = SimClock()
    clock.install()
    wl = make(ROOT, workdir)
    wl.setup()

    # golden guard on the development seed; doubles as the warm-up
    guard = run_passes(wl, seeds["development"], GUARD_JOBS, 0, 1, clock)
    mismatches = {}     # job list -> indices that differ from the golden records
    if not args.record_golden:
        mismatches["guard"] = guard_mismatches(args.workload, seeds["development"],
                                               guard.records)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "fingerprint": fingerprint()}
    if not args.trace:
        setup_times = []
        loop = run_passes(wl, args.seed, JOBS, args.seconds, MIN_PASSES, clock,
                          pause=lambda: setup_times.append(measure_setup(args.workload,
                                                                         args.seed)),
                          pauses=SETUP_REPEATS)
        if args.record_golden:
            write_golden(args.workload, args.seed, loop.records[:FIXED_JOBS])
        else:
            mismatches["run"] = guard_mismatches(args.workload, args.seed,
                                                 loop.records[:FIXED_JOBS])
        # a job that never ran correctly has no cost; the run is incorrect anyway
        metrics = end_to_end(loop, setup_times) if all(loop.cost_s) else {}
        units = {m: u for m, u, _ in END_TO_END}
        report["setup_s_samples"] = setup_times
        report["passes"] = loop.passes
        report["job_ms"] = [t * 1e3 for t in loop.job_s]
        report["slowdown"] = loop.slowdown
        report["model_records"] = loop.records[:FIXED_JOBS]
    else:
        untraced = run_passes(wl, args.seed, TRACE_JOBS, args.seconds / 2, 1, clock)
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        traced_wl = make(ROOT, workdir)
        traced_wl.setup()
        tracer.active = False
        tracer.phase = "jobs"
        traced = run_passes(traced_wl, args.seed, TRACE_JOBS, args.seconds / 2, 1, clock,
                            tracer)
        tracer.uninstall()
        common = min(len(untraced.job_s), len(traced.job_s))
        metrics = tracer.metrics(
            jobs=len(traced.job_s), setups=1, import_s=import_s,
            untraced_jps=common / sum(untraced.job_s[:common]),
            traced_jps=common / sum(traced.job_s[:common]))
        units = dict(PER_LAYER)
        loop = Loop(0)
        loop.job_s = untraced.job_s + traced.job_s
        loop.failed = untraced.failed + traced.failed
        report["trace_aggregates"] = tracer.dump()

    attempted = len(loop.job_s)
    mismatches = {k: v for k, v in mismatches.items() if v}
    correct = loop.failed == 0 and guard.failed == 0 and not mismatches
    report.update({"attempted": attempted, "failed": loop.failed,
                   "error_rate": loop.failed / attempted, "golden_mismatches": mismatches,
                   "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}})
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    fp = report["fingerprint"]
    print(f"# {args.workload} seed={args.seed} python={fp['python']} nproc={fp['nproc']} "
          f"commit={fp['commit']} windmill_lines={fp['windmill_lines']}")
    for jobs, indices in mismatches.items():
        print(f"# golden guard: modelled stats or results differ from the golden "
              f"records in the {jobs} jobs {indices}")
    print(f"# error_rate {report['error_rate']} ({loop.failed} of {attempted} jobs)")
    for m, v in metrics.items():
        print(f"# {m} {v} {units[m]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": loop.failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


def bench_all(args) -> int:
    """Every workload in its own process; every metric in one table."""
    status = 0
    print(f"{'workload':<15} {'metric':<32} {'value':>14}  unit")
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload:<15} did not run (exit {proc.returncode})")
            status = 2
            continue
        result = json.loads(lines[-1])
        rows = [("error_rate", result["failed"] / result["attempted"], "ratio")]
        rows += [(m, d["value"], d["unit"]) for m, d in result["metrics"].items()]
        for m, v, u in rows:
            print(f"{workload:<15} {m:<32} {v:>14.6g}  {u}")
        if not result["correct"]:
            status = max(status, 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    parser.add_argument("--record-golden", action="store_true",
                        help="write this seed's modelled stats and result digests "
                             "to bench/golden/ (only for an intended model change)")
    args = parser.parse_args(argv)

    try:
        import_s = import_windmill()
    except ImportError as exc:
        print(f"error: cannot import windmill: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return bench_all(args)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_only:
            import workloads
            workloads.WORKLOADS[args.workload](ROOT, workdir).setup()
            print("ready", flush=True)
            return 0
        return bench_workload(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

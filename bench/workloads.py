"""The three benchmark workloads: their inputs, their jobs and their oracles.

Every input is made here, from the ``--seed`` argument and the job's name
through ``stable_seed``; nothing is imported from ``tests/``, so editing a
test cannot change what the benchmark measures. A workload exposes:

``setup()``
    the work a user pays once per process before the first job;
``job(seed, index, draw)``
    the generated inputs of one job (not timed). Jobs cycle through a fixed
    number of kinds (six kernels, three stream shapes, or DAG sizes in
    pairs of equal total), and the benchmark's job lists hold whole rounds
    of them. The kind, size and shape follow from ``index``; ``draw``
    changes only the random data and graph wiring;
``run(job)``
    the job itself, driven through windmill's public functions (timed);
``check(job, out)``
    the comparison with oracles that do not use the simulator (not timed):
    ``reference_execute`` and ``evaluate_dfg`` for the DFG workloads, a
    Python model for ``stream_ring``.

The windmill modules are always reached through their module attributes
(``mapper.map_dfg``, not a name bound at import), so that the traced run
sees every call after it patched those attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import struct
from dataclasses import dataclass, replace

from windmill import arch, cli, mapper, pe, plugins, system
from windmill.interconnect import Direction
from windmill.pe import ConfigWord, DstSel, Opcode, SrcSel

MASK32 = 0xFFFFFFFF


def stable_seed(seed: int, name: str) -> int:
    """A 64-bit seed from the run seed and a job name.

    Built-in ``hash()`` is salted per process, so it would give every run
    different inputs; a SHA-256 prefix gives the same inputs on every run.
    """
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def words_digest(words) -> str:
    return hashlib.sha256(struct.pack(f"<{len(words)}I", *words)).hexdigest()[:16]


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(stable_seed(seed, name))


def _job_rng(seed: int, workload: str, index: int, draw: int) -> random.Random:
    """The random inputs of job ``index`` in draw ``draw``.

    The benchmark makes a new draw in every pass over its job list, so that
    no input repeats within a run and a cache of results cannot help.
    """
    return _rng(seed, f"{workload}/{index}" if draw == 0 else f"{workload}/{index}/{draw}")


def _signed(x: int) -> int:
    return x - (1 << 32) if x & 0x80000000 else x


_ALU = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b, "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 31), "shr": lambda a, b: a >> (b & 31),
    "lt": lambda a, b: int(_signed(a) < _signed(b)), "sel": lambda p, a, b: a if p else b,
}


def evaluate_dfg(text: str, image: list) -> dict:
    """Output address -> value, by direct evaluation of the DFG text.

    The benchmark's own oracle for the DFGs it generates. It shares no code
    with windmill, so a fault in the ALU semantics that ``reference_execute``
    shares with the simulator still shows.
    """
    nodes, outs = {}, []
    for line in text.splitlines():
        tok = line.split()
        if tok[0] == "out":
            outs.append((tok[1], int(tok[2])))
        elif tok[0] == "in":
            nodes[tok[1]] = ("in", int(tok[2]))
        else:
            nodes[tok[0]] = tuple(tok[1:])
    memo = {}

    def value(nid):
        if nid not in memo:
            op, *args = nodes[nid]
            if op == "in":
                v = image[args[0]]
            elif op == "const":
                v = int(args[0])
            elif op == "load":
                v = image[value(args[0])]
            else:
                v = _ALU[op](*(value(a) for a in args))
            memo[nid] = v & MASK32
        return memo[nid]

    return {addr: value(nid) for nid, addr in outs}


@dataclass
class Outcome:
    """What ``run`` hands back: the result words and the run's statistics."""

    results: list
    stats_row: str
    cycles: int


# --- kernels_std -----------------------------------------------------------------
#
# DFG builders. Each returns (dfg_text, input_words, result_addr, result_len);
# inputs are packed from word 0 and outputs follow them.


def _tree_reduce(lines, ids, tag):
    level = 0
    while len(ids) > 1:
        nxt = []
        for k in range(0, len(ids) - 1, 2):
            nid = f"{tag}_{level}_{k}"
            lines.append(f"{nid} add {ids[k]} {ids[k + 1]}")
            nxt.append(nid)
        if len(ids) % 2:
            nxt.append(ids[-1])
        ids = nxt
        level += 1
    return ids[0]


def kernel_vecadd(n=16):
    lines = []
    for i in range(n):
        lines += [f"in a{i} {i}", f"in b{i} {n + i}", f"s{i} add a{i} b{i}",
                  f"out s{i} {2 * n + i}"]
    return "\n".join(lines), 2 * n, 2 * n, n


def kernel_dot(n=8):
    lines = []
    for i in range(n):
        lines += [f"in a{i} {i}", f"in b{i} {n + i}", f"m{i} mul a{i} b{i}"]
    root = _tree_reduce(lines, [f"m{i}" for i in range(n)], "r")
    lines.append(f"out {root} {2 * n}")
    return "\n".join(lines), 2 * n, 2 * n, 1


FIR_TAPS = (3, -2, 5, 1)


def kernel_fir4(n_out=8):
    n_in = n_out + 3
    lines = [f"in x{i} {i}" for i in range(n_in)]
    lines += [f"t{j} const {t}" for j, t in enumerate(FIR_TAPS)]
    for i in range(n_out):
        terms = []
        for j in range(4):
            lines.append(f"p{i}_{j} mul x{i + j} t{j}")
            terms.append(f"p{i}_{j}")
        lines.append(f"out {_tree_reduce(lines, terms, f'y{i}')} {n_in + i}")
    return "\n".join(lines), n_in, n_in, n_out


def kernel_matmul4():
    lines = []
    for r in range(4):
        for c in range(4):
            lines += [f"in a{r}{c} {4 * r + c}", f"in b{r}{c} {16 + 4 * r + c}"]
    for r in range(4):
        for c in range(4):
            terms = []
            for k in range(4):
                lines.append(f"m{r}{c}{k} mul a{r}{k} b{k}{c}")
                terms.append(f"m{r}{c}{k}")
            lines.append(f"out {_tree_reduce(lines, terms, f'c{r}{c}')} {32 + 4 * r + c}")
    return "\n".join(lines), 32, 32, 16


def kernel_reduction(n=16):
    lines = [f"in x{i} {i}" for i in range(n)]
    lines.append(f"out {_tree_reduce(lines, [f'x{i}' for i in range(n)], 's')} {n}")
    return "\n".join(lines), n, n, 1


# name -> (builder, context depth the greedy mapper needs on the 8x8 array)
KERNELS = {
    "vecadd": (kernel_vecadd, 16),
    "dot": (kernel_dot, 16),
    "fir4": (kernel_fir4, 16),
    "matmul4": (kernel_matmul4, 32),
    "reduction": (kernel_reduction, 16),
    "vecadd64": (lambda: kernel_vecadd(64), 16),
}


@dataclass
class _MappedKernel:
    text: str
    dfg: object
    params: object
    records: list
    n_in: int
    result_addr: int
    result_len: int


@dataclass
class KernelJob:
    kernel: _MappedKernel
    image: list


class KernelsStd:
    """Six kernels mapped once at set-up, then simulated over and over.

    Each job is ``run_protocol`` on a fresh ``SystemSim`` of the standard
    four-RPU arch (only RPU 0 is launched) over a seeded random image. Jobs
    go round-robin over the kernels from a seeded starting kernel.
    """

    name = "kernels_std"

    def __init__(self, root: str, workdir: str):
        self.root = root

    def setup(self):
        path = os.path.join(self.root, "fixtures", "standard.arch")
        with open(path, encoding="utf-8") as fh:
            base = arch.parse_arch_file(fh.read())
        ctx = plugins.elaborate_arch(base)
        base = plugins.build_system(ctx).params
        self.kernels = []
        for build, depth in KERNELS.values():
            text, n_in, result_addr, result_len = build()
            params = replace(base, context_depth_mcmd=depth)
            dfg = mapper.parse_dfg(text)
            blob = mapper.emit_bitstream(mapper.map_dfg(dfg, params))
            self.kernels.append(_MappedKernel(text, dfg, params, pe.unpack_bitstream(blob),
                                              n_in, result_addr, result_len))

    def job(self, seed: int, index: int, draw: int = 0) -> KernelJob:
        offset = stable_seed(seed, "kernels_std/offset") % len(self.kernels)
        k = self.kernels[(offset + index) % len(self.kernels)]
        rng = _job_rng(seed, self.name, index, draw)
        image = [rng.getrandbits(32) for _ in range(k.n_in)] + [0] * k.result_len
        return KernelJob(k, image)

    def run(self, job: KernelJob) -> Outcome:
        k = job.kernel
        sim = system.SystemSim(k.params)
        results, stats = system.run_protocol(sim, k.records, list(job.image),
                                             k.result_addr, k.result_len)
        return Outcome(results, stats.csv_row(), stats.total_cycles)

    def check(self, job: KernelJob, out: Outcome) -> bool:
        k = job.kernel
        region = slice(k.result_addr, k.result_addr + k.result_len)
        own = evaluate_dfg(k.text, job.image)
        return (out.results == [own[a] for a in range(region.start, region.stop)]
                == mapper.reference_execute(k.dfg, job.image)[region])


# --- compile_random --------------------------------------------------------------

_RANDOM_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr", "lt")
N_IN = 8
N_OUT = 4
MIN_OPS, MAX_OPS = 14, 60
TOPOLOGIES = (arch.TopologyKind.MESH2D, arch.TopologyKind.TORUS, arch.TopologyKind.ONE_HOP)


def random_dag(rng: random.Random, n_ops: int) -> str:
    """A random DAG with fanout, wide constants, selects and masked loads.

    Operands are drawn from every earlier value, so values fan out; a
    dynamic load's address is masked into the read-only input words.
    """
    lines = [f"in i{k} {k}" for k in range(N_IN)]
    ids = [f"i{k}" for k in range(N_IN)]
    for k in range(n_ops):
        roll = rng.random()
        if roll < 0.08:
            lines.append(f"c{k} const {rng.randint(-2**31, 2**31 - 1)}")
            ids.append(f"c{k}")
            continue
        if roll < 0.14:
            lines += [f"m{k} and {rng.choice(ids)} k{k}", f"k{k} const {N_IN - 1}",
                      f"n{k} load m{k}"]
        elif roll < 0.2:
            lines.append(f"n{k} sel {rng.choice(ids)} {rng.choice(ids)} {rng.choice(ids)}")
        else:
            lines.append(f"n{k} {rng.choice(_RANDOM_OPS)} {rng.choice(ids)} {rng.choice(ids)}")
        ids.append(f"n{k}")
    for j, nid in enumerate(rng.sample(ids, N_OUT)):
        lines.append(f"out {nid} {N_IN + j}")
    return "\n".join(lines) + "\n"


@dataclass
class CompileJob:
    text: str
    image: list
    arch_path: str


class CompileRandom:
    """A new random DAG per job, compiled and simulated by ``windmill.cli``.

    Sizes sweep 14..60 ops across the job list in pairs that sum to 74, so
    every two consecutive jobs have the same number of ops; the arch rotates
    over mesh2d, torus and 1-hop variants of ``fixtures/standard_deep.arch``.
    Only the graph wiring, constants and image are seeded.
    """

    name = "compile_random"

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir

    def setup(self):
        path = os.path.join(self.root, "fixtures", "standard_deep.arch")
        with open(path, encoding="utf-8") as fh:
            base = arch.parse_arch_file(fh.read())
        self.arch_paths = []
        for topology in TOPOLOGIES:
            params = replace(base, topology=topology)
            plugins.elaborate_arch(arch.validate(params))
            out = os.path.join(self.workdir, f"deep-{topology.value}.arch")
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(arch.serialize(params))
            self.arch_paths.append(out)
        self._path = {name: os.path.join(self.workdir, name)
                      for name in ("job.dfg", "job.img", "job.bit", "job.res", "job.csv")}

    def job(self, seed: int, index: int, draw: int = 0) -> CompileJob:
        offset = stable_seed(seed, "compile_random/offset")
        n_ops = MIN_OPS + (offset + 17 * (index // 2)) % (MAX_OPS - MIN_OPS + 1)
        if index % 2:
            n_ops = MIN_OPS + MAX_OPS - n_ops
        rng = _job_rng(seed, self.name, index, draw)
        text = random_dag(rng, n_ops)
        image = [rng.getrandbits(32) for _ in range(N_IN)] + [0] * N_OUT
        return CompileJob(text, image,
                          self.arch_paths[(offset + index) % len(self.arch_paths)])

    def run(self, job: CompileJob) -> Outcome:
        p = self._path
        with open(p["job.dfg"], "w", encoding="utf-8") as fh:
            fh.write(job.text)
        with open(p["job.img"], "wb") as fh:
            fh.write(struct.pack(f"<{len(job.image)}I", *job.image))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["map", "--arch", job.arch_path, "--dfg", p["job.dfg"],
                             "--out", p["job.bit"]])
            if code != 0:
                raise RuntimeError(f"windmill map exited {code}")
            code = cli.main(["sim", "--arch", job.arch_path, "--bitstream", p["job.bit"],
                             "--data", p["job.img"], "--result-addr", str(N_IN),
                             "--result-len", str(N_OUT), "--out", p["job.res"],
                             "--stats", p["job.csv"]])
        if code != 0:
            raise RuntimeError(f"windmill sim exited {code}")
        with open(p["job.res"], "rb") as fh:
            blob = fh.read()
        with open(p["job.csv"], encoding="utf-8") as fh:
            row = fh.read().splitlines()[1]
        return Outcome(list(struct.unpack(f"<{len(blob) // 4}I", blob)), row,
                       int(row.split(",")[0]))

    def check(self, job: CompileJob, out: Outcome) -> bool:
        own = evaluate_dfg(job.text, job.image)
        want = mapper.reference_execute(mapper.parse_dfg(job.text), job.image)
        return out.results == [own[N_IN + j] for j in range(N_OUT)] == want[N_IN:N_IN + N_OUT]


# --- stream_ring -----------------------------------------------------------------
#
# Hand-built contexts for all four RPUs. Each phase's DMA batch holds a
# TABLE (identical in every phase of one RPU) followed by DATA. Reduction
# lanes stream affine loads from DATA into a GPE that folds them into its
# accumulator and sends the total back for a store; one lane reads the
# clockwise neighbour's TABLE over the ring; a copy lane loads, adds a
# constant and stores through a second LSU. Because a neighbour's TABLE has
# the same words in both of its halves, what the ring lane reads does not
# depend on how the RPUs' phases line up in time.

TABLE = 8                 # words at half-relative address 0
DATA = 16                 # words after the table
BATCH = TABLE + DATA
RESULTS = 256             # half-relative base of each phase's results
RING_DELAY = 24           # NOP steps before the ring lane's first read

# (LSU, GPE) pairs; the LSU sits on the perimeter next to its GPE
_REDUCE_LANES = ([((0, c), (1, c)) for c in (2, 3, 6)]
                 + [((7, c), (6, c)) for c in range(1, 7)]
                 + [((r, 0), (r, 1)) for r in range(2, 6)]
                 + [((r, 7), (r, 6)) for r in range(2, 6)])
_RING_LANE = 10           # index into _REDUCE_LANES: LSU (3, 0)
_COPY_LANE = ((0, 4), (1, 4), (1, 5), (0, 5))   # load LSU, add GPE, route GPE, store LSU
_STRIDE_IDX = {0: 0, 1: 1, 2: 2, 3: 3}          # stride -> STRIDES index
_FOLD_OPS = {"add": Opcode.ADD, "xor": Opcode.XOR}


def _step(a, b) -> Direction:
    return Direction((b[0] - a[0], b[1] - a[1]))


@dataclass(frozen=True)
class LanePlan:
    op: str       # fold op of a reduction lane
    base: int     # DATA-relative start
    stride: int
    count: int


@dataclass(frozen=True)
class PhasePlan:
    lanes: tuple          # one LanePlan per reduction lane (the ring lane's is unused)
    copy: LanePlan        # op unused; the copy lane adds ``copy_add``
    copy_add: int


def stream_plans(variant: int) -> list[PhasePlan]:
    """The fixed shape of one stream variant: phases, strides, bases, counts.

    The shape depends only on the variant, never on the seed, so every seed
    runs the same schedule over different data.
    """
    phases, count = ((3, 12), (2, 16), (4, 10))[variant]
    rng = random.Random(f"stream_ring/shape/{variant}")
    # stride 0 re-reads one word, a hot bank; an xor fold of it would be 0
    strides = [s for s in (0, 1, 1, 2, 3) if s * (count - 1) < DATA]
    plans = []
    for _ in range(phases):
        lanes = []
        for _ in _REDUCE_LANES:
            op = rng.choice(("add", "xor"))
            stride = rng.choice([s for s in strides if s or op == "add"])
            base = rng.randrange(DATA - stride * (count - 1))
            lanes.append(LanePlan(op, base, stride, count))
        stride = rng.choice([s for s in (1, 2) if s * (count - 1) < DATA])
        copy = LanePlan("add", rng.randrange(DATA - stride * (count - 1)), stride, count)
        plans.append(PhasePlan(tuple(lanes), copy, rng.randrange(1, 100)))
    return plans


def results_per_phase(plan: PhasePlan) -> int:
    return len(plan.lanes) + plan.copy.count


def _cw(opcode, src0=SrcSel.NONE, src1=SrcSel.NONE, dst=DstSel.NONE, imm=0,
        iters=1, stride=0) -> ConfigWord:
    return ConfigWord(opcode=opcode, src0=src0, src1=src1, dst=dst, imm16=imm,
                      iter_count=iters, shared_reg_idx=stride)


def stream_records(plan: PhasePlan, sm_words: int) -> list:
    """The bitstream records of one phase, as (row, col, words)."""
    halt = _cw(Opcode.HALT)
    ctx = {}
    for j, ((lsu, gpe), lane) in enumerate(zip(_REDUCE_LANES, plan.lanes)):
        out = _step(lsu, gpe)
        back = out.opposite
        if j == _RING_LANE:
            load = _cw(Opcode.LOAD, dst=DstSel[out.name], imm=sm_words,
                       iters=TABLE, stride=_STRIDE_IDX[1])
            fold = Opcode.ADD
            ctx[lsu] = [_cw(Opcode.NOP, iters=RING_DELAY), load]
            n = TABLE
        else:
            load = _cw(Opcode.LOAD, dst=DstSel[out.name], imm=TABLE + lane.base,
                       iters=lane.count, stride=_STRIDE_IDX[lane.stride])
            fold = _FOLD_OPS[lane.op]
            ctx[lsu] = [load]
            n = lane.count
        ctx[lsu].append(_cw(Opcode.STORE, src0=SrcSel[out.name], imm=RESULTS + j))
        ctx[gpe] = [_cw(fold, src0=SrcSel[back.name], src1=SrcSel.ACC, dst=DstSel.ACC,
                        iters=n),
                    _cw(Opcode.ROUTE, src0=SrcSel.ACC, dst=DstSel[back.name])]
    src_lsu, add_gpe, route_gpe, dst_lsu = _COPY_LANE
    c = plan.copy
    d1, d2, d3 = _step(src_lsu, add_gpe), _step(add_gpe, route_gpe), _step(route_gpe, dst_lsu)
    ctx[src_lsu] = [_cw(Opcode.LOAD, dst=DstSel[d1.name], imm=TABLE + c.base,
                        iters=c.count, stride=_STRIDE_IDX[c.stride])]
    ctx[add_gpe] = [_cw(Opcode.ADD, src0=SrcSel[d1.opposite.name], src1=SrcSel.IMM,
                        dst=DstSel[d2.name], imm=plan.copy_add, iters=c.count)]
    ctx[route_gpe] = [_cw(Opcode.ROUTE, src0=SrcSel[d2.opposite.name],
                          dst=DstSel[d3.name], iters=c.count)]
    ctx[dst_lsu] = [_cw(Opcode.STORE, src0=SrcSel[d3.opposite.name],
                        imm=RESULTS + len(plan.lanes), iters=c.count, stride=_STRIDE_IDX[1])]
    return [(r, col, words + [halt]) for (r, col), words in sorted(ctx.items())]


def stream_script(n_phases: int, n_rpus: int, n_results: int, results_ext: int) -> list:
    """Host commands: stage phase 0, stream phase k+1 behind phase k.

    Per phase: load the phase's config on every RPU, launch all, store each
    RPU's results, then queue the data two phases ahead into the half the
    finish toggle just handed back to the DMA.
    """
    HostCommand = system.HostCommand
    every = (1 << n_rpus) - 1

    def load(phase, r, staging):
        return HostCommand(0x02, (1 << r, (phase * n_rpus + r) * BATCH, 0, BATCH,
                                  int(staging)))

    script = [load(0, r, True) for r in range(n_rpus)]
    if n_phases > 1:
        script += [load(1, r, False) for r in range(n_rpus)]
    for k in range(n_phases):
        script += [HostCommand(0x01, (every, k)), HostCommand(0x03, (every,))]
        script += [HostCommand(0x04, (1 << r, RESULTS,
                                      results_ext + (k * n_rpus + r) * n_results, n_results))
                   for r in range(n_rpus)]
        if k + 2 < n_phases:
            script += [load(k + 2, r, False) for r in range(n_rpus)]
    return script


def stream_model(plans, tables, data, n_rpus: int) -> list:
    """The results the stream program must produce, computed directly."""
    out = []
    for k, plan in enumerate(plans):
        for r in range(n_rpus):
            d = data[k][r]
            for j, lane in enumerate(plan.lanes):
                if j == _RING_LANE:
                    out.append(sum(tables[(r + 1) % n_rpus]) & MASK32)
                    continue
                acc = 0
                for i in range(lane.count):
                    v = d[lane.base + lane.stride * i]
                    acc = acc + v if lane.op == "add" else acc ^ v
                out.append(acc & MASK32)
            c = plan.copy
            out += [(d[c.base + c.stride * i] + plan.copy_add) & MASK32
                    for i in range(c.count)]
    return out


@dataclass
class StreamJob:
    variant: int
    image: list
    expected: list
    results_ext: int


class StreamRing:
    """All four RPUs launched together over several DMA-fed phases."""

    name = "stream_ring"
    VARIANTS = 3

    def __init__(self, root: str, workdir: str):
        self.root = root

    def setup(self):
        path = os.path.join(self.root, "fixtures", "standard.arch")
        with open(path, encoding="utf-8") as fh:
            base = arch.parse_arch_file(fh.read())
        self.params = plugins.build_system(plugins.elaborate_arch(base)).params
        self.n_rpus = self.params.rpu_count
        self.plans = [stream_plans(v) for v in range(self.VARIANTS)]
        self.configs = [[stream_records(p, self.params.sm_words) for p in plans]
                        for plans in self.plans]

    def job(self, seed: int, index: int, draw: int = 0) -> StreamJob:
        offset = stable_seed(seed, "stream_ring/offset") % self.VARIANTS
        variant = (offset + index) % self.VARIANTS
        plans = self.plans[variant]
        rng = _job_rng(seed, self.name, index, draw)
        tables = [[rng.getrandbits(32) for _ in range(TABLE)] for _ in range(self.n_rpus)]
        data = [[[rng.getrandbits(32) for _ in range(DATA)] for _ in range(self.n_rpus)]
                for _ in plans]
        image = []
        for k in range(len(plans)):
            for r in range(self.n_rpus):
                image += tables[r] + data[k][r]
        return StreamJob(variant, image, stream_model(plans, tables, data, self.n_rpus),
                         len(image))

    def run(self, job: StreamJob) -> Outcome:
        plans = self.plans[job.variant]
        n_results = results_per_phase(plans[0])
        sim = system.SystemSim(self.params, job.image)
        for k, records in enumerate(self.configs[job.variant]):
            sim.register_config(k, records)
        sim.submit_script(stream_script(len(plans), self.n_rpus, n_results, job.results_ext))
        stats = sim.run()
        results = sim.results_words(len(job.expected), base=job.results_ext)
        return Outcome(results, stats.csv_row(), stats.total_cycles)

    def check(self, job: StreamJob, out: Outcome) -> bool:
        return out.results == job.expected


WORKLOADS = {cls.name: cls for cls in (KernelsStd, CompileRandom, StreamRing)}

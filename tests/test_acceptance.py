"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import random
import struct
import subprocess
import sys
import time
from pathlib import Path

from windmill.arch import (ArchParams, ExecMode, PeType, perimeter_lsu_map,
                           standard_preset, validate)
from windmill.elab import elaborate
from windmill.interconnect import TopologyKind, neighbors
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg, reference_execute
from windmill.memory import BankedSram, PaiArbiter, Request
from windmill.pe import (ConfigWord, DstSel, Opcode, SrcSel, context_capacity,
                         decode, encode, unpack_bitstream)
from windmill.plugins import standard_plugins
from windmill.system import HostCommand, SystemSim, run_protocol

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GOLDEN_ABC_SHA256 = "b2c65959e589557ceeef57db2c6bb45a7c9a7542800699511937acc981b0fc17"
GOLDEN_ABC_HEX = (
    "02000000000080800100d90c0000000000000078030001000000800001009c0c0000"
    "80000280481c0000000000000078020001010000800004805d700000000000000078"
)


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS  {text}")


def windmill_cli(*args):
    return subprocess.run([sys.executable, "-m", "windmill.cli", *map(str, args)],
                          capture_output=True, text=True)


def no_cpe_arch(**kw):
    defaults = dict(rows=8, cols=8, pe_type_map=perimeter_lsu_map(8, 8, None),
                    cpe_enabled=False, rpu_count=1)
    defaults.update(kw)
    return validate(ArchParams(**defaults))


def test_criterion_1_structural_fidelity(tmp_path):
    """Standard preset: exactly 28 LSUs, 16 banks of 256x32 bits, via the
    generate command's report. Runtime < 1 s."""
    out = tmp_path / "report.csv"
    t0 = time.perf_counter()
    from windmill.cli import main
    rc = main(["generate", "--arch", str(FIXTURES / "standard.arch"),
               "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    header, data = [ln.split(",") for ln in out.read_text().splitlines()]
    record = dict(zip(header, data))
    assert record["lsu_count"] == "28"
    assert record["sm_banks"] == "16"
    assert record["bank_depth"] == "256"
    assert record["bank_width"] == "32"
    assert elapsed < 1.0
    ok(1, f"28 LSU / 16x256x32 banks in {elapsed * 1000:.0f} ms")


def test_criterion_2_scmd_capacity():
    """context_capacity(SCMD, d) == 8 x context_capacity(MCMD, d), exact."""
    for d in range(1, 65):
        assert context_capacity(ExecMode.SCMD, d) \
            == 8 * context_capacity(ExecMode.MCMD, d)
    ok(2, "SCMD capacity is exactly 8x MCMD for depths 1..64")


def test_criterion_3_end_to_end_kernels():
    """Five kernels x 100 random images: simulated results bit-identical to
    the reference executor. Runtime < 60 s total."""
    t0 = time.perf_counter()
    runs = 0
    for name in sorted(ALL_KERNELS):
        text, n_in, base, n = ALL_KERNELS[name]()
        params = no_cpe_arch(context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])
        dfg = parse_dfg(text)
        records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
        rng = random.Random(0xACCE97 + hash(name) % 1000)
        for _ in range(100):
            image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
            system = SystemSim(params)
            got, _ = run_protocol(system, records, image, base, n)
            want = reference_execute(dfg, image)[base:base + n]
            assert got == want, f"{name}: {got} != {want}"
            runs += 1
    elapsed = time.perf_counter() - t0
    assert runs == 500
    assert elapsed < 60.0
    ok(3, f"500 kernel runs bit-identical to the reference in {elapsed:.1f} s")


def test_criterion_4_arbiter_fairness():
    """28 LSUs saturating one bank for 28,000 cycles: 1000 +- 1 grants each
    and a conflict count equal to the analytic oracle exactly."""
    sram = BankedSram(16, 256)
    order = [("lsu", i) for i in range(28)]
    pai = PaiArbiter(16, order)
    oracle_conflicts = 0
    for _ in range(28_000):
        for r in order:
            if r not in pai.pending:
                pai.post(Request(r, "read", 0))
        requesters = len(pai.pending)
        oracle_conflicts += max(0, requesters - 1)
        granted = pai.arbitrate(sram)
        assert len(granted) == 1
    for r in order:
        assert abs(pai.grant_counts[r] - 1000) <= 1
    assert pai.conflicts == oracle_conflicts == 27 * 28_000
    ok(4, f"grants 1000 +- 1 per LSU, conflicts == {oracle_conflicts} (oracle)")


def _pingpong_system(params, phase_iters, batch_words, phases, image):
    system = SystemSim(params, image)
    compute = [
        (1, 1, [ConfigWord(Opcode.ADD, SrcSel.ACC, SrcSel.IMM, DstSel.ACC,
                           imm16=1, iter_count=phase_iters),
                ConfigWord(opcode=Opcode.HALT)]),
        (0, 1, [ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                           imm16=0, iter_count=8, shared_reg_idx=1),
                ConfigWord(opcode=Opcode.HALT)]),
    ]
    system.register_config(0, compute)
    script = [HostCommand(0x02, (1, 0, 0, batch_words, 1))]
    script += [HostCommand(0x02, (1, batch_words * (k + 1), 0, batch_words, 0))
               for k in range(phases - 1)]
    for _ in range(phases):
        script.append(HostCommand(0x01, (1, 0)))
        script.append(HostCommand(0x03, (1,)))
    system.submit_script(script)
    return system


def test_criterion_5_ping_pong_overlap():
    """Streaming through the two-phase (ping-pong) buffer: with per-phase DMA
    time D and compute time C both > 100 cycles and D ~ C, the measured run
    beats the serial bound, and no cycle ever sees the DMA and the array on
    the same half."""
    params = no_cpe_arch()
    phases, iters, words = 4, 220, 220
    image = list(range(1, 1 + words * (phases + 1)))

    # calibrate C: one compute phase, data preloaded, no streaming
    cal = _pingpong_system(params, iters, words, 1, image)
    run_spans = []
    state = {"start": None}

    def span_hook(sys_):
        rpu = sys_.rpus[0]
        if rpu.status == "running" and state["start"] is None:
            state["start"] = sys_.stats.total_cycles
        if rpu.status != "running" and state["start"] is not None:
            run_spans.append(sys_.stats.total_cycles - state["start"])
            state["start"] = None

    cal.trace_hook = span_hook
    cal.run()
    C = run_spans[0]

    # calibrate D: stream one batch with no compute at all
    dcal = SystemSim(params, image)
    dcal.submit_script([HostCommand(0x02, (1, 0, 0, words, 1))])
    busy = 0

    def dma_hook(sys_):
        nonlocal busy
        if sys_.rpus[0].cycle_dma_half is not None:
            busy += 1

    dcal.trace_hook = dma_hook
    dcal.run()
    D = dcal.stats.total_cycles - 2  # command dispatch cycles
    assert D > 100 and C > 100
    assert abs(D - C) <= 0.15 * max(D, C), f"calibration drifted: D={D} C={C}"

    system = _pingpong_system(params, iters, words, phases, image)
    collisions = 0
    overlap = 0

    def hook(sys_):
        nonlocal collisions, overlap
        rpu = sys_.rpus[0]
        if rpu.cycle_dma_half is not None:
            if rpu.cycle_dma_half in rpu.cycle_pea_halves:
                collisions += 1
            if rpu.status == "running":
                overlap += 1
    system.trace_hook = hook
    stats = system.run()

    total = stats.total_cycles
    overhead = 64
    assert collisions == 0
    assert overlap > 100                       # streaming really overlapped
    assert total <= max(D, C) * phases + D + C + overhead
    assert total <= 0.75 * (D + C) * phases
    assert stats.pingpong_toggles == phases
    ok(5, f"D={D} C={C} phases={phases}: {total} cycles "
          f"<= 0.75*(D+C)*phases = {0.75 * (D + C) * phases:.0f}, 0 collisions")


def test_criterion_6_topology_invariants():
    """Exhaustive degree checks against closed forms, 2x2 through 16x16."""
    checked = 0
    for rows in range(2, 17):
        for cols in range(2, 17):
            for r in range(rows):
                for c in range(cols):
                    mesh = 4 - (r in (0, rows - 1)) - (c in (0, cols - 1))
                    d2 = (r >= 2) + (r <= rows - 3) + (c >= 2) + (c <= cols - 3)
                    dims = (rows, cols)
                    assert len(neighbors(TopologyKind.MESH2D, (r, c), dims)) == mesh
                    assert len(neighbors(TopologyKind.TORUS, (r, c), dims)) == 4
                    assert len(neighbors(TopologyKind.ONE_HOP, (r, c), dims)) \
                        == mesh + d2
                    checked += 3
    ok(6, f"{checked} degree checks match the closed forms")


def _cpe_workload(phases, with_cpe):
    cpe_at = (1, 1) if with_cpe else None
    params = validate(ArchParams(
        rows=8, cols=8, pe_type_map=perimeter_lsu_map(8, 8, cpe_at),
        cpe_enabled=with_cpe, rpu_count=1))
    length = 32
    image = list(range(1, 1 + length * (phases + 1)))
    system = SystemSim(params, image)
    phase_cfg = [(0, 1, [ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE,
                                    DstSel.ACC, imm16=0, iter_count=8,
                                    shared_reg_idx=1),
                         ConfigWord(opcode=Opcode.HALT)])]
    system.register_config(1, phase_cfg)
    # phase k+1 reads words length*k..; a controller's batches are carried out
    # after its own phase ends, too late to stream, so they stage
    entries = [(length * k, 0, length, int(with_cpe or k == 0)) for k in range(phases)]
    if with_cpe:
        words = []
        for k in range(phases):
            words.append(ConfigWord(Opcode.ROUTE, SrcSel.IMM, SrcSel.NONE,
                                    DstSel.RTT, imm16=(0x2 << 12) | k))
            words.append(ConfigWord(Opcode.ROUTE, SrcSel.IMM, SrcSel.NONE,
                                    DstSel.RTT, imm16=(0x1 << 12) | 1))
            words.append(ConfigWord(Opcode.ROUTE, SrcSel.IMM, SrcSel.NONE,
                                    DstSel.RTT, imm16=(0x3 << 12)))
        words.append(ConfigWord(opcode=Opcode.HALT))
        system.register_config(0, [(1, 1, words)])
        flat = [len(entries)]
        for e in entries:
            flat.extend(e)
        script = [HostCommand(0x05, tuple([0x1] + flat)),
                  HostCommand(0x01, (0x1, 0)),
                  HostCommand(0x03, (0x1,))]
    else:
        # streamed batch k fills phase k+1's half, so it queues before launch k
        script = [HostCommand(0x02, (0x1,) + e) for e in entries[:2]]
        for k in range(phases):
            script.append(HostCommand(0x01, (0x1, 1)))
            script.append(HostCommand(0x03, (0x1,)))
            if k + 2 < phases:
                script.append(HostCommand(0x02, (0x1,) + entries[k + 2]))
    system.submit_script(script)
    stats = system.run()
    return system, stats


def test_criterion_7_detachment_purity():
    """Detaching the controller plugin leaves zero residue, and the host
    command count becomes per-phase instead of setup-only."""
    params = standard_preset()
    kept = [p for p in standard_plugins(params) if p.name != "Cpe"]
    ctx = elaborate(kept, params)
    assert ctx.artifacts_by_plugin("Cpe") == []
    assert ctx.services_by_plugin("Cpe") == []
    assert all("Cpe" not in e for e in ctx.dependency_edges)

    with_counts = {}
    without_counts = {}
    for phases in (2, 4):
        sys_c, stats_c = _cpe_workload(phases, with_cpe=True)
        assert sys_c.rpus[0].action_log.count("launch") == phases + 1
        with_counts[phases] = stats_c.host_commands
        sys_h, stats_h = _cpe_workload(phases, with_cpe=False)
        without_counts[phases] = stats_h.host_commands
        # the last phase loaded its own words: the 8th of length*(phases-1)+1..
        for system in (sys_c, sys_h):
            assert system.rpus[0].pes[(0, 1)].acc == 32 * (phases - 1) + 8
    assert with_counts[2] == with_counts[4] == 3            # setup only
    assert without_counts[4] >= without_counts[2] + 2       # >= 1 per phase
    ok(7, f"no controller residue; host commands with CPE = 3 for any n, "
          f"without = {without_counts}")


def test_criterion_8_determinism(tmp_path):
    """One (arch, bitstream, data, script) tuple run twice through the CLI
    yields byte-identical results and stats files."""
    arch_f = FIXTURES / "standard.arch"
    bs = tmp_path / "v.bit"
    r = windmill_cli("map", "--arch", arch_f, "--dfg",
                     FIXTURES / "vecadd16.dfg", "--out", bs)
    assert r.returncode == 0
    data = tmp_path / "in.bin"
    data.write_bytes(struct.pack("<48I", *(list(range(1, 33)) + [0] * 16)))
    script = tmp_path / "run.script"
    script.write_text("01 1 0\n02 1 0 0 30 1\n03 1\n04 1 20 0 10\n")
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"out{tag}.bin"
        stats = tmp_path / f"stats{tag}.csv"
        r = windmill_cli("sim", "--arch", arch_f, "--bitstream", bs,
                         "--data", data, "--script", script,
                         "--out", out, "--stats", stats, "--result-len", 16)
        assert r.returncode == 0
        blobs.append((out.read_bytes(), stats.read_bytes()))
    assert blobs[0] == blobs[1]
    ok(8, "results and stats byte-identical across runs")


def test_criterion_9_encoding_stability():
    """decode(encode(w)) == w for 10,000 random valid words; the golden
    bitstream for the (a+b)*c fixture is byte-stable."""
    rng = random.Random(0x901DE)
    for _ in range(10_000):
        word = ConfigWord(
            opcode=rng.choice(tuple(Opcode)),
            src0=SrcSel(rng.randrange(12)),
            src1=SrcSel(rng.randrange(12)),
            dst=DstSel(rng.randrange(12)),
            imm16=rng.randrange(1 << 16),
            iter_count=rng.randrange(1 << 8),
            shared_reg_idx=rng.randrange(1 << 4),
            next_step=rng.randrange(1 << 3),
        )
        assert decode(encode(word)) == word

    golden_arch = validate(ArchParams(
        rows=2, cols=2,
        pe_type_map=((PeType.GPE, PeType.GPE), (PeType.GPE, PeType.LSU)),
        sm_banks=4, bank_depth=16, cpe_enabled=False, rpu_count=1))
    blob = emit_bitstream(map_dfg(
        parse_dfg((FIXTURES / "abc_chain.dfg").read_text()), golden_arch))
    assert blob.hex() == GOLDEN_ABC_HEX
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_ABC_SHA256
    ok(9, "10k word round-trips exact; golden bitstream bytes pinned")

"""RPU composition, host protocol, CPE offload, ring access, ping-pong."""

import random
import re
from bisect import insort
from dataclasses import replace

import pytest

from windmill.arch import (ArchParams, ExecMode, TopologyKind, perimeter_lsu_map,
                           standard_preset, validate)
from windmill.errors import (AddressOutOfRange, BitstreamTargetInvalid, CycleLimitExceeded,
                             DeadlockDetected, ProtocolOrderViolation, SimulationError,
                             UnknownOpcode, ValidationError)
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg, reference_execute
from windmill.pe import ConfigWord, DstSel, Opcode, SrcSel, unpack_bitstream
from windmill.plugins import DEFAULT_RTT, HOST_RTT, elaborate_arch, read_machine
from windmill.system import (HostCommand, Rpu, SystemSim, _loadable, decode, parse_script,
                             run_protocol)

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH, vecadd


def arch(rows=8, cols=8, rpus=1, cpe=False, **kw):
    cpe_at = (1, 1) if cpe else None
    return validate(ArchParams(rows=rows, cols=cols,
                               pe_type_map=perimeter_lsu_map(rows, cols, cpe_at),
                               cpe_enabled=cpe, rpu_count=rpus, **kw))


def kernel_system(name, image):
    text, n_in, base, n = ALL_KERNELS[name]()
    params = arch(context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])
    records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg(text), params)))
    system = SystemSim(params)
    return system, records, base, n


W = ConfigWord


class TestRtt:
    def test_load_config_decode(self):
        assert decode(DEFAULT_RTT, HostCommand(0x01, (0x1, 3))) == ("load_config", 0x1, (3,))

    def test_unknown_opcode(self):
        with pytest.raises(UnknownOpcode, match="^host opcode 0x7f not in RTT$"):
            decode(DEFAULT_RTT, HostCommand(0x7F, (1,)))

    def test_boot_sequence_decodes_in_order(self):
        script = parse_script(
            "01 1 0      # configure\n"
            "02 1 0 0 40 # data\n"
            "03 1        # launch\n"
            "04 1 20 0 8 # results\n")
        actions = [decode(DEFAULT_RTT, c)[0] for c in script]
        assert actions == ["load_config", "load_data", "launch", "store_results"]

    def test_table_limits(self):
        """A HostBridge may provide 16 entries, not 17; as a mapping, the
        table cannot hold one opcode twice."""
        from test_machine import STANDARD, build_with, provider

        def machine(entries):
            rtt = {op: "launch" for op in range(entries)}
            return read_machine(build_with(STANDARD, provider("HostBridge", HOST_RTT, rtt)))

        assert len(machine(16).rtt) == 16
        with pytest.raises(ValidationError,
                           match="^host-rtt: must hold at most 16 entries, found 17$"):
            machine(17)

    def test_script_rejects_non_hex(self):
        from windmill.errors import ParseError
        with pytest.raises(ParseError) as err:
            parse_script("01 1\n03 banana\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("line", ["02 1 -5 0 5 1", "02 1 +5 0 5 1", "-1 1"])
    def test_script_rejects_signed_tokens(self, line):
        """int(t, 16) takes a sign; a negative ext address would index the
        image from its end, so operands are unsigned."""
        from windmill.errors import ParseError
        with pytest.raises(ParseError, match="signed token") as err:
            parse_script(f"01 1 0\n{line}\n")
        assert err.value.line == 2

    def test_bitstream_target_checked_at_registration(self):
        from windmill.errors import BitstreamTargetInvalid
        system = SystemSim(arch(rpus=4))
        with pytest.raises(BitstreamTargetInvalid):
            system.register_config(0, [(1, 2, [W(opcode=Opcode.LOAD)])])
        assert 0 not in system.configs

    def test_shared_register_index_checked_at_registration(self):
        """A SREG select the word reads or writes must name an existing
        register; a memory op's stride selector in the same field need not."""
        from windmill.errors import BitstreamTargetInvalid
        system = SystemSim(arch(rpus=4, shared_reg_count=4))
        for word in (W(Opcode.ADD, SrcSel.SREG, SrcSel.IMM, DstSel.ACC, shared_reg_idx=7),
                     W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.SREG, shared_reg_idx=4)):
            with pytest.raises(BitstreamTargetInvalid, match=r"PE \(2,2\) word 0"):
                system.register_config(0, [(2, 2, [word])])
        assert 0 not in system.configs
        system.register_config(1, [(2, 2, [W(Opcode.ADD, SrcSel.SREG, SrcSel.IMM, DstSel.ACC,
                                              shared_reg_idx=3)])])
        strided = W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.S, iter_count=4,
                    shared_reg_idx=9)
        system.register_config(2, [(0, 2, [strided])])
        assert sorted(system.configs) == [1, 2]

    def test_config_validated_once_for_all_rpus(self, monkeypatch):
        """Registration validates once; loading and running never re-validate."""
        import windmill.system as system_mod
        calls = []
        real = system_mod.validate_bitstream

        def counting(machine, records):
            calls.append(machine)
            return real(machine, records)

        monkeypatch.setattr(system_mod, "validate_bitstream", counting)
        system = SystemSim(arch(rpus=4))
        records = [(1, 1, [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=3),
                           W(opcode=Opcode.HALT)])]
        system.register_config(0, records)
        assert calls == [system.machine]
        system.submit_script([HostCommand(0x01, (0xF, 0)), HostCommand(0x03, (0xF,))])
        system.run()
        assert len(calls) == 1
        assert [rpu.pes[(1, 1)].acc for rpu in system.rpus] == [3] * 4


class TestProtocol:
    def test_nop_bitstream_roundtrips_input(self):
        params = arch()
        system = SystemSim(params)
        records = [(0, 1, [W(opcode=Opcode.NOP), W(opcode=Opcode.HALT)])]
        image = list(range(1, 17))
        results, stats = run_protocol(system, records, image, 0, 16)
        assert results == image
        assert stats.total_cycles <= 64
        assert system.rpus[0].action_log == ["load_config", "load_data", "launch",
                                             "store_results"]

    def test_load_config_without_id_loads_config_0(self):
        system = SystemSim(arch())
        system.register_config(0, [(2, 2, [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC,
                                              imm16=7), W(opcode=Opcode.HALT)])])
        system.register_config(1, [(2, 2, [W(opcode=Opcode.HALT)])])
        system.submit_script(parse_script("01 1\n03 1\n"))
        system.run()
        assert system.rpus[0].pes[(2, 2)].acc == 7

    @pytest.mark.parametrize("line, message", [
        ("02 1 0 0", "load_data needs ext, sm, length operands"),
        ("04 1 0 0", "store_results needs sm, ext, length operands"),
    ])
    def test_short_transfer_command_rejected(self, line, message):
        system = SystemSim(arch())
        system.submit_script(parse_script(line))
        with pytest.raises(UnknownOpcode, match=message):
            system.run()

    def test_empty_manifest_replaces_the_old_one(self):
        system = SystemSim(arch())
        system.submit_script(parse_script("05 1 1 0 0 4 1\n"))
        system.run()
        assert system.rpus[0].manifest == [(0, 0, 4, 1)]
        system.submit_script(parse_script("05 1 0\n"))
        system.run()
        assert system.rpus[0].manifest == []

    def test_manifest_without_count_rejected(self):
        system = SystemSim(arch())
        system.submit_script(parse_script("05 1\n"))
        with pytest.raises(UnknownOpcode, match="load_manifest operand stream too short"):
            system.run()

    def test_launch_before_config_is_violation(self):
        system = SystemSim(arch())
        system.submit_script([HostCommand(0x03, (0x1,))])
        with pytest.raises(ProtocolOrderViolation):
            system.run()

    def test_vecadd_end_to_end(self):
        system, records, base, n = kernel_system("vecadd", None)
        rng = random.Random(42)
        image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
        results, stats = run_protocol(system, records, image, base, n)
        text, *_ = ALL_KERNELS["vecadd"]()
        expected = reference_execute(parse_dfg(text), image)[base:base + n]
        assert results == expected

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_kernels_match_reference(self, name):
        rng = random.Random(hash(name) & 0xFFFFFF)
        text, n_in, base, n = ALL_KERNELS[name]()
        dfg = parse_dfg(text)
        for _ in range(3):
            system, records, base, n = kernel_system(name, None)
            image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
            results, _ = run_protocol(system, records, image, base, n)
            assert results == reference_execute(dfg, image)[base:base + n]

    def test_cycle_limit_trips(self):
        params = arch()
        system = SystemSim(params, cycle_limit=200)
        # a PE waiting forever on an operand that never arrives
        starving = [(1, 1, [W(Opcode.ADD, SrcSel.W, SrcSel.IMM, DstSel.ACC)])]
        with pytest.raises(CycleLimitExceeded):
            run_protocol(system, starving, [0] * 8, 0, 1)

    def test_mutual_wait_is_a_deadlock(self):
        """Two PEs each wait on the other's value: every live PE sleeps, so
        the run stops within a few cycles and names both waits."""
        system = SystemSim(arch())
        east = [W(Opcode.ADD, SrcSel.E, SrcSel.IMM, DstSel.E, imm16=1)]
        west = [W(Opcode.ADD, SrcSel.W, SrcSel.IMM, DstSel.W, imm16=1)]
        system.register_config(0, [(3, 3, east), (3, 4, west)])
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        with pytest.raises(DeadlockDetected) as exc:
            system.run()
        assert system.stats.total_cycles <= 20
        assert "PE (3, 3) lacks latch E" in str(exc.value)
        assert "PE (3, 4) lacks latch W" in str(exc.value)
        assert isinstance(exc.value, CycleLimitExceeded)

    def test_blocked_write_back_is_named_in_a_deadlock(self):
        """A producer whose value the consumer never takes is blocked on the
        consumer's latch; the consumer waits on a latch nothing drives."""
        system = SystemSim(arch())
        producer = [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.E, imm16=1, iter_count=2)]
        consumer = [W(Opcode.ADD, SrcSel.W, SrcSel.N, DstSel.ACC)]
        system.register_config(0, [(3, 3, producer), (3, 4, consumer)])
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        with pytest.raises(DeadlockDetected) as exc:
            system.run()
        assert "PE (3, 3) blocked on ((3, 4), W)" in str(exc.value)
        assert "PE (3, 4) lacks latch N" in str(exc.value)

    def test_livelock_still_hits_the_cycle_limit(self):
        """A PE looping forever keeps progressing, so only the limit stops it."""
        system = SystemSim(arch(), cycle_limit=200)
        spin = [W(opcode=Opcode.NOP), W(opcode=Opcode.NOP, next_step=1)]
        system.register_config(0, [(2, 2, spin)])
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        with pytest.raises(CycleLimitExceeded) as exc:
            system.run()
        assert not isinstance(exc.value, DeadlockDetected)
        assert system.rpus[0].running_cycles == 200

    def test_determinism_bit_identical(self):
        outs = []
        for _ in range(2):
            system, records, base, n = kernel_system("dot", None)
            image = list(range(17))
            results, stats = run_protocol(system, records, image, base, n)
            outs.append((tuple(results), stats.csv_row()))
        assert outs[0] == outs[1]

    def test_grant_conservation(self):
        system, records, base, n = kernel_system("vecadd", None)
        image = list(range(base + n))
        _, stats = run_protocol(system, records, image, base, n)
        assert sum(stats.grants_per_lsu.values()) == stats.arbiter_grants
        pai = system.rpus[0].pai
        assert sum(pai.grant_counts.values()) <= pai.total_requests
        n_pes = 64
        assert stats.pe_active_cycles + stats.pe_idle_cycles \
            == stats.total_cycles * n_pes

    def test_stats_key_order_on_a_tall_grid(self):
        """Per-LSU grants list each RPU's LSUs by the text of their
        coordinate, so (10, 0) before (2, 0); per-PE activity lists them in
        raster order. RPU 0 is configured, RPUs 1 and 2 never are."""
        params = arch(rows=12, cols=3, rpus=3)
        load = W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, imm16=5)
        system = SystemSim(params)
        system.register_config(0, [(2, 0, [load, W(opcode=Opcode.HALT)]),
                                   (10, 0, [load, load, W(opcode=Opcode.HALT)])])
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        stats = system.run()
        lsus = [c for c in params.coords() if c[0] in (0, 11) or c[1] in (0, 2)]
        by_text = sorted(lsus, key=str)
        assert by_text.index((10, 0)) < by_text.index((2, 0))
        assert list(stats.grants_per_lsu) == [(r, c) for r in range(3) for c in by_text]
        assert list(stats.pe_active) == [(r, c) for r in range(3) for c in params.coords()]
        assert stats.grants_per_lsu[(0, (10, 0))] == 2
        assert stats.grants_per_lsu[(0, (2, 0))] == 1
        assert sum(stats.grants_per_lsu.values()) == stats.arbiter_grants == 3
        assert stats.pe_active[(0, (10, 0))] > stats.pe_active[(0, (2, 0))] > 0
        assert not any(n for (r, _), n in stats.pe_active.items() if r > 0)


class TestFinalStats:
    """Each run's per-LSU and per-PE tables are its own, though every run on
    a machine starts them from one table of zeros."""

    LOAD = W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, imm16=5)

    def run(self, params, mask):
        system = SystemSim(params)
        system.register_config(0, [(0, 1, [self.LOAD, self.LOAD, W(opcode=Opcode.HALT)])])
        system.submit_script([HostCommand(0x01, (mask, 0)), HostCommand(0x03, (mask,))])
        return system.run()

    def test_a_run_shares_no_table_with_the_next(self):
        params = arch(rpus=2)
        first = self.run(params, 0x1)
        want = (dict(first.grants_per_lsu), dict(first.pe_active))
        for table in (first.grants_per_lsu, first.pe_active):
            table[(0, (0, 1))] += 7   # a configured RPU's entry
            table[(1, (0, 1))] = 9    # an idle RPU's entry
            table[(5, (0, 0))] = 1
        second = self.run(params, 0x1)
        assert (second.grants_per_lsu, second.pe_active) == want

    def test_idle_rpus_read_zero_in_key_order(self):
        """RPUs 0 and 2 configured and launched, 1 and 3 never: the keys run
        by RPU id, then LSUs by the text of their coordinate and PEs in
        raster order, and every idle RPU's entry is 0."""
        params = arch(rpus=4)
        stats = self.run(params, 0b101)
        lsus = sorted((c for c in params.coords() if params.pe_type(*c).name == "LSU"), key=str)
        assert list(stats.grants_per_lsu) == [(r, c) for r in range(4) for c in lsus]
        assert list(stats.pe_active) == [(r, c) for r in range(4) for c in params.coords()]
        for r in (0, 2):
            assert stats.grants_per_lsu[(r, (0, 1))] == 2
            assert stats.pe_active[(r, (0, 1))] > 0
        for table in (stats.grants_per_lsu, stats.pe_active):
            assert not any(n for (r, _), n in table.items() if r in (1, 3))
        assert stats.pe_active_cycles == 2 * stats.pe_active[(0, (0, 1))]
        assert stats.pe_idle_cycles == stats.total_cycles * 4 * 64 - stats.pe_active_cycles


class TestScmd:
    def test_row_broadcast(self):
        params = arch(exec_mode=ExecMode.SCMD)
        system = SystemSim(params)
        words = [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=7),
                 W(opcode=Opcode.HALT)]
        system.register_config(0, [(3, 0, words)])
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        system.run()
        rpu = system.rpus[0]
        for c in range(params.cols):
            assert rpu.pes[(3, c)].acc == 7
        assert rpu.pes[(2, 2)].acc == 0

    def test_scmd_contexts_bit_identical(self):
        params = arch(exec_mode=ExecMode.SCMD)
        system = SystemSim(params)
        words = [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=3)] * 5
        system.register_config(0, [(2, 0, words)])
        system.submit_script([HostCommand(0x01, (0x1, 0))])
        system.run()
        rpu = system.rpus[0]
        rows = {tuple(rpu.pes[(2, c)].context) for c in range(params.cols)}
        assert len(rows) == 1


class TestStreaming:
    def test_affine_stream_reduction(self):
        """Iteration control block drives a 16-element streamed sum."""
        params = arch()
        system = SystemSim(params)
        n = 16
        image = [rng_v & 0xFFFFFFFF for rng_v in range(3, 3 + n)]
        # LSU (0,1) streams loads east -> GPE (1,1)? adjacency: use (1,0) LSU
        # feeding (1,1) GPE; GPE accumulates then sends to (1,2)... simpler:
        # LSU loads into acc-out to E; GPE adds from W into acc, iter n.
        lsu = [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.E,
                 imm16=0, iter_count=n, shared_reg_idx=1),
               W(opcode=Opcode.HALT)]
        gpe = [W(Opcode.ADD, SrcSel.ACC, SrcSel.W, DstSel.ACC, iter_count=n),
               W(opcode=Opcode.HALT)]
        records = [(1, 0, lsu), (1, 1, gpe)]
        results, stats = run_protocol(system, records, image, 0, 1)
        assert system.rpus[0].pes[(1, 1)].acc == sum(image) & 0xFFFFFFFF

    def test_ping_pong_two_phase_overlap(self):
        """Streamed phases overlap data movement with compute and never
        touch the DMA-owned half."""
        params = arch()
        phases, length = 2, 160
        image = list(range(1, 1 + length * (phases + 1)))
        system = SystemSim(params, image)
        # compute: one LSU streams the whole phase buffer
        records = [(0, 1, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                             imm16=0, iter_count=length, shared_reg_idx=1),
                           W(opcode=Opcode.HALT)])]
        system.register_config(0, records)
        script = [HostCommand(0x02, (1, 0, 0, length, 1))]
        script += [HostCommand(0x02, (1, length * (k + 1), 0, length, 0))
                   for k in range(phases - 1)]
        for _ in range(phases):
            script.append(HostCommand(0x01, (1, 0)))
            script.append(HostCommand(0x03, (1,)))
        system.submit_script(script)

        overlap_cycles = 0
        collisions = 0

        def hook(sys_):
            nonlocal overlap_cycles, collisions
            rpu = sys_.rpus[0]
            if rpu.cycle_dma_half is not None:
                if rpu.status == "running":
                    overlap_cycles += 1
                if rpu.cycle_dma_half in rpu.cycle_pea_halves:
                    collisions += 1

        system.trace_hook = hook
        stats = system.run()
        assert collisions == 0
        assert overlap_cycles > 100         # a whole batch streamed in-phase
        assert stats.pingpong_toggles == phases
        # serial lower bound comparison: D + max-overlapped phases
        assert stats.total_cycles < (phases + 1) * length * 3

    def test_staging_batch_behind_a_waiting_stream_does_not_hold_the_launch(self):
        """The second streamed batch waits for phase 1's flip, so the staging
        batch queued behind it streams after the phase, not before it: the
        launch waits for neither, and the staged words land in the half the
        array owns after the flip."""
        # a launch held for the staging batch would never run: that batch waits for its flip
        system = SystemSim(arch(), list(range(1, 65)), cycle_limit=100)
        system.register_config(0, [(0, 1, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                                             iter_count=8), W(opcode=Opcode.HALT)])])
        system.submit_script(parse_script("01 1 0\n02 1 0 0 4 0\n02 1 4 0 4 0\n"
                                          "02 1 8 a 4 1\n03 1\n"))
        stats = system.run()
        rpu = system.rpus[0]
        assert rpu.action_log == ["load_config"] + ["load_data"] * 3 + ["launch"]
        assert stats.pingpong_toggles == 1 and rpu.dma.idle()
        half = rpu.half_words
        assert rpu.sram.data[half:half + 4] == [1, 2, 3, 4]      # phase 1's stream
        assert rpu.sram.data[:4] == [5, 6, 7, 8]                 # phase 2's stream
        assert rpu.sram.data[half + 10:half + 14] == [9, 10, 11, 12]

    def test_load_data_past_the_half_is_a_machine_fault(self):
        """A region crossing the end of the half is refused when the command
        is carried out; the DMA never wraps it into the half's first words."""
        system = SystemSim(standard_preset(), list(range(1, 9)))
        system.submit_script(parse_script("02 1 0 7fc 8 1\n"))
        with pytest.raises(AddressOutOfRange, match=r"^data region 2044\+8 outside half space$"):
            system.run()
        assert not any(system.rpus[0].sram.data) and system.stats.total_cycles == 0

    def test_zero_length_load_data_writes_nothing(self):
        """A zero-length batch writes no word and completes in its queue
        place, ahead of the batch behind it."""
        system = SystemSim(standard_preset(), [77, 88])
        system.submit_script(parse_script("02 1 0 10 0 1\n02 1 1 11 1 1\n"))
        system.run()
        rpu = system.rpus[0]
        assert rpu.dma.idle() and rpu.dma.toggles == 0
        assert rpu.sram.data[0x10:0x12] == [0, 88] and sum(rpu.sram.data) == 88

    @staticmethod
    def load_store_phase(store_at):
        """LSU (0, 0) loads word 0 of the array's half and stores it at ``store_at``."""
        return [(0, 0, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, imm16=0),
                        W(Opcode.STORE, SrcSel.ACC, SrcSel.NONE, DstSel.NONE, imm16=store_at),
                        W(opcode=Opcode.HALT)])]

    def test_launch_waits_for_a_deferred_flip(self):
        """Two staging batches and one 200-word streamed batch: phase 1 ends
        while the streamed batch is in flight, so its flip is deferred. Phase 2
        waits for that flip and computes on the streamed words; a launch that
        did not wait would run on phase 1's half (1000) and drop its own flip
        (1 toggle)."""
        system = SystemSim(replace(standard_preset(), rpu_count=1),
                           [1000 + i for i in range(300)])
        system.register_config(0, self.load_store_phase(16))
        system.submit_script(parse_script("01 1 0\n02 1 0 0 4 1\n02 1 4 4 4 1\n02 1 8 0 c8 0\n"
                                          "03 1\n01 1 0\n03 1\n04 1 10 0 1\n"))
        stats = system.run()
        assert system.results_words(1) == [1008]
        assert stats.pingpong_toggles == 2

    def test_late_streamed_batch_faults(self):
        """A streamed batch queued behind the launch of the phase it should
        overlap is carried out once that phase's flip is requested: it would
        fill the half the array just left, so it faults."""
        system = SystemSim(replace(standard_preset(), rpu_count=1),
                           [1000 + i for i in range(300)])
        system.register_config(0, self.load_store_phase(16))
        system.submit_script(parse_script("01 1 0\n02 1 0 0 4 1\n03 1\n02 1 8 0 4 0\n"
                                          "01 1 0\n03 1\n04 1 10 0 1\n"))
        with pytest.raises(ProtocolOrderViolation, match=re.escape(
                "rpu 0: late streamed batch (ext 8, sm 0, len 4): the flip that hands "
                "its half to phase 2 is already requested")):
            system.run()
        assert system.rpus[0].action_log == ["load_config", "load_data", "launch"]
        assert system.stats.total_cycles > 0 and not system.results_buffer

    def test_streamed_batch_past_the_last_flip_faults(self):
        """Three streamed batches and one launch: the third is bound to flip
        2, which no phase is left to request. The run faults in the cycle the
        second batch lands, as nothing can move after it."""
        system = SystemSim(replace(standard_preset(), rpu_count=1),
                           [1000 + i for i in range(300)], cycle_limit=20000)
        system.register_config(0, self.load_store_phase(16))
        system.submit_script(parse_script("01 1 0\n02 1 0 0 4 1\n02 1 8 0 4 0\n02 1 16 0 4 0\n"
                                          "02 1 24 0 4 0\n03 1\n04 1 16 0 1\n"))
        with pytest.raises(ProtocolOrderViolation, match=re.escape(
                "rpu 0: streamed batch (ext 36, sm 0, len 4) waits for flip 2, but no phase "
                "is left to request it")):
            system.run()
        rpu = system.rpus[0]
        assert rpu.action_log == ["load_config"] + ["load_data"] * 4 + ["launch", "store_results"]
        assert rpu.dma.toggles == 1 and rpu.dma.active is None and len(rpu.dma.queue) == 1
        assert system.stats.total_cycles < 30

    def test_random_phase_scripts_compute_on_their_data(self):
        """Seeded scripts of 1-3 staging batches, 2-4 phases and a store after
        a random subset of phases. Where each streamed batch is queued before
        the launch it overlaps, every phase loads its own data, every finish
        flips once, and the DMA never writes the half the array touches;
        where one is queued after it, the first such batch faults."""
        rng = random.Random(2525)
        image = [1000 + i for i in range(4096)]
        outcomes = set()
        for _ in range(200):
            phases = rng.randint(2, 4)
            staging = [(rng.randrange(4000), rng.randint(1, 8)) for _ in range(rng.randint(1, 3))]
            streamed = [(rng.randrange(4000), rng.randint(1, 64)) for _ in range(phases - 1)]
            data = [1000 + staging[-1][0]] + [1000 + ext for ext, _ in streamed]
            # slot p: the commands queued before launch p; batch j fills phase j+1's half
            slots = [[] for _ in range(phases + 1)]
            slots[1] = [f"02 1 {ext:x} 0 {n:x} 1" for ext, n in staging]
            slot, late = 1, None
            for j, (ext, n) in enumerate(streamed, start=1):
                if rng.random() < 0.15:   # behind launch j: late
                    slot = rng.randint(max(slot, j + 1), phases)
                else:   # behind batch j-1 and the staging batches
                    slot = rng.randint(slot, max(slot, j))
                if slot > j and late is None:
                    late = (f"rpu 0: late streamed batch (ext {ext}, sm 0, len {n}): the flip "
                            f"that hands its half to phase {j + 1} is already requested")
                at = rng.randint(0, len(slots[1])) if j == 1 else len(slots[slot])
                slots[slot].insert(at, f"02 1 {ext:x} 0 {n:x} 0")
            lines, stored = ["01 1 0"], {}
            for p in range(1, phases + 1):
                lines += slots[p] + ["03 1"]
                if rng.random() < 0.5:
                    lines.append(f"04 1 100 {p:x} 1")
                    stored[p] = data[p - 1]
                if p < phases:
                    lines.append("01 1 0")
            system = SystemSim(arch(), image)
            system.register_config(0, self.load_store_phase(0x100))
            system.submit_script(parse_script("\n".join(lines)))
            collisions = []
            system.trace_hook = lambda s: collisions.append(
                s.rpus[0].cycle_dma_half in s.rpus[0].cycle_pea_halves)
            outcomes.add(late is None)
            if late is not None:
                with pytest.raises(ProtocolOrderViolation, match=re.escape(late)):
                    system.run()
            else:
                stats = system.run()
                assert {p: system.results_buffer[p] for p in stored} == stored, lines
                assert stats.pingpong_toggles == phases, lines
            assert not any(collisions), lines
        assert outcomes == {True, False}


def cfg_word(action_nibble, operand):
    return W(Opcode.ROUTE, SrcSel.IMM, SrcSel.NONE, DstSel.RTT,
             imm16=(action_nibble << 12) | operand)


class TestCpe:
    def make_phase_config(self, value):
        """Tiny compute phase: one LSU loads word 0, adds nothing, stores."""
        return [(0, 1, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                          imm16=0, iter_count=8, shared_reg_idx=1),
                        W(opcode=Opcode.HALT)])]

    def run_workload(self, phases, with_cpe):
        params = arch(cpe=with_cpe)
        length = 32
        image = list(range(1, 1 + length * (phases + 1)))
        system = SystemSim(params, image)
        system.register_config(1, self.make_phase_config(0))
        # descriptor k holds phase k+1's data; a controller's batches are carried
        # out after its own phase ends, too late to stream, so they stage
        manifest_entries = [(length * k, 0, length, int(with_cpe or k == 0))
                            for k in range(phases)]
        if with_cpe:
            cpe_words = []
            for k in range(phases):
                cpe_words.append(cfg_word(0x2, k))     # load_data desc k
                cpe_words.append(cfg_word(0x1, 1))     # load_config 1
                cpe_words.append(cfg_word(0x3, 0))     # launch
            cpe_words.append(W(opcode=Opcode.HALT))
            system.register_config(0, [(1, 1, cpe_words)])
            flat = [len(manifest_entries)]
            for e in manifest_entries:
                flat.extend(e)
            script = [
                HostCommand(0x05, tuple([0x1] + flat)),
                HostCommand(0x01, (0x1, 0)),
                HostCommand(0x03, (0x1,)),
            ]
        else:
            # streamed batch k fills phase k+1's half, so it queues before launch k
            script = [HostCommand(0x02, (0x1,) + e) for e in manifest_entries[:2]]
            for k in range(phases):
                script.append(HostCommand(0x01, (0x1, 1)))
                script.append(HostCommand(0x03, (0x1,)))
                if k + 2 < phases:
                    script.append(HostCommand(0x02, (0x1,) + manifest_entries[k + 2]))
        system.submit_script(script)
        stats = system.run()
        return system, stats

    @pytest.mark.parametrize("phases", [2, 4])
    def test_cpe_runs_phases_without_host(self, phases):
        system, stats = self.run_workload(phases, with_cpe=True)
        assert stats.host_commands == 3                # setup only, any n
        launches = system.rpus[0].action_log.count("launch")
        assert launches == phases + 1                  # bootstrap + phases

    def test_host_command_growth_without_cpe(self):
        counts = {}
        for phases in (2, 3, 4):
            _, stats = self.run_workload(phases, with_cpe=False)
            counts[phases] = stats.host_commands
        assert counts[3] - counts[2] >= 1
        assert counts[4] - counts[3] >= 1
        with_cpe = [self.run_workload(p, True)[1].host_commands for p in (2, 4)]
        assert with_cpe[0] == with_cpe[1] == 3

    def test_reload_runs_the_new_context(self):
        """The controller loads a second config on the same RPU: the relaunch
        runs the new words, and PEs the new config leaves out run nothing."""
        params = arch(cpe=True)
        system = SystemSim(params, cycle_limit=1000)   # a stale reload loop fails fast
        first = [(2, 2, [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=5),
                         W(opcode=Opcode.HALT)]),
                 (3, 3, [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=6)])]
        second = [(2, 2, [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=4),
                          W(Opcode.ADD, SrcSel.ACC, SrcSel.IMM, DstSel.ACC, imm16=5),
                          W(opcode=Opcode.HALT)])]
        system.register_config(1, first)
        system.register_config(2, second)
        cpe_words = [cfg_word(0x1, 1), cfg_word(0x3, 0),
                     cfg_word(0x1, 2), cfg_word(0x3, 0), W(opcode=Opcode.HALT)]
        system.register_config(0, [(1, 1, cpe_words)])
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        system.run()
        rpu = system.rpus[0]
        assert rpu.action_log == ["load_config", "launch"] * 3
        assert rpu.pes[(2, 2)].context == second[0][2]
        assert rpu.pes[(2, 2)].acc == 9
        assert rpu.pes[(3, 3)].context == [] and rpu.pes[(3, 3)].acc == 0
        assert rpu.pes[(1, 1)].context == []

    def test_relaunch_loop_hits_the_cycle_limit(self):
        """A controller that reloads and relaunches its own config never
        stops, though each phase finishes: its launches continue the host
        launch's cycle count, so the chain ends at the limit."""
        system = SystemSim(arch(cpe=True), cycle_limit=50)
        system.register_config(0, [(1, 1, [cfg_word(0x1, 0), cfg_word(0x3, 0),
                                           W(opcode=Opcode.HALT)])])
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        with pytest.raises(CycleLimitExceeded, match=r"^rpu 0: no completion within 50 cycles$"):
            system.run()
        rpu = system.rpus[0]
        assert rpu.running_cycles == 50 and rpu.action_log.count("launch") == 8

    def test_controller_actions_queue_in_issue_order_with_host_commands(self):
        """The controller writes load_config 1 in the cycle before the host's
        load_config 2 is dispatched, so config 2 is carried out last."""
        system = SystemSim(standard_preset())
        halt = W(opcode=Opcode.HALT)
        system.register_config(0, [(1, 1, [cfg_word(0x1, 1), halt])])
        for config_id in (1, 2):
            system.register_config(config_id, [(2, 2, [
                W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=config_id), halt])])
        written = []
        system.trace_hook = lambda s: written.append(
            (s.stats.total_cycles, s.stats.host_commands, list(s.rpus[0].queue)))
        # three load_configs of RPU 1 pad the script to the controller's write
        system.submit_script(parse_script("01 1 0\n03 1\n01 2 1\n01 2 1\n01 2 1\n01 1 2\n"))
        system.run()
        assert (5, 5, [("load_config", (1,))]) in written   # its write, before the 6th command
        rpu = system.rpus[0]
        assert rpu.action_log == ["load_config", "launch", "load_config", "load_config"]
        assert rpu.pes[(2, 2)].context[0].imm16 == 2

    def run_controller(self, cpe_words, manifest, image=()):
        """Stage ``image`` into RPU 0, load ``manifest`` and let the
        controller run ``cpe_words`` as config 0."""
        system = SystemSim(arch(cpe=True), list(image))
        system.register_config(0, [(1, 1, cpe_words + [W(opcode=Opcode.HALT)])])
        flat = [len(manifest)] + [x for entry in manifest for x in entry]
        system.submit_script([HostCommand(0x05, (0x1, *flat)),
                              HostCommand(0x02, (0x1, 0, 0, len(image), 1)),
                              HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        system.run()
        return system

    def test_descriptor_past_manifest_rejected(self):
        with pytest.raises(UnknownOpcode, match="controller descriptor 1 not in manifest"):
            self.run_controller([cfg_word(0x2, 1)], [(0, 0, 4, 1)])

    def test_controller_store_results_uses_descriptor_ext_address(self):
        """Descriptor (sm, ext, len, -): the words at sm of the finished
        phase's half land at ext in the results buffer."""
        image = [10 + i for i in range(8)]
        system = self.run_controller([cfg_word(0x4, 0)], [(2, 0x40, 3, 0)], image)
        assert system.rpus[0].action_log[-1] == "store_results"
        assert system.results_words(3, base=0x40) == [12, 13, 14]
        assert 0 not in system.results_buffer

    def test_empty_sequence_stays_configured(self):
        params = arch(cpe=True)
        system = SystemSim(params)
        system.register_config(0, [(1, 1, [W(opcode=Opcode.HALT)])])
        system.submit_script([HostCommand(0x01, (0x1, 0))])
        system.run()
        assert system.rpus[0].status == "configured"


class TestRing:
    def test_clockwise_neighbor_of_last_is_zero(self):
        system = SystemSim(arch(rpus=4))
        assert system.clockwise(3) is system.rpus[0]

    def test_remote_read_returns_neighbor_value(self):
        params = arch(rpus=2)
        system = SystemSim(params)
        system.rpus[1].sram.data[5] = 9     # neighbor's array half 0
        remote = params.sm_words + 5
        records = [(0, 1, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                             imm16=remote),
                           W(opcode=Opcode.HALT)])]
        system.register_config(0, records)
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        system.run()
        assert system.rpus[0].pes[(0, 1)].acc == 9

    def test_ring_costs_two_extra_cycles(self):
        def run_one(addr):
            params = arch(rpus=2)
            system = SystemSim(params)
            system.rpus[0].sram.data[5] = 1
            system.rpus[1].sram.data[5] = 1
            records = [(0, 1, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE,
                                 DstSel.ACC, imm16=addr),
                               W(opcode=Opcode.HALT)])]
            system.register_config(0, records)
            system.submit_script([HostCommand(0x01, (0x1, 0)),
                                  HostCommand(0x03, (0x1,))])
            return system.run().total_cycles

        local = run_one(5)
        ring = run_one(arch(rpus=2).sm_words + 5)
        assert ring - local == 2

    def test_ring_of_one_reads_its_own_array_half(self):
        """With one RPU the clockwise neighbor is the RPU itself: a remote
        read returns its own array-half word, as fast as across two RPUs."""
        text = "in a 0\nx load a\nout x 5\n"

        def run_with(rpus):
            params = arch(rpus=rpus)
            records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg(text), params)))
            system = SystemSim(params, cycle_limit=20000)
            image = [params.sm_words + 1, 77]   # word 0 points at remote word 1
            results, stats = run_protocol(system, records, image, 5, 1)
            return results, stats.total_cycles

        alone, pair = run_with(1), run_with(2)
        assert alone[0] == [77]   # the neighbor of a pair holds no data
        assert pair[0] == [0]
        assert alone[1] == pair[1]

    def test_pipelined_chain_across_four_rpus(self):
        """Tasks flow around the ring: each RPU reads its clockwise
        neighbor's buffer, so four phases overlap instead of serializing."""
        params = arch(rpus=4)
        system = SystemSim(params)
        for rpu in system.rpus:
            for i in range(8):
                rpu.sram.data[i] = rpu.id * 100 + i
        remote = params.sm_words
        records = [(0, 1, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                             imm16=remote + 3),
                           W(opcode=Opcode.HALT)])]
        system.register_config(0, records)
        system.submit_script([HostCommand(0x01, (0xF, 0)), HostCommand(0x03, (0xF,))])
        system.run()
        for rpu in system.rpus:
            neighbor = system.clockwise(rpu.id)
            assert rpu.pes[(0, 1)].acc == neighbor.id * 100 + 3

    @staticmethod
    def _stage_config(params):
        # one task stage: pull 8 remote words, then a local compute loop
        return [(0, 1, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                          imm16=params.sm_words, iter_count=8, shared_reg_idx=1),
                        W(opcode=Opcode.HALT)]),
                (1, 1, [W(Opcode.ADD, SrcSel.ACC, SrcSel.IMM, DstSel.ACC,
                          imm16=1, iter_count=40),
                        W(opcode=Opcode.HALT)])]

    def _stage_system(self, mask, launches):
        params = arch(rpus=4)
        system = SystemSim(params)
        system.register_config(0, self._stage_config(params))
        script = []
        for _ in range(launches):
            script.append(HostCommand(0x01, (mask, 0)))
            script.append(HostCommand(0x03, (mask,)))
        system.submit_script(script)
        system.run()
        return system

    def _run_stages(self, mask, launches):
        return self._stage_system(mask, launches).stats.total_cycles

    def test_four_rpu_task_throughput(self):
        """16 stage executions spread over the ring complete in well under
        4x the one-task serial time on a single RPU."""
        serial_one_task = self._run_stages(0x1, 4)     # 4 stages, one RPU
        pipelined = self._run_stages(0xF, 4)           # 4 tasks x 4 stages
        assert pipelined < 4 * serial_one_task
        # steady state: adding tasks costs about one stage latency each
        t5 = self._run_stages(0xF, 5)
        stage = serial_one_task / 4
        assert t5 - pipelined < 2.5 * stage

    def test_rotation_isomorphic_stats(self):
        """A workload symmetric under RPU rotation produces per-RPU counters
        invariant under rotation."""
        params = arch(rpus=4)
        system = SystemSim(params)
        system.register_config(0, self._stage_config(params))
        system.submit_script([HostCommand(0x01, (0xF, 0)), HostCommand(0x03, (0xF,))])
        system.run()
        summaries = []
        for rpu in system.rpus:
            summaries.append((sum(rpu.pai.grant_counts.values()), rpu.dma.toggles,
                              sum(pe.active_cycles for pe in rpu.pes.values())))
        assert len(set(summaries)) == 1

    def _observed(self, run):
        import test_sim_golden
        if run == "pingpong":
            results, stats, _ = test_sim_golden.run_pingpong()
        elif run in ALL_KERNELS:
            results, stats, _ = test_sim_golden.run_kernel(run)
        else:
            if run == "ring":
                system = self._concurrent_ring_system()
            else:
                system = self._stage_system(0xF, run)
            stats = system.stats
            results = {(rpu.id, rc): pe.acc for rpu in system.rpus for rc, pe in rpu.pes.items()}
        return stats.csv_row(), stats.grants_per_lsu, stats.pe_active, results

    @pytest.mark.parametrize("run", [4, 5, "pingpong"])
    def test_rpu_visit_order_does_not_change_a_run(self, run, monkeypatch):
        """A cycle visits the busy RPUs by ascending id; visiting them by
        descending id changes no count and no result, ring reads included."""
        ascending = self._observed(run)
        orders = []

        def descending(self, rpu):
            if rpu not in self._active:
                insort(self._active, rpu, key=lambda r: -r.id)
            orders.append([r.id for r in self._active])

        monkeypatch.setattr(SystemSim, "_activate", descending)
        assert self._observed(run) == ascending
        assert [3, 2, 1, 0] in orders

    @pytest.mark.parametrize("run", ["ring", 4, 5, "pingpong", *sorted(ALL_KERNELS)])
    def test_pe_visit_order_does_not_change_a_run(self, run, monkeypatch):
        """Visiting the awake PEs of each RPU in reverse order, or in a seeded
        shuffle each cycle, changes no count and no result: the awake set is
        reordered before ``tick_pes`` takes the snapshot it ticks."""
        unpermuted = self._observed(run)
        tick_pes = Rpu.tick_pes

        def visiting(order):
            def permuted(self, now):
                pes = list(self.awake)
                self.awake = dict.fromkeys(order(list(pes)))
                reordered.append(list(self.awake) != pes)
                tick_pes(self, now)
            return permuted

        shuffle = random.Random(f"pe-order-{run}").shuffle
        for order in (lambda pes: pes[::-1], lambda pes: shuffle(pes) or pes):
            reordered = []
            monkeypatch.setattr(Rpu, "tick_pes", visiting(order))
            assert self._observed(run) == unpermuted
            assert any(reordered)

    @staticmethod
    def _concurrent_ring_system():
        # three LSUs of RPU 0 read their neighbor's words 3..5 over the ring at once
        params = arch(rpus=2)
        system = SystemSim(params)
        for i in range(8):
            system.rpus[1].sram.data[i] = 100 + i
        system.register_config(0, [
            (0, col, [W(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC,
                        imm16=params.sm_words + 2 + col),
                      W(opcode=Opcode.HALT)])
            for col in (1, 2, 3)])
        load_and_launch(system)
        return system

    def test_concurrent_ring_reads_from_one_rpu(self):
        """Three LSUs of one RPU read over the ring at once: the one ring
        port serves them in turn, each two cycles slower than a local read."""
        system = self._concurrent_ring_system()
        lsus = [system.rpus[0].pes[(0, col)] for col in (1, 2, 3)]
        assert [pe.acc for pe in lsus] == [103, 104, 105]
        assert [pe.active_cycles for pe in lsus] == [4, 5, 6]
        assert system.stats.total_cycles == 11


class TestSharedRegsInSystem:
    def test_cross_array_delivery_between_schedules(self):
        """A value written to a global shared register by one PE is picked
        up by a distant PE; the reader stalls until the write commits."""
        params = arch()
        system = SystemSim(params)
        writer = [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.SREG,
                    imm16=77, shared_reg_idx=2),
                  W(opcode=Opcode.HALT)]
        reader = [W(Opcode.ADD, SrcSel.SREG, SrcSel.IMM, DstSel.ACC,
                    imm16=1, shared_reg_idx=2),
                  W(opcode=Opcode.HALT)]
        system.register_config(0, [(1, 1, writer), (6, 6, reader)])
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        system.run()
        assert system.rpus[0].pes[(6, 6)].acc == 78

    @pytest.mark.parametrize("k", range(6))
    def test_second_write_in_a_launch_faults_wherever_the_reader_reads(self, k):
        """A shared register is written once per launch: a second write to it
        is a machine fault, so what the reader sees never depends on when it
        reads. The run still finalises its stats."""
        system = SystemSim(standard_preset())
        system.register_config(0, sreg_rewrite_records(k))
        system.submit_script([HostCommand(0x01, (0x1, 0)), HostCommand(0x03, (0x1,))])
        with pytest.raises(SimulationError, match=SREG_REWRITE_FAULT):
            system.run()
        assert system.stats.total_cycles > 0 and system.stats.sreg_conflicts == 0


SREG_REWRITE_FAULT = (r"^PE \(2, 2\) writes shared register 2 \(scope 0\), "
                      r"already written in this launch$")


def sreg_rewrite_records(k):
    """PE (2,2) writes shared register 2 with 77 and then with 88; PE (5,5)
    reads it into ACC after k NOPs, a time at which, were registers
    rewritable, it would read one value for k <= 2 and the other for k >= 3."""
    writer = [W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.SREG, imm16=v, shared_reg_idx=2)
              for v in (77, 88)]
    reader = [W(opcode=Opcode.NOP)] * k + [
        W(Opcode.ADD, SrcSel.SREG, SrcSel.NONE, DstSel.ACC, shared_reg_idx=2)]
    return [(2, 2, writer + [W(opcode=Opcode.HALT)]), (5, 5, reader + [W(opcode=Opcode.HALT)])]


class TestVecadd64:
    def test_vector_add_over_64_elements(self):
        from windmill.mapper import emit_bitstream, map_dfg
        text, n_in, base, n = vecadd(64)
        params = arch(context_depth_mcmd=32)
        records = unpack_bitstream(emit_bitstream(map_dfg(parse_dfg(text), params)))
        rng = random.Random(64)
        image = [rng.getrandbits(32) for _ in range(base)] + [0] * n
        system = SystemSim(params)
        results, _ = run_protocol(system, records, image, base, n)
        assert results == [(image[i] + image[64 + i]) & 0xFFFFFFFF
                           for i in range(64)]


def load_and_launch(system, mask=0x1):
    system.submit_script([HostCommand(0x01, (mask, 0)), HostCommand(0x03, (mask,))])
    system.run()


class TestConfigMemo:
    """A config is validated once per machine and content, and every PE it
    configures, on any system of that machine, holds one shared code tuple."""

    ADD = W(Opcode.ADD, SrcSel.IMM, SrcSel.NONE, DstSel.ACC, imm16=11)
    HALT = W(opcode=Opcode.HALT)

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        _loadable.cache_clear()

    @pytest.fixture()
    def validations(self, monkeypatch):
        """The machines ``validate_bitstream`` is called with, in order."""
        import windmill.system as system_mod
        calls = []
        real = system_mod.validate_bitstream

        def counting(machine, records):
            calls.append(machine)
            return real(machine, records)

        monkeypatch.setattr(system_mod, "validate_bitstream", counting)
        return calls

    def test_equal_config_on_a_fresh_system_validates_nothing_again(self, validations):
        params = arch(rpus=2)
        words = [self.ADD, self.HALT]
        int_twin = [W(*map(int, w)) for w in words]
        systems = []
        for twin in (words, list(words), int_twin):
            system = SystemSim(params)
            system.register_config(0, [(2, 2, twin), (5, 5, twin)])
            load_and_launch(system, 0x3)
            systems.append(system)
        assert validations == [systems[0].machine]
        for coord in ((2, 2), (5, 5)):
            pes = [rpu.pes[coord] for system in systems for rpu in system.rpus]
            assert all(pe._code is pes[0]._code for pe in pes)
            assert [pe.acc for pe in pes] == [11] * 6
            assert pes[0].context == words
        # an equal machine built again is another machine
        SystemSim(read_machine(elaborate_arch(params))).register_config(0, [(2, 2, words)])
        assert len(validations) == 2

    def test_invalid_config_raises_at_every_registration(self, validations):
        params = arch()
        for _ in range(3):
            system = SystemSim(params)
            with pytest.raises(BitstreamTargetInvalid, match=r"^PE \(1,2\) word 0: LOAD on a GPE$"):
                system.register_config(0, [(1, 2, [W(opcode=Opcode.LOAD)])])
            assert 0 not in system.configs
        assert len(validations) == 3

    @pytest.mark.parametrize("word, legal, illegal, problem", [
        (W(Opcode.ROUTE, SrcSel.N2, SrcSel.NONE, DstSel.ACC),
         {"topology": TopologyKind.ONE_HOP}, {}, "reads N2, but the machine has no N2 link"),
        (W(Opcode.ADD, SrcSel.SREG, SrcSel.IMM, DstSel.ACC, shared_reg_idx=5),
         {"shared_reg_count": 8}, {"shared_reg_count": 4}, "shared register 5 (count 4)"),
    ], ids=["directional-read", "shared-register"])
    def test_word_legal_on_one_machine_is_checked_on_another(self, word, legal, illegal,
                                                              problem):
        records = [(3, 3, [word, self.HALT])]
        SystemSim(arch(**legal)).register_config(0, records)
        system = SystemSim(arch(**illegal))
        with pytest.raises(BitstreamTargetInvalid) as exc:
            system.register_config(0, records)
        assert str(exc.value) == f"PE (3,3) word 0: {problem}"

    def test_records_mutated_after_registration_do_not_change_what_loads(self):
        words = [self.ADD, self.HALT]
        records = [(2, 2, words)]
        system = SystemSim(arch())
        system.register_config(0, records)
        words[0] = W(opcode=Opcode.LOAD)   # illegal on the GPE, and never validated
        records.append((3, 3, [self.ADD]))
        load_and_launch(system)
        pes = system.rpus[0].pes
        assert pes[(2, 2)].context == [self.ADD, self.HALT] and pes[(2, 2)].acc == 11
        assert pes[(3, 3)].context == [] and pes[(3, 3)].acc == 0

    def test_memo_is_bounded(self):
        system = SystemSim(arch())
        for k in range(20):
            system.register_config(k, [(2, 2, [self.ADD._replace(imm16=k)])])
        info = _loadable.cache_info()
        assert info.maxsize == 16 and info.currsize == 16
        assert len(system.configs) == 20   # a system keeps what it registered

    def test_nine_configs_cycled_over_fresh_systems_validate_once_each(self, validations):
        """The ``stream_ring`` bench traffic: one machine cycles nine configs,
        each registered on a fresh system."""
        params = arch()
        configs = [[(2, 2, [self.ADD._replace(imm16=k), self.HALT])] for k in range(9)]
        for _ in range(2):
            for records in configs:
                SystemSim(params).register_config(0, records)
        assert len(validations) == 9


class TestFastForwardProbe:
    """``run`` asks for DMA-only cycles to stream only while no RPU runs."""

    def test_every_ticked_cycle_is_one_the_fast_forward_would_tick(self, monkeypatch):
        """Each ticked cycle is checked against the probe, so a run skips no
        cycle the fast-forward would stream, and the probe runs far less often
        than the cycles tick."""
        import test_sim_golden
        from test_fast_forward import ring_run
        probe, tick = SystemSim._dma_only_cycles, SystemSim.tick
        counts = {"ticks": 0, "probes": 0}

        def checked_tick(self):
            assert probe(self) == 0
            counts["ticks"] += 1
            return tick(self)

        def counted_probe(self):
            counts["probes"] += 1
            return probe(self)

        monkeypatch.setattr(SystemSim, "tick", checked_tick)
        monkeypatch.setattr(SystemSim, "_dma_only_cycles", counted_probe)
        for name in sorted(ALL_KERNELS):
            text, _, base, n = ALL_KERNELS[name]()
            params = test_sim_golden.standard_arch(context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])
            dfg = parse_dfg(text)
            records = unpack_bitstream(emit_bitstream(map_dfg(dfg, params)))
            image = list(range(base)) + [0] * n
            results, _ = run_protocol(SystemSim(params), records, image, base, n)
            assert results == reference_execute(dfg, image)[base:base + n]
        results, _, want = test_sim_golden.run_pingpong()
        assert results == want
        ring_run(False)
        # a short phase ends while a long streamed batch still runs: the cycle
        # after it is the first the fast-forward may take
        system = SystemSim(arch(), list(range(400)))
        system.register_config(0, [(2, 2, [W(opcode=Opcode.HALT)])])
        system.submit_script([HostCommand(0x02, (0x1, 0, 0, 4, 1)),
                              HostCommand(0x02, (0x1, 4, 0, 300, 0))])
        load_and_launch(system)
        assert system.rpus[0].sram.data[2048 + 299] == 303   # the DMA half
        assert counts["probes"] * 4 < counts["ticks"]


class TestRemoteWindow:
    @pytest.mark.parametrize("word, message", [
        (W(Opcode.STORE, SrcSel.IMM, SrcSel.NONE, DstSel.NONE, imm16=4096),
         "remote window is read-only (addr 4096)"),
        (W(Opcode.STORE, SrcSel.IMM, SrcSel.NONE, DstSel.NONE, imm16=6144),
         "remote address 2048 outside half space"),
        # a dynamic address: IMM 0xFFFF sign-extends to 0xFFFFFFFF
        (W(Opcode.STORE, SrcSel.IMM, SrcSel.IMM, DstSel.NONE, imm16=0xFFFF),
         "remote address 4294963199 outside half space"),
    ], ids=["in-the-window", "past-the-window", "far-past-the-window"])
    def test_store_past_the_window_names_the_range(self, word, message):
        """The scratchpad holds 4096 words, 2048 per half: addresses
        4096..6143 are the clockwise neighbour's read-only array half."""
        system = SystemSim(arch(rpus=2))
        assert system.params.sm_words == 4096
        system.register_config(0, [(0, 1, [word])])   # (0, 1) is an LSU
        with pytest.raises(AddressOutOfRange) as exc:
            load_and_launch(system)
        assert str(exc.value) == message
        assert system.stats.total_cycles > 0

"""Command-line contract: exit codes, file outputs, reproducibility."""

import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from windmill.pe import ConfigWord, DstSel, Opcode, SrcSel, pack_bitstream

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def windmill(*args, cwd=None, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "windmill.cli", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=env)


def write_image(path, words):
    path.write_bytes(struct.pack(f"<{len(words)}I", *[w & 0xFFFFFFFF for w in words]))


def read_image(path):
    blob = path.read_bytes()
    return list(struct.unpack(f"<{len(blob) // 4}I", blob))


@pytest.fixture()
def std_arch(tmp_path):
    p = tmp_path / "std.arch"
    p.write_text((FIXTURES / "standard.arch").read_text())
    return p


@pytest.fixture()
def halt_bit(tmp_path):
    """A bitstream whose one PE halts at once."""
    from windmill.pe import ConfigWord, Opcode, pack_bitstream
    p = tmp_path / "halt.bit"
    p.write_bytes(pack_bitstream([(1, 2, [ConfigWord(opcode=Opcode.HALT)])]))
    return p


class TestGenerate:
    def test_standard_report(self, std_arch, tmp_path):
        out = tmp_path / "report.csv"
        r = windmill("generate", "--arch", std_arch, "--out", out)
        assert r.returncode == 0
        assert "28 LSU" in r.stdout and "16 banks" in r.stdout
        rows = out.read_text().splitlines()
        assert len(rows) == 2
        header, data = rows[0].split(","), rows[1].split(",")
        record = dict(zip(header, data))
        assert record["lsu_count"] == "28"
        assert record["sm_banks"] == "16"
        assert record["bank_depth"] == "256"
        assert record["bank_width"] == "32"

    def test_cpe_off_detaches(self, std_arch, tmp_path):
        text = std_arch.read_text().replace("cpe = on", "cpe = off")
        arch2 = tmp_path / "nocpe.arch"
        arch2.write_text(text)
        out = tmp_path / "r.csv"
        r = windmill("generate", "--arch", arch2, "--out", out)
        assert r.returncode == 0
        record = dict(zip(*[ln.split(",") for ln in out.read_text().splitlines()]))
        assert record["cpe_count"] == "0"
        assert record["gpe_count"] == "36"

    def test_malformed_arch_exit_2(self, tmp_path):
        bad = tmp_path / "bad.arch"
        bad.write_text("[array]\nrows = banana\n")
        r = windmill("generate", "--arch", bad)
        assert r.returncode == 2
        assert "error" in r.stderr

    def test_sweep_rows(self, std_arch, tmp_path):
        out = tmp_path / "sweep.csv"
        r = windmill("generate", "--arch", std_arch, "--sweep", "rows=4,8",
                     "--sweep", "cols=4,8", "--out", out)
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2x2 grid of configurations
        assert lines[1].startswith("4,4,")
        assert lines[4].startswith("8,8,")

    @pytest.mark.parametrize("spec, value", [
        ("rows=abc", "'abc'"), ("rows=", "''"), ("cols=4,x", "'x'"),
        ("topology=bogus", "'bogus'")])
    def test_bad_sweep_value_exit_2(self, std_arch, capsys, spec, value):
        from windmill.cli import main
        assert main(["generate", "--arch", str(std_arch), "--sweep", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --sweep {spec.partition('=')[0]}: bad value {value}\n"

    @pytest.mark.parametrize("edits, message", [
        ({"bank_depth = 256": "bank_depth = 3"},
         "bank_depth: must be a power of two >= 2 (ping-pong halves split on the top "
         "row-address bit)"),
        ({"bank_width = 32": "bank_width = 16"}, "bank_width: 16 != data_width 32"),
        ({"bank_width = 32": "bank_width = 16", "data_width = 32": "data_width = 16"},
         "data_width: only 32-bit datapaths are supported"),
        ({"context_depth_mcmd = 16": "context_depth_mcmd = 0"},
         "context_depth_mcmd: must be >= 1"),
        ({"shared_reg_count = 4": "shared_reg_count = 17"},
         "shared_reg_count: must be in 1..16 (4-bit register index)"),
        ({"shared_reg_count = 4": "shared_reg_count = 0"},
         "shared_reg_count: must be in 1..16 (4-bit register index)"),
        ({"rpu_count = 4": "rpu_count = 0"}, "rpu_count: must be >= 1"),
    ], ids=["bank_depth", "bank_width", "data_width", "context_depth_mcmd",
            "shared_reg_count-high", "shared_reg_count-zero", "rpu_count"])
    def test_out_of_range_parameter_exit_2(self, std_arch, capsys, edits, message):
        from windmill.cli import main
        text = std_arch.read_text()
        for old, new in edits.items():
            text = text.replace(old, new)
        std_arch.write_text(text)
        assert main(["generate", "--arch", str(std_arch)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_unsweepable_key_exit_2(self, std_arch, capsys):
        from windmill.cli import main
        assert main(["generate", "--arch", str(std_arch), "--sweep", "Voltage=1,2"]) == 2
        assert capsys.readouterr() == ("", "error: --sweep key 'voltage' not sweepable\n")

    @pytest.mark.parametrize("sweep", [False, True], ids=["file", "sweep"])
    def test_huge_grid_refused_before_its_type_map(self, std_arch, tmp_path, capsys, sweep):
        """A 30000 x 30000 grid with no type map exits 2 with validate's size
        message before a map of its 9e8 cells is built."""
        import time
        from windmill.cli import main
        huge = tmp_path / "huge.arch"
        huge.write_text("[array]\nrows=30000\ncols=30000\n")
        assert huge.stat().st_size == 30
        argv = (["--arch", str(std_arch), "--sweep", "rows=30000"] if sweep
                else ["--arch", str(huge)])
        start = time.perf_counter()
        assert main(["generate", *argv]) == 2
        assert time.perf_counter() - start < 1.0
        size = "must be in 2..256 (8-bit bitstream header field)"
        message = f"rows: {size}" + ("" if sweep else f"; cols: {size}")
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_timestamps_line_leads_the_report(self, std_arch, capsys):
        from windmill.cli import main
        assert main(["generate", "--arch", str(std_arch), "--timestamps"]) == 0
        first, second = capsys.readouterr().out.splitlines()[:2]
        assert re.fullmatch(r"# generated at \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", first)
        assert second == "array: 8x8 (mesh2d, mcmd)"

    def test_log_env_controls_verbosity(self, std_arch):
        quiet = windmill("generate", "--arch", std_arch)
        loud = windmill("generate", "--arch", std_arch,
                        env_extra={"WINDMILL_LOG": "INFO"})
        assert "elaborated" not in quiet.stderr
        assert "elaborated" in loud.stderr


class TestMap:
    def test_map_vecadd(self, std_arch, tmp_path):
        bs = tmp_path / "v.bit"
        r = windmill("map", "--arch", std_arch, "--dfg",
                     FIXTURES / "vecadd16.dfg", "--out", bs)
        assert r.returncode == 0
        assert bs.stat().st_size > 0
        lsus = int(r.stdout.split("lsus used:")[1].split()[0])
        assert lsus >= 1

    def test_map_idempotent_bytes(self, std_arch, tmp_path):
        a, b = tmp_path / "a.bit", tmp_path / "b.bit"
        windmill("map", "--arch", std_arch, "--dfg", FIXTURES / "vecadd16.dfg",
                 "--out", a)
        windmill("map", "--arch", std_arch, "--dfg", FIXTURES / "vecadd16.dfg",
                 "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_in_process_map_reads_the_rewritten_arch(self, std_arch, tmp_path, capsys):
        """Two in-process maps of one arch path, rewritten in between: the
        second maps the new description, though the first one's parse is
        kept for its text."""
        from windmill.arch import parse_arch_file
        from windmill.cli import main
        from windmill.mapper import emit_bitstream, map_dfg, parse_dfg
        dfg = FIXTURES / "vecadd16.dfg"
        mesh, torus = tmp_path / "mesh.bit", tmp_path / "torus.bit"
        assert main(["map", "--arch", str(std_arch), "--dfg", str(dfg), "--out", str(mesh)]) == 0
        text = std_arch.read_text().replace("topology = mesh2d", "topology = torus")
        std_arch.write_text(text)
        assert main(["map", "--arch", str(std_arch), "--dfg", str(dfg), "--out", str(torus)]) == 0
        want = emit_bitstream(map_dfg(parse_dfg(dfg.read_text()), parse_arch_file(text)))
        assert torus.read_bytes() == want != mesh.read_bytes()

    def test_unmappable_exit_3(self, tmp_path):
        tiny = tmp_path / "tiny.arch"
        tiny.write_text("[array]\nrows = 2\ncols = 2\nGL\nLG\n"
                        "[memory]\nsm_banks = 4\nbank_depth = 16\n"
                        "[system]\ncpe = off\n")
        r = windmill("map", "--arch", tiny, "--dfg", FIXTURES / "matmul4.dfg",
                     "--out", tmp_path / "x.bit")
        assert r.returncode == 3

    def test_racing_memory_ops_exit_3(self, std_arch, tmp_path):
        """A load whose address arrives late and a store to the word it
        reads: one error line naming both, and no bitstream."""
        dfg, out = tmp_path / "race.dfg", tmp_path / "x.bit"
        dfg.write_text("in a 0\nin i 1\nv0 add a a\nz0 sub a a\nw0 add i z0\n"
                       "w1 add w0 z0\nw2 add w1 z0\nx load w2\nst store i v0\nout x 8\n")
        r = windmill("map", "--arch", std_arch, "--dfg", dfg, "--out", out)
        assert r.returncode == 3
        assert r.stderr == ("error: memory ops x and st may touch one word in an order "
                            "the machine does not keep\n")
        assert not out.exists()

    def test_bad_dfg_exit_2(self, std_arch, tmp_path):
        dfg = tmp_path / "bad.dfg"
        dfg.write_text("z add x y\n")
        r = windmill("map", "--arch", std_arch, "--dfg", dfg,
                     "--out", tmp_path / "x.bit")
        assert r.returncode == 2

    def test_negative_address_exit_2(self, std_arch, tmp_path):
        dfg = tmp_path / "neg.dfg"
        dfg.write_text("in a 0\nin b 1\nc add a b\nout c -1\n")
        r = windmill("map", "--arch", std_arch, "--dfg", dfg, "--out", tmp_path / "x.bit")
        assert r.returncode == 2
        assert "line 4: negative address -1" in r.stderr

    def test_reserved_looking_id_exit_2(self, std_arch, tmp_path):
        """``$out0`` is outside the identifier grammar (and is a name the
        mapper gives its own nodes): a parse error naming the line."""
        dfg = tmp_path / "dollar.dfg"
        dfg.write_text("in a 0\nin b 1\nout a 2\n$out0 sub a b\nq mul $out0 b\nout q 3\n")
        out = tmp_path / "x.bit"
        r = windmill("map", "--arch", std_arch, "--dfg", dfg, "--out", out)
        assert r.returncode == 2
        assert "line 4: bad identifier '$out0'" in r.stderr
        assert not out.exists()


class TestSim:
    def run_vecadd(self, std_arch, tmp_path, tag=""):
        bs = tmp_path / f"v{tag}.bit"
        windmill("map", "--arch", std_arch, "--dfg", FIXTURES / "vecadd16.dfg",
                 "--out", bs)
        image = tmp_path / f"in{tag}.bin"
        write_image(image, list(range(1, 33)) + [0] * 16)
        out = tmp_path / f"out{tag}.bin"
        stats = tmp_path / f"stats{tag}.csv"
        r = windmill("sim", "--arch", std_arch, "--bitstream", bs, "--data", image,
                     "--out", out, "--stats", stats,
                     "--result-addr", 32, "--result-len", 16)
        return r, out, stats

    def test_vecadd_results(self, std_arch, tmp_path):
        r, out, stats = self.run_vecadd(std_arch, tmp_path)
        assert r.returncode == 0
        assert read_image(out) == [(a + b) for a, b in
                                   zip(range(1, 17), range(17, 33))]
        lines = stats.read_text().splitlines()
        assert lines[0].startswith("total_cycles,")
        assert len(lines) == 2

    def test_identical_runs_identical_bytes(self, std_arch, tmp_path):
        r1, out1, stats1 = self.run_vecadd(std_arch, tmp_path, "a")
        r2, out2, stats2 = self.run_vecadd(std_arch, tmp_path, "b")
        assert out1.read_bytes() == out2.read_bytes()
        assert stats1.read_text() == stats2.read_text()

    def test_cycle_limit_exit_4_with_partial_stats(self, std_arch, tmp_path):
        import windmill.pe as pe
        from windmill.pe import ConfigWord, Opcode, SrcSel, DstSel, pack_bitstream
        bs = tmp_path / "stuck.bit"
        starving = ConfigWord(Opcode.ADD, SrcSel.W, SrcSel.IMM, DstSel.ACC)
        bs.write_bytes(pack_bitstream([(1, 2, [starving])]))
        stats = tmp_path / "stats.csv"
        image = tmp_path / "in.bin"
        write_image(image, [0] * 8)
        r = windmill("sim", "--arch", std_arch, "--bitstream", bs, "--data", image,
                     "--stats", stats, "--cycle-limit", 500)
        assert r.returncode == 4
        assert stats.exists() and len(stats.read_text().splitlines()) == 2

    def test_deadlock_exit_4_names_the_waits(self, std_arch, tmp_path):
        from windmill.pe import ConfigWord, Opcode, SrcSel, DstSel, pack_bitstream
        bs = tmp_path / "mutual.bit"
        bs.write_bytes(pack_bitstream([
            (3, 3, [ConfigWord(Opcode.ADD, SrcSel.E, SrcSel.IMM, DstSel.E)]),
            (3, 4, [ConfigWord(Opcode.ADD, SrcSel.W, SrcSel.IMM, DstSel.W)])]))
        stats = tmp_path / "stats.csv"
        r = windmill("sim", "--arch", std_arch, "--bitstream", bs, "--stats", stats)
        assert r.returncode == 4
        assert "deadlock" in r.stderr
        assert "PE (3, 3) lacks latch E" in r.stderr and "PE (3, 4) lacks latch W" in r.stderr
        header, row = stats.read_text().splitlines()
        assert 0 < int(row.split(",")[0]) <= 20

    def test_directory_as_input_file_exit_2(self, std_arch, tmp_path, capsys):
        """An input path that cannot be read, here a directory, is an input
        error reported on one line, not a traceback."""
        from windmill.cli import main
        assert main(["sim", "--arch", str(std_arch), "--bitstream", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_shared_register_index_rejected_before_the_run(self, std_arch, tmp_path):
        """standard.arch has 4 shared registers: reading SREG 7 is an input
        error (exit 2) found at registration, so no cycle runs and no stats
        are written."""
        from windmill.pe import ConfigWord, Opcode, SrcSel, DstSel, pack_bitstream
        bs = tmp_path / "sreg7.bit"
        word = ConfigWord(Opcode.ADD, SrcSel.SREG, SrcSel.IMM, DstSel.ACC, shared_reg_idx=7)
        bs.write_bytes(pack_bitstream([(2, 2, [word])]))
        stats = tmp_path / "stats.csv"
        r = windmill("sim", "--arch", std_arch, "--bitstream", bs, "--stats", stats)
        assert r.returncode == 2
        assert "PE (2,2)" in r.stderr and "shared register 7" in r.stderr
        assert not stats.exists()

    def test_undefined_opcode_rejected_before_the_run(self, std_arch, tmp_path):
        """Opcode 11 is undefined: a bitstream carrying it is an input error
        (exit 2), so no cycle runs and no stats are written."""
        bs = tmp_path / "op11.bit"
        bs.write_bytes(struct.pack("<IQ", (2 << 24) | (2 << 16) | 1, 11 << 59))
        stats = tmp_path / "stats.csv"
        r = windmill("sim", "--arch", std_arch, "--bitstream", bs, "--stats", stats)
        assert r.returncode == 2
        assert "opcode=11 is undefined" in r.stderr
        assert not stats.exists()

    def test_context_over_capacity_rejected_before_the_run(self, std_arch, tmp_path, capsys):
        """standard.arch holds 16 words per PE: a 17-word record is an input
        error (exit 2) naming the PE, and no stats are written."""
        from windmill.cli import main
        from windmill.pe import ConfigWord, pack_bitstream
        bs = tmp_path / "long.bit"
        bs.write_bytes(pack_bitstream([(2, 2, [ConfigWord()] * 17)]))
        stats = tmp_path / "stats.csv"
        assert main(["sim", "--arch", str(std_arch), "--bitstream", str(bs),
                     "--stats", str(stats)]) == 2
        assert capsys.readouterr().err == "error: PE (2,2): 17 words > capacity 16\n"
        assert not stats.exists()

    def test_scmd_word_checked_on_every_pe_of_its_row(self, std_arch, tmp_path, capsys):
        """Under SCMD a record configures its whole row, so a LOAD in an LSU's
        record also lands on the GPE beside it: an input error (exit 2)."""
        from windmill.cli import main
        from windmill.pe import ConfigWord, Opcode, SrcSel, DstSel, pack_bitstream
        std_arch.write_text(std_arch.read_text().replace("exec_mode = mcmd", "exec_mode = scmd"))
        load = ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, imm16=5)
        bs = tmp_path / "scmd.bit"
        bs.write_bytes(pack_bitstream([(2, 0, [load, ConfigWord(opcode=Opcode.HALT)])]))
        assert main(["sim", "--arch", str(std_arch), "--bitstream", str(bs)]) == 2
        assert capsys.readouterr().err == "error: PE (2,1) word 0: LOAD on a GPE\n"

    def test_unaligned_image_exit_2(self, std_arch, halt_bit, tmp_path, capsys):
        from windmill.cli import main
        data = tmp_path / "odd.bin"
        data.write_bytes(bytes(5))
        stats = tmp_path / "stats.csv"
        assert main(["sim", "--arch", str(std_arch), "--bitstream", str(halt_bit),
                     "--data", str(data), "--stats", str(stats)]) == 2
        assert capsys.readouterr().err == f"error: {data}: image length 5 is not word aligned\n"
        assert not stats.exists()

    @pytest.mark.parametrize("word, message", [
        # stride -1 (stride table entry 14) from base 0: the second iteration
        (ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, imm16=0,
                    iter_count=2, shared_reg_idx=14), "negative generated address -1"),
        (ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, imm16=2048),
         "PE address 2048 outside the half space (2048 words)"),
        (ConfigWord(Opcode.STORE, SrcSel.IMM, SrcSel.NONE, DstSel.NONE, imm16=4096),
         "remote window is read-only (addr 4096)"),
    ], ids=["negative", "past-the-half", "remote-store"])
    def test_generated_address_fault_exit_4_with_partial_stats(self, std_arch, tmp_path,
                                                               capsys, word, message):
        """standard.arch's scratchpad holds 4096 words, 2048 per half; an
        address at 4096 or above reads the clockwise neighbour's."""
        from windmill.cli import main
        bs = tmp_path / "fault.bit"
        bs.write_bytes(pack_bitstream([(0, 3, [word])]))   # (0, 3) is an LSU
        stats = tmp_path / "stats.csv"
        assert main(["sim", "--arch", str(std_arch), "--bitstream", str(bs),
                     "--stats", str(stats)]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        header, row = stats.read_text().splitlines()
        assert header.startswith("total_cycles,") and int(row.split(",")[0]) > 0

    @pytest.mark.parametrize("k", range(6))
    def test_shared_register_rewrite_exit_4_with_partial_stats(self, std_arch, tmp_path,
                                                               capsys, k):
        """A second write to a shared register in one launch is a machine
        fault, however long the reader waits before it reads."""
        from windmill.cli import main
        from test_system import SREG_REWRITE_FAULT, sreg_rewrite_records
        bs = tmp_path / "rewrite.bit"
        bs.write_bytes(pack_bitstream(sreg_rewrite_records(k)))
        stats = tmp_path / "stats.csv"
        assert main(["sim", "--arch", str(std_arch), "--bitstream", str(bs),
                     "--stats", str(stats)]) == 4
        message = capsys.readouterr().err
        assert message.startswith("error: ") and re.match(SREG_REWRITE_FAULT, message[7:-1])
        header, row = stats.read_text().splitlines()
        assert header.startswith("total_cycles,") and int(row.split(",")[0]) > 0

    def test_launch_waits_for_every_staging_batch(self, std_arch, tmp_path, capsys):
        """The launch waits for both staging batches, so the LSU at (0, 3)
        reads the array's half only once the DMA is done with it, and the
        read-back holds the words of both."""
        from windmill.cli import main
        load = ConfigWord(Opcode.LOAD, SrcSel.NONE, SrcSel.NONE, DstSel.ACC, iter_count=8)
        bs = tmp_path / "load.bit"
        bs.write_bytes(pack_bitstream([(0, 3, [load, ConfigWord(opcode=Opcode.HALT)])]))
        data = tmp_path / "in.bin"
        write_image(data, list(range(64)))
        script = tmp_path / "stage2.script"
        # ext 0..3 to sm 0..3, then ext 0..19 to sm 10..29; read sm 0..29 back
        script.write_text("01 1 0\n02 1 0 0 4 1\n02 1 0 a 14 1\n03 1\n04 1 0 0 1e\n")
        out = tmp_path / "out.bin"
        assert main(["sim", "--arch", str(std_arch), "--bitstream", str(bs), "--data", str(data),
                     "--script", str(script), "--out", str(out), "--result-len", "30"]) == 0
        assert capsys.readouterr().err == ""
        assert read_image(out) == [0, 1, 2, 3] + [0] * 6 + list(range(20))

    def test_runtime_address_fault_exit_4_with_partial_stats(self, std_arch, tmp_path):
        """A load from an address past the remote window maps fine and then
        faults in the simulator: exit 4, partial stats still written."""
        dfg = tmp_path / "far.dfg"
        dfg.write_text("c const 70000\nx load c\nout x 1\n")
        bs = tmp_path / "far.bit"
        assert windmill("map", "--arch", std_arch, "--dfg", dfg, "--out", bs).returncode == 0
        stats = tmp_path / "stats.csv"
        r = windmill("sim", "--arch", std_arch, "--bitstream", bs, "--stats", stats)
        assert r.returncode == 4
        assert "outside half space" in r.stderr
        header, row = stats.read_text().splitlines()
        assert header.startswith("total_cycles,") and int(row.split(",")[0]) > 0

    @pytest.mark.parametrize("imm16, script, message", [
        (0x2005, "01 1 0\n03 1\n", "controller descriptor 5 not in manifest"),
        (0x1007, "01 1 0\n03 1\n", "config 7 never registered"),
        (None, "01 1 0\n03 1\n03 1\n", "rpu 0: launch from 'done', expected configured"),
        (None, "01 1 0\n03\n", "command 0x03 missing the RPU mask"),
        # 0x7f8 = 2040: 16 words from there cross the end of the 2048-word half
        (None, "01 1 0\n03 1\n04 1 7f8 0 10\n", "results region 2040+16 outside half space"),
        # 0x7fc = 2044: 8 words from there would wrap into the half's first words
        (None, "01 1 0\n02 1 0 7fc 8 1\n03 1\n", "data region 2044+8 outside half space"),
        # phase 2's streamed batch queued behind launch 1, so after phase 1's flip
        (None, "01 1 0\n02 1 0 0 4 1\n03 1\n02 1 8 0 4 0\n01 1 0\n03 1\n04 1 10 0 1\n",
         "rpu 0: late streamed batch (ext 8, sm 0, len 4): the flip that hands its half "
         "to phase 2 is already requested"),
        # phase 1's store, queued behind the streamed batch that refills its half
        (None, "01 1 0\n02 1 0 0 1 1\n02 1 40 0 10 0\n02 1 80 0 20 0\n03 1\n04 1 10 0 1\n",
         "rpu 0: results region 16+1 of phase 1 overlaps streamed batch (ext 128, sm 0, "
         "len 32), queued ahead of the store to refill that half"),
        # three streamed batches and one launch: the third waits for flip 2
        (None, "01 1 0\n02 1 0 0 4 1\n02 1 8 0 4 0\n02 1 16 0 4 0\n02 1 24 0 4 0\n03 1\n"
         "04 1 16 0 1\n",
         "rpu 0: streamed batch (ext 36, sm 0, len 4) waits for flip 2, but no phase is left "
         "to request it"),
    ], ids=["descriptor-past-manifest", "unregistered-config", "launch-from-done",
            "missing-rpu-mask", "results-past-the-half", "data-past-the-half",
            "late-streamed-batch", "store-over-a-queued-refill",
            "streamed-batch-past-the-last-flip"])
    def test_protocol_fault_mid_run_exit_4_with_partial_stats(self, std_arch, tmp_path,
                                                              imm16, script, message):
        """A protocol fault met after cycles have run is a run-time fault:
        exit 4, the message, and the stats of the cycles run so far. The
        controller word at (1, 1) emits one RTT action; without it, the PE at
        (1, 2) halts at once."""
        from windmill.pe import ConfigWord, DstSel, Opcode, SrcSel, pack_bitstream
        if imm16 is None:
            records = [(1, 2, [ConfigWord(opcode=Opcode.HALT)])]
        else:
            records = [(1, 1, [ConfigWord(Opcode.ROUTE, SrcSel.IMM, SrcSel.NONE, DstSel.RTT,
                                          imm16=imm16)])]
        bs = tmp_path / "fault.bit"
        bs.write_bytes(pack_bitstream(records))
        path = tmp_path / "fault.script"
        path.write_text(script)
        stats = tmp_path / "stats.csv"
        r = windmill("sim", "--arch", std_arch, "--bitstream", bs, "--script", path,
                     "--stats", stats)
        assert r.returncode == 4
        assert r.stderr == f"error: {message}\n"
        header, row = stats.read_text().splitlines()
        assert header.startswith("total_cycles,") and int(row.split(",")[0]) > 0

    def test_tightest_cycle_limit_outlasting_a_batch(self, std_arch, halt_bit, tmp_path, capsys):
        """A 64-word staging batch, then a 3-cycle phase: at --cycle-limit 3
        the run streams its whole batch and ends with the default limit's
        results and stats row. At 2 the phase itself overruns."""
        from windmill.cli import main
        image, script = tmp_path / "in.bin", tmp_path / "batch.script"
        write_image(image, list(range(200)))
        script.write_text("01 1 0\n02 1 0 0 40 1\n03 1\n04 1 0 0 4\n")

        def sim(*limit):
            out, stats = tmp_path / "out.bin", tmp_path / "stats.csv"
            rc = main(["sim", "--arch", str(std_arch), "--bitstream", str(halt_bit),
                       "--data", str(image), "--script", str(script), "--out", str(out),
                       "--stats", str(stats), "--result-len", "4", *limit])
            return rc, read_image(out), stats.read_text()

        default = sim()
        assert default[:2] == (0, [0, 1, 2, 3])
        assert sim("--cycle-limit", "3") == default
        assert sim("--cycle-limit", "2")[0] == 4
        assert capsys.readouterr().err == "error: rpu 0: no completion within 2 cycles\n"

    def test_in_process_sim_closes_its_files(self, std_arch, tmp_path):
        import gc
        import warnings
        from windmill.cli import main
        from windmill.pe import ConfigWord, Opcode, pack_bitstream
        bs = tmp_path / "halt.bit"
        bs.write_bytes(pack_bitstream([(1, 2, [ConfigWord(opcode=Opcode.HALT)])]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            rc = main(["sim", "--arch", str(std_arch), "--bitstream", str(bs),
                       "--stats", str(tmp_path / "stats.csv")])
            gc.collect()
        assert rc == 0
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_in_process_calls_see_only_their_own_arguments(self, std_arch, tmp_path,
                                                           monkeypatch, capsys):
        """The parser is built once per process; map, sim, map in one
        process each get a namespace of their own arguments and defaults."""
        from windmill import cli
        seen = []
        for name in ("cmd_map", "cmd_sim"):
            real = getattr(cli, name)

            def record(args, real=real):
                seen.append(vars(args).copy())
                return real(args)

            monkeypatch.setattr(cli, name, record)
        bs = tmp_path / "v.bit"
        map_argv = ["map", "--arch", str(std_arch), "--dfg",
                    str(FIXTURES / "vecadd16.dfg"), "--out", str(bs)]
        stats = tmp_path / "stats.csv"
        assert cli.main(map_argv) == 0
        assert cli.main(["sim", "--arch", str(std_arch), "--bitstream", str(bs),
                         "--stats", str(stats), "--result-len", "16"]) == 0
        assert cli.main(map_argv) == 0
        capsys.readouterr()
        assert seen[0] == seen[2] == {"command": "map", "arch": str(std_arch),
                                      "dfg": str(FIXTURES / "vecadd16.dfg"), "out": str(bs)}
        assert seen[1] == {"command": "sim", "arch": str(std_arch), "bitstream": str(bs),
                           "data": None, "script": None, "out": None, "stats": str(stats),
                           "result_addr": 0, "result_len": 16, "cycle_limit": 1_000_000}
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("option, value", [
        ("--result-addr", "-1"), ("--result-len", "-3"),
        ("--cycle-limit", "0"), ("--cycle-limit", "-1"), ("--cycle-limit", "x")])
    def test_out_of_range_numeric_option_exit_2(self, std_arch, halt_bit, tmp_path,
                                               capsys, option, value):
        from windmill.cli import main
        out = tmp_path / "out.bin"
        with pytest.raises(SystemExit) as exc:
            main(["sim", "--arch", str(std_arch), "--bitstream", str(halt_bit),
                  "--out", str(out), option, value])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_signed_script_operand_exit_2(self, std_arch, halt_bit, tmp_path, capsys):
        from windmill.cli import main
        data = tmp_path / "in.bin"
        write_image(data, list(range(100)))
        script = tmp_path / "signed.script"
        script.write_text("01 1 0\n02 1 -5 0 5 1\n03 1\n04 1 0 0 5\n")
        out = tmp_path / "out.bin"
        assert main(["sim", "--arch", str(std_arch), "--bitstream", str(halt_bit),
                     "--data", str(data), "--script", str(script),
                     "--out", str(out), "--result-len", "5"]) == 2
        assert "signed token" in capsys.readouterr().err
        assert not out.exists()

    def test_matmul_fixture_matches_reference(self, tmp_path):
        from windmill.mapper import parse_dfg, reference_execute
        arch_f = FIXTURES / "standard_deep.arch"
        bs = tmp_path / "mm.bit"
        r = windmill("map", "--arch", arch_f, "--dfg", FIXTURES / "matmul4.dfg",
                     "--out", bs)
        assert r.returncode == 0
        import random
        rng = random.Random(11)
        image = [rng.getrandbits(32) for _ in range(32)] + [0] * 16
        data = tmp_path / "in.bin"
        write_image(data, image)
        out = tmp_path / "out.bin"
        r = windmill("sim", "--arch", arch_f, "--bitstream", bs, "--data", data,
                     "--out", out, "--result-addr", 32, "--result-len", 16)
        assert r.returncode == 0
        dfg = parse_dfg((FIXTURES / "matmul4.dfg").read_text())
        assert read_image(out) == reference_execute(dfg, image)[32:48]

    def test_script_driven_run(self, std_arch, tmp_path):
        bs = tmp_path / "v.bit"
        windmill("map", "--arch", std_arch, "--dfg", FIXTURES / "vecadd16.dfg",
                 "--out", bs)
        image = tmp_path / "in.bin"
        write_image(image, list(range(1, 33)) + [0] * 16)
        out = tmp_path / "out.bin"
        r = windmill("sim", "--arch", std_arch, "--bitstream", bs, "--data", image,
                     "--script", FIXTURES / "boot.script", "--out", out,
                     "--result-len", 16)
        assert r.returncode == 0
        assert read_image(out) == [(a + b) for a, b in
                                   zip(range(1, 17), range(17, 33))]


class TestReport:
    def test_pretty_print(self, std_arch, tmp_path):
        stats = tmp_path / "s.csv"
        stats.write_text("total_cycles,host_commands\n42,4\n")
        r = windmill("report", "--stats", stats)
        assert r.returncode == 0
        assert r.stdout.split() == ["total_cycles", "42", "host_commands", "4"]

    def test_no_data_row_exit_2(self, tmp_path, capsys):
        from windmill.cli import main
        stats = tmp_path / "s.csv"
        stats.write_text("total_cycles,host_commands\n\n")
        assert main(["report", "--stats", str(stats)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {stats}: expected a header row and a data row\n")

    def test_row_of_other_width_exit_2(self, tmp_path, capsys):
        """A row with fewer fields than the header is refused, naming its
        line (blank lines counted), and nothing is printed."""
        from windmill.cli import main
        stats = tmp_path / "s.csv"
        stats.write_text("a,b\n1,2\n\n1\n")
        assert main(["report", "--stats", str(stats)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {stats}: line 4: expected 2 fields, got 1\n")


@pytest.mark.parametrize("argv", [
    ["map", "--arch", "STD", "--dfg", "BAD", "--out", "OUT"],
    ["map", "--arch", "BAD", "--dfg", str(FIXTURES / "vecadd16.dfg"), "--out", "OUT"],
    ["sim", "--arch", "STD", "--bitstream", "HALT", "--script", "BAD"],
    ["report", "--stats", "BAD"],
], ids=["dfg", "arch", "script", "report-stats"])
def test_non_utf8_text_input_exit_2(std_arch, halt_bit, tmp_path, capsys, argv):
    """A text input holding a byte that is not UTF-8 is an input error that
    names the file, not a decode traceback."""
    from windmill.cli import main
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"in a 0\n\xff\n")
    paths = {"STD": std_arch, "BAD": bad, "HALT": halt_bit, "OUT": tmp_path / "out.bit"}
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{bad}: not UTF-8 text" in err
    assert not (tmp_path / "out.bit").exists()

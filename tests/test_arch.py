"""Parameter validation, resource derivation, and the arch file format."""

from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from windmill.arch import (_SCHEMA, ArchParams, ExecMode, PeType, SharedRegScope,
                           TopologyKind, derive_counts, parse_arch_file,
                           perimeter_lsu_map, serialize, standard_preset, validate)
from windmill.errors import ParseError, ValidationError
from windmill.interconnect import neighbor_map

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def standard_counts(params):
    """``params``' report on the topology's own port table."""
    return derive_counts(params, neighbor_map(params.topology, (params.rows, params.cols)))


def link_count(topology, rows, cols):
    return sum(map(len, neighbor_map(topology, (rows, cols)).values()))


def count_types(params):
    c = {t: 0 for t in PeType}
    for r, col in params.coords():
        c[params.pe_type(r, col)] += 1
    return c


class TestValidation:
    def test_standard_preset_is_valid(self):
        params = validate(standard_preset())
        # 16 banks of 256 x 32 bits
        assert (params.sm_banks, params.bank_depth, params.bank_width) == (16, 256, 32)

    def test_rows_too_small(self):
        p = replace(standard_preset(), rows=1, pe_type_map=())
        with pytest.raises(ValidationError) as err:
            validate(p)
        assert any("rows" in e for e in err.value.errors)

    def test_grid_fits_the_bitstream_header(self):
        """Row and column are 8-bit fields of a bitstream record header."""
        def sized(rows, cols):
            return replace(standard_preset(), rows=rows, cols=cols, cpe_enabled=False,
                           pe_type_map=perimeter_lsu_map(rows, cols, None))

        validate(sized(256, 2))
        validate(sized(2, 256))
        for rows, cols, name in ((257, 2, "rows"), (2, 300, "cols")):
            with pytest.raises(ValidationError) as err:
                validate(sized(rows, cols))
            assert any(e.startswith(f"{name}:") and "256" in e for e in err.value.errors)

    def test_banks_power_of_two(self):
        p = replace(standard_preset(), sm_banks=12)
        with pytest.raises(ValidationError) as err:
            validate(p)
        assert any("power of two" in e for e in err.value.errors)

    def test_all_violations_reported(self):
        p = replace(standard_preset(), rows=1, cols=0, sm_banks=12, pe_type_map=())
        with pytest.raises(ValidationError) as err:
            validate(p)
        assert len(err.value.errors) >= 3

    def test_exactly_one_cpe_when_enabled(self):
        p = replace(standard_preset(), pe_type_map=perimeter_lsu_map(8, 8, None))
        with pytest.raises(ValidationError):
            validate(p)


class TestDerivedCounts:
    def test_standard_counts(self):
        report = standard_counts(standard_preset())
        assert report.lsu_count == 28
        assert report.gpe_count == 35
        assert report.cpe_count == 1
        assert report.sm_bytes == 16 * 256 * 32 // 8  # 16 KiB
        assert report.sm_bytes == 16384

    def test_perimeter_formula_vs_enumeration(self):
        """Closed form 2r + 2c - 4 against direct perimeter enumeration."""
        for rows in range(2, 12):
            for cols in range(2, 12):
                grid = perimeter_lsu_map(rows, cols, None)
                enumerated = sum(row.count(PeType.LSU) for row in grid)
                assert enumerated == 2 * rows + 2 * cols - 4

    def test_mesh_4x4_link_count(self):
        # 2 * (4*3) horizontal + 2 * (4*3) vertical directed links
        assert link_count(TopologyKind.MESH2D, 4, 4) == 48

    @staticmethod
    def closed_form_links(topology, rows, cols):
        """Reference: in-grid orthogonal links, plus every cell's four under
        the torus, plus in-grid straight distance-2 links under 1-hop."""
        mesh = 2 * (rows * (cols - 1) + cols * (rows - 1))
        if topology is TopologyKind.MESH2D:
            return mesh
        if topology is TopologyKind.TORUS:
            return 4 * rows * cols
        return mesh + 2 * (rows * max(cols - 2, 0) + cols * max(rows - 2, 0))

    @pytest.mark.parametrize("topology", list(TopologyKind))
    def test_link_count_matches_closed_form(self, topology):
        grids = [(r, c) for r in range(2, 13) for c in range(2, 13)] + [(256, 256)]
        for rows, cols in grids:
            assert (link_count(topology, rows, cols)
                    == self.closed_form_links(topology, rows, cols)), (rows, cols)

    def test_torus_regular_degree(self):
        from windmill.interconnect import neighbors
        for r in range(4):
            for c in range(4):
                assert len(neighbors(TopologyKind.TORUS, (r, c), (4, 4))) == 4

    def test_scmd_capacity_factor(self):
        base = standard_preset()
        scmd = replace(base, exec_mode=ExecMode.SCMD)
        assert (standard_counts(scmd).context_words_per_pe
                == 8 * standard_counts(base).context_words_per_pe)

    def test_cpe_disabled_counts_as_gpe(self):
        p = replace(standard_preset(), cpe_enabled=False)
        report = standard_counts(p)
        assert report.cpe_count == 0
        assert report.gpe_count == 36


class TestArchFile:
    def test_shipped_fixture_is_standard_preset(self):
        params = parse_arch_file((FIXTURES / "standard.arch").read_text())
        assert params == standard_preset()

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_arch_file("")

    def test_torus_keyword(self):
        text = (FIXTURES / "standard.arch").read_text()
        params = parse_arch_file(text.replace("topology = mesh2d", "topology = torus"))
        assert params.topology is TopologyKind.TORUS

    def test_unknown_key_rejected(self):
        text = (FIXTURES / "standard.arch").read_text() + "\nvoltage = 12\n"
        with pytest.raises(ParseError) as err:
            parse_arch_file(text)
        assert "voltage" in str(err.value)

    def test_parse_error_carries_line_number(self):
        text = "[array]\nrows = eight\n"
        with pytest.raises(ParseError) as err:
            parse_arch_file(text)
        assert err.value.line == 2

    @pytest.mark.parametrize("text, line, message", [
        ("# an 8x8\n\n[array]\nrows = eight\n", 4, "rows: expected an integer, got 'eight'"),
        ("[array]\ntopology = ring\n", 2,
         "topology: expected one of mesh2d/onehop/torus, got 'ring'"),
        ("[array]\nexec_mode = SIMD\n", 2, "exec_mode: expected one of scmd/mcmd, got 'SIMD'"),
        ("[system]\nshared_reg_mode = chip\n", 2,
         "shared_reg_mode: expected one of line/row/quadrant/global, got 'chip'"),
        ("[system]\ncpe = yes\n", 2, "cpe: expected on/off, got 'yes'"),
        ("[array]\nrows = 4\n[memory]\ncols = 4\n", 4, "key 'cols' belongs in [array]"),
        ("[array]\nrows = 4\nROWS = 8\n", 3, "duplicate key 'rows'"),
        ("[system]\nvoltage = 12\n", 2, "unknown key 'voltage'"),
        ("[array]\n[Power]\n", 2, "unknown section [power]"),
        ("\nrows = 4\n[array]\n", 2, "content before any section header"),
        ("[memory]\nGGGG\n", 2, "unrecognized line 'GGGG'"),
        ("", 1, "empty architecture description"),
        ("# nothing here\n\n", 1, "empty architecture description"),
    ])
    def test_parse_error_messages(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_arch_file(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("spec, report_line", [
        ("topology=TORUS", "array: 8x8 (torus, mcmd)"), ("rows=0x4", "array: 4x8 (mesh2d, mcmd)"),
        ("ROWS=4", "array: 4x8 (mesh2d, mcmd)")])
    def test_sweep_reads_a_value_as_the_file_does(self, capsys, spec, report_line):
        from windmill.cli import main
        assert main(["generate", "--arch", str(FIXTURES / "standard.arch"),
                     "--sweep", spec]) == 0
        assert capsys.readouterr().out.splitlines()[0] == report_line

    def test_default_grid_when_omitted(self):
        text = ("[array]\nrows = 4\ncols = 4\n"
                "[memory]\nsm_banks = 4\nbank_depth = 16\n")
        params = parse_arch_file(text)
        assert params.pe_type_map == perimeter_lsu_map(4, 4)

    def test_key_table_covers_every_parameter_once(self):
        """One row per ArchParams field but the type map (written as grid
        rows), and serialize writes each key once, in its own section."""
        assert sorted(name for _, name, _ in _SCHEMA.values()) == sorted(
            f.name for f in fields(ArchParams) if f.name != "pe_type_map")
        section, written = None, []
        for line in serialize(standard_preset()).splitlines():
            if line.startswith("["):
                section = line[1:-1]
            elif "=" in line:
                written.append(line.partition(" =")[0])
                assert _SCHEMA[written[-1]][0] == section, line
        assert written == list(_SCHEMA)

    def test_roundtrip_standard(self):
        params = standard_preset()
        assert parse_arch_file(serialize(params)) == params

    @given(
        rows=st.integers(2, 10), cols=st.integers(2, 10),
        topology=st.sampled_from(TopologyKind), exec_mode=st.sampled_from(ExecMode),
        banks_log=st.integers(0, 5), depth_log=st.integers(1, 9),
        depth_ctx=st.integers(1, 64), mode=st.sampled_from(SharedRegScope),
        regs=st.integers(1, 16), rpus=st.integers(1, 8), cpe=st.booleans(),
    )
    def test_roundtrip_property(self, rows, cols, topology, exec_mode, banks_log,
                                depth_log, depth_ctx, mode, regs, rpus, cpe):
        cpe = cpe and rows > 2 and cols > 2  # a controller cell needs an interior
        params = ArchParams(
            rows=rows, cols=cols,
            pe_type_map=perimeter_lsu_map(rows, cols, (1, 1) if cpe else None),
            topology=topology, exec_mode=exec_mode,
            sm_banks=2 ** banks_log, bank_depth=2 ** depth_log,
            context_depth_mcmd=depth_ctx, shared_reg_mode=mode,
            shared_reg_count=regs, rpu_count=rpus, cpe_enabled=cpe,
        )
        validate(params)
        assert parse_arch_file(serialize(params)) == params

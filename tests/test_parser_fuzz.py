"""Parser fuzzing: arbitrary text and bytes, and byte mutations of the
fixtures, make the four input parsers and the image reader raise nothing but
toolkit errors, and ``cli.main`` return a documented exit code.

The CLI maps every ``WindmillError`` other than ``Unmappable`` onto exit 2,
so any other exception a parser lets escape would turn bad input into a
crash with a traceback instead of an input error.
"""

import struct
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from windmill import cli
from windmill.arch import parse_arch_file, standard_preset
from windmill.dfg import parse_dfg
from windmill.errors import Unmappable, WindmillError
from windmill.mapper import emit_bitstream, map_dfg
from windmill.pe import unpack_bitstream
from windmill.system import parse_script

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)


def _text(blob: bytes) -> str:
    # the CLI refuses a file that is not UTF-8 before any parser sees it
    return blob.decode("utf-8", errors="replace")


# parser, its input from bytes, its input from text
PARSERS = {
    "arch": (parse_arch_file, _text, str),
    "dfg": (parse_dfg, _text, str),
    "script": (parse_script, _text, str),
    "bitstream": (unpack_bitstream, bytes, str.encode),
}
FIXTURE_FILES = {"arch": ("standard.arch", "standard_deep.arch"),
                 "dfg": ("abc_chain.dfg", "matmul4.dfg", "vecadd16.dfg"),
                 "script": ("boot.script",)}


@cache
def seeds(name: str) -> list[bytes]:
    """The inputs a parser's mutations start from: its fixtures or, for the
    bitstream, which has none, ``abc_chain.dfg`` mapped on the standard array."""
    if name == "bitstream":
        text = (FIXTURES / "abc_chain.dfg").read_text()
        return [emit_bitstream(map_dfg(parse_dfg(text), standard_preset()))]
    return [(FIXTURES / f).read_bytes() for f in FIXTURE_FILES[name]]


def parses_or_refuses(parse, data):
    """``parse(data)`` returns, or raises an error the CLI reports as bad input."""
    try:
        parse(data)
    except WindmillError as exc:
        assert not isinstance(exc, Unmappable), f"{type(exc).__name__}: {exc}"


@st.composite
def mutations(draw, inputs: list[bytes]) -> bytes:
    """One of ``inputs`` with a few bytes set, inserted or deleted, or cut short."""
    blob = bytearray(draw(st.sampled_from(inputs)))
    for _ in range(draw(st.integers(1, 8))):
        at = draw(st.integers(0, len(blob)))
        kind = draw(st.sampled_from(("set", "insert", "delete", "truncate")))
        if kind == "truncate":
            del blob[at:]
        elif kind == "insert" or at == len(blob):
            blob.insert(at, draw(st.integers(0, 255)))
        elif kind == "set":
            blob[at] = draw(st.integers(0, 255))
        else:
            del blob[at]
    return bytes(blob)


@pytest.mark.parametrize("name", PARSERS)
@FUZZ
@given(text=st.text())
def test_arbitrary_text(name, text):
    parse, _, from_text = PARSERS[name]
    parses_or_refuses(parse, from_text(text))


@pytest.mark.parametrize("name", PARSERS)
@FUZZ
@given(blob=st.binary())
def test_arbitrary_bytes(name, blob):
    parse, from_bytes, _ = PARSERS[name]
    parses_or_refuses(parse, from_bytes(blob))


@pytest.mark.parametrize("name", PARSERS)
@FUZZ
@given(data=st.data())
def test_mutated_fixtures(name, data):
    parse, from_bytes, _ = PARSERS[name]
    parses_or_refuses(parse, from_bytes(data.draw(mutations(seeds(name)))))


@FUZZ
@given(blob=st.binary())
def test_image_reader_on_arbitrary_bytes(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("image") / "image.bin"
    path.write_bytes(blob)
    try:
        words = cli._read_image(str(path))
    except WindmillError as exc:
        assert not isinstance(exc, Unmappable)
    else:
        assert len(words) == len(blob) // 4 and all(0 <= w < 1 << 32 for w in words)


# the files one CLI run reads: the standard array, vecadd16 mapped on it, the
# boot script and the 0x30-word image it stages
CLI_FILES = {"arch": "arch", "dfg": "dfg", "bitstream": "bitstream",
             "script": "script", "image": "data"}


@cache
def cli_inputs() -> dict[str, bytes]:
    arch = (FIXTURES / "standard.arch").read_bytes()
    dfg = (FIXTURES / "vecadd16.dfg").read_bytes()
    return {"arch": arch, "dfg": dfg,
            "bitstream": emit_bitstream(map_dfg(parse_dfg(dfg.decode()),
                                                parse_arch_file(arch.decode()))),
            "script": (FIXTURES / "boot.script").read_bytes(),
            "image": struct.pack("<48I", *range(1, 49))}


# each command, its documented exit codes, the files it reads and its other
# options; a phase of vecadd16 runs 85 cycles, so a 50-cycle limit ends a
# looping config quickly
CLI_RUNS = {"map": ((0, 2, 3), ("arch", "dfg"), ()),
            "sim": ((0, 2, 4), ("arch", "bitstream", "script", "image"),
                    ("--result-len", "16", "--cycle-limit", "50"))}
CLI_CASES = [(command, name) for command, (_, names, _) in CLI_RUNS.items() for name in names]


@pytest.mark.parametrize("command, name", CLI_CASES, ids=[f"{c}-{n}" for c, n in CLI_CASES])
@settings(FUZZ, max_examples=25)
@given(data=st.data())
def test_cli_exit_code_on_a_mutated_file(tmp_path_factory, command, name, data):
    """``cli.main`` over one mutated input file returns an exit code its
    docstring names, and raises nothing."""
    codes, names, options = CLI_RUNS[command]
    workdir = tmp_path_factory.mktemp("cli")
    argv = [command, "--out", str(workdir / "out.bin"), *options]
    for each in names:
        blob = cli_inputs()[each]
        if each == name:
            blob = data.draw(mutations([blob]))
        (workdir / each).write_bytes(blob)
        argv += [f"--{CLI_FILES[each]}", str(workdir / each)]
    assert cli.main(argv) in codes

"""Parser fuzzing: arbitrary text and bytes, and byte mutations of the
fixtures, make the four input parsers raise nothing but toolkit errors.

The CLI maps every ``WindmillError`` other than ``Unmappable`` onto exit 2,
so any other exception a parser lets escape would turn bad input into a
crash with a traceback instead of an input error.
"""

from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

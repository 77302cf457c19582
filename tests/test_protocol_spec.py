"""The host protocol as an executable spec, checked bounded-exhaustively.

``spec`` is a pure function of a single-RPU command list that models no
cycles. It reads the rules of ``docs/formats.md`` (Host command script):

- phase p computes on half (p - 1) % 2, since it launches after the last
  phase's flip has landed;
- the DMA streams its batches one at a time, in the order they are queued,
  and each batch streams between two flips. It streams after every batch
  queued before it, after the flips requested before it is queued (one per
  launch ahead of it in the script: a queued action waits for the running
  phase), and a streamed batch also after the flip it is bound to. The j-th
  streamed batch is bound to flip j - 1;
- a staging batch fills the array's half, a streamed one the DMA's;
- a launch finds every batch that streams before the flip it follows;
- a store after launch p reads phase p's result, since it waits for the
  deferred flip and the DMA's half is then the half phase p ran on;
- a streamed batch queued behind launch j, where j is its index, is late.

Every well-formed script of up to ``K`` commands runs on the cycle
simulator, and the words each phase finds at launch, each stored result,
``pingpong_toggles`` and each late batch's fault must match the spec.
"""

import itertools
import re
from dataclasses import replace

import pytest

from windmill.arch import standard_preset
from windmill.errors import ProtocolOrderViolation
from windmill.plugins import DEFAULT_RTT
from windmill.system import Rpu, SystemSim, decode, parse_script

import test_system

K = 5         # longest script run
LONG = 16     # words: longer than a phase, and short of the result word
RESULT = 16   # the half word each phase stores the word it loads to

PARAMS = replace(standard_preset(), rpu_count=1)
IMAGE = [1000 + i for i in range(300)]   # each word names its external address
ALPHABET = [("load_config",), ("launch",), ("store_results",)] + [
    ("load_data", length, staging) for staging in (1, 0) for length in (0, 1, LONG)]


def spec(commands):
    """``(phases, stored, late)`` for single-RPU host ``commands``. ``phases``
    holds, per launch, the half it computes on and {half word: external
    address} of the words it finds written there; ``stored`` maps each
    result address to the phase whose result it receives (0: before any
    phase); ``late`` is the first late streamed batch's fault message, or
    None, and the script ends there."""
    launches = streamed = epoch = 0   # epoch: the flips landed before the last batch streams
    batches = []   # per queued batch: (epoch, half, {half word: external address})
    phases, stored = [], {}
    for command in commands:
        action, _, args = decode(DEFAULT_RTT, command)
        if action == "load_data":
            ext, sm, length, staging = (*args, 1)[:4]
            flip = 0
            if not staging:
                streamed += 1
                if launches >= streamed:
                    return phases, stored, (
                        f"rpu 0: late streamed batch (ext {ext}, sm {sm}, len {length}): the "
                        f"flip that hands its half to phase {streamed + 1} is already requested")
                flip = streamed - 1
            epoch = max(epoch, launches, flip)
            half = epoch % 2 if staging else 1 - epoch % 2
            batches.append((epoch, half, {sm + i: ext + i for i in range(length)}))
        elif action == "launch":
            launches += 1
            half, words = (launches - 1) % 2, {}
            for batch_epoch, batch_half, writes in batches:
                if batch_epoch < launches and batch_half == half:
                    words.update(writes)
            phases.append((half, words))
        elif action == "store_results":
            stored[args[1]] = launches
    return phases, stored, None


def simulate(commands):
    """``commands`` on one RPU whose config 0 is ``load_store_phase(RESULT)``;
    per launch, the array's half and its words below the result word as the
    launch is carried out."""
    system = SystemSim(PARAMS, IMAGE, cycle_limit=200)
    system.register_config(0, test_system.TestStreaming.load_store_phase(RESULT))
    system.submit_script(commands)
    rpu, seen = system.rpus[0], []

    def launch():
        half = rpu.dma.array_half
        base = half * rpu.half_words
        seen.append((half, rpu.sram.data[base:base + RESULT]))
        Rpu.launch(rpu)

    rpu.launch = launch
    return system, seen


def check(lines):
    """Run ``lines`` against the spec; the spec's (phases, stored, late)."""
    commands = parse_script("\n".join(lines))
    phases, stored, late = spec(commands)
    system, seen = simulate(commands)
    if late is not None:
        with pytest.raises(ProtocolOrderViolation, match=f"^{re.escape(late)}$"):
            system.run()
        return phases, stored, late
    stats = system.run()
    want = [(half, [IMAGE[words[i]] if i in words else 0 for i in range(RESULT)])
            for half, words in phases]
    assert seen == want, lines
    assert stats.pingpong_toggles == len(phases), lines
    results = [0] + [held[0] for _, held in want]   # phase p's LOAD reads word 0
    assert system.results_buffer == {ext: results[p] for ext, p in stored.items()}, lines
    return phases, stored, late


def command(symbol, position):
    """The script line of ``symbol`` at ``position``: each transfer gets its
    own external region, so a word names its batch."""
    action = symbol[0]
    if action == "load_config":
        return "01 1 0"
    if action == "launch":
        return "03 1"
    if action == "store_results":
        return f"04 1 {RESULT:x} {position:x} 1"
    _, length, staging = symbol
    return f"02 1 {20 * position:x} 0 {length:x} {staging}"


def well_formed(symbols):
    """Each launch has a config loaded since the last one, and each streamed
    batch that is not late is bound to a flip the script's launches request."""
    configured, launches, streamed = False, 0, 0
    for symbol in symbols:
        if symbol[0] == "load_config":
            configured = True
        elif symbol[0] == "launch":
            if not configured:
                return False
            configured, launches = False, launches + 1
        elif symbol[0] == "load_data" and not symbol[2]:
            streamed += 1
            if launches >= streamed:   # late: the run faults here
                return True
    return streamed <= launches + 1


def test_a_long_batch_outlasts_a_phase():
    """So a phase ends while a streamed batch of ``LONG`` words streams, and
    its flip is deferred."""
    system, _ = simulate(parse_script("01 1 0\n03 1"))
    system.run()
    assert system.rpus[0].running_cycles < LONG


def test_every_short_script_matches_the_spec():
    counts = {"scripts": 0, "late": 0, "phases": 0, "stores": 0}
    for n in range(1, K + 1):
        for symbols in itertools.product(ALPHABET, repeat=n):
            if not well_formed(symbols):
                continue
            phases, stored, late = check([command(s, i) for i, s in enumerate(symbols)])
            counts["scripts"] += 1
            if late is not None:
                counts["late"] += 1
            else:
                counts["phases"] += len(phases)
                counts["stores"] += len(stored)
    assert counts == {"scripts": 19820, "late": 1089, "phases": 3723, "stores": 13730}


@pytest.mark.parametrize("lines, late", [
    # two staging batches, then a 200-word streamed one: phase 2 waits for
    # the flip phase 1's finish requests while that batch streams
    ("01 1 0/02 1 0 0 4 1/02 1 4 4 4 1/02 1 8 0 c8 0/03 1/01 1 0/03 1/04 1 10 0 1", False),
    # a streamed batch queued behind the launch of the phase it should overlap
    ("01 1 0/02 1 0 0 4 1/03 1/02 1 8 0 4 0/01 1 0/03 1/04 1 10 0 1", True),
], ids=["deferred-flip", "late-streamed-batch"])
def test_named_scripts_match_the_spec(lines, late):
    """Two scripts longer than ``K``: the launch rule's and the late batch's repros."""
    assert (check(lines.split("/"))[2] is not None) == late

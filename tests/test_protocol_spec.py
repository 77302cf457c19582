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
- a streamed batch queued behind launch j, where j is its index, is late;
- a store after launch p faults if the streamed batch bound to flip p,
  which refills the half it reads, is queued before it and overlaps its
  region, however far that batch has streamed;
- a script whose p launches leave a streamed batch bound to flip p + 1
  starves: that batch can never stream, and the run faults once nothing
  else can move.

Every well-formed script of up to ``K`` commands runs on the cycle
simulator, and the words each phase finds at launch, each stored result,
``pingpong_toggles`` and each fault must match the spec. A stateful test
runs longer scripts on four RPUs, each command to a random set of them.
"""

import itertools
import re
from dataclasses import replace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from windmill.arch import standard_preset
from windmill.errors import ProtocolOrderViolation
from windmill.plugins import DEFAULT_RTT
from windmill.system import Rpu, SystemSim, decode, parse_script

import test_system

K = 5         # longest script run
STEPS = 30    # longest stateful script, before the launches its teardown adds
RESULT = 16   # the half word each phase stores the word it loads to
LONG = RESULT + 1   # words: longer than a phase, and up to the result word

PARAMS = replace(standard_preset(), rpu_count=1)
IMAGE = [1000 + i for i in range(20 * STEPS)]   # each word names its external address
ALPHABET = [("load_config",), ("launch",), ("store_results",)] + [
    ("load_data", length, staging) for staging in (1, 0) for length in (0, 1, LONG)]


def spec(commands, rpu=0):
    """``(phases, stored, fault)`` for RPU ``rpu``'s host ``commands``.
    ``phases`` holds, per launch, the half it computes on and {half word:
    external address} of the words it finds written there; ``stored`` maps
    each result address to the phase whose result it receives (0: before any
    phase), in store order; ``fault`` is the message of the first late
    streamed batch or store over a queued refill, and the script ends there,
    else of a streamed batch bound to a flip no launch requests, or None."""
    launches = epoch = 0   # epoch: the flips landed before the last batch streams
    streamed = []   # per streamed batch, by the flip it follows: (ext, sm, length)
    batches = []   # per queued batch: (epoch, half, {half word: external address})
    phases, stored = [], {}
    for command in commands:
        action, _, args = decode(DEFAULT_RTT, command)
        if action == "load_data":
            ext, sm, length, staging = (*args, 1)[:4]
            flip = 0
            if not staging:
                flip = len(streamed)
                streamed.append((ext, sm, length))
                if launches > flip:
                    return phases, stored, (
                        f"rpu {rpu}: late streamed batch (ext {ext}, sm {sm}, len {length}): the "
                        f"flip that hands its half to phase {flip + 2} is already requested")
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
            sm, ext, length = args[:3]
            if launches < len(streamed):
                refill_ext, refill_sm, refill_length = streamed[launches]
                if set(range(sm, sm + length)) & set(range(refill_sm, refill_sm + refill_length)):
                    return phases, stored, (
                        f"rpu {rpu}: results region {sm}+{length} of phase {launches} overlaps "
                        f"streamed batch (ext {refill_ext}, sm {refill_sm}, len {refill_length}), "
                        "queued ahead of the store to refill that half")
            stored[ext] = launches
    if len(streamed) > launches + 1:
        ext, sm, length = streamed[launches + 1]
        return phases, stored, (
            f"rpu {rpu}: streamed batch (ext {ext}, sm {sm}, len {length}) waits for flip "
            f"{launches + 1}, but no phase is left to request it")
    return phases, stored, None


def observe(rpu):
    """Wrap ``rpu``'s launch and store: per launch, the array's half and its
    words below the result word as it is carried out; per store, the words read."""
    launches, stores = [], []

    def launch():
        half = rpu.dma.array_half
        base = half * rpu.half_words
        launches.append((half, rpu.sram.data[base:base + RESULT]))
        Rpu.launch(rpu)

    def store_results(sm_addr, length):
        stores.append(Rpu.store_results(rpu, sm_addr, length))
        return stores[-1]

    rpu.launch, rpu.store_results = launch, store_results
    return launches, stores


def simulate(commands, params=PARAMS):
    """``commands`` on RPUs whose config 0 is ``load_store_phase(RESULT)``;
    per RPU, what ``observe`` sees."""
    system = SystemSim(params, IMAGE, cycle_limit=200)
    system.register_config(0, test_system.TestStreaming.load_store_phase(RESULT))
    system.submit_script(commands)
    return system, [observe(rpu) for rpu in system.rpus]


def expected(phases, stored):
    """The spec's launches and stores as ``observe`` sees them."""
    launches = [(half, [IMAGE[words[i]] if i in words else 0 for i in range(RESULT)])
                for half, words in phases]
    results = [0] + [held[0] for _, held in launches]   # phase p's LOAD reads word 0
    return launches, [[results[p]] for p in stored.values()]


def check(lines):
    """Run ``lines`` against the spec; the spec's (phases, stored, fault)."""
    commands = parse_script("\n".join(lines))
    phases, stored, fault = spec(commands)
    system, [seen] = simulate(commands)
    if fault is not None:
        with pytest.raises(ProtocolOrderViolation, match=f"^{re.escape(fault)}$"):
            system.run()
        return phases, stored, fault
    stats = system.run()
    launches, stores = expected(phases, stored)
    assert seen == (launches, stores), lines
    assert stats.pingpong_toggles == len(phases), lines
    assert system.results_buffer == {ext: w for ext, [w] in zip(stored, stores)}, lines
    return phases, stored, fault


def command(symbol, position, mask):
    """The script line of ``symbol`` at ``position``, to the RPUs in ``mask``:
    each transfer gets its own external region, so a word names its batch."""
    action = symbol[0]
    if action == "load_config":
        return f"01 {mask:x} 0"
    if action == "launch":
        return f"03 {mask:x}"
    if action == "store_results":
        return f"04 {mask:x} {RESULT:x} {position:x} 1"
    _, length, staging = symbol
    return f"02 {mask:x} {20 * position:x} 0 {length:x} {staging}"


def well_formed(symbols):
    """Each launch has a config loaded since the last one, and each streamed
    batch that is not late is bound to a flip the script's launches request:
    the exhaustive run leaves out the scripts that starve, which would more
    than double its time."""
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
    counts = {"scripts": 0, "late": 0, "faults": 0, "phases": 0, "stores": 0}
    for n in range(1, K + 1):
        for symbols in itertools.product(ALPHABET, repeat=n):
            if not well_formed(symbols):
                continue
            phases, stored, fault = check([command(s, i, 1) for i, s in enumerate(symbols)])
            counts["scripts"] += 1
            if fault is None:
                counts["phases"] += len(phases)
                counts["stores"] += len(stored)
            else:
                counts["late" if "late" in fault else "faults"] += 1
    assert counts == {"scripts": 19820, "late": 1089, "faults": 1286, "phases": 3607,
                      "stores": 11941}


@pytest.mark.parametrize("lines, faults", [
    # two staging batches, then a 200-word streamed one: phase 2 waits for
    # the flip phase 1's finish requests while that batch streams
    ("01 1 0/02 1 0 0 4 1/02 1 4 4 4 1/02 1 8 0 c8 0/03 1/01 1 0/03 1/04 1 10 0 1", False),
    # a streamed batch queued behind the launch of the phase it should overlap
    ("01 1 0/02 1 0 0 4 1/03 1/02 1 8 0 4 0/01 1 0/03 1/04 1 10 0 1", True),
    # phase 1's store queued behind the streamed batch that refills its half,
    # carried out once that batch has streamed past the result word
    ("01 1 0/02 1 0 0 1 1/02 1 40 0 10 0/02 1 80 0 20 0/03 1/" + "01 1 0/" * 40 + "04 1 10 0 1",
     True),
    # three streamed batches and one launch: the third is bound to flip 2,
    # which no phase is left to request
    ("01 1 0/02 1 0 0 4 1/02 1 8 0 4 0/02 1 16 0 4 0/02 1 24 0 4 0/03 1/04 1 16 0 1", True),
], ids=["deferred-flip", "late-streamed-batch", "store-over-a-queued-refill",
        "streamed-batch-past-the-last-flip"])
def test_named_scripts_match_the_spec(lines, faults):
    """Scripts longer than ``K`` or outside ``well_formed``: the launch
    rule's, the late batch's, the store fault's and the starved batch's
    repros."""
    assert (check(lines.split("/"))[2] is not None) == faults


RPUS = 4


class FourRpuScripts(RuleBasedStateMachine):
    """Scripts over ``ALPHABET`` on four RPUs, each command to a random set of
    them. Per RPU, what each launch finds, each stored word and the DMA's
    toggles must equal ``spec`` of the commands its mask selects, and a raised
    fault must be the spec's message of an RPU whose script faults; the run
    ends there, and what each RPU saw up to it must begin its spec's."""

    def __init__(self):
        super().__init__()
        self.lines = []
        self.symbols = [[] for _ in range(RPUS)]   # per RPU, the symbols it is sent
        self.configured = 0   # the RPUs that loaded a config since their last launch

    @rule(symbol=st.sampled_from(ALPHABET), mask=st.integers(1, 2 ** RPUS - 1))
    def send(self, symbol, mask):
        self.add(symbol, mask & self.configured if symbol[0] == "launch" else mask)

    def add(self, symbol, mask):
        if symbol[0] == "load_config":
            self.configured |= mask
        elif symbol[0] == "launch":
            self.configured &= ~mask
        if mask:
            for r in range(RPUS):
                if mask >> r & 1:
                    self.symbols[r].append(symbol)
            self.lines.append(command(symbol, len(self.lines), mask))

    def teardown(self):
        """Run the script, once a launch requests each flip a streamed batch
        waits for: the run would starve otherwise."""
        while mask := sum(1 << r for r in range(RPUS) if not well_formed(self.symbols[r])):
            self.add(("load_config",), mask)
            self.add(("launch",), mask)
        commands = parse_script("\n".join(self.lines))
        specs = [spec([c for c in commands if decode(DEFAULT_RTT, c)[1] >> r & 1], r)
                 for r in range(RPUS)]
        faults = {fault for _, _, fault in specs if fault is not None}
        system, seen = simulate(commands, replace(PARAMS, rpu_count=RPUS))
        try:
            system.run()
            raised = None
        except ProtocolOrderViolation as e:
            raised = str(e)
        assert raised in faults if raised else not faults, self.lines
        for rpu, (phases, stored, _), observed in zip(system.rpus, specs, seen):
            launches, stores = expected(phases, stored)
            if raised:   # the run ends at the fault, so each RPU saw a prefix of its spec
                launches, stores = launches[:len(observed[0])], stores[:len(observed[1])]
            assert observed == (launches, stores), self.lines
            assert raised or rpu.dma.toggles == len(phases), self.lines


TestFourRpuScripts = FourRpuScripts.TestCase
TestFourRpuScripts.settings = settings(derandomize=True, max_examples=100,
                                       stateful_step_count=STEPS, deadline=None)

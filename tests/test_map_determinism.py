"""Map output must not depend on the interpreter's hash seed.

``str`` hashes are salted per process and ``IdentityEnum`` hashes by address,
so a set iterated into the mapper's output, or into the order the simulator
acts on its sets of PEs, banks and halves, would pass every in-process test
and still change what a fresh process emits or simulates. This module maps
the fixture graphs and seeded ``test_e2e.random_dfg`` graphs over the three
topologies, and simulates each mapped graph over a seeded image, in two
subprocesses with different ``PYTHONHASHSEED`` values and compares their
digests. ``test_e2e.memory_dfg`` graphs put stores under the test too, and
the ``test_mapper.RACES`` graphs the order in which the mapper's memory-order
check names two ops. Run as a script, it prints the digest.
"""

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"
RANDOM_CASES = 30
MEMORY_CASES = 6
IMAGE_WORDS = 64   # covers every fixture's and generated graph's memory addresses


def digest() -> str:
    """SHA-256 over every case's bitstream, or its ``Unmappable`` message, and
    its run's stats row, per-PE activity, per-LSU grants and results."""
    from windmill.arch import TopologyKind, parse_arch_file, validate
    from windmill.errors import Unmappable
    from windmill.mapper import emit_bitstream, map_dfg, parse_dfg
    from windmill.pe import unpack_bitstream
    from windmill.system import SystemSim, run_protocol

    from test_e2e import make_arch, memory_dfg, random_dfg
    from test_mapper import RACES

    topologies = (TopologyKind.MESH2D, TopologyKind.TORUS, TopologyKind.ONE_HOP)
    standard = parse_arch_file((FIXTURES / "standard.arch").read_text())
    cases = [(path.read_text(), validate(replace(standard, topology=topology)))
             for topology in topologies for path in sorted(FIXTURES.glob("*.dfg"))]
    for k in range(RANDOM_CASES):
        rng = random.Random(3000 + k)
        text, *_ = random_dfg(rng, n_ops=rng.randint(14, 40))
        cases.append((text, make_arch(topology=topologies[k % 3])))
    for k in range(MEMORY_CASES):
        text, _ = memory_dfg(random.Random(5000 + k))
        cases.append((text, make_arch(topology=topologies[k % 3])))
    cases += [(text, make_arch()) for text, _ in RACES.values()]
    sha = hashlib.sha256()
    for k, (text, params) in enumerate(cases):
        try:
            bitstream = emit_bitstream(map_dfg(parse_dfg(text), params))
        except Unmappable as exc:
            sha.update(str(exc).encode())
            continue
        sha.update(bitstream)
        rng = random.Random(4000 + k)
        image = [rng.getrandbits(32) for _ in range(IMAGE_WORDS)]
        results, stats = run_protocol(SystemSim(params), unpack_bitstream(bitstream),
                                      image, 0, IMAGE_WORDS)
        sha.update(repr((stats.csv_row(), stats.pe_active, stats.grants_per_lsu,
                         results)).encode())
    return sha.hexdigest()


def test_map_output_is_independent_of_the_hash_seed():
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS),
                            os.environ.get("PYTHONPATH", "")])
    digests = [subprocess.run([sys.executable, __file__], check=True, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path,
                                              "PYTHONHASHSEED": seed}).stdout
               for seed in ("0", "4242")]
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


if __name__ == "__main__":
    print(digest())

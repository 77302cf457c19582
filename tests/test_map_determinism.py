"""Map output must not depend on the interpreter's hash seed.

``str`` hashes are salted per process and ``IdentityEnum`` hashes by address,
so a set iterated into the mapper's output would pass every in-process test
and still change the bitstream a fresh process emits. This module maps the
fixture graphs and seeded ``test_e2e.random_dfg`` graphs over the three
topologies in two subprocesses with different ``PYTHONHASHSEED`` values and
compares their digests. Run as a script, it prints the digest.
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


def digest() -> str:
    """SHA-256 over every case's bitstream, or its ``Unmappable`` message."""
    from windmill.arch import TopologyKind, parse_arch_file, validate
    from windmill.errors import Unmappable
    from windmill.mapper import emit_bitstream, map_dfg, parse_dfg

    from test_e2e import make_arch, random_dfg

    topologies = (TopologyKind.MESH2D, TopologyKind.TORUS, TopologyKind.ONE_HOP)
    standard = parse_arch_file((FIXTURES / "standard.arch").read_text())
    cases = [(path.read_text(), validate(replace(standard, topology=topology)))
             for topology in topologies for path in sorted(FIXTURES.glob("*.dfg"))]
    for k in range(RANDOM_CASES):
        rng = random.Random(3000 + k)
        text, *_ = random_dfg(rng, n_ops=rng.randint(14, 40))
        cases.append((text, make_arch(topology=topologies[k % 3])))
    sha = hashlib.sha256()
    for text, params in cases:
        try:
            sha.update(emit_bitstream(map_dfg(parse_dfg(text), params)))
        except Unmappable as exc:
            sha.update(str(exc).encode())
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

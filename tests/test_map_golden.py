"""Pinned mapper output: placement, routing and emission must not drift.

Each case below was recorded once and is asserted exactly: the SHA-256 of
the emitted bitstream, the schedule length, the number of ROUTE ops and the
number of PEs used. The cases are every ``tests/kernels.py`` kernel on
``fixtures/standard.arch`` and seeded random DAGs from
``test_e2e.random_dfg`` on ``fixtures/standard_deep.arch``, rotated over the
three topologies. A change to any value is a change to the mapper's output
and must be intended, explained, and re-recorded.
"""

import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

from windmill.arch import TopologyKind, parse_arch_file, validate
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH
from test_e2e import random_dfg

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TOPOLOGIES = (TopologyKind.MESH2D, TopologyKind.TORUS, TopologyKind.ONE_HOP)
RANDOM_CASES = 30


def arch(name, **overrides):
    params = parse_arch_file((FIXTURES / name).read_text())
    return validate(replace(params, **overrides))


def summary(text, params):
    """(bitstream SHA-256, schedule length, route ops, PEs used)."""
    mapping = map_dfg(parse_dfg(text), params)
    blob = emit_bitstream(mapping)
    return (hashlib.sha256(blob).hexdigest(), mapping.schedule_length,
            mapping.route_op_count(), len(mapping.pes_used()))


def random_case(k):
    rng = random.Random(5000 + k)
    text, *_ = random_dfg(rng, n_ops=rng.randint(14, 60))
    return text, arch("standard_deep.arch", topology=TOPOLOGIES[k % 3])


KERNEL_GOLDEN = {
    'dot': ('1fe85245cc05f0c548284944133d885e5ea5e93facf74b7b10ecb9a89b6fcbc0', 22, 35, 38),
    'fir4': ('4e1e056f9222e3b65ec372f23343159493ea3c08b9b51de471634b287fc4c862', 76, 157, 55),
    'matmul4': ('870932e2dc706cf62e76dc9e9cfd583bfede367c47d6126bf931c3872772fca1', 159, 700, 64),
    'reduction': ('fa148e65f0f454679115a728a75409698c3953d35d6e342d5a145dcd05a12ab4', 22, 35, 38),
    'vecadd': ('7662c695af8c3dcd55f9dd65b45d20981110bc0d8e74c89e32927956e0f6a625', 15, 63, 64),
}

RANDOM_GOLDEN = {
    0: ('41717bceda0883a66c9abcaf9aea3f482e0f4df06f6c1b05eebc855910a80b68', 53, 124, 45),
    1: ('cd75ad131706a0062a6fc18faf414728b4dfdfda10175a027f9bb27a4d77ec79', 62, 227, 62),
    2: ('45aa74b7c321e9f9a18b25d6f6016f91d6235658c9e96f800f661fa589af3257', 51, 146, 52),
    3: ('b6b23d71066b02e6c59663f5cd4eda01ddbab4e1f0a053dee232ccc0099f4602', 65, 130, 44),
    4: ('b2ea7c37e952f9f3ccd873a18bd3d723dbd725cdd952e7e62b7e96f1703041b7', 49, 156, 60),
    5: ('1ec488509fe314327bd43c5c346f1b842051e24da9b481ae3e5ae6d8ebcd95c2', 34, 81, 38),
    6: ('1da99d2090b7da2e0b7deb60b366340291b7dab41be1b068cfeef104afec502b', 54, 115, 38),
    7: ('0c0805bbad86349e2db29fb59f4dadda18e515c1cde13c3d58d5b1711bb53cae', 27, 103, 46),
    8: ('7d67cfc04a3d8b2b7b22cf5fbb8d427f2cfaf4f8c8e74ae2d3b3ebcfba09b1d0', 22, 58, 39),
    9: ('3603b9267a909e6b4963028907790aff61774452181ae5f168b35c98514fd5aa', 59, 226, 53),
    10: ('48a845c4589af65fd1dbe937aea0a00340a4650c64f8cdd85cd109ce6e8ac752', 62, 169, 63),
    11: ('dc2630d6e251bee36ba1520690a37cfa1e4c4402f4395ffff0a28477b0eec795', 50, 174, 51),
    12: ('c1fa5099f5b327e11b226d6d53c30be8267a1acc38b9e81b528f8b855982ded3', 46, 80, 37),
    13: ('4dbdd4d872d4d76f3a76e750595989c98c0b99397069715c28d209e6b5de89ee', 75, 174, 56),
    14: ('e4b5078f12eb3d883712b828543111347de2434a7e3b2e24ed2cf8fb04c5bc2c', 36, 66, 41),
    15: ('dfdb798aa1772e08ac420e816ca387825da2ba4c875c8ad7818ba829a3ac5864', 90, 247, 50),
    16: ('bcb86fd4dbf4fca25ba825fb1705c71ee700be1fa1808e9ea85a824d32dc8a32', 84, 225, 63),
    17: ('213d159a274f4070c48afc9e4b61bd1e69d72517b52404eb83815ab6b9647a0c', 39, 170, 52),
    18: ('3de7463c0ae5d31934c3dbd0514e888a4539e47e055645f035af177240b26812', 48, 97, 44),
    19: ('0ce231e58ab7e3c3f496b80bdfb237c0ec6645b34a2166f82ee00711fcc40990', 32, 107, 44),
    20: ('9f243369f6032b6c566ff43f7aaeb2b4415e3ab6d2c3b8d8a1ec8166bbbd65bb', 45, 166, 53),
    21: ('ac35dcb3a48c1874530af67a10e0099a28b7da4874e1025b9eabfc3240984c6d', 106, 317, 58),
    22: ('c6afff2779f08e53e12d7c90e9a8818d189863ae60813f176ef625c5babb0833', 77, 247, 63),
    23: ('e10df7fbd1b298a31dc56884a25c7df2915aad51f237210c51f30db50a533d81', 57, 207, 50),
    24: ('245927ed7944ef6f5ba3f8d6cd5880399e9b4277f550bb664a123356117edfd4', 75, 263, 52),
    25: ('cc991b3444887466063dcffdfdecd714f60f4c9ce01cca3af145a4760a33c766', 71, 213, 62),
    26: ('80a5444ea3e088d1de9edbae18cf7258ff8b731265d5383e378bd756ad949d3e', 49, 220, 55),
    27: ('0163ab016394efa5b94189afc50bc32b8115a021eeb2ff426897f8c06f2880cb', 21, 77, 36),
    28: ('54f6de13d7c836555b8cd53a00bf68f45b9363a5670d170bcb5af6b9318257bc', 23, 67, 24),
    29: ('2feee953b88613f0208b47a09f56c573a8ccab6ba5d260b2b4a43797616c971f', 32, 104, 43),
}


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_kernel_mapping_pinned(name):
    text = ALL_KERNELS[name]()[0]
    params = arch("standard.arch", context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])
    assert summary(text, params) == KERNEL_GOLDEN[name]


@pytest.mark.parametrize("k", range(RANDOM_CASES))
def test_random_mapping_pinned(k):
    assert summary(*random_case(k)) == RANDOM_GOLDEN[k]

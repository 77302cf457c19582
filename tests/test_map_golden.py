"""Pinned mapper output: placement, routing and emission must not drift.

Each case below was recorded once and is asserted exactly: the SHA-256 of
the emitted bitstream, the schedule length, the number of ROUTE ops and the
number of PEs used. The cases are every ``tests/kernels.py`` kernel on
``fixtures/standard.arch`` and seeded random DAGs from
``test_e2e.random_dfg`` on ``fixtures/standard_deep.arch``, rotated over the
three topologies. Congested cases put seeded random DAGs on 4x4 to 6x6
perimeter-LSU grids at context depth 8 and 16; an unmappable one pins the
``Unmappable`` message and blocking node. A change to any value is a change
to the mapper's output and must be intended, explained, and re-recorded.
"""

import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

from windmill.arch import TopologyKind, parse_arch_file, validate
from windmill.errors import Unmappable
from windmill.mapper import emit_bitstream, map_dfg, parse_dfg

from kernels import ALL_KERNELS, KERNEL_CONTEXT_DEPTH
from test_e2e import make_arch, random_dfg

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TOPOLOGIES = (TopologyKind.MESH2D, TopologyKind.TORUS, TopologyKind.ONE_HOP)
RANDOM_CASES = 30
CONGESTED_CASES = 48


def arch(name, **overrides):
    params = parse_arch_file((FIXTURES / name).read_text())
    return validate(replace(params, **overrides))


def summary(text, params):
    """(bitstream SHA-256, schedule length, route ops, PEs used)."""
    mapping = map_dfg(parse_dfg(text), params)
    blob = emit_bitstream(mapping)
    return (hashlib.sha256(blob).hexdigest(), mapping.schedule_length,
            mapping.route_op_count(), len(mapping.pes_used()))


def congested_summary(text, params):
    """``summary``, or (message, node) of the ``Unmappable`` it raises."""
    try:
        return summary(text, params)
    except Unmappable as exc:
        return str(exc), exc.node


def congested_case(k):
    size, topology, depth = 4 + k % 3, TOPOLOGIES[k // 3 % 3], (8, 16)[k // 9 % 2]
    rng = random.Random(9000 + k)
    text, *_ = random_dfg(rng, n_ops=rng.randint(10, 40))
    return text, make_arch(size, size, topology, depth)


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

CONGESTED_GOLDEN = {
    0: ('PE capacity exhausted during placement (blocking node: n8)', 'n8'),
    1: ('ccd50a95cb1968fcc40dfe0706bcae9494c16675841da5b1bd409c9a7b21939c', 25, 48, 21),
    2: ('PE (1, 2) needs 10 context words, capacity 7 (blocking node: $n5.19>)', '$n5.19>'),
    3: ('PE capacity exhausted during placement (blocking node: n12)', 'n12'),
    4: ('PE (1, 2) needs 9 context words, capacity 7 (blocking node: n23)', 'n23'),
    5: ('PE (1, 4) needs 8 context words, capacity 7 (blocking node: n1>)', 'n1>'),
    6: ('PE capacity exhausted during placement (blocking node: n13)', 'n13'),
    7: ('PE capacity exhausted during placement (blocking node: $n12.16)', '$n12.16'),
    8: ('PE (2, 1) needs 8 context words, capacity 7 (blocking node: n16>)', 'n16>'),
    9: ('9f1b261108381430026eb345cc085bdcd2d66f001e5dcde72273437c2136fb88', 30, 59, 16),
    10: ('bce79bf4ba75929a9c31c088c93171fa28c6a74b3c47d11d63b6aa3c918f1639', 54, 82, 23),
    11: ('e3338871122bdc607a93023adcf3925463742da1195aaec3f567d06e246c90d5', 49, 111, 28),
    12: ('PE capacity exhausted during placement (blocking node: $n18.15)', '$n18.15'),
    13: ('PE capacity exhausted during placement (blocking node: n26)', 'n26'),
    14: ('8b1f837514831fc2b7f56d36c58ab7490155660380db52e2c511f6b5472e64ab', 20, 78, 30),
    15: ('PE capacity exhausted during placement (blocking node: n14)', 'n14'),
    16: ('f4f53689ceff645aa09185792a0b9cb8e709eb3a8ab69f367e2b921c99a1dfe9', 21, 48, 21),
    17: ('eb346f4f301a76a27916b37a2b0becd84b2702e1249dc46d65420755fcbd6f55', 37, 106, 30),
    18: ('PE capacity exhausted during placement (blocking node: $c0.2)', '$c0.2'),
    19: ('PE capacity exhausted during placement (blocking node: n26)', 'n26'),
    20: ('PE capacity exhausted during placement (blocking node: $n34.23)', '$n34.23'),
    21: ('PE (2, 2) needs 8 context words, capacity 7 (blocking node: n4>)', 'n4>'),
    22: ('fc3f136b9b17c6fc2560162e43e96ee91a57423329164685dbd9775dbe8b6e90', 32, 47, 24),
    23: ('PE capacity exhausted during placement (blocking node: msk24)', 'msk24'),
    24: ('232ce53db3764554b628bc85e376aee5455fe710616f4bf04f24135686ae048a', 11, 22, 15),
    25: ('PE (2, 4) needs 8 context words, capacity 7 (blocking node: i6>)', 'i6>'),
    26: ('PE capacity exhausted during placement (blocking node: $c1.15)', '$c1.15'),
    27: ('115eab6f5ad819f85d760ee3102130cd146d8e7dde98c49df0505de136c78254', 33, 59, 16),
    28: ('7f64cb299f971398ebe8c380e0eecf4b9ce6b0acd153ad3517583367b575f4bc', 35, 100, 24),
    29: ('1e40b38f165e7c90e5745a6f28ee6ad600fb417f51585734b6836eabfc4e7366', 49, 102, 32),
    30: ('6e46c9760d07389c96c70b86e80f2f1461566a55618c21ea4a794a708e88923d', 32, 63, 16),
    31: ('1cb27f1a96baef618bb1faea4c65a99578f6f7536a5597f1c0fb49c5219f3554', 61, 90, 25),
    32: ('PE (2, 1) needs 17 context words, capacity 15 (blocking node: n26)', 'n26'),
    33: ('PE capacity exhausted during placement (blocking node: $n10.18)', '$n10.18'),
    34: ('8675be5e0b456cda911270cf722eaf694259036803d0017fed6fd660b4440d2a', 13, 33, 24),
    35: ('fba6ca6af1f4b07dcdf5d16adf501fe5fcc2e3dba3dc45c6ee787b751d8c5040', 24, 53, 27),
    36: ('PE capacity exhausted during placement (blocking node: n17)', 'n17'),
    37: ('PE capacity exhausted during placement (blocking node: n1)', 'n1'),
    38: ('3293adef27b0b3281be62777b158146cdea9fb7c25621d3b165cab4c0bfe2838', 24, 42, 29),
    39: ('PE capacity exhausted during placement (blocking node: $n7.3)', '$n7.3'),
    40: ('PE capacity exhausted during placement (blocking node: n12)', 'n12'),
    41: ('routing congestion never cleared (blocking node: $out2)', '$out2'),
    42: ('PE capacity exhausted during placement (blocking node: n14)', 'n14'),
    43: ('PE capacity exhausted during placement (blocking node: $n3.22)', '$n3.22'),
    44: ('PE (1, 1) needs 8 context words, capacity 7 (blocking node: n26)', 'n26'),
    45: ('PE capacity exhausted during placement (blocking node: $n32.11)', '$n32.11'),
    46: ('def0e4f180112916d5797c5aff8ca37c986b871603a19ab683fe49c020c3fdac', 54, 149, 24),
    47: ('e4a06ddc473c0903e7423b232d760618553af578ae98b94db105669271c597b0', 41, 91, 29),
}


@pytest.mark.parametrize("name", sorted(ALL_KERNELS))
def test_kernel_mapping_pinned(name):
    text = ALL_KERNELS[name]()[0]
    params = arch("standard.arch", context_depth_mcmd=KERNEL_CONTEXT_DEPTH[name])
    assert summary(text, params) == KERNEL_GOLDEN[name]


@pytest.mark.parametrize("k", range(RANDOM_CASES))
def test_random_mapping_pinned(k):
    assert summary(*random_case(k)) == RANDOM_GOLDEN[k]


@pytest.mark.parametrize("k", range(CONGESTED_CASES))
def test_congested_mapping_pinned(k):
    assert congested_summary(*congested_case(k)) == CONGESTED_GOLDEN[k]

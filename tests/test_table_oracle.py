"""Pinned digests of exact character tables.

Each digest covers a table's ``irreducibles`` (every value's coordinates),
``galois``, ``degrees`` and ``modulus``, and its rational classes (members,
field degree, Schur index and psi).  Any change to the lift, the row order,
the Galois action or the rational classes changes a digest, so a faster
table must reproduce the old one bit for bit.  The groups are the benchmark's
fourteen, built from the same generator tuples, and D244, D508, Z2^6, C105
and Z7 x| Z9.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import semidirect_7_9
from jacdecomp.characters import character_table, rational_classes
from jacdecomp.groups import Permutation, build_group, preset_dihedral, preset_elementary_abelian_2


def _dihedral(q: int):
    n = 2 * q
    return [tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n))], ["r", "s"]


def _elementary_abelian_2(t: int):
    gens = []
    for i in range(t):
        images = list(range(2 * t))
        images[2 * i], images[2 * i + 1] = images[2 * i + 1], images[2 * i]
        gens.append(tuple(images))
    return gens, [f"e{i + 1}" for i in range(t)]


def _built(gens, names):
    return lambda: build_group([Permutation(g) for g in gens], names)


GROUPS = {
    "D12": _built(*_dihedral(3)),
    "D20": _built(*_dihedral(5)),
    "D28": _built(*_dihedral(7)),
    "D40": _built(*_dihedral(10)),
    "D44": _built(*_dihedral(11)),
    "D60": _built(*_dihedral(15)),
    "D84": _built(*_dihedral(21)),
    "Z2^3": _built(*_elementary_abelian_2(3)),
    "Z2^4": _built(*_elementary_abelian_2(4)),
    "Z2^5": _built(*_elementary_abelian_2(5)),
    "Q8": _built([(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)], ["i", "j"]),
    "A4": _built([(1, 2, 0, 3), (1, 0, 3, 2)], ["a", "b"]),
    "S4": _built([(1, 2, 3, 0), (1, 0, 2, 3)], ["a", "b"]),
    "F20": _built([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)], ["t", "u"]),
    "D244": lambda: preset_dihedral(61),
    "D508": lambda: preset_dihedral(127),
    "Z2^6": lambda: preset_elementary_abelian_2(6),
    "C105": _built([tuple((x + 1) % 105 for x in range(105))], ["c"]),
    "Z7:Z9": semidirect_7_9,
}

DIGESTS = {
    "A4": "864751f7f37ad79ca3de2fa33fe66af6dd69cfa41b44328648be45458a0c3dd7",
    "C105": "c3d01de2a384f0100bebe0e5fbd562eaf0a1d8e7c0c1e388766362d21d6e91f8",
    "D12": "0761911e4a84cd4113fca219a02aca94829dd4fcb39a39cfa8146bf26f12ae2b",
    "D20": "0339e2c354b405b3bd9875793cd1e858e98a02bc9130aef5584696a29ca4f1a8",
    "D244": "5857bd8bf1c08977bafc4dba844887c0d351a5c26a7d0c3658eb4a99af8e22b9",
    "D28": "e4f2119741598d2c88cd46ff9b24547f96169c0f09c6b9dfdcbbc0f3c6d40b87",
    "D40": "9bc8117cec644bacc487f2daf56fbe8102b723d2672a8864056ad03d08fffeb7",
    "D44": "a2af3d196d69bc0838c2116e46efd31758cd4d5bdf3fb0110b34079566bae2cf",
    "D508": "c2090850e11a480ac28163eaf2803549249cb8a85a67bd75893f2a3e266b022f",
    "D60": "ec7a1295df45603c5629eb0849ac81ce3fdce0170eeb4e42f20596cabc8108ab",
    "D84": "08084d5c7cbc4f8ea807abd35ac4a136b43f9e7fa0d06fedd824182d07161718",
    "F20": "19c33641f40b6a27e1d46bf74f5de62be4395b8a7aefed2d8189f26dcb684dd8",
    "Q8": "95cd2c0fe43bf3a29c01a7c0a4263de564cddb3b49e7465415fa205ee5898262",
    "S4": "e4e6459beb2323a95e64211d86f172a6e528813adfc932abacfab1686cde914a",
    "Z2^3": "b455c7ef89f42b2be1263e4f7dfc06ec213b0c4cb51aae36f4cd8fd949bf9934",
    "Z2^4": "096ac44734637be9c64699c3ab269d445a651236c7f88155373a770883a2223f",
    "Z2^5": "c3e6327df413164c6917d43e1cae48aa7c168d8d8d9a930884be289e9b81684d",
    "Z2^6": "70773717ab55b324d8e6dfe55501ecef79c8f9d427db012cea78997801d8225e",
    "Z7:Z9": "09797c2cf60d5312bd1b5ef7428e1635b7d16c4d911134bb7c44b7dd7fc6fd91",
}


def table_digest(group) -> str:
    table = character_table(group)
    document = (
        tuple(tuple(v.coeffs for v in row.values) for row in table.irreducibles),
        table.galois,
        table.degrees,
        table.modulus,
        tuple(
            (rc.member_indices, rc.field_degree, rc.schur_index, rc.psi)
            for rc in rational_classes(table)
        ),
    )
    return hashlib.sha256(repr(document).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_table_digest_is_pinned(name):
    assert table_digest(GROUPS[name]()) == DIGESTS[name]

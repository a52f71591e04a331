"""Seeded inputs, operations and correctness gates of ladder_cold and action_sweep.

Everything the program receives in ladder_cold and action_sweep is generated
here from the run's seed: point relabellings of the group generators, random
generating vectors and subgroup collections (the CLI mix is in climix.py).  The
program is always reached through its module attributes (``groups.mul``,
``characters.character_table``, ...) so that the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from jacdecomp import characters, covering, decomposition, groups

# -- group library ---------------------------------------------------------------
# Generators as image tuples on points 0..n-1, with their names.  The presets in
# jacdecomp.groups are lru_cached for the whole process, so the benchmark always
# builds its groups itself with build_group.


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


GROUP_GENERATORS = {
    "D12": _dihedral(3),
    "D20": _dihedral(5),
    "D28": _dihedral(7),
    "D40": _dihedral(10),
    "D44": _dihedral(11),
    "D60": _dihedral(15),
    "D84": _dihedral(21),
    "Z2^3": _elementary_abelian_2(3),
    "Z2^4": _elementary_abelian_2(4),
    "Z2^5": _elementary_abelian_2(5),
    # regular action of the quaternion group, as in groups.preset_quaternion
    "Q8": ([(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)], ["i", "j"]),
    "A4": ([(1, 2, 0, 3), (1, 0, 3, 2)], ["a", "b"]),
    "S4": ([(1, 2, 3, 0), (1, 0, 2, 3)], ["a", "b"]),
    # x -> x + 1 and x -> 2x on Z/5: the Frobenius group of order 20
    "F20": ([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)], ["t", "u"]),
}

LADDER = ("D44", "D60", "D84", "Z2^5")
SWEEP_LIBRARY = ("D12", "D20", "D28", "D40", "Z2^3", "Z2^4", "Q8", "A4", "S4", "F20")


def relabelled_generators(name: str, rng: random.Random):
    """The named group's generators conjugated by a seeded point relabelling."""
    gens, names = GROUP_GENERATORS[name]
    sigma = list(range(len(gens[0])))
    rng.shuffle(sigma)
    relabelled = []
    for images in gens:
        new = [0] * len(images)
        for i, image in enumerate(images):
            new[sigma[i]] = sigma[image]
        relabelled.append(tuple(new))
    return relabelled, names


def build(gens, names) -> groups.FiniteGroup:
    return groups.build_group([groups.Permutation(g) for g in gens], names)


# -- ladder_cold --------------------------------------------------------------------


def ladder_inputs(seed: int):
    rng = random.Random(f"ladder:{seed}")
    return [(name, *relabelled_generators(name, rng)) for name in LADDER]


def ladder_structure(gens, names) -> dict:
    """One ladder op: all group-level structure of one group, from scratch."""
    group = build(gens, names)
    classes = groups.conjugacy_classes(group)
    table = characters.character_table(group)
    rational = characters.rational_classes(table)
    lattice = groups.enumerate_subgroups(group)
    return {
        "order": group.order,
        "degree_square_sum": sum(d * d for d in table.degrees),
        "classes": len(classes),
        "degrees": sorted(table.degrees),
        "rational_classes": sorted(
            [rc.degree, rc.field_degree, rc.schur_index] for rc in rational
        ),
        "subgroups": len(lattice),
    }


def ladder_gate(name: str, result: dict, expected: dict) -> str | None:
    """None when the op's output matches the stored invariants, else why not."""
    if result["degree_square_sum"] != result["order"]:
        return f"{name}: sum of squared degrees {result['degree_square_sum']} != |G|"
    want = expected["ladder"][name]
    for key, value in want.items():
        if result[key] != value:
            return f"{name}: {key} is {result[key]}, expected {value}"
    return None


# -- action_sweep ---------------------------------------------------------------------


def random_action(group, rng: random.Random, max_tries: int = 400):
    """A random valid generating vector (copy of the test suite's sampler).

    Handles and all but the last branch element are sampled uniformly; the
    last branch element closes the long relation.  Retries until the vector
    generates the whole group.
    """
    order = group.order
    for _ in range(max_tries):
        gamma = rng.choice((0, 0, 1, 2))
        n_branch = rng.randint(0 if gamma else 2, 5)
        handles = tuple((rng.randrange(order), rng.randrange(order)) for _ in range(gamma))
        partial = [rng.randrange(1, order) for _ in range(max(0, n_branch - 1))]
        product = 0
        for a, b in handles:
            commutator = group.mul(group.mul(group.mul(a, b), group.inv(a)), group.inv(b))
            product = group.mul(product, commutator)
        for c in partial:
            product = group.mul(product, c)
        closer = group.inv(product)
        branch = partial + ([closer] if closer != 0 else [])
        if not branch and gamma == 0:
            continue
        action = covering.CoveringAction(
            group=group,
            orbit_genus=gamma,
            periods=tuple(group.element_order(c) for c in branch),
            handles=handles,
            branch_elements=tuple(branch),
        )
        try:
            covering.validate_action(action)
        except (covering.NotGenerating, covering.RelationFails):
            continue
        return action
    raise RuntimeError(f"no valid random action found for group of order {order}")


def sweep_setup(seed: int, draw: int, ops: int):
    """Build the library with tables and lattices, then draw the ops' inputs.

    Returns one (action, lattice, collection, conjugate collection) per op, the
    groups taken round-robin over the library.  Each draw of one seed gives
    other inputs, so that repetitions of a run add distinct ops.
    """
    rng = random.Random(f"sweep:{seed}:{draw}")
    library = []
    for name in SWEEP_LIBRARY:
        group = build(*relabelled_generators(name, rng))
        characters.character_table(group)
        library.append((group, groups.enumerate_subgroups(group)))
    inputs = []
    for i in range(ops):
        group, lattice = library[i % len(library)]
        action = random_action(group, rng)
        collection = rng.sample(lattice, rng.choice((2, 3)))
        g = rng.randrange(group.order)
        inputs.append((action, lattice, collection, [h.conjugate_by(g) for h in collection]))
    # the sampler validated every action; the ops must validate from scratch
    covering.validate_action.cache_clear()
    return inputs


def riemann_hurwitz_genus(action) -> Fraction:
    """Total genus from the signature alone: 2g - 2 = |G|(2*gamma - 2 + sum(1 - 1/m))."""
    order = action.group.order
    rhs = order * (2 * action.orbit_genus - 2) + sum(
        order * (1 - Fraction(1, m)) for m in action.periods
    )
    return (rhs + 2) / 2


def sweep_op(action, lattice, collection, conjugate) -> str | None:
    """One sweep op; returns None when every gate holds, else why it failed."""
    certificate = covering.validate_action(action)
    genus = riemann_hurwitz_genus(action)
    if certificate.total_genus != genus:
        return f"validate_action genus {certificate.total_genus} != Riemann-Hurwitz {genus}"
    analysis = decomposition.analyze(action)
    factors = analysis.factors
    conserved = sum(f.exponent * f.dim for f in factors)
    if conserved != genus:
        return f"sum n*dim = {conserved} != genus {genus}"
    for h in lattice:
        profile = analysis.profile(h)
        by_factors = sum(n * f.dim for n, f in zip(profile.exponents, factors))
        if profile.genus != by_factors:
            return f"profile genus {profile.genus} != sum n_H*dim {by_factors}"
    verdicts = []
    for coll in (collection, conjugate):
        report = analysis.admissibility(coll)
        dim_p = analysis.theorem1(coll).dim_p if report.admissible else None
        verdicts.append((report.admissible, dim_p))
    if verdicts[0] != verdicts[1]:
        return f"verdict {verdicts[0]} changed under conjugation to {verdicts[1]}"
    return None

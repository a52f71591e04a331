"""Shared fixtures: bundled actions, a preset group library, random actions."""

from __future__ import annotations

import random

import pytest

from jacdecomp.covering import CoveringAction, validate_action
from jacdecomp.covering import NotGenerating, RelationFails
from jacdecomp.groups import (
    FiniteGroup,
    Permutation,
    build_group,
    preset_dihedral,
    preset_elementary_abelian_2,
    preset_quaternion,
    subgroup_generate,
)


def dihedral_action(q: int) -> tuple[FiniteGroup, CoveringAction]:
    """The bundled dihedral covering: genus 4q-1, six branch points."""
    group = preset_dihedral(q)
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    sr = group.mul(s, r)
    action = CoveringAction(
        group=group,
        orbit_genus=0,
        periods=(2, 2, 2, 2, 2 * q, 2 * q),
        handles=(),
        branch_elements=(s, s, sr, sr, r, group.inv(r)),
    )
    validate_action(action)
    return group, action


def fiber_action(genera) -> tuple[FiniteGroup, CoveringAction]:
    """Raw elementary-abelian fiber action, built by hand for oracle use."""
    t = len(genera)
    group = preset_elementary_abelian_2(t)
    gens = [group.generator_names[f"e{i + 1}"] for i in range(t)]
    vector = []
    for i, g in enumerate(genera):
        vector.extend([gens[i]] * (2 * g + 2))
    action = CoveringAction(
        group=group,
        orbit_genus=0,
        periods=tuple(2 for _ in vector),
        handles=(),
        branch_elements=tuple(vector),
    )
    validate_action(action)
    return group, action


@pytest.fixture(scope="session")
def d2q():
    return dihedral_action


@pytest.fixture(scope="session")
def fiber():
    return fiber_action


@pytest.fixture(scope="session")
def d2q3_subgroups():
    """The named subgroups of the q = 3 dihedral scenario."""
    group, action = dihedral_action(3)
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    return {
        "group": group,
        "action": action,
        "H1": subgroup_generate(group, (s,)),
        "H2": subgroup_generate(group, (group.mul(s, r),)),
        "H3": subgroup_generate(group, (r,)),
        "H4": subgroup_generate(group, (group.power(r, 3),)),
    }


def group_library(max_order: int = 40) -> list[FiniteGroup]:
    """Preset groups of order at most max_order used by the property suites."""
    groups: list[FiniteGroup] = []
    for q in (1, 2, 3, 5, 7, 10):
        if 4 * q <= max_order:
            groups.append(preset_dihedral(q))
    for t in (1, 2, 3, 4):
        if 2**t <= max_order:
            groups.append(preset_elementary_abelian_2(t))
    groups.append(preset_quaternion())
    return groups


def semidirect_7_9() -> FiniteGroup:
    """Z7 x| Z9 with b a b^-1 = a^2: order 63, 15 classes, degrees 1^9 3^6.

    a is the 7-cycle x -> x+1 on points 0..6; b is x -> 2x on 0..6 times the
    9-cycle on points 7..15.  It is the smallest group with a rational Schur
    index of 3.
    """
    a = Permutation(tuple((x + 1) % 7 for x in range(7)) + tuple(range(7, 16)))
    b = Permutation(tuple(2 * x % 7 for x in range(7)) + tuple(7 + (y + 1) % 9 for y in range(9)))
    return build_group([a, b], ["a", "b"])


def dicyclic_group(n):
    """Q_4n = <a, x | a^2n = 1, x^2 = a^n, x a x^-1 = a^-1> in its regular action.

    Point k + 2n*s stands for a^k x^s, and a and x act by left multiplication:
    a a^k x^s = a^(k+1) x^s, x a^k = a^-k x and x a^k x = a^(n-k).
    """
    m = 2 * n
    a = Permutation(tuple((k + 1) % m + m * s for s in (0, 1) for k in range(m)))
    x = Permutation(tuple(
        (-k) % m + m if s == 0 else (n - k) % m for s in (0, 1) for k in range(m)
    ))
    group = build_group([a, x], ["a", "x"])
    assert group.order == 4 * n
    return group


@pytest.fixture(scope="session")
def library():
    return group_library()


def random_action(group: FiniteGroup, rng: random.Random, max_tries: int = 400) -> CoveringAction:
    """A random valid generating vector over the group (seeded, deterministic).

    Handles and all but the last branch element are sampled uniformly; the
    last branch element closes the long relation.  Retries until the vector
    generates the whole group.
    """
    order = group.order
    for _ in range(max_tries):
        gamma = rng.choice((0, 0, 1, 2))
        n_branch = rng.randint(0 if gamma else 2, 5)
        handles = tuple(
            (rng.randrange(order), rng.randrange(order)) for _ in range(gamma)
        )
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
        action = CoveringAction(
            group=group,
            orbit_genus=gamma,
            periods=tuple(group.element_order(c) for c in branch),
            handles=handles,
            branch_elements=tuple(branch),
        )
        try:
            validate_action(action)
        except (NotGenerating, RelationFails):
            continue
        return action
    raise AssertionError(f"no valid random action found for group of order {order}")


@pytest.fixture(scope="session")
def make_random_action():
    return random_action


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    entries = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.getreports(outcome):
            if rep.when == "call" and "test_acceptance.py" in rep.nodeid:
                entries.append((rep.nodeid.split("::")[-1], outcome.upper()))
    if entries:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(entries):
            terminalreporter.write_line(f"{outcome:>6}  {name}")

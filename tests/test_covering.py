"""Covering data validation, Riemann-Hurwitz genus, quotient genera."""

import random
from fractions import Fraction

import pytest

from jacdecomp import covering
from jacdecomp.covering import (
    CoveringAction,
    MalformedAction,
    NotGenerating,
    PeriodMismatch,
    RelationFails,
    branch_stabilizers,
    orbit_count,
    quotient_genus,
    total_genus,
    validate_action,
)
from jacdecomp.groups import (
    NotASubgroup,
    Subgroup,
    coset_action,
    enumerate_subgroups,
    full_subgroup,
    preset_dihedral,
    preset_elementary_abelian_2,
    subgroup_class,
    subgroup_generate,
    trivial_subgroup,
)
from jacdecomp.decomposition import analyze
from conftest import dihedral_action, fiber_action, group_library, random_action, semidirect_7_9
from test_groups import is_conjugacy_canonical


@pytest.mark.parametrize("q", [3, 5, 7])
def test_dihedral_action_valid_with_expected_genus(q):
    group, action = dihedral_action(q)
    certificate = validate_action(action)
    assert certificate.total_genus == 4 * q - 1
    assert total_genus(action) == 4 * q - 1


def test_period_mismatch_detected():
    group, action = dihedral_action(3)
    bad = CoveringAction(
        group, 0, (2, 2, 2, 2, 6, 3), (), action.branch_elements
    )
    with pytest.raises(PeriodMismatch) as err:
        validate_action(bad)
    assert err.value.branch_index == 5


def test_relation_failure_detected():
    group, action = dihedral_action(3)
    r = group.generator_names["r"]
    bad = CoveringAction(
        group, 0, (2, 2, 2, 2, 6, 6), (), action.branch_elements[:5] + (r,)
    )
    with pytest.raises(RelationFails):
        validate_action(bad)


def test_not_generating_detected():
    group = preset_elementary_abelian_2(2)
    e1 = group.generator_names["e1"]
    bad = CoveringAction(group, 0, (2, 2, 2, 2), (), (e1, e1, e1, e1))
    with pytest.raises(NotGenerating):
        validate_action(bad)


def test_malformed_action_checks():
    group, action = dihedral_action(3)
    with pytest.raises(MalformedAction):
        validate_action(CoveringAction(group, 1, action.periods, (), action.branch_elements))
    with pytest.raises(MalformedAction):
        validate_action(CoveringAction(group, 0, (2, 2), (), action.branch_elements))


def test_fiber_square_genus():
    group, action = fiber_action((1, 1))
    assert total_genus(action) == 5


def test_unramified_torus_action():
    group = preset_elementary_abelian_2(2)
    e1 = group.generator_names["e1"]
    e2 = group.generator_names["e2"]
    action = CoveringAction(group, 1, (), ((e1, e2),), ())
    assert total_genus(action) == 1


@pytest.mark.parametrize("q", [3, 5, 7])
def test_quotient_genera_of_named_subgroups(q):
    group, action = dihedral_action(q)
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    h1 = subgroup_generate(group, (s,))
    h2 = subgroup_generate(group, (group.mul(s, r),))
    h3 = subgroup_generate(group, (r,))
    assert quotient_genus(action, h1) == 2 * q - 1
    assert quotient_genus(action, h2) == 2 * q - 1
    assert quotient_genus(action, h3) == 1
    assert quotient_genus(action, full_subgroup(group)) == 0
    assert quotient_genus(action, trivial_subgroup(group)) == total_genus(action)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_central_involution_quotient_via_fixed_point_oracle(q):
    """Degree-2 quotient genus checked against direct fixed-point counting.

    The points of the surface above branch value k are the cosets of the
    cyclic stabilizer; a point g<c_k> is fixed by z exactly when z lies in
    g<c_k>g^-1.  Riemann-Hurwitz for the order-2 quotient then gives the
    genus directly, independent of the coset-orbit route.
    """
    group, action = dihedral_action(q)
    r = group.generator_names["r"]
    z = group.power(r, q)
    fixed_points = 0
    for c in action.branch_elements:
        stabilizer = subgroup_generate(group, (c,))
        seen_cosets = set()
        for g in range(group.order):
            coset = tuple(sorted(group.mul(g, m) for m in stabilizer.members))
            if coset in seen_cosets:
                continue
            seen_cosets.add(coset)
            conjugate = {group.conjugate(m, g) for m in stabilizer.members}
            if z in conjugate:
                fixed_points += 1
    assert fixed_points == 4
    g_c = total_genus(action)
    # 2 g_C - 2 = 2 (2 g' - 2) + fixed_points
    g_prime = (2 * g_c - 2 - fixed_points + 4) // 4
    assert g_prime == 2 * q - 1
    h4 = subgroup_generate(group, (z,))
    assert quotient_genus(action, h4) == g_prime


def test_quotient_genus_monotone_under_inclusion():
    group, action = dihedral_action(3)
    subgroups = enumerate_subgroups(group)
    for h in subgroups:
        for k in subgroups:
            if set(h.members) <= set(k.members):
                assert quotient_genus(action, h) >= quotient_genus(action, k)


def test_quotient_genus_conjugation_invariant():
    group, action = dihedral_action(3)
    rng = random.Random(3)
    for h in enumerate_subgroups(group):
        g = rng.randrange(group.order)
        assert quotient_genus(action, h) == quotient_genus(action, h.conjugate_by(g))


def test_fiber_diagonal_quotient_genus():
    group, action = fiber_action((1, 1))
    e1 = group.generator_names["e1"]
    e2 = group.generator_names["e2"]
    diagonal = subgroup_generate(group, (group.mul(e1, e2),))
    assert quotient_genus(action, diagonal) == 3
    assert quotient_genus(action, subgroup_generate(group, (e1,))) == 1
    assert quotient_genus(action, subgroup_generate(group, (e2,))) == 1


def test_quotient_genus_rejects_foreign_subgroup():
    group, action = dihedral_action(3)
    other = preset_dihedral(5)
    with pytest.raises(NotASubgroup):
        quotient_genus(action, trivial_subgroup(other))


def test_branch_stabilizers_have_declared_periods():
    group, action = dihedral_action(5)
    for stab, period in zip(branch_stabilizers(action), action.periods):
        assert stab.order == period


def test_certificate_contributions_sum():
    group, action = dihedral_action(3)
    certificate = validate_action(action)
    rhs = group.order * (2 * action.orbit_genus - 2) + sum(certificate.contributions)
    assert rhs == 2 * certificate.total_genus - 2


def test_certificate_contributions_are_fractions_of_riemann_hurwitz():
    rng = random.Random(4242)
    for group in group_library():
        for _ in range(4):
            action = random_action(group, rng)
            contributions = validate_action(action).contributions
            assert len(contributions) == len(action.periods)
            for c, m in zip(contributions, action.periods):
                assert type(c) is Fraction
                assert c == group.order * (1 - Fraction(1, m))


def test_orbit_count_of_the_rotations_on_the_cosets_of_a_reflection():
    group = preset_dihedral(3)
    r, s = group.generator_names["r"], group.generator_names["s"]
    cosets = coset_action(group, subgroup_generate(group, (s,)))
    assert orbit_count(Subgroup(group, (r,)), cosets) == 1
    assert orbit_count(Subgroup(group, (0,)), cosets) == 6


def _orbit_count_by_frontier(stabilizer, cosets):
    """Orbits of the stabilizer on the cosets by a frontier search over all of
    its generators: an independent oracle for the cycle walk."""
    reps, coset_of = cosets.representatives, cosets.coset_of
    n, table = cosets.group.order, cosets.group._table
    seen = [False] * len(reps)
    count = 0
    for start in range(len(reps)):
        if seen[start]:
            continue
        count += 1
        frontier = [start]
        seen[start] = True
        while frontier:
            rep = reps[frontier.pop()]
            for g in stabilizer.generators:
                y = coset_of[table[g * n + rep]]
                if not seen[y]:
                    seen[y] = True
                    frontier.append(y)
    return count


@pytest.mark.parametrize("q", [None, 11, 15], ids=["library", "D44", "D60"])
def test_orbit_count_walks_the_cycles_of_every_cyclic_stabilizer(q):
    groups = group_library() if q is None else [preset_dihedral(q)]
    for group in groups:
        stabilizers = [subgroup_generate(group, (c,)) for c in range(group.order)]
        for subgroup in enumerate_subgroups(group):
            cosets = coset_action(group, subgroup)
            for stab in stabilizers:
                assert orbit_count(stab, cosets) == _orbit_count_by_frontier(stab, cosets)


def test_orbit_count_needs_a_cyclic_stabilizer_with_one_generator():
    group = preset_dihedral(3)
    r, s = group.generator_names["r"], group.generator_names["s"]
    cosets = coset_action(group, trivial_subgroup(group))
    with pytest.raises(ValueError, match="^the stabilizer must be cyclic with one generator$"):
        orbit_count(Subgroup(group, (r, s)), cosets)


# -- the group's orbit counts: one walk per (class of H, class of <c>) -------------------


def test_every_cached_orbit_count_is_a_fresh_walk_and_the_dict_is_bounded():
    """Rows are keyed by H's class and entries by <c>'s: every lattice member H, not just
    the row's key, reads a fresh walk's count for each stabilizer and each conjugate."""
    rng = random.Random(2020)
    for group in group_library():
        lattice = enumerate_subgroups(group)
        canonical = [h for h in lattice if is_conjugacy_canonical(h)]  # one per class
        classes = len(canonical)
        cyclic = sum(  # the cyclic ones: those with an element of full order
            any(group.element_order(x) == h.order for x in h) for h in canonical
        )
        stabilizers = {}
        for _ in range(3):
            action = random_action(group, rng)
            stabilizers.update((stab.index, stab) for stab in branch_stabilizers(action))
            analysis = analyze(action)
            for subgroup in lattice:
                analysis.profile(subgroup)
                assert len(group._orbit_counts) <= classes
                assert all(len(row) <= cyclic for row in group._orbit_counts.values())
                assert len(group._subgroup_classes) <= len(lattice)
        conjugates = {c.members: c for stab in stabilizers.values()
                      for c in (stab.conjugate_by(g) for g in range(group.order))}
        assert len(group._orbit_counts) == classes
        for subgroup in lattice:
            row, cosets = group._orbit_counts[subgroup_class(subgroup)], coset_action(group, subgroup)
            for stab in conjugates.values():
                assert row[subgroup_class(stab)] == orbit_count(stab, cosets)


def test_a_second_analysis_of_the_same_action_walks_no_orbit(monkeypatch):
    group = semidirect_7_9()  # built here, so no orbit count is cached yet
    action = random_action(group, random.Random(20))
    lattice = enumerate_subgroups(group)
    calls = []
    original = covering.orbit_count

    def counting(stabilizer, cosets):
        calls.append((stabilizer.members, cosets.degree))
        return original(stabilizer, cosets)

    monkeypatch.setattr(covering, "orbit_count", counting)
    first = analyze(action)
    genera = [first.profile(subgroup).genus for subgroup in lattice]
    assert calls
    calls.clear()
    second = analyze(action)
    assert [second.profile(subgroup).genus for subgroup in lattice] == genera
    assert calls == []


def test_another_action_with_cached_counts_builds_no_coset_action_and_walks_no_orbit(monkeypatch):
    group, action = dihedral_action(3)  # branch elements s, s, sr, sr, r, r^-1
    r, s = group.generator_names["r"], group.generator_names["s"]
    sr = group.mul(s, r)
    # the same cyclic stabilizers from other elements and another order: r^-1 r = 1
    other = action._replace(branch_elements=(sr, sr, s, s, group.inv(r), r))
    validate_action(other)
    lattice = enumerate_subgroups(group)
    first = analyze(action)
    genera = [first.profile(subgroup).genus for subgroup in lattice]
    calls = []

    def counted(name):
        original = getattr(covering, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("coset_action", "orbit_count"):
        monkeypatch.setattr(covering, name, counted(name))
    second = analyze(other)
    assert [second.profile(subgroup).genus for subgroup in lattice] == genera
    assert calls == []


def test_equal_branch_elements_share_one_stabilizer_object():
    rng = random.Random(2929)
    for group in group_library() + [semidirect_7_9()]:
        for _ in range(4):
            action = random_action(group, rng)
            stabilizers = branch_stabilizers(action)
            again = branch_stabilizers(action)
            for c, stab, same in zip(action.branch_elements, stabilizers, again):
                assert stab is same
                assert stab.generators == (c,)
                assert stab.describe() == subgroup_generate(group, (c,)).describe()
            pairs = list(zip(action.branch_elements, stabilizers))
            assert all((stab is other) == (c == d) for c, stab in pairs for d, other in pairs)
            assert len(group._cyclic_subgroups) <= group.order


def test_a_stabilizer_of_another_group_raises_not_a_subgroup():
    group, action = dihedral_action(3)  # D12
    foreign = preset_dihedral(5)  # D20
    lattice = enumerate_subgroups(group)
    analysis = analyze(action)
    for subgroup in lattice:  # every count of the action is cached, so a foreign index can hit one
        analysis.profile(subgroup)
    subgroup = lattice[3]
    stabilizers = branch_stabilizers(action)
    for c in range(foreign.order):
        stab = subgroup_generate(foreign, (c,))
        for given in ([stab] * 4, stabilizers[:2] + (stab,)):
            with pytest.raises(NotASubgroup, match="^stabilizer belongs to a different group$"):
                covering.genus_from_branch_data(group, 0, given, subgroup)
        with pytest.raises(NotASubgroup):
            orbit_count(stab, coset_action(group, subgroup))
    genus = covering.genus_from_branch_data(group, 0, stabilizers, subgroup)
    assert genus == analysis.profile(subgroup).genus

"""Acceptance suite: one test per criterion, all tolerances exact (zero).

Every expected value here is either a frozen reference number or is
recomputed through an independent route inside the test; nothing is compared
approximately, because the whole engine is exact arithmetic.
"""

import itertools
import random
from fractions import Fraction

import pytest

from jacdecomp.characters import (
    central_idempotent,
    character_table,
    fixed_dim,
    inner_product,
    permutation_character,
    rational_classes,
    regular_character,
    trivial_character,
)
from jacdecomp.covering import quotient_genus, total_genus
from jacdecomp.cyclotomic import Cyclotomic
from jacdecomp.decomposition import (
    analyze,
    cor3_plan,
    fiber_product_action,
)
from jacdecomp.groups import (
    conjugacy_classes,
    enumerate_subgroups,
    preset_dihedral,
    preset_elementary_abelian_2,
    preset_quaternion,
    subgroup_generate,
)
from conftest import dihedral_action, fiber_action, group_library, random_action
from test_characters import dihedral_label_map


def named(q):
    group, action = dihedral_action(q)
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    return group, action, {
        "H1": subgroup_generate(group, (s,)),
        "H2": subgroup_generate(group, (group.mul(s, r),)),
        "H3": subgroup_generate(group, (r,)),
        "H4": subgroup_generate(group, (group.power(r, q),)),
    }


def test_criterion_01_character_engine_exactness():
    """Dihedral 4q (q in 3,5,7), (Z_2)^t (t <= 4), quaternion: exact tables."""
    groups = [preset_dihedral(q) for q in (3, 5, 7)]
    groups += [preset_elementary_abelian_2(t) for t in (1, 2, 3, 4)]
    groups.append(preset_quaternion())
    for group in groups:
        table = character_table(group)
        k = len(conjugacy_classes(group))
        assert len(table.irreducibles) == k
        assert sum(d * d for d in table.degrees) == group.order
        for i, a in enumerate(table.irreducibles):
            for j, b in enumerate(table.irreducibles):
                assert inner_product(a, b) == (1 if i == j else 0)
        e = group.exponent
        sizes = table.classes.sizes
        for c1 in range(k):
            for c2 in range(k):
                total = Cyclotomic.zero(e)
                for row in table.irreducibles:
                    total = total + row.values[c1] * row.values[c2].conjugate()
                expected = Fraction(group.order, sizes[c1]) if c1 == c2 else 0
                assert total == Cyclotomic.from_rational(expected, e)
    print("criterion 1: character engine exact for all reference groups")


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_02_fixed_subspace_table(q):
    """Reference fixed-dimension rows for H1, H2, H3 against V2..V6."""
    group, action, subs = named(q)
    table, classes, labels = dihedral_label_map(group)
    expected = {
        "H1": (0, 1, 0, 1, 1),
        "H2": (0, 0, 1, 1, 1),
        "H3": (1, 0, 0, 0, 0),
    }
    class_of = table.classes.class_of
    for name, row in expected.items():
        subgroup = subs[name]
        for j, cell in zip(range(2, 7), row):
            chi = classes[labels[f"V{j}"]].character
            # route 1: character average over the subgroup
            total = Cyclotomic.zero(group.exponent)
            for h in subgroup.members:
                total = total + chi.values[class_of[h]]
            average = (total * Fraction(1, subgroup.order)).as_rational()
            # route 2: Frobenius reciprocity through the permutation character
            induction = inner_product(permutation_character(group, subgroup), chi)
            assert average == induction == cell
            assert fixed_dim(chi, subgroup) == cell
    print(f"criterion 2: fixed-subspace table reproduced for q={q}")


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_03_factor_data(q):
    """Factor dims (0,1,1,1,q-1,q-1), exponents (1,1,1,1,2,2), conservation."""
    group, action, _ = named(q)
    _, _, labels = dihedral_label_map(group)
    factors = analyze(action).factors
    dims = [factors[labels[f"V{j}"]].dim for j in range(1, 7)]
    exps = [factors[labels[f"V{j}"]].exponent for j in range(1, 7)]
    assert dims == [0, 1, 1, 1, q - 1, q - 1]
    assert exps == [1, 1, 1, 1, 2, 2]
    assert sum(f.exponent * f.dim for f in factors) == 4 * q - 1 == total_genus(action)
    print(f"criterion 3: factor data exact for q={q}")


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_04_quotient_genera_two_routes(q):
    """Coset-orbit Riemann-Hurwitz versus character-side profile sums."""
    group, action, subs = named(q)
    analysis = analyze(action)
    expected = {"H1": 2 * q - 1, "H2": 2 * q - 1, "H3": 1}
    for name, genus in expected.items():
        subgroup = subs[name]
        via_orbits = quotient_genus(action, subgroup)
        profile = analysis.profile(subgroup)
        via_characters = sum(
            n * f.dim for n, f in zip(profile.exponents, analysis.factors)
        )
        assert via_orbits == via_characters == genus
    print(f"criterion 4: quotient genera agree on both routes for q={q}")


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_05_theorem1_end_to_end(q):
    """Main collection gives a full decomposition; H1,H3 leaves dim 2q-1."""
    group, action, subs = named(q)
    analysis = analyze(action)
    main = [subs["H1"], subs["H2"], subs["H3"]]
    assert analysis.admissibility(main).admissible
    report = analysis.theorem1(main)
    assert report.dim_p == 0 and report.full
    pair = [subs["H1"], subs["H3"]]
    assert analysis.admissibility(pair).admissible
    report = analysis.theorem1(pair)
    assert report.dim_p == 2 * q - 1 and not report.full
    print(f"criterion 5: decomposition reports exact for q={q}")


def test_criterion_06_equivalence_checkers_agree():
    """Statement (2) and (3) agree on 100+ random collections; exact regular form."""
    rng = random.Random(20240614)
    checked = 0
    for build in (lambda: dihedral_action(3), lambda: fiber_action((1, 1))):
        group, action = build()
        analysis = analyze(action)
        subgroups = enumerate_subgroups(group)
        for _ in range(55):
            collection = [rng.choice(subgroups) for _ in range(rng.randint(1, 4))]
            report = analysis.proposition1(analysis.admissibility(collection))
            assert report.statement2 == report.statement3
            checked += 1
    assert checked >= 100
    group, action, subs = named(3)
    total = (
        permutation_character(group, subs["H1"])
        + permutation_character(group, subs["H2"])
        + permutation_character(group, subs["H3"])
    )
    assert total == regular_character(group) + 2 * trivial_character(group)
    print(f"criterion 6: equivalence checkers agree on {checked} collections")


def test_criterion_07_theorem_b_partitions():
    """Pointwise character identity and the exact dimension identities."""
    group, action, subs = named(3)
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    collection = [subs["H3"]] + [
        subgroup_generate(group, (group.mul(s, group.power(r, i)),)) for i in range(6)
    ]
    lhs = None
    for h in collection:
        term = h.order * permutation_character(group, h)
        lhs = term if lhs is None else lhs + term
    rhs = (len(collection) - 1) * regular_character(group) + group.order * trivial_character(group)
    assert lhs == rhs
    report = analyze(action).theorem_b(collection)
    assert report.holds
    assert report.dimension_lhs == report.dimension_rhs == 66

    fib_group, fib_action = fiber_action((1, 1))
    e1 = fib_group.generator_names["e1"]
    e2 = fib_group.generator_names["e2"]
    z2_collection = [
        subgroup_generate(fib_group, (e1,)),
        subgroup_generate(fib_group, (e2,)),
        subgroup_generate(fib_group, (fib_group.mul(e1, e2),)),
    ]
    z2_report = analyze(fib_action).theorem_b(z2_collection)
    assert z2_report.holds
    assert z2_report.dimension_lhs == z2_report.dimension_rhs == 10
    print("criterion 7: partition identities hold (66 = 66 and 10 = 10)")


def test_criterion_08_fiber_product_formulas():
    """All (t, g_i) with t in {2,3}, g_i in {1,2,3}: oracle equals formulas."""
    cases = 0
    for t in (2, 3):
        for genera in itertools.product((1, 2, 3), repeat=t):
            plan = fiber_product_action(genera)
            oracle = total_genus(plan.action)
            formula = 1 - 2**t + 2 ** (t - 1) * (t + sum(genera))
            assert oracle == plan.genus == formula
            assert plan.admissibility.admissible
            dim_formula = (
                1 + 2 ** (t - 1) * t - 2**t + (2 ** (t - 1) - 1) * sum(genera)
            )
            assert plan.theorem1.dim_p == plan.dim_p == dim_formula
            cases += 1
    assert cases == 36
    print(f"criterion 8: fiber formulas verified on {cases} cases")


def test_criterion_09_elliptic_plans():
    """Elliptic-count plans against the fiber oracle, exact."""
    expected = {2: (2, 0), 3: (7, 4), 4: (9, 5), 5: (25, 20)}
    for t, (genus, dim_p) in expected.items():
        plan = cor3_plan(t)
        assert (plan.genus, plan.dim_p) == (genus, dim_p)
        assert total_genus(plan.action) == genus
        assert plan.dim_p == plan.genus - t
    print("criterion 9: elliptic plans (2,0), (7,4), (9,5), (25,20) verified")


def test_criterion_10_pair_bookkeeping_all_pairs():
    """Every subgroup pair of the q=3 action: slacks and complement exact."""
    group, action, subs = named(3)
    analysis = analyze(action)
    subgroups = enumerate_subgroups(group)
    for h1, h2 in itertools.product(subgroups, repeat=2):
        report = analysis.proposition2(h1, h2)
        assert all(isinstance(d, int) and d >= 0 for d in report.deltas)
        assert (
            report.dim_p
            == analysis.genus + report.join_genus - report.h1_genus - report.h2_genus
        )
        assert report.dim_p >= 0
    assert analysis.proposition2(subs["H1"], subs["H2"]).dim_p == 1
    print(f"criterion 10: pair bookkeeping exact over {len(subgroups) ** 2} pairs")


def _convolve(group, x, y):
    """Exact product in Q[G] of two dense coefficient lists, one per element."""
    out = [Fraction(0)] * group.order
    for g, a in enumerate(x):
        if a:
            for h, b in enumerate(y):
                if b:
                    out[group.mul(g, h)] += a * b
    return out


def test_criterion_11_idempotent_suite():
    """Central idempotents under exact group-algebra convolution."""
    for group in (preset_dihedral(3), preset_elementary_abelian_2(3)):
        class_of = conjugacy_classes(group).class_of
        zero = [Fraction(0)] * group.order
        one = [Fraction(int(g == 0)) for g in range(group.order)]
        idems = [
            [e_l[class_of[g]] for g in range(group.order)]  # one coefficient per element
            for e_l in map(central_idempotent, rational_classes(character_table(group)))
        ]
        total = zero
        for e_l in idems:
            assert _convolve(group, e_l, e_l) == e_l
            total = [a + b for a, b in zip(total, e_l)]
        for i in range(len(idems)):
            for j in range(i + 1, len(idems)):
                assert _convolve(group, idems[i], idems[j]) == zero
        assert total == one
    print("criterion 11: idempotent suite exact for both reference groups")


def test_criterion_12_discrepancy_regression():
    """The reference table cell differs: engine value 2 is pinned, exit code 2."""
    for q in (3, 5, 7):
        group, action, subs = named(q)
        _, classes, labels = dihedral_label_map(group)
        chi = classes[labels["V6"]].character
        assert fixed_dim(chi, subs["H4"]) == 2

    from test_cli import run

    doc, code = run(["analyze", "d2q?q=3", "--collections", "h1h4"])
    assert code == 2
    notes = [d for d in doc.data["discrepancies"] if d["kind"] == "fixed_dims"]
    assert len(notes) == 1
    assert notes[0]["expected"] == 1 and notes[0]["computed"] == 2
    assert "V6" in notes[0]["detail"]
    print("criterion 12: discrepancy regression pinned (engine 2 vs reference 1)")


def test_criterion_13_randomized_property_suite():
    """200+ random valid actions: conservation, profiles, conjugation, genus-zero law."""
    rng = random.Random(987654321)
    library = group_library()
    checked = 0
    index = 0
    while checked < 200:
        group = library[index % len(library)]
        index += 1
        action = random_action(group, rng)
        analysis = analyze(action)
        genus = total_genus(action)
        # conservation through two routes
        assert sum(f.exponent * f.dim for f in analysis.factors) == genus
        # profile conservation for every subgroup
        for subgroup in enumerate_subgroups(group):
            profile = analysis.profile(subgroup)
            assert profile.genus == sum(
                n * f.dim for n, f in zip(profile.exponents, analysis.factors)
            )
        # conjugation invariance of the admissibility verdict
        subgroups = enumerate_subgroups(group)
        collection = [rng.choice(subgroups) for _ in range(rng.randint(2, 3))]
        verdict = analysis.admissibility(collection).admissible
        position = rng.randrange(len(collection))
        conjugated = list(collection)
        conjugated[position] = conjugated[position].conjugate_by(
            rng.randrange(group.order)
        )
        assert analysis.admissibility(conjugated).admissible == verdict
        # admissible with two or more subgroups forces orbit genus zero
        if verdict:
            assert action.orbit_genus == 0
        checked += 1
    assert checked >= 200
    print(f"criterion 13: property suite passed on {checked} random actions")

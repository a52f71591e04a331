"""Isotypical factors, profiles, admissibility, the verified report family."""

import gc
import itertools
import random
import re
import weakref
from fractions import Fraction

import pytest

from jacdecomp import characters, cli, decomposition
from jacdecomp.characters import (
    CharacterError,
    character_table,
    fixed_dim,
    fixed_dims,
    rational_classes,
    regular_character,
)
from jacdecomp.covering import CoveringAction, total_genus
from jacdecomp.decomposition import (
    ActionAnalysis,
    DecompositionError,
    NonIntegralDimension,
    NotAdmissible,
    NotAPartition,
    RoutesDisagree,
    TooFewFactors,
    analyze,
    cor3_plan,
    fiber_product_action,
    induced_join_analysis,
)
from jacdecomp.groups import (
    FiniteGroup,
    enumerate_subgroups,
    full_subgroup,
    is_partition,
    preset_dihedral,
    preset_elementary_abelian_2,
    subgroup_as_group,
    subgroup_class_representatives,
    subgroup_generate,
    subgroup_join,
    trivial_subgroup,
)
from jacdecomp.scenario import parse_scenario
from conftest import (
    dicyclic_group,
    dihedral_action,
    fiber_action,
    group_library,
    random_action,
    semidirect_7_9,
)
from test_cli import GOLDEN_CASES
from test_groups import ORBIT_ORACLE_GROUPS, is_conjugacy_canonical
from test_characters import dihedral_label_map


def named_subgroups(q):
    group, action = dihedral_action(q)
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    return {
        "group": group,
        "action": action,
        "H1": subgroup_generate(group, (s,)),
        "H2": subgroup_generate(group, (group.mul(s, r),)),
        "H3": subgroup_generate(group, (r,)),
        "H4": subgroup_generate(group, (group.power(r, q),)),
    }


# -- factor dimensions --------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7])
def test_dihedral_factor_dims_and_exponents(q):
    data = named_subgroups(q)
    _, _, labels = dihedral_label_map(data["group"])
    factors = analyze(data["action"]).factors
    dims = [factors[labels[f"V{j}"]].dim for j in range(1, 7)]
    exps = [factors[labels[f"V{j}"]].exponent for j in range(1, 7)]
    assert dims == [0, 1, 1, 1, q - 1, q - 1]
    assert exps == [1, 1, 1, 1, 2, 2]
    genus = total_genus(data["action"])
    assert sum(f.exponent * f.dim for f in factors) == genus == 4 * q - 1


def test_fiber_square_factor_dims():
    group, action = fiber_action((1, 1))
    factors = analyze(action).factors
    assert sorted(f.dim for f in factors) == [0, 1, 1, 3]
    assert all(f.exponent == 1 for f in factors)


def test_trivial_factor_dim_equals_orbit_genus():
    group = preset_elementary_abelian_2(2)
    e1 = group.generator_names["e1"]
    e2 = group.generator_names["e2"]
    torus = CoveringAction(group, 1, (), ((e1, e2),), ())
    factors = analyze(torus).factors
    assert factors[0].rational_class.is_trivial()
    assert factors[0].dim == 1


def _fraction_factor_dims(analysis, rows=fixed_dims):
    """Each factor dimension by the Fraction formula m f (d (gamma - 1) + sum (d - dim V^<c>) / 2).

    rows is called once per stabilizer, in order, as ``factors`` calls fixed_dims."""
    stab_rows = [rows(stab) for stab in analysis.stabilizers]
    dims = []
    for l, rc in enumerate(analysis.rational_classes):
        if rc.is_trivial():
            dims.append(Fraction(analysis.orbit_genus))
            continue
        acc = Fraction(rc.degree * (analysis.orbit_genus - 1))
        for row in stab_rows:
            acc += Fraction(rc.degree - row[l], 2)
        dims.append(rc.schur_index * rc.field_degree * acc)
    return dims


FACTOR_GROUPS = {
    "library": group_library,
    "Q8|Q12|Q24": lambda: [dicyclic_group(n) for n in (2, 3, 6)],
    "Z7:Z9": lambda: [semidirect_7_9()],
}


@pytest.mark.parametrize("name", FACTOR_GROUPS)
def test_integer_factor_dims_match_the_fraction_formula(name):
    rng = random.Random(2424)
    for group in FACTOR_GROUPS[name]():
        classes = rational_classes(character_table(group))
        # no overrides, then each class of degree > 1 with its degree as Schur index
        views = [None] + [{rc.representative: rc.degree} for rc in classes if rc.degree > 1]
        for _ in range(3):
            action = random_action(group, rng)
            for overrides in views:
                analysis = analyze(action, overrides)
                expected = _fraction_factor_dims(analysis)
                assert all(v.denominator == 1 and v >= 0 for v in expected)
                assert [f.dim for f in analysis.factors] == expected
                assert all(type(f.dim) is int for f in analysis.factors)


def test_an_odd_twice_factor_dimension_raises_with_the_fraction_text(monkeypatch):
    group, action = dihedral_action(3)
    analysis = analyze(action)  # fresh, so no factor is cached yet
    sign = next(  # a nontrivial class with m f = 1, so one unit of fixed dimension is odd
        l for l, rc in enumerate(analysis.rational_classes)
        if not rc.is_trivial() and rc.schur_index * rc.field_degree == 1
    )
    original = decomposition.fixed_dims

    def shift_first_call():  # one more fixed dimension on the first row read, that of stabilizer 0
        calls = []

        def shifted(subgroup):
            row = original(subgroup)
            calls.append(subgroup)
            return row[:sign] + (row[sign] + 1,) + row[sign + 1:] if len(calls) == 1 else row

        return shifted

    monkeypatch.setattr(decomposition, "fixed_dims", shift_first_call())
    expected = _fraction_factor_dims(analysis, shift_first_call())
    bad = next(l for l, v in enumerate(expected) if v.denominator != 1 or v < 0)
    assert expected[bad].denominator == 2
    rep = analysis.rational_classes[bad].representative
    message = f"factor dimension {expected[bad]} for class at row {rep}"
    with pytest.raises(NonIntegralDimension, match=f"^{re.escape(message)}$"):
        analysis.factors
    assert message == "factor dimension 1/2 for class at row 1"


# -- profiles --------------------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7])
def test_named_subgroup_profiles(q):
    data = named_subgroups(q)
    _, _, labels = dihedral_label_map(data["group"])
    order = [labels[f"V{j}"] for j in range(1, 7)]
    analysis = analyze(data["action"])

    p1 = analysis.profile(data["H1"])
    assert [p1.exponents[i] for i in order] == [1, 0, 1, 0, 1, 1]
    assert p1.genus == 2 * q - 1

    p3 = analysis.profile(data["H3"])
    assert [p3.exponents[i] for i in order] == [1, 1, 0, 0, 0, 0]
    assert p3.genus == 1

    p4 = analysis.profile(data["H4"])
    assert [p4.exponents[i] for i in order] == [1, 1, 0, 0, 0, 2]
    assert p4.genus == 2 * q - 1


def test_trivial_subgroup_profile_recovers_action_data():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    factors = analysis.factors
    profile = analysis.profile(trivial_subgroup(data["group"]))
    assert profile.exponents == tuple(f.exponent for f in factors)
    assert profile.genus == total_genus(data["action"])


def test_profile_conservation_across_all_subgroups():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    for subgroup in enumerate_subgroups(data["group"]):
        profile = analysis.profile(subgroup)
        assert profile.genus == sum(
            n * f.dim for n, f in zip(profile.exponents, analysis.factors)
        )


def test_no_module_state_keeps_an_analysis():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    analysis.theorem1([data["H1"], data["H2"], data["H3"]])
    ref = weakref.ref(analysis)
    del analysis
    gc.collect()
    assert ref() is None


def test_at_most_one_group_outlives_its_callers():
    # presets build a new group per call; validate_action's cache holds one action
    refs = []
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        scenario = parse_scenario(f"d2q?q={q}")
        analyze(scenario.action).factors
        refs.append(weakref.ref(scenario.group))
        del scenario
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= 1


# -- admissibility -----------------------------------------------------------------------


def test_main_collection_admissible():
    data = named_subgroups(3)
    report = analyze(data["action"]).admissibility([data["H1"], data["H2"], data["H3"]])
    assert report.admissible


def test_every_singleton_collection_admissible():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    for subgroup in enumerate_subgroups(data["group"]):
        assert analysis.admissibility([subgroup]).admissible


def test_duplicated_subgroup_breaks_admissibility():
    data = named_subgroups(3)
    report = analyze(data["action"]).admissibility([data["H1"], data["H1"]])
    assert not report.admissible


def test_h1_h4_not_admissible_under_computed_values():
    data = named_subgroups(3)
    _, _, labels = dihedral_label_map(data["group"])
    report = analyze(data["action"]).admissibility([data["H1"], data["H4"]])
    assert not report.admissible
    v6 = labels["V6"]
    assert report.sums[v6] == 3
    assert report.degrees[v6] == 2
    assert report.slacks[v6] == -1


def test_positive_orbit_genus_blocks_multi_subgroup_admissibility():
    group = preset_elementary_abelian_2(2)
    e1 = group.generator_names["e1"]
    e2 = group.generator_names["e2"]
    torus = CoveringAction(group, 1, (), ((e1, e2),), ())
    h1 = subgroup_generate(group, (e1,))
    h2 = subgroup_generate(group, (e2,))
    analysis = analyze(torus)
    assert analysis.admissibility([h1]).admissible
    assert not analysis.admissibility([h1, h2]).admissible


# -- theorem 1 -------------------------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7])
def test_theorem1_main_collection_full(q):
    data = named_subgroups(q)
    report = analyze(data["action"]).theorem1([data["H1"], data["H2"], data["H3"]])
    assert report.dim_p == 0
    assert report.full
    assert report.quotient_genera == (2 * q - 1, 2 * q - 1, 1)
    assert report.statement == "JC ~ JC_H1 x JC_H2 x JC_H3"


@pytest.mark.parametrize("q", [3, 5, 7])
def test_theorem1_h1_h3_complement(q):
    data = named_subgroups(q)
    report = analyze(data["action"]).theorem1([data["H1"], data["H3"]])
    assert report.dim_p == 2 * q - 1
    assert not report.full


def test_theorem1_full_group_gives_prym_dimension():
    data = named_subgroups(3)
    report = analyze(data["action"]).theorem1([full_subgroup(data["group"])])
    assert report.dim_p == total_genus(data["action"])


def test_theorem1_rejects_inadmissible():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    with pytest.raises(NotAdmissible) as err:
        analysis.theorem1([data["H1"], data["H4"]])
    assert not err.value.report.admissible


# -- proposition 2 ------------------------------------------------------------------------------


def test_prop2_equal_pair_degenerates_to_prym():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    for name in ("H1", "H3", "H4"):
        h = data[name]
        report = analysis.proposition2(h, h)
        profile = analysis.profile(h)
        assert report.dim_p == analysis.genus - profile.genus
        for delta, factor, n_h in zip(report.deltas, analysis.factors, profile.exponents):
            assert delta == factor.exponent - n_h


def test_prop2_reflection_pair():
    data = named_subgroups(3)
    report = analyze(data["action"]).proposition2(data["H1"], data["H2"])
    assert report.join.order == data["group"].order
    assert report.join_genus == 0
    assert report.dim_p == 11 + 0 - 5 - 5 == 1


def test_prop2_fiber_pair():
    group, action = fiber_action((1, 1))
    k1 = subgroup_generate(group, (group.generator_names["e2"],))
    k2 = subgroup_generate(group, (group.generator_names["e1"],))
    report = analyze(action).proposition2(k1, k2)
    assert report.join.order == 4
    assert report.dim_p == 5 + 0 - 1 - 1 == 3


def test_prop2_slacks_nonnegative_for_all_pairs():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    subgroups = enumerate_subgroups(data["group"])
    for h1, h2 in itertools.product(subgroups, repeat=2):
        report = analysis.proposition2(h1, h2)
        assert all(delta >= 0 for delta in report.deltas)
        assert report.dim_p >= 0


# -- Prym dimensions and corollary 1 -----------------------------------------------------------


def test_prym_dim_examples():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    assert analysis.prym_dim(data["H1"]) == 6
    assert analysis.prym_dim(data["H3"]) == 10
    assert analysis.prym_dim(full_subgroup(data["group"])) == 11


@pytest.mark.parametrize("q", [3, 5, 7])
def test_corollary1_equalities_on_full_collection(q):
    data = named_subgroups(q)
    analysis = analyze(data["action"])
    reports = analysis.corollary1(analysis.theorem1([data["H1"], data["H2"], data["H3"]]))
    assert [report.k for report in reports] == [0, 1, 2]
    for report in reports:
        assert report.bounded and report.equality and report.full
    assert reports[0].prym_dim == 2 * q


def test_corollary1_strict_inequality_when_not_full():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    report = analysis.corollary1(analysis.theorem1([data["H1"], data["H3"]]))[0]
    assert report.bounded and not report.equality and not report.full
    assert report.complement_sum == 1
    assert report.prym_dim == 6


def test_corollary1_requires_admissible():
    """Corollary 1 reads a Theorem 1 report, which an inadmissible collection never gets."""
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    with pytest.raises(NotAdmissible):
        analysis.theorem1([data["H1"], data["H4"]])


def _corollary1_per_k(analysis, collection, k):
    """Corollary 1 at one index, recomputed from the profiles of the collection."""
    genera = [analysis.profile(h).genus for h in collection]
    complement_sum = sum(g for i, g in enumerate(genera) if i != k)
    prym = analysis.prym_dim(collection[k])
    return decomposition.Corollary1Report(
        k=k,
        prym_dim=prym,
        complement_sum=complement_sum,
        bounded=complement_sum <= prym,
        equality=complement_sum == prym,
        full=sum(genera) == analysis.genus,
    )


@pytest.mark.parametrize("q", [3, 5])
def test_corollary1_matches_the_per_index_computation(q):
    analysis = analyze(dihedral_action(q)[1])
    for hit in _exhaustive_search(analysis, 2, False, False):
        collection = hit.subgroups
        expected = tuple(_corollary1_per_k(analysis, collection, k) for k in range(len(collection)))
        assert analysis.corollary1(analysis.theorem1(collection)) == expected


# -- proposition 1 -------------------------------------------------------------------------------


def test_prop1_main_collection():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    report = analysis.proposition1(analysis.admissibility([data["H1"], data["H2"], data["H3"]]))
    assert report.statement2 and report.statement3
    assert report.special_case
    assert report.eq8_holds
    assert report.a1 == 3


def test_prop1_h1_h3_fails_both_ways():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    report = analysis.proposition1(analysis.admissibility([data["H1"], data["H3"]]))
    assert not report.statement2 and not report.statement3
    assert report.eq8_holds is False


def test_prop1_single_full_group():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    report = analysis.proposition1(analysis.admissibility([full_subgroup(data["group"])]))
    assert not report.statement2 and not report.statement3


def test_prop1_agreement_on_random_collections():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    subgroups = enumerate_subgroups(data["group"])
    rng = random.Random(97)
    for _ in range(60):
        size = rng.randint(1, 4)
        collection = [rng.choice(subgroups) for _ in range(size)]
        report = analysis.proposition1(analysis.admissibility(collection))
        assert report.statement2 == report.statement3


# -- theorem B -------------------------------------------------------------------------------------


def test_theorem_b_dihedral_partition():
    data = named_subgroups(3)
    group = data["group"]
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    reflections = [
        subgroup_generate(group, (group.mul(s, group.power(r, i)),)) for i in range(6)
    ]
    report = analyze(data["action"]).theorem_b([data["H3"]] + reflections)
    assert report.t == 7
    assert report.holds
    assert report.dimension_lhs == report.dimension_rhs == 66


def test_theorem_b_fiber_partition():
    group, action = fiber_action((1, 1))
    e1 = group.generator_names["e1"]
    e2 = group.generator_names["e2"]
    collection = [
        subgroup_generate(group, (e1,)),
        subgroup_generate(group, (e2,)),
        subgroup_generate(group, (group.mul(e1, e2),)),
    ]
    report = analyze(action).theorem_b(collection)
    assert report.holds
    assert report.dimension_lhs == report.dimension_rhs == 10


def test_theorem_b_single_full_group_degenerate():
    data = named_subgroups(3)
    report = analyze(data["action"]).theorem_b([full_subgroup(data["group"])])
    assert report.t == 1
    assert report.holds


def test_theorem_b_rejects_non_partition():
    data = named_subgroups(3)
    group = data["group"]
    r = group.generator_names["r"]
    analysis = analyze(data["action"])
    with pytest.raises(NotAPartition) as err:
        analysis.theorem_b(
            [data["H3"], subgroup_generate(group, (group.power(r, 2),))],
        )
    verdict = err.value.verdict
    assert verdict.uncovered is not None or verdict.overlap is not None


# -- an action with a Galois-paired linear class --------------------------------------


def test_alternating4_torus_action_end_to_end():
    """A4 on a torus: the elliptic factor sits on the field-degree-2 class.

    Signature (0; 3, 3, 3): two 3-cycles sharing two points generate A4 and
    multiply to the inverse of a third 3-cycle; Riemann-Hurwitz gives genus
    1, and the whole Jacobian must land on the rational class pairing the
    two complex linear characters.
    """
    from test_characters import alternating_group_4

    group = alternating_group_4()
    action = None
    for x in range(group.order):
        if action or group.element_order(x) != 3:
            continue
        for y in range(group.order):
            if group.element_order(y) != 3:
                continue
            z = group.inv(group.mul(x, y))
            if group.element_order(z) != 3:
                continue
            if subgroup_generate(group, (x, y)).order != group.order:
                continue
            action = CoveringAction(group, 0, (3, 3, 3), (), (x, y, z))
            break
    assert action is not None
    assert total_genus(action) == 1
    analysis = analyze(action)
    by_shape = {
        (f.rational_class.degree, f.rational_class.field_degree): f
        for f in analysis.factors
    }
    assert by_shape[(1, 2)].dim == 1  # the paired linear characters carry JC
    assert by_shape[(1, 1)].dim == 0
    assert by_shape[(3, 1)].dim == 0
    for subgroup in enumerate_subgroups(group):
        analysis.profile(subgroup)  # two-route conservation on every quotient
    results = analysis.search_admissible(max_t=2, require_full=True)
    assert results  # at least the trivial subgroup realizes JC ~ JC fully


# -- pairwise-permuting criterion -------------------------------------------------------------------


def test_theorem_c_main_collection_blocked_by_reflections():
    """The two reflection subgroups do not permute, so the criterion fails
    even though the admissibility route gives the full decomposition."""
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    report = analysis.theorem_c([data["H1"], data["H2"], data["H3"]])
    assert not report.pairs_permute
    assert report.non_permuting_pair == (0, 1)
    assert report.genus_matches  # hypothesis (3) alone holds
    assert not report.applicable
    assert analysis.theorem1([data["H1"], data["H2"], data["H3"]]).full


def test_theorem_c_h1_h3_fails_only_on_genus_sum():
    data = named_subgroups(3)
    report = analyze(data["action"]).theorem_c([data["H1"], data["H3"]])
    assert report.pairs_permute
    assert report.pairwise_genera == (0,)
    assert report.pairwise_zero
    assert report.genus_sum == 6 and not report.genus_matches
    assert not report.applicable


def test_theorem_c_h1_h4_fails_on_positive_pairwise_genus():
    data = named_subgroups(3)
    report = analyze(data["action"]).theorem_c([data["H1"], data["H4"]])
    assert report.pairs_permute
    assert report.pairwise_genera == (2,)  # q - 1 for q = 3
    assert not report.pairwise_zero
    assert not report.applicable


def test_theorem_c_applicable_case_agrees_with_full_decomposition():
    group, action = fiber_action((1, 1))
    e1 = group.generator_names["e1"]
    e2 = group.generator_names["e2"]
    h = subgroup_generate(group, (e1,))
    k = subgroup_generate(group, (e2,))
    analysis = analyze(action)
    single = analysis.theorem_c([subgroup_generate(group, ())])
    assert single.genus_sum == 5 == total_genus(action)
    assert single.applicable  # trivial subgroup: no pairs, genus matches
    pair = analysis.theorem_c([h, k])
    assert pair.pairs_permute and pair.pairwise_zero
    assert pair.genus_sum == 2 and not pair.applicable


KANI_ROSEN_GROUPS = group_library() + [dicyclic_group(n) for n in (2, 3, 6)] + [semidirect_7_9()]


@pytest.mark.parametrize("index", range(len(KANI_ROSEN_GROUPS)))
def test_theorem_c_decides_permutability_by_lagrange_without_mul(index, monkeypatch):
    """HK = KH exactly when the product set HK, built here, fills the join."""
    group = KANI_ROSEN_GROUPS[index]
    analysis = analyze(random_action(group, random.Random(index)))
    analysis.factors  # the table is built by multiplying; theorem_c itself is not
    pairs = list(itertools.combinations(enumerate_subgroups(group), 2))
    expected = [
        len({group.mul(a, b) for a in h for b in k}) == subgroup_join(h, k).order
        for h, k in pairs
    ]

    def no_mul(self, i, j):
        raise AssertionError("theorem_c multiplied group elements")

    monkeypatch.setattr(FiniteGroup, "mul", no_mul)
    for (h, k), permute in zip(pairs, expected):
        report = analysis.theorem_c([h, k])
        assert report.pairs_permute == permute
        assert report.non_permuting_pair == (None if permute else (0, 1))


def test_theorem1_extends_kani_rosen():
    """Theorem C's hypotheses imply Theorem 1's full decomposition, and not back.

    Over every pair of subgroup class representatives, and every triple where
    there are at most 20 classes: a Theorem C collection is admissible and
    full, every partition satisfies Theorem B, and Corollary 1's equality
    holds exactly on the full admissible collections.  Some collection of a
    positive-genus action is full without meeting Theorem C's hypotheses.
    """
    strict_gains = 0
    for index, group in enumerate(KANI_ROSEN_GROUPS):
        analysis = analyze(random_action(group, random.Random(index)))
        reps = subgroup_class_representatives(group)
        sizes = (2, 3) if len(reps) <= 20 else (2,)
        for t in sizes:
            for collection in itertools.combinations(reps, t):
                full = False
                if analysis.admissibility(collection):
                    decomposition = analysis.theorem1(collection)
                    full = decomposition.full
                    assert all(c.equality == full for c in analysis.corollary1(decomposition))
                if analysis.theorem_c(collection).applicable:
                    assert full
                elif full and analysis.genus > 0:  # on genus 0 every admissible one is full
                    strict_gains += 1
                if is_partition(group, collection):
                    assert analysis.theorem_b(collection).holds
    assert strict_gains


# -- homology profile ----------------------------------------------------------------------------


def test_rational_rep_profile_dihedral():
    data = named_subgroups(3)
    _, _, labels = dihedral_label_map(data["group"])
    profile = analyze(data["action"]).rational_rep()
    assert profile.total_degree == 22
    assert profile.multiplicities[labels["V1"]] == 0
    assert profile.multiplicities[labels["V5"]] == 4
    assert profile.multiplicities[labels["V6"]] == 4


def test_rational_rep_trivial_multiplicity_is_twice_orbit_genus():
    group = preset_elementary_abelian_2(2)
    e1 = group.generator_names["e1"]
    e2 = group.generator_names["e2"]
    torus = CoveringAction(group, 1, (), ((e1, e2),), ())
    profile = analyze(torus).rational_rep()
    assert profile.multiplicities[0] == 2
    assert profile.total_degree == 2


def test_rational_rep_support_predicate():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    factors = analysis.factors
    profile = analysis.rational_rep()
    for mult, factor in zip(profile.multiplicities, factors):
        assert (mult == 0) == (factor.dim == 0)


# -- search -------------------------------------------------------------------------------------------


def test_search_finds_the_main_triples():
    data = named_subgroups(3)
    results = analyze(data["action"]).search_admissible(max_t=3, require_full=True)
    triples = {
        frozenset(h.members for h in report.subgroups)
        for report in results
        if len(report.subgroups) == 3
    }
    wanted = frozenset(
        h.members for h in (data["H1"], data["H2"], data["H3"])
    )
    assert wanted in triples
    assert len(triples) == 9  # one reflection of each type plus the rotations


def test_search_max_t_one_returns_every_subgroup():
    data = named_subgroups(3)
    results = analyze(data["action"]).search_admissible(max_t=1)
    assert len(results) == len(enumerate_subgroups(data["group"]))


def test_search_on_positive_orbit_genus_only_singletons_can_be_full():
    group = preset_elementary_abelian_2(2)
    e1 = group.generator_names["e1"]
    e2 = group.generator_names["e2"]
    torus = CoveringAction(group, 1, (), ((e1, e2),), ())
    results = analyze(torus).search_admissible(max_t=3, require_full=True)
    assert results
    assert all(len(report.subgroups) == 1 for report in results)


def test_search_dedupe_conjugates_still_finds_a_main_triple():
    data = named_subgroups(3)
    results = analyze(data["action"]).search_admissible(
        max_t=3, require_full=True, dedupe_conjugates=True
    )
    assert any(len(report.subgroups) == 3 for report in results)


@pytest.mark.parametrize("q", [3, 5])
def test_search_dedupe_conjugates_keeps_the_canonical_combinations(q):
    analysis = analyze(named_subgroups(q)["action"])
    every = analysis.search_admissible(max_t=2)
    deduped = analysis.search_admissible(max_t=2, dedupe_conjugates=True)
    expected = [
        r.subgroups for r in every if all(is_conjugacy_canonical(h) for h in r.subgroups)
    ]
    assert [r.subgroups for r in deduped] == expected


def _exhaustive_search(analysis, max_t, require_full, dedupe_conjugates):
    """Admissibility reports of the hits, by the walk that scores every combination."""
    if dedupe_conjugates:
        subgroups = subgroup_class_representatives(analysis.group)
    else:
        subgroups = enumerate_subgroups(analysis.group)
    hits = []
    for size in range(1, max_t + 1):
        for combo in itertools.combinations(subgroups, size):
            report = analysis.admissibility(combo)
            genera = sum(analysis.profile(h).genus for h in combo)
            if report.admissible and (genera == analysis.genus or not require_full):
                hits.append(report)
    return hits


def _search_actions():
    yield "d2q3", dihedral_action(3)[1]
    yield "d2q5", dihedral_action(5)[1]
    rng = random.Random(20261018)
    for group in group_library(12):
        yield f"random order {group.order}", random_action(group, rng)


@pytest.mark.parametrize("require_full", [False, True])
@pytest.mark.parametrize("dedupe_conjugates", [False, True])
def test_search_returns_the_theorem1_report_of_every_exhaustive_hit(require_full, dedupe_conjugates):
    for name, action in _search_actions():
        analysis = analyze(action)
        reports = analysis.search_admissible(3, require_full, dedupe_conjugates)
        expected = _exhaustive_search(analysis, 3, require_full, dedupe_conjugates)
        assert [r.admissibility for r in reports] == expected, name
        for report in reports:
            assert report == analysis.theorem1(report.subgroups), name


@pytest.mark.parametrize("q", [5, 7, 13])
def test_require_full_builds_theorem1_only_for_the_full_hits(q, monkeypatch):
    analysis = analyze(dihedral_action(q)[1])
    full = [r for r in analysis.search_admissible(3) if r.full]
    built = []
    theorem1 = decomposition.ActionAnalysis._theorem1

    def counted(self, report):
        built.append(report.subgroups)
        return theorem1(self, report)

    monkeypatch.setattr(decomposition.ActionAnalysis, "_theorem1", counted)
    assert analysis.search_admissible(3, require_full=True) == tuple(full)
    assert len(built) == len(full)


# -- fiber products and elliptic plans ------------------------------------------------------------------


@pytest.mark.parametrize("genera,genus,dim_p", [
    ((1, 1), 5, 3),
    ((1, 1, 1), 17, 14),
    ((2, 1), 7, 4),
])
def test_fiber_plans(genera, genus, dim_p):
    plan = fiber_product_action(genera)
    assert plan.genus == plan.predicted_genus == genus
    assert plan.dim_p == plan.predicted_dim_p == dim_p
    assert plan.admissibility.admissible
    for g_i, deck in zip(plan.genera, plan.deck_subgroups):
        assert plan.analysis.profile(deck).genus == g_i


def test_fiber_rejects_single_factor():
    with pytest.raises(TooFewFactors):
        fiber_product_action([2])


def test_fiber_rejects_zero_genus_factor():
    with pytest.raises(DecompositionError):
        fiber_product_action([0, 1])


def test_fiber_rejects_too_many_factors():
    from jacdecomp.groups import OrderCapExceeded

    with pytest.raises(OrderCapExceeded):
        fiber_product_action([1] * 12)


def test_profile_exponents_bounded_by_factor_exponents():
    data = named_subgroups(5)
    analysis = analyze(data["action"])
    for subgroup in enumerate_subgroups(data["group"]):
        profile = analysis.profile(subgroup)
        for n_h, factor in zip(profile.exponents, analysis.factors):
            assert 0 <= n_h <= factor.exponent


@pytest.mark.parametrize("t,genus,dim_p", [(2, 2, 0), (3, 7, 4), (4, 9, 5), (5, 25, 20)])
def test_cor3_plans(t, genus, dim_p):
    plan = cor3_plan(t)
    assert (plan.genus, plan.dim_p) == (genus, dim_p)
    assert plan.elliptic_count == t
    covered = [i for pair in plan.pairing for i in pair]
    assert sorted(covered) == list(range(1, t + 1))
    assert plan.dim_p == plan.genus - t


def test_cor3_rejects_below_two():
    with pytest.raises(TooFewFactors):
        cor3_plan(1)


# -- join-ambient reinterpretation -------------------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7])
def test_join_analysis_h1_h4(q):
    data = named_subgroups(q)
    analysis, translated, join = induced_join_analysis(
        data["action"], [data["H1"], data["H4"]]
    )
    assert join.order == 4
    assert analysis.orbit_genus == q - 1
    # conservation against the original surface genus through the new group
    assert sum(f.exponent * f.dim for f in analysis.factors) == 4 * q - 1
    # quotient genera computed through the induced branch data agree with the
    # original covering's coset-orbit route
    g_parent = analyze(data["action"])
    for original, image in zip((data["H1"], data["H4"]), translated):
        assert analysis.profile(image).genus == g_parent.profile(original).genus
    report = analysis.admissibility(translated)
    assert not report.admissible
    assert report.ambient == "join"


def test_join_analysis_of_generating_pair_matches_acting_verdict():
    data = named_subgroups(3)
    analysis, translated, join = induced_join_analysis(
        data["action"], [data["H1"], data["H2"]]
    )
    assert join.order == data["group"].order
    acting = analyze(data["action"])
    assert (
        analysis.admissibility(translated).admissible
        == acting.admissibility([data["H1"], data["H2"]]).admissible
    )


def double_coset_stabilizers(action, join):
    """Oracle: the join's branch stabilizers from a walk over every element.

    For each branch element c, the smallest g of each double coset J g <c>
    gives the stabilizer g <c> g^-1 meet J of the cosets of J, kept when
    nontrivial, as (members, generator) in the join's own indices.
    """
    group = action.group
    join_group, mapping = subgroup_as_group(join)
    stabilizers = []
    for c in action.branch_elements:
        cyc = subgroup_generate(group, (c,))
        seen = [False] * group.order
        for g in range(group.order):
            if seen[g]:
                continue
            for j in join.members:
                jg = group.mul(j, g)
                for m in cyc.members:
                    seen[group.mul(jg, m)] = True
            stab = [group.conjugate(m, g) for m in cyc.members if group.conjugate(m, g) in join]
            if len(stab) > 1:
                translated = tuple(sorted(mapping[m] for m in stab))
                generator = next(
                    m for m in translated if join_group.element_order(m) == len(translated)
                )
                stabilizers.append((translated, (generator,)))
    return stabilizers


@pytest.mark.parametrize("name", ORBIT_ORACLE_GROUPS)
def test_join_stabilizers_match_the_double_coset_walk(name):
    group = ORBIT_ORACLE_GROUPS[name]()
    rng = random.Random(f"join:{name}")
    action = random_action(group, rng)
    lattice = enumerate_subgroups(group)
    for _ in range(6):
        collection = rng.sample(lattice, rng.randint(1, 2))
        analysis, _, join = induced_join_analysis(action, collection)
        listed = [(h.members, h.generators) for h in analysis.stabilizers]
        assert listed == double_coset_stabilizers(action, join)


# -- properties ----------------------------------------------------------------------------------------------


def test_admissibility_conjugation_invariance():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    rng = random.Random(5)
    subgroups = enumerate_subgroups(data["group"])
    for _ in range(40):
        collection = [rng.choice(subgroups) for _ in range(rng.randint(1, 3))]
        base = analysis.admissibility(collection).admissible
        i = rng.randrange(len(collection))
        conjugated = list(collection)
        conjugated[i] = conjugated[i].conjugate_by(rng.randrange(data["group"].order))
        assert analysis.admissibility(conjugated).admissible == base


def test_removing_a_subgroup_preserves_admissibility():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    collection = [data["H1"], data["H2"], data["H3"]]
    assert analysis.admissibility(collection).admissible
    for i in range(3):
        reduced = collection[:i] + collection[i + 1 :]
        assert analysis.admissibility(reduced).admissible


def test_schur_override_breaking_integrality_is_rejected():
    data = named_subgroups(3)
    _, classes, labels = dihedral_label_map(data["group"])
    rep = classes[labels["V5"]].representative
    with pytest.raises(NonIntegralDimension):
        analyze(data["action"], {rep: 2}).profile(data["H1"])


# -- the two-route checks ------------------------------------------------------------


_REPORT_CHECKS = {"conservation", "quotient genus"}
_ANALYZE_CHECKS = _REPORT_CHECKS | {
    "theorem 1 dim P", "proposition 2 dim P", "Prym containment",
    "statement (2) vs (3)", "regular-plus-trivial form",
    "homology support", "homology degree",
}
_FIBER_CHECKS = _REPORT_CHECKS | {
    "theorem 1 dim P", "fiber genus", "deck quotient genus", "fiber dim P",
}
TWO_ROUTE_COMMANDS = {
    **GOLDEN_CASES,
    "fiber_1_1": ["fiber", "--genera", "1,1"],
    "fiber_elliptic_5": ["fiber", "--elliptic", "5"],
}
TWO_ROUTE_CHECKS = {
    "analyze_d2q_q3.txt": _ANALYZE_CHECKS,
    "analyze_d2q_q5.txt": _ANALYZE_CHECKS,
    "analyze_d2q_q7.txt": _ANALYZE_CHECKS,
    "analyze_fiber_1_1.txt": _ANALYZE_CHECKS,
    # no collection of fiber_1_1_1 is a pair, so Proposition 2 never runs
    "analyze_fiber_1_1_1.txt": _ANALYZE_CHECKS - {"proposition 2 dim P"},
    "theorem_b_d2q_q3.txt": _REPORT_CHECKS,
    "search_d2q_q5.txt": _REPORT_CHECKS | {"theorem 1 dim P"},
    "search_d2q_q3_dedupe.txt": _REPORT_CHECKS | {"theorem 1 dim P"},
    "fiber_1_1": _FIBER_CHECKS,
    "fiber_elliptic_5": _FIBER_CHECKS | {"parity genus", "elliptic complement"},
}


def test_pinned_commands_cover_all_fourteen_checks():
    assert TWO_ROUTE_COMMANDS.keys() == TWO_ROUTE_CHECKS.keys()
    assert len(set().union(*TWO_ROUTE_CHECKS.values())) == 14


@pytest.mark.parametrize("name", sorted(TWO_ROUTE_COMMANDS))
def test_every_two_route_check_runs(monkeypatch, capsys, name):
    ran = set()
    agree = decomposition._agree

    def recording(what, first, second):
        ran.add(what)
        agree(what, first, second)

    monkeypatch.setattr(decomposition, "_agree", recording)
    assert cli.main(TWO_ROUTE_COMMANDS[name]) in (0, 2)
    capsys.readouterr()
    assert ran == TWO_ROUTE_CHECKS[name]


@pytest.mark.parametrize("check", sorted(set().union(*TWO_ROUTE_CHECKS.values())))
def test_a_disagreeing_check_exits_1_naming_itself(monkeypatch, capsys, check):
    name = next(n for n in sorted(TWO_ROUTE_CHECKS) if check in TWO_ROUTE_CHECKS[n])
    agree = decomposition._agree

    def perturbed(what, first, second):
        agree(what, first, object() if what == check else second)

    monkeypatch.setattr(decomposition, "_agree", perturbed)
    assert cli.main(TWO_ROUTE_COMMANDS[name]) == 1
    assert f"jacdecomp: error: {check}: routes disagree, " in capsys.readouterr().err


def test_agree_names_the_check_and_both_values():
    decomposition._agree("some check", (1, True), (1, True))
    with pytest.raises(RoutesDisagree, match=r"^some check: routes disagree, 3 vs 4$"):
        decomposition._agree("some check", 3, 4)
    assert issubclass(RoutesDisagree, DecompositionError)


def test_conservation_fires_on_a_wrong_genus():
    good = analyze(dihedral_action(3)[1])
    bad = ActionAnalysis(good.group, good.orbit_genus, good.stabilizers, good.genus + 1)
    with pytest.raises(RoutesDisagree, match=r"^conservation: routes disagree, 11 vs 12$"):
        bad.factors


def test_quotient_genus_fires_when_orbit_counting_is_off_by_one(monkeypatch):
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    original = decomposition.genus_from_branch_data
    monkeypatch.setattr(
        decomposition, "genus_from_branch_data", lambda *args: original(*args) + 1
    )
    with pytest.raises(RoutesDisagree, match=r"^quotient genus: routes disagree, 5 vs 6$"):
        analysis.profile(data["H1"])


def test_complement_dimension_fires_when_the_genus_route_is_off():
    data = named_subgroups(3)
    analysis = analyze(data["action"])
    h1, h3 = data["H1"], data["H3"]
    assert analysis.theorem1([h1, h3]).dim_p == analysis.proposition2(h1, h3).dim_p == 5
    analysis.genus += 1  # factors and profiles stay cached from the first route
    with pytest.raises(RoutesDisagree, match=r"^theorem 1 dim P: routes disagree, 5 vs 6$"):
        analysis.theorem1([h1, h3])
    with pytest.raises(RoutesDisagree, match=r"^proposition 2 dim P: routes disagree, 6 vs 5$"):
        analysis.proposition2(h1, h3)


def _fresh_nontrivial_row():
    """A nontrivial row of a group built here, so no fixed dimension is cached."""
    group = preset_dihedral(3)
    return character_table(group).irreducibles[1], full_subgroup(group)


def test_fixed_dim_fires_when_the_induction_route_is_wrong(monkeypatch):
    chi, whole = _fresh_nontrivial_row()
    monkeypatch.setattr(  # the regular character's counts, as if H were trivial
        characters,
        "_fixed_cosets",
        lambda group, subgroup: [v.coeffs[0] for v in regular_character(group).values],
    )
    with pytest.raises(CharacterError, match="fixed-space routes disagree: average 0, induction 1"):
        fixed_dim(chi, whole)


def test_fixed_dim_fires_when_the_average_route_is_wrong(monkeypatch):
    chi, whole = _fresh_nontrivial_row()
    original = characters._combine

    def shifted(weights, vectors):  # adds |H| to the sum, so 1 to the average
        total = original(weights, vectors)
        return (total[0] + sum(weights),) + total[1:]

    monkeypatch.setattr(characters, "_combine", shifted)
    with pytest.raises(CharacterError, match="fixed-space routes disagree: average 1, induction 0"):
        fixed_dim(chi, whole)

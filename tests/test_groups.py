"""Group construction, presets, classes, subgroup machinery, coset actions."""

import collections
import itertools
import random
import sys
import threading

import pytest

from conftest import group_library, random_action, semidirect_7_9
from jacdecomp import groups
from jacdecomp.characters import fixed_dims
from jacdecomp.decomposition import analyze
from jacdecomp.groups import (
    DegreeMismatch,
    EmptyGeneratorList,
    FiniteGroup,
    GroupError,
    InvalidElementIndex,
    NotASubgroup,
    OrderCapExceeded,
    Permutation,
    UnknownGenerator,
    build_group,
    conjugacy_classes,
    coset_action,
    element_from_word,
    enumerate_subgroups,
    is_partition,
    orbits,
    preset_dihedral,
    preset_elementary_abelian_2,
    preset_quaternion,
    subgroup_as_group,
    subgroup_class_representatives,
    subgroup_generate,
    subgroup_join,
    trivial_subgroup,
    full_subgroup,
)


def hexagon_generators():
    rotation = Permutation(tuple((i + 1) % 6 for i in range(6)))
    reflection = Permutation(tuple((-i) % 6 for i in range(6)))
    return rotation, reflection


A4_GENERATORS = [(1, 2, 0, 3), (0, 2, 3, 1)]
S4_GENERATORS = [(1, 0, 2, 3), (1, 2, 3, 0)]
FROBENIUS_20_GENERATORS = [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)]  # x+1 and 2x on Z/5


def group_from_images(generators):
    return build_group([Permutation(images) for images in generators])


def d12_inside_d24():
    """<r^2, s> of the order-24 dihedral group, repackaged with names x1, x2."""
    group = preset_dihedral(6)
    r, s = group.generator_names["r"], group.generator_names["s"]
    return subgroup_as_group(subgroup_generate(group, (group.power(r, 2), s)))[0]


# Groups whose classes, cosets, subgroup classes and join stabilizers are
# compared with their definitions (here and in test_decomposition.py).
ORBIT_ORACLE_GROUPS = {
    "A4": lambda: group_from_images(A4_GENERATORS),
    "S4": lambda: group_from_images(S4_GENERATORS),
    "F20": lambda: group_from_images(FROBENIUS_20_GENERATORS),
    "Q8": preset_quaternion,
    "Z2^4": lambda: preset_elementary_abelian_2(4),
    "D20": lambda: preset_dihedral(5),
    "D12<D24": d12_inside_d24,
    "D84": lambda: preset_dihedral(21),
    "Z2^5": lambda: preset_elementary_abelian_2(5),
}


# -- construction -------------------------------------------------------------


def test_build_group_from_hexagon_symmetries():
    group = build_group(list(hexagon_generators()), ["r", "s"])
    assert group.order == 12
    assert group.exponent == 6


def test_build_group_trivial():
    group = build_group([Permutation((0,))], ["e"])
    assert group.order == 1
    assert group.exponent == 1


def test_build_group_klein_from_disjoint_transpositions():
    a = Permutation((1, 0, 2, 3))
    b = Permutation((0, 1, 3, 2))
    group = build_group([a, b], ["a", "b"])
    assert group.order == 4
    assert group.exponent == 2


def test_build_group_errors():
    with pytest.raises(EmptyGeneratorList):
        build_group([], [])
    with pytest.raises(DegreeMismatch):
        build_group([Permutation((1, 0)), Permutation((0, 1, 2))], ["a", "b"])
    rotation, reflection = hexagon_generators()
    with pytest.raises(OrderCapExceeded):
        build_group([rotation, reflection], ["r", "s"], order_cap=8)


def test_finite_group_rejects_a_list_that_is_not_a_group():
    with pytest.raises(GroupError, match=r"product \(2, 0, 1\) is missing"):
        FiniteGroup([Permutation((0, 1, 2)), Permutation((1, 2, 0))], {})
    with pytest.raises(DegreeMismatch):
        FiniteGroup([Permutation((0, 1, 2)), Permutation((1, 0))], {})
    assert build_group([Permutation(())]).order == 1


def test_finite_group_rejects_names_that_do_not_generate_it():
    group = preset_dihedral(3)
    r = group.generator_names["r"]
    with pytest.raises(GroupError, match="do not generate"):
        FiniteGroup(group.elements, {"r": r})
    with pytest.raises(GroupError, match="do not generate"):
        FiniteGroup(group.elements, {"one": 0})
    # with no names every element counts as a generator
    unnamed = FiniteGroup(group.elements, {})
    assert full_subgroup(unnamed).generators == tuple(range(group.order))
    assert conjugacy_classes(unnamed).classes == conjugacy_classes(group).classes


def test_a_list_closed_under_its_named_generators_but_not_a_group_is_rejected():
    """<r> and s<r>, s a 4-cycle on other points: r keeps the list closed, s*s is missing."""
    r = Permutation((1, 2, 0, 3, 4, 5, 6))
    s = Permutation((0, 1, 2, 4, 5, 6, 3))
    rotations = [r * r * r, r, r * r]
    elements = rotations + [s * x for x in rotations]
    with pytest.raises(GroupError, match="do not generate"):
        FiniteGroup(elements, {"r": 1})
    for names in ({"r": 1, "s": 3}, {}):
        with pytest.raises(GroupError, match=r"not closed: product \(0, 1, 2, 5, 6, 3, 4\) is missing"):
            FiniteGroup(elements, names)


@pytest.mark.parametrize("q", [3, 10, 61])
def test_build_group_cap_fires_at_the_first_element_past_it(q):
    group = preset_dihedral(q)
    generators = [group.elements[g] for g in group.generator_names.values()]
    assert build_group(generators, order_cap=group.order).order == group.order
    with pytest.raises(OrderCapExceeded, match=f"closure exceeded order cap {group.order - 1}$"):
        build_group(generators, order_cap=group.order - 1)


def test_identity_is_index_zero():
    group = preset_dihedral(3)
    assert group.elements[0].is_identity()
    assert group.inv(0) == 0


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


# -- presets -------------------------------------------------------------------


@pytest.mark.parametrize("q,order,exponent", [(3, 12, 6), (5, 20, 10), (7, 28, 14)])
def test_preset_dihedral_orders(q, order, exponent):
    group = preset_dihedral(q)
    assert group.order == order
    assert group.exponent == exponent
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    assert group.element_order(r) == 2 * q
    assert group.element_order(s) == 2
    assert group.element_order(group.mul(s, r)) == 2


def test_preset_dihedral_degenerate_klein():
    group = preset_dihedral(1)
    assert group.order == 4
    assert all(group.element_order(i) <= 2 for i in range(4))


def test_preset_dihedral_cap():
    with pytest.raises(OrderCapExceeded):
        preset_dihedral(600, order_cap=2048)


@pytest.mark.parametrize("t,order", [(1, 2), (2, 4), (3, 8)])
def test_preset_elementary_abelian(t, order):
    group = preset_elementary_abelian_2(t)
    assert group.order == order
    assert group.exponent == 2
    assert all(group.mul(a, b) == group.mul(b, a) for a in range(order) for b in range(order))


def test_preset_elementary_abelian_cap():
    with pytest.raises(OrderCapExceeded):
        preset_elementary_abelian_2(12)


def test_preset_quaternion():
    group = preset_quaternion()
    assert group.order == 8
    i = group.generator_names["i"]
    j = group.generator_names["j"]
    assert group.element_order(i) == 4
    assert group.element_order(j) == 4
    # i^2 = j^2 is the unique central involution
    assert group.power(i, 2) == group.power(j, 2)
    assert group.exponent == 4


# -- group axioms ----------------------------------------------------------------


@pytest.mark.parametrize("group_builder", [
    lambda: preset_dihedral(3),
    lambda: preset_elementary_abelian_2(3),
    lambda: preset_quaternion(),
])
def test_product_table_axioms_exhaustive(group_builder):
    group = group_builder()
    n = group.order
    assert n <= 24
    for a in range(n):
        assert group.mul(0, a) == a == group.mul(a, 0)
        assert group.mul(a, group.inv(a)) == 0
        assert group.mul(group.inv(a), a) == 0
    for a, b, c in itertools.product(range(n), repeat=3):
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def test_product_table_axioms_random_for_larger_group():
    group = preset_dihedral(10)
    rng = random.Random(11)
    for _ in range(500):
        a, b, c = (rng.randrange(group.order) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def compose(p, q):
    """Images of p*q, where q acts first."""
    return tuple(p[x] for x in q)


@pytest.mark.parametrize("generators,order", [
    (A4_GENERATORS, 12),
    (S4_GENERATORS, 24),
    (FROBENIUS_20_GENERATORS, 20),
], ids=["A4", "S4", "F20"])
def test_cayley_table_matches_permutation_composition(generators, order):
    group = group_from_images(generators)
    assert group.order == order
    images = [p.images for p in group.elements]
    index = {p: i for i, p in enumerate(images)}
    identity = images[0]
    for i, p in enumerate(images):
        for j, q in enumerate(images):
            assert group.mul(i, j) == index[compose(p, q)]
        powers = [p]
        while powers[-1] != identity:
            powers.append(compose(powers[-1], p))
        assert group.element_order(i) == len(powers)
        assert group.inv(i) == index[powers[-2] if len(powers) > 1 else identity]


def all_pairs_rows(group, rows):
    """The given rows of the Cayley table by definition: one product per pair."""
    index = {p.images: i for i, p in enumerate(group.elements)}
    return [[index[(group.elements[i] * q).images] for q in group.elements] for i in rows]


def table_rows(group, rows):
    n = group.order
    return [group._table[i * n:i * n + n].tolist() for i in rows]


TABLE_ORACLE_GROUPS = {
    "library": group_library,
    "D244": lambda: [preset_dihedral(61)],
    "Z2^8": lambda: [preset_elementary_abelian_2(8)],
    "Z7:Z9": lambda: [semidirect_7_9()],
    "unnamed Z7:Z9": lambda: [FiniteGroup(semidirect_7_9().elements, {})],
    "D12<D24": lambda: [d12_inside_d24()],
}


@pytest.mark.parametrize("name", TABLE_ORACLE_GROUPS)
def test_cayley_table_is_every_product_of_two_elements(name):
    for group in TABLE_ORACLE_GROUPS[name]():
        rows = range(group.order)
        assert table_rows(group, rows) == all_pairs_rows(group, rows)


def test_cayley_table_rows_of_d508_are_products_of_two_elements():
    group = preset_dihedral(127)
    rows = sorted(random.Random(508).sample(range(group.order), 64))
    assert table_rows(group, rows) == all_pairs_rows(group, rows)


def permutation_power(p, k):
    """p^k by repeated squaring, on Permutation products only."""
    result = Permutation(tuple(range(p.degree)))
    while k:
        if k & 1:
            result = result * p
        p, k = p * p, k >> 1
    return result


def prime_factors(m):
    return {q for q in range(2, m + 1) if m % q == 0 and all(q % f for f in range(2, q))}


ORDER_ORACLE_GROUPS = {
    "library": group_library,
    "D44 D60 D84": lambda: [preset_dihedral(q) for q in (11, 15, 21)],
    "Z2^5 Z2^8": lambda: [preset_elementary_abelian_2(5), preset_elementary_abelian_2(8)],
    "A4 S4 F20": lambda: [group_from_images(gens) for gens in
                          (A4_GENERATORS, S4_GENERATORS, FROBENIUS_20_GENERATORS)],
    "Z7:Z9": lambda: [semidirect_7_9()],
    "D244": lambda: [preset_dihedral(61)],
    "D508": lambda: [preset_dihedral(127)],
    "D1004": lambda: [preset_dihedral(251)],
}


@pytest.mark.parametrize("name", ORDER_ORACLE_GROUPS)
def test_element_orders_and_inverses_match_permutation_powers(name):
    """x^m is the identity and x^(m/q) is not, for each prime q | m; x^(m-1) is x's inverse."""
    for group in ORDER_ORACLE_GROUPS[name]():
        identity = group.elements[0]
        for i, x in enumerate(group.elements):
            m = group.element_order(i)
            assert permutation_power(x, m) == identity
            assert all(permutation_power(x, m // q) != identity for q in prime_factors(m))
            assert permutation_power(x, m - 1) == group.elements[group.inv(i)]


def breadth_first_levels(generators):
    """Elements in the order of their first appearance as cur * gen, level by level."""
    identity = Permutation(tuple(range(generators[0].degree)))
    elements, frontier = [identity], [identity]
    while frontier:
        found = [cur * gen for cur in frontier for gen in generators]
        frontier = [p for i, p in enumerate(found) if p not in elements and p not in found[:i]]
        elements += frontier
    return elements


@pytest.mark.parametrize("build", [
    lambda: preset_dihedral(1), lambda: preset_dihedral(3), lambda: preset_dihedral(10),
    lambda: preset_elementary_abelian_2(1), lambda: preset_elementary_abelian_2(4),
    preset_quaternion, semidirect_7_9,
    lambda: group_from_images(A4_GENERATORS), lambda: group_from_images(S4_GENERATORS),
], ids=["D4", "D12", "D40", "Z2", "Z2^4", "Q8", "Z7:Z9", "A4", "S4"])
def test_build_group_orders_elements_by_breadth_first_levels(build):
    group = build()
    generators = [group.elements[g] for g in group.generator_names.values()]
    assert list(group.elements) == breadth_first_levels(generators)


def test_element_orders_divide_exponent():
    for group in (preset_dihedral(5), preset_quaternion()):
        for i in range(group.order):
            assert group.exponent % group.element_order(i) == 0


# -- conjugacy classes -------------------------------------------------------------


def test_conjugacy_classes_dihedral12():
    classes = conjugacy_classes(preset_dihedral(3))
    assert sorted(classes.sizes) == [1, 1, 2, 2, 3, 3]
    assert classes.classes[0] == (0,)
    assert sum(classes.sizes) == 12


def test_conjugacy_classes_dihedral20():
    classes = conjugacy_classes(preset_dihedral(5))
    assert len(classes) == 8
    assert sum(classes.sizes) == 20


def test_conjugacy_classes_abelian_singletons():
    group = preset_elementary_abelian_2(3)
    classes = conjugacy_classes(group)
    assert len(classes) == group.order
    assert all(size == 1 for size in classes.sizes)


def test_class_sizes_divide_group_order():
    for group in (preset_dihedral(3), preset_dihedral(5), preset_quaternion()):
        for size in conjugacy_classes(group).sizes:
            assert group.order % size == 0


def test_classes_closed_under_conjugation():
    group = preset_dihedral(3)
    classes = conjugacy_classes(group)
    for members in classes.classes:
        for x in members:
            for g in range(group.order):
                assert group.conjugate(x, g) in members


# -- subgroups ----------------------------------------------------------------------


def test_subgroup_generate_reflection_pair_gives_whole_group():
    group = preset_dihedral(3)
    s = group.generator_names["s"]
    sr = group.mul(s, group.generator_names["r"])
    assert subgroup_generate(group, (s, sr)).order == 12


def test_subgroup_generate_empty_seed_is_trivial():
    group = preset_dihedral(3)
    assert subgroup_generate(group, ()).members == (0,)


def test_subgroup_generate_rotations():
    for q in (3, 5):
        group = preset_dihedral(q)
        r = group.generator_names["r"]
        assert subgroup_generate(group, (r,)).order == 2 * q


def test_subgroup_generate_rejects_bad_index():
    group = preset_dihedral(3)
    with pytest.raises(InvalidElementIndex):
        subgroup_generate(group, (99,))


def test_subgroup_generate_idempotent():
    group = preset_dihedral(3)
    for subgroup in enumerate_subgroups(group):
        again = subgroup_generate(group, subgroup.members)
        assert again == subgroup


def brute_force_subgroups(group: FiniteGroup, max_seed: int) -> set[tuple[int, ...]]:
    """Oracle: closures of every seed set of bounded size."""
    found = {(0,)}
    elements = range(1, group.order)
    for size in range(1, max_seed + 1):
        for seed in itertools.combinations(elements, size):
            found.add(subgroup_generate(group, seed).members)
    return found


@pytest.mark.parametrize("group_builder,max_seed,expected_count", [
    (lambda: preset_dihedral(3), 3, 16),
    (lambda: preset_elementary_abelian_2(2), 2, 5),
    (lambda: preset_elementary_abelian_2(3), 3, None),
    (lambda: preset_quaternion(), 3, None),
    (lambda: preset_dihedral(5), 3, None),
])
def test_enumerate_subgroups_against_brute_force(group_builder, max_seed, expected_count):
    group = group_builder()
    listed = enumerate_subgroups(group)
    assert {h.members for h in listed} == brute_force_subgroups(group, max_seed)
    assert len({h.members for h in listed}) == len(listed)
    if expected_count is not None:
        assert len(listed) == expected_count


@pytest.mark.parametrize(("n", "expected"), [(22, 40), (30, 80), (42, 104), (62, 100), (126, 324)])
def test_dihedral_lattice_matches_its_closed_form(n, expected):
    """D_2n has, for each divisor d of n, one cyclic subgroup <r^(n/d)> of order d
    and n/d dihedral subgroups <r^(n/d), r^i s> of order 2d: tau(n) + sigma(n) in all."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    by_order = collections.Counter(divisors)
    by_order.update({2 * d: n // d for d in divisors})
    lattice = enumerate_subgroups(preset_dihedral(n // 2))  # the preset has order 4q = 2n
    assert collections.Counter(h.order for h in lattice) == by_order
    assert len(lattice) == len(divisors) + sum(divisors) == expected


def gaussian_binomial_2(t, k):
    """[t choose k]_2, the number of k-dimensional subspaces of F_2^t."""
    count = 1
    for i in range(k):
        count = count * (2 ** (t - i) - 1) // (2 ** (i + 1) - 1)
    return count


@pytest.mark.parametrize(("t", "expected"), [(1, 2), (2, 5), (3, 16), (4, 67), (5, 374)])
def test_elementary_abelian_lattice_matches_its_closed_form(t, expected):
    """Z2^t has [t choose k]_2 subgroups of order 2^k."""
    lattice = enumerate_subgroups(preset_elementary_abelian_2(t))
    by_order = collections.Counter(h.order for h in lattice)
    assert by_order == {2**k: gaussian_binomial_2(t, k) for k in range(t + 1)}
    assert len(lattice) == expected


def every_element_walk(group: FiniteGroup) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Oracle: the breadth-first walk that closes <P, g> for every g outside every P.

    Returns (members, generators) per subgroup, sorted by (order, members); the
    generators are those of the first extension that reached the subgroup.
    """
    found = {(0,): (0,)}
    layer = [(0,)]
    while layer:
        next_layer = []
        for members in layer:
            gens = found[members]
            for g in range(1, group.order):
                if g in members:
                    continue
                new_gens = tuple(sorted(set(gens) - {0})) + (g,)
                new_members = subgroup_generate(group, new_gens).members
                if new_members not in found:
                    found[new_members] = new_gens
                    next_layer.append(new_members)
        layer = next_layer
    return sorted(found.items(), key=lambda item: (len(item[0]), item[0]))


@pytest.mark.parametrize("make_group", [
    lambda: group_from_images(A4_GENERATORS),
    lambda: group_from_images(S4_GENERATORS),
    lambda: group_from_images(FROBENIUS_20_GENERATORS),
    preset_quaternion,
    lambda: preset_elementary_abelian_2(4),
    lambda: preset_dihedral(12),
    lambda: preset_dihedral(15),
    lambda: preset_dihedral(21),
    lambda: preset_elementary_abelian_2(5),
    semidirect_7_9,
], ids=["A4", "S4", "F20", "Q8", "Z2^4", "D48", "D60", "D84", "Z2^5", "Z7:Z9"])
def test_enumerate_subgroups_matches_every_element_walk(make_group):
    group = make_group()
    listed = [(h.members, h.generators) for h in enumerate_subgroups(group)]
    assert listed == every_element_walk(group)


@pytest.mark.parametrize(("make_group", "limit"), [
    *((lambda q=q: preset_dihedral(q), None) for q in (3, 11, 15, 21, 31)),
    *((lambda t=t: preset_elementary_abelian_2(t), None) for t in (1, 2, 3, 4, 5)),
    # A4 has no subgroup of order 6: for |P| = 2 and ord(g) = 3 the least order
    # left names no candidate, so <P, g> = A4 is closed again (in S4 as well)
    (lambda: group_from_images(A4_GENERATORS), 18),
    (lambda: group_from_images(S4_GENERATORS), 63),
], ids=[f"D{4 * q}" for q in (3, 11, 15, 21, 31)] + [f"Z2^{t}" for t in (1, 2, 3, 4, 5)] + ["A4", "S4"])
def test_lattice_closes_only_new_subgroups(make_group, limit, monkeypatch):
    """Every closure finds a new subgroup; where Lagrange falls short, at most ``limit`` run."""
    group = make_group()
    built = []

    class CountedSubgroup(groups.Subgroup):
        __slots__ = ()

        def __init__(self, parent, generators):
            super().__init__(parent, generators)
            built.append(self)

    monkeypatch.setattr(groups, "Subgroup", CountedSubgroup)
    lattice = enumerate_subgroups(group)
    closures = len(built) - 1  # the walk starts from the trivial subgroup
    assert closures <= (len(lattice) - 1 if limit is None else limit)


def test_enumerate_subgroups_trivial_group():
    group = build_group([Permutation((0,))], ["e"])
    assert len(enumerate_subgroups(group)) == 1


def test_enumerate_subgroups_sorted_and_complete_ends():
    group = preset_dihedral(3)
    listed = enumerate_subgroups(group)
    orders = [h.order for h in listed]
    assert orders == sorted(orders)
    assert listed[0].members == (0,)
    assert listed[-1].order == group.order


def test_enumerate_subgroups_cap(monkeypatch):
    group = preset_dihedral(3)
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_CAP", 4)
    with pytest.raises(OrderCapExceeded, match="capped at order 4"):
        enumerate_subgroups(group)


def test_a_cached_lattice_is_returned_above_the_cap(monkeypatch):
    group = preset_dihedral(129)  # order 516, above DEFAULT_SUBGROUP_CAP
    with pytest.raises(OrderCapExceeded):
        subgroup_class_representatives(group)
    with monkeypatch.context() as raised:
        raised.setattr(groups, "DEFAULT_SUBGROUP_CAP", 1024)
        lattice = enumerate_subgroups(group)
    assert enumerate_subgroups(group) is lattice
    representatives = subgroup_class_representatives(group)
    assert representatives[0] == trivial_subgroup(group)
    assert representatives[-1] == full_subgroup(group)
    assert set(representatives) <= set(lattice)


def test_one_member_set_has_one_index_within_its_own_group():
    group = preset_dihedral(3)
    r = group.generator_names["r"]
    a, b = groups.Subgroup(group, (r,)), groups.Subgroup(group, (group.inv(r),))
    assert a.generators != b.generators and a.members == b.members
    assert a.index == b.index and a == b and hash(a) == hash(b)
    row = fixed_dims(a)
    assert fixed_dims(b) is row
    assert list(group._fixed_dims) == [a.index]
    twin = groups.Subgroup(preset_dihedral(3), (r,))
    assert twin.members == a.members and twin != a


def test_the_subgroup_registry_holds_no_more_entries_than_the_lattice():
    rng = random.Random(2626)
    for group in group_library():
        lattice = enumerate_subgroups(group)
        for _ in range(2):
            analysis = analyze(random_action(group, rng))
            for subgroup in lattice:
                analysis.profile(subgroup)
            analysis.theorem_c(lattice[-6:])  # closes joins outside the lattice walk
        assert len(group._subgroup_index) <= len(lattice)
        assert set(group._subgroup_index.values()) == {h.index for h in lattice}


def test_racing_threads_give_each_member_set_one_index():
    """The registry fills without a lock; shuffled registrations from more threads than
    cores, switching every microsecond, still give one index per member set."""
    generators = [h.generators for h in enumerate_subgroups(preset_dihedral(15))]

    def race(group):
        seen = [None] * 4
        barrier = threading.Barrier(len(seen), timeout=60)

        def register(k):
            order = random.Random(k).sample(generators, len(generators))
            barrier.wait()  # start together, so registrations overlap
            seen[k] = [(h.members, h.index) for h in (groups.Subgroup(group, g) for g in order)]

        workers = [threading.Thread(target=register, args=(k,)) for k in range(len(seen))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        return {pair for registered in seen for pair in registered}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):  # a lost update shows in about one race in fifteen
            group = preset_dihedral(15)  # the same element numbering, an empty registry
            pairs = race(group)
            index = dict(pairs)
            assert len(pairs) == len(index) == len(set(index.values())) == len(generators)
            assert group._subgroup_index == index
    finally:
        sys.setswitchinterval(interval)


def test_racing_threads_give_each_class_of_subgroups_one_key():
    """Class keys publish without a lock; threads that ask for the keys of shuffled
    conjugates at once, switching every microsecond, all read one key per class: the
    least registry index of its members."""
    template = preset_dihedral(15)  # 80 subgroups in 20 classes
    classes = collections.defaultdict(list)  # least conjugate's members -> the class's members
    for h in enumerate_subgroups(template):
        conjugates = (tuple(sorted(template.conjugate(x, g) for x in h)) for g in range(template.order))
        classes[min(conjugates)].append(h.members)
    generators = [h.generators for h in enumerate_subgroups(template)]

    def race(group):
        seen = [None] * 4
        barrier = threading.Barrier(len(seen), timeout=60)

        def ask(k):
            order = random.Random(k).sample(generators, len(generators))
            barrier.wait()  # start together, so the orbit walks and registrations overlap
            seen[k] = [(h.members, groups.subgroup_class(h)) for h in (groups.Subgroup(group, g) for g in order)]

        workers = [threading.Thread(target=ask, args=(k,)) for k in range(len(seen))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        return {pair for asked in seen for pair in asked}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            group = preset_dihedral(15)  # the same element numbering, no index or key yet
            pairs = race(group)
            key = dict(pairs)
            assert len(pairs) == len(key) == len(generators)  # one key per member set
            registry = group._subgroup_index
            expected = {m: min(registry[c] for c in members) for members in classes.values() for m in members}
            assert key == expected
            assert len(set(key.values())) == len(classes)
            assert group._subgroup_classes == {registry[m]: k for m, k in key.items()}
    finally:
        sys.setswitchinterval(interval)


def test_subgroup_of_the_identity_alone_is_trivial():
    group = preset_dihedral(3)
    subgroup = groups.Subgroup(group, (0,))
    assert subgroup == trivial_subgroup(group)
    assert subgroup.describe() == "<1>"


def test_subgroup_closes_a_generator_list_that_is_not_closed():
    group = preset_dihedral(3)
    r = group.generator_names["r"]
    subgroup = groups.Subgroup(group, (0, r))
    assert subgroup.order == 6
    assert subgroup == subgroup_generate(group, (r,))
    assert subgroup.generators == (0, r)
    assert subgroup.describe() == "<r>"


def test_subgroup_rejects_an_out_of_range_generator():
    group = preset_dihedral(3)
    r = group.generator_names["r"]
    for bad in (-1, 12, 99):
        with pytest.raises(InvalidElementIndex):
            groups.Subgroup(group, (r, bad))


def test_join_of_the_rotations_and_a_reflection_is_the_whole_group():
    group = preset_dihedral(3)
    r, s = group.generator_names["r"], group.generator_names["s"]
    rotations = groups.Subgroup(group, (r,))
    assert subgroup_join(rotations, subgroup_generate(group, (s,))).order == 12


def test_subgroup_join_of_two_reflections():
    group = preset_dihedral(3)
    s = group.generator_names["s"]
    sr = group.mul(s, group.generator_names["r"])
    join = subgroup_join(subgroup_generate(group, (s,)), subgroup_generate(group, (sr,)))
    assert join.order == group.order


def test_subgroup_conjugation_preserves_order():
    group = preset_dihedral(3)
    s = group.generator_names["s"]
    subgroup = subgroup_generate(group, (s,))
    for g in range(group.order):
        assert subgroup.conjugate_by(g).order == subgroup.order


def test_subgroup_as_group_is_isomorphic_on_products():
    group = preset_dihedral(5)
    r = group.generator_names["r"]
    subgroup = subgroup_generate(group, (r,))
    packed, mapping = subgroup_as_group(subgroup)
    assert packed.order == subgroup.order
    for a in subgroup.members:
        for b in subgroup.members:
            assert mapping[group.mul(a, b)] == packed.mul(mapping[a], mapping[b])


# -- coset actions ---------------------------------------------------------------------


def test_coset_action_full_subgroup_is_trivial():
    group = preset_dihedral(3)
    action = coset_action(group, full_subgroup(group))
    assert action.degree == 1


def test_coset_action_trivial_subgroup_is_regular():
    group = preset_dihedral(3)
    action = coset_action(group, trivial_subgroup(group))
    assert action.degree == group.order
    for g in range(1, group.order):
        assert all(action.image(g, i) != i for i in range(group.order))


def test_coset_action_reflection_subgroup_transitive_degree_6():
    group = preset_dihedral(3)
    s = group.generator_names["s"]
    action = coset_action(group, subgroup_generate(group, (s,)))
    assert action.degree == 6
    reached = {0}
    for g in range(group.order):
        reached.add(action.image(g, 0))
    assert reached == set(range(6))


def test_coset_action_stabilizer_of_base_coset():
    group = preset_dihedral(3)
    subgroup = subgroup_generate(group, (group.generator_names["s"],))
    action = coset_action(group, subgroup)
    stabilizer = {g for g in range(group.order) if action.image(g, 0) == 0}
    assert stabilizer == set(subgroup.members)


def test_coset_action_fixed_point_count_formula():
    for group in (preset_dihedral(3), group_from_images(S4_GENERATORS)):
        for subgroup in enumerate_subgroups(group):
            action = coset_action(group, subgroup)
            for g in range(group.order):
                fixed = sum(1 for i in range(action.degree) if action.image(g, i) == i)
                by_membership = sum(
                    1
                    for x in action.representatives
                    if group.mul(group.mul(group.inv(x), g), x) in subgroup
                )
                assert fixed == by_membership


def test_subgroup_is_the_closure_of_its_generators():
    group = preset_dihedral(3)
    r, s = group.generator_names["r"], group.generator_names["s"]
    for generators in [(0,), (group.power(r, 2),), (group.mul(s, r),)]:
        subgroup = groups.Subgroup(group, generators)
        powers = {group.power(generators[0], k) for k in range(group.order)}
        assert subgroup.members == tuple(sorted(powers))
        assert subgroup.generators == generators
        assert coset_action(group, subgroup).degree * subgroup.order == group.order


def test_coset_action_requires_matching_parent():
    group = preset_dihedral(3)
    other = preset_dihedral(5)
    with pytest.raises(NotASubgroup):
        coset_action(group, trivial_subgroup(other))


# -- partitions -----------------------------------------------------------------------


def test_dihedral_rotation_reflection_partition():
    group = preset_dihedral(3)
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    collection = [subgroup_generate(group, (r,))] + [
        subgroup_generate(group, (group.mul(s, group.power(r, i)),)) for i in range(6)
    ]
    verdict = is_partition(group, collection)
    assert verdict.is_partition


def test_single_full_group_is_partition():
    group = preset_dihedral(3)
    assert is_partition(group, [full_subgroup(group)]).is_partition


def test_partition_failure_witnesses():
    group = preset_dihedral(3)
    r = group.generator_names["r"]
    h_r = subgroup_generate(group, (r,))
    h_r2 = subgroup_generate(group, (group.power(r, 2),))
    verdict = is_partition(group, [h_r, h_r2])
    assert not verdict.is_partition
    assert verdict.uncovered is not None
    assert group.element_order(verdict.uncovered) == 2  # a reflection is missing
    assert verdict.overlap is not None
    i, j, shared = verdict.overlap
    assert shared in h_r and shared in h_r2 and shared != 0


# -- words -------------------------------------------------------------------------------


def test_element_from_word_examples():
    group = preset_dihedral(3)
    r = group.generator_names["r"]
    s = group.generator_names["s"]
    assert element_from_word(group, "s*r^2") == group.mul(s, group.power(r, 2))
    assert element_from_word(group, "r^-1") == group.inv(r)
    assert element_from_word(group, "1") == 0
    assert element_from_word(group, "") == 0


def test_element_from_word_errors():
    group = preset_dihedral(3)
    with pytest.raises(UnknownGenerator):
        element_from_word(group, "t*r")
    with pytest.raises(UnknownGenerator):
        element_from_word(group, "r^x")


def _breadth_first_words(group):
    """Words from a walk of the Cayley graph from the identity, breadth first, over
    the names sorted by (index, name), with runs of one letter written as powers."""
    names = sorted(group.generator_names.items(), key=lambda kv: (kv[1], kv[0]))
    letters = {0: ()}
    frontier = [0]
    for x in frontier:
        for name, g in names:
            y = group.mul(x, g)
            if y not in letters:
                letters[y] = letters[x] + (name,)
                frontier.append(y)
    runs = ([(name, len(list(run))) for name, run in itertools.groupby(letters.get(i, ()))]
            for i in range(group.order))
    return ["*".join(name if k == 1 else f"{name}^{k}" for name, k in word) or "1" for word in runs]


def test_element_word_round_trip():
    r, s = hexagon_generators()
    identity = Permutation(tuple(range(6)))
    for group in group_library() + [
        preset_dihedral(61),
        semidirect_7_9(),
        build_group([r, s, r], ["r", "s", "b"]),  # r named twice: the least name, b, is used
        build_group([r, identity, s], ["r", "e", "s"]),  # a generator equal to the identity
    ]:
        words = [group.element_word(i) for i in range(group.order)]
        assert words == _breadth_first_words(group)
        assert [element_from_word(group, w) for w in words] == list(range(group.order))
    unnamed = FiniteGroup(semidirect_7_9().elements, {})
    assert [unnamed.element_word(i) for i in range(unnamed.order)] == ["1"] * unnamed.order
    assert _breadth_first_words(unnamed) == ["1"] * unnamed.order


@pytest.mark.parametrize("preset, argument", [
    (preset_dihedral, 3),
    (preset_elementary_abelian_2, 2),
    (preset_quaternion, None),
])
def test_presets_forward_their_order_cap(monkeypatch, preset, argument):
    caps = []
    original = groups.build_group

    def spy(generators, names=None, order_cap=groups.DEFAULT_ORDER_CAP):
        caps.append(order_cap)
        return original(generators, names, order_cap=order_cap)

    monkeypatch.setattr(groups, "build_group", spy)
    arguments = () if argument is None else (argument,)
    for cap in (12, 4096):
        preset(*arguments, order_cap=cap)
    assert caps == [12, 4096]


# -- orbit walks against their definitions --------------------------------------------


def test_orbits_numbers_orbits_by_smallest_point():
    swap_01_45 = [1, 0, 2, 3, 5, 4]
    cycle_345 = [0, 1, 2, 4, 5, 3]
    assert orbits(6, [swap_01_45]) == ([0, 2, 3, 4], [0, 0, 1, 2, 3, 3])
    assert orbits(6, [swap_01_45, cycle_345]) == ([0, 2, 3], [0, 0, 1, 2, 2, 2])
    assert orbits(3, []) == ([0, 1, 2], [0, 1, 2])
    assert orbits(0, [[]]) == ([], [])


def numbered_blocks(n, blocks):
    """Blocks sorted by smallest member, and each point's block number."""
    blocks = sorted(tuple(sorted(b)) for b in set(map(frozenset, blocks)))
    number = [None] * n
    for k, block in enumerate(blocks):
        for x in block:
            number[x] = k
    return blocks, tuple(number)


@pytest.mark.parametrize("name", ORBIT_ORACLE_GROUPS)
def test_classes_match_conjugation_by_every_element(name):
    group = ORBIT_ORACLE_GROUPS[name]()
    n = group.order
    classes, class_of = numbered_blocks(
        n, ({group.conjugate(x, g) for g in range(n)} for x in range(n))
    )
    partition = conjugacy_classes(group)
    assert partition.classes == tuple(classes)
    assert partition.representatives == tuple(c[0] for c in classes)
    assert partition.sizes == tuple(len(c) for c in classes)
    assert partition.class_of == class_of


@pytest.mark.parametrize("name", ORBIT_ORACLE_GROUPS)
def test_cosets_match_the_sets_gH(name):
    group = ORBIT_ORACLE_GROUPS[name]()
    n = group.order
    for subgroup in enumerate_subgroups(group):
        cosets, coset_of = numbered_blocks(
            n, ({group.mul(g, h) for h in subgroup.members} for g in range(n))
        )
        action = coset_action(group, subgroup)
        assert action.representatives == tuple(c[0] for c in cosets)
        assert action.coset_of == coset_of
        assert action.degree * subgroup.order == n


def is_conjugacy_canonical(subgroup):
    """Oracle: no conjugate of the subgroup has smaller sorted members."""
    group = subgroup.parent
    members = subgroup.members
    for g in range(group.order):
        conjugated = tuple(sorted(group.conjugate(m, g) for m in members))
        if conjugated < members:
            return False
    return True


@pytest.mark.parametrize("name", ORBIT_ORACLE_GROUPS)
def test_subgroup_class_representatives_match_conjugation_by_every_element(name):
    group = ORBIT_ORACLE_GROUPS[name]()
    expected = [h for h in enumerate_subgroups(group) if is_conjugacy_canonical(h)]
    assert list(subgroup_class_representatives(group)) == expected


@pytest.mark.parametrize("name", ORBIT_ORACLE_GROUPS)
def test_conjugate_by_matches_conjugating_every_member(name):
    group = ORBIT_ORACLE_GROUPS[name]()
    for h in enumerate_subgroups(group):
        assert groups.Subgroup(group, h.generators) == h
        for g in range(group.order):
            conjugate = h.conjugate_by(g)
            assert conjugate.members == tuple(sorted(group.conjugate(m, g) for m in h.members))
            assert conjugate.generators == tuple(group.conjugate(x, g) for x in h.generators)

"""Finite groups: construction, presets, classes, subgroups, cosets.

A group is one flat Cayley table over the element indices 0..|G|-1, with the
identity at index 0: every product, inverse, element order, power and
conjugate is an index lookup, and all higher layers speak element indices.
Permutations are only the input format.  Generators are closed under
composition once, and the constructor fills the table by ``itemgetter``
composition: one ``operator.itemgetter(*q.images)`` per column element q,
applied to each row's image tuple, gives the images of p*q in C.

The table never changes after construction.  The lazy caches on a group
(conjugacy classes, subgroup lattice, coset actions, and the character
caches kept by characters.py) fill without locks: concurrent callers may
compute the same entry twice, but every entry is deterministic, so they all
see equal results.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

DEFAULT_ORDER_CAP = 2048
DEFAULT_SUBGROUP_CAP = 512
TABLE_ORDER_LIMIT = 1 << 16  # element indices must fit the table's unsigned shorts


class GroupError(Exception):
    """Base error for group construction and queries."""


class DegreeMismatch(GroupError):
    """Generators act on different numbers of points."""


class OrderCapExceeded(GroupError):
    """Closure or enumeration exceeded the configured order cap."""


class EmptyGeneratorList(GroupError):
    """At least one generator is required."""


class InvalidElementIndex(GroupError):
    """An element index is outside 0..|G|-1."""


class NotASubgroup(GroupError):
    """The given subgroup does not belong to the given group."""


class UnknownGenerator(GroupError):
    """A word refers to a generator name the group does not define."""


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0..degree-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p*q)(x) = p(q(x)): q acts first.
        if self.degree != other.degree:
            raise DegreeMismatch(f"degrees differ: {self.degree} vs {other.degree}")
        return Permutation(tuple(self.images[x] for x in other.images))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))


class FiniteGroup:
    """Finite group given by its Cayley table, with a fixed element order.

    ``elements`` keeps the permutations the group was built from (identity
    first); after construction every operation reads the table.  Use
    :func:`build_group` or one of the presets; the constructor raises
    :class:`GroupError` if the element list is not closed.
    """

    def __init__(self, elements: Sequence[Permutation], generator_names: dict[str, int]):
        self.elements: tuple[Permutation, ...] = tuple(elements)
        if not self.elements or not self.elements[0].is_identity():
            raise GroupError("element list must start with the identity")
        self.generator_names: dict[str, int] = dict(generator_names)
        n = self.order = len(self.elements)
        if n > TABLE_ORDER_LIMIT:
            raise OrderCapExceeded(f"order {n} exceeds the Cayley table limit {TABLE_ORDER_LIMIT}")
        images = [p.images for p in self.elements]
        if any(len(x) != self.degree for x in images):
            raise DegreeMismatch("elements act on different numbers of points")
        index = {x: i for i, x in enumerate(images)}
        if len(index) != n:
            raise GroupError("duplicate elements in group construction")
        # itemgetter(*q)(p) is the image tuple of p*q; below degree 2 the only
        # element is the identity, and itemgetter would not return a tuple
        getters = [itemgetter(*q) for q in images] if self.degree > 1 else [tuple]
        table = self._table = array("H")
        try:
            for p in images:
                table.extend([index[get(p)] for get in getters])
        except KeyError as exc:
            raise GroupError(f"element list is not closed: product {exc.args[0]} is missing") from None
        self._inverse = tuple(table.index(0, i * n, i * n + n) - i * n for i in range(n))
        orders = []
        for i in range(n):
            k, x = 1, i
            while x:
                x = table[x * n + i]
                k += 1
            orders.append(k)
        self._orders = tuple(orders)
        self.exponent = math.lcm(*self._orders)
        # lazy caches
        self._classes = None
        self._character_table = None
        self._rational_classes = None
        self._subgroups: tuple | None = None
        self._coset_actions: dict[tuple[int, ...], "CosetAction"] = {}
        self._perm_chars: dict[tuple[int, ...], object] = {}
        self._fixed_dims: dict[tuple, int] = {}
        self._words: tuple[str, ...] | None = None

    @property
    def degree(self) -> int:
        return self.elements[0].degree

    def mul(self, i: int, j: int) -> int:
        return self._table[i * self.order + j]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def element_order(self, i: int) -> int:
        return self._orders[i]

    def power(self, i: int, n: int) -> int:
        n %= self._orders[i]  # i^n = i^(n mod order), negative n included
        result = 0
        while n:
            if n & 1:
                result = self.mul(result, i)
            i = self.mul(i, i)
            n >>= 1
        return result

    def conjugate(self, i: int, by: int) -> int:
        """Index of by * i * by^-1."""
        return self.mul(self.mul(by, i), self._inverse[by])

    def check_index(self, i: int) -> int:
        if not isinstance(i, int) or not 0 <= i < self.order:
            raise InvalidElementIndex(f"element index {i} outside 0..{self.order - 1}")
        return i

    def is_abelian(self) -> bool:
        gens = sorted(set(self.generator_names.values())) or list(range(self.order))
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    def element_word(self, i: int) -> str:
        """Shortest word for element i in the named generators (BFS order)."""
        if self._words is None:
            names = sorted(self.generator_names.items(), key=lambda kv: (kv[1], kv[0]))
            letters: dict[int, tuple[str, ...]] = {0: ()}
            frontier = [0]
            while frontier:
                nxt = []
                for x in frontier:
                    for name, g in names:
                        y = self.mul(x, g)
                        if y not in letters:
                            letters[y] = letters[x] + (name,)
                            nxt.append(y)
                frontier = nxt
            rendered = []
            for idx in range(self.order):
                rendered.append(_compress_word(letters.get(idx, ())) if idx else "1")
            self._words = tuple(rendered)
        return self._words[i]

    def __repr__(self):
        gens = ",".join(sorted(self.generator_names))
        return f"<FiniteGroup order={self.order} degree={self.degree} gens=[{gens}]>"


def _compress_word(letters: tuple[str, ...]) -> str:
    if not letters:
        return "1"
    parts = []
    run_name, run_len = letters[0], 1
    for name in letters[1:]:
        if name == run_name:
            run_len += 1
        else:
            parts.append(run_name if run_len == 1 else f"{run_name}^{run_len}")
            run_name, run_len = name, 1
    parts.append(run_name if run_len == 1 else f"{run_name}^{run_len}")
    return "*".join(parts)


def build_group(
    generators: Sequence[Permutation],
    names: Sequence[str] | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    """Close a generator list under products and return the group."""
    if not generators:
        raise EmptyGeneratorList("need at least one generator permutation")
    degree = generators[0].degree
    for p in generators[1:]:
        if p.degree != degree:
            raise DegreeMismatch(f"degrees differ: {degree} vs {p.degree}")
    if names is None:
        names = [f"g{i + 1}" for i in range(len(generators))]
    if len(names) != len(generators):
        raise GroupError("one name per generator required")

    identity = Permutation.identity(degree)
    elements = [identity]
    seen = {identity.images: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for cur in frontier:
            for gen in generators:
                new = cur * gen
                if new.images not in seen:
                    seen[new.images] = len(elements)
                    elements.append(new)
                    nxt.append(new)
                    if len(elements) > order_cap:
                        raise OrderCapExceeded(
                            f"closure exceeded order cap {order_cap}"
                        )
        frontier = nxt
    name_map = {name: seen[gen.images] for name, gen in zip(names, generators)}
    return FiniteGroup(elements, name_map)


def preset_dihedral(q: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group <r, s : r^(2q) = s^2 = (sr)^2 = 1> of order 4q.

    Realized on the 2q-gon for q >= 2; the q = 1 (Klein) case needs 4 points.
    Each call builds a new group, as build_group does: no module-level cache
    keeps a preset, or the caches it owns, alive.
    """
    if q < 1:
        raise GroupError(f"q must be a positive integer, got {q}")
    if 4 * q > order_cap:
        raise OrderCapExceeded(f"order {4 * q} exceeds cap {order_cap}")
    if q == 1:
        r = Permutation((1, 0, 2, 3))
        s = Permutation((0, 1, 3, 2))
    else:
        n = 2 * q
        r = Permutation(tuple((i + 1) % n for i in range(n)))
        s = Permutation(tuple((-i) % n for i in range(n)))
    group = build_group([r, s], ["r", "s"], order_cap=order_cap)
    assert group.order == 4 * q
    return group


def preset_elementary_abelian_2(t: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Elementary abelian group (Z_2)^t with generators e1..et on 2t points."""
    if not 1 <= t <= 11:
        raise OrderCapExceeded(f"t must be in 1..11, got {t}")
    if 2**t > order_cap:
        raise OrderCapExceeded(f"order {2**t} exceeds cap {order_cap}")
    gens = []
    for i in range(t):
        images = list(range(2 * t))
        images[2 * i], images[2 * i + 1] = images[2 * i + 1], images[2 * i]
        gens.append(Permutation(tuple(images)))
    return build_group(gens, [f"e{i + 1}" for i in range(t)], order_cap=order_cap)


def preset_quaternion() -> FiniteGroup:
    """Quaternion group of order 8 in its regular action, generators i and j."""
    # element order: 1, -1, i, -i, j, -j, k, -k
    perm_i = Permutation((2, 3, 1, 0, 6, 7, 5, 4))
    perm_j = Permutation((4, 5, 7, 6, 1, 0, 2, 3))
    group = build_group([perm_i, perm_j], ["i", "j"])
    assert group.order == 8
    return group


@dataclass(frozen=True)
class ConjugacyClassPartition:
    """Conjugacy classes ordered by smallest member; identity class first."""

    group: FiniteGroup
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    class_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClassPartition:
    if group._classes is not None:
        return group._classes
    n = group.order
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for start in range(n):
        if class_of[start] >= 0:
            continue
        members = tuple(sorted({group.conjugate(start, g) for g in range(n)}))
        idx = len(classes)
        classes.append(members)
        for m in members:
            class_of[m] = idx
    partition = ConjugacyClassPartition(
        group=group,
        classes=tuple(classes),
        representatives=tuple(c[0] for c in classes),
        sizes=tuple(len(c) for c in classes),
        class_of=tuple(class_of),
    )
    group._classes = partition
    return partition


class Subgroup:
    """Subgroup of a parent group, canonicalized by its sorted member indices."""

    __slots__ = ("parent", "members", "_member_set", "generators")

    def __init__(self, parent: FiniteGroup, members: Iterable[int], generators: tuple[int, ...] = ()):
        self.parent = parent
        self.members: tuple[int, ...] = tuple(sorted(set(members)))
        self._member_set = frozenset(self.members)
        # a small known generating set, kept for fast re-closure
        self.generators = generators if generators else self.members
        if 0 not in self._member_set:
            raise GroupError("a subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, i: int) -> bool:
        return i in self._member_set

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        return f"<Subgroup order={self.order} of group order {self.parent.order}>"

    def conjugate_by(self, g: int) -> "Subgroup":
        parent = self.parent
        return Subgroup(
            parent,
            (parent.conjugate(m, g) for m in self.members),
            tuple(parent.conjugate(m, g) for m in self.generators),
        )

    def describe(self) -> str:
        gens = sorted(set(self.generators) - {0}) or [0]
        words = ",".join(self.parent.element_word(g) for g in gens)
        return f"<{words}>"


def _closure_from_generators(group: FiniteGroup, gens: Sequence[int]) -> tuple[int, ...]:
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(members))


def subgroup_generate(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed element indices."""
    seed = tuple(sorted(set(seed)))
    for i in seed:
        group.check_index(i)
    members = _closure_from_generators(group, seed)
    return Subgroup(group, members, generators=seed if seed else (0,))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (0,), generators=(0,))


def full_subgroup(group: FiniteGroup) -> Subgroup:
    gens = tuple(sorted(set(group.generator_names.values()))) or tuple(range(group.order))
    return Subgroup(group, range(group.order), generators=gens)


def subgroup_join(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.parent is not b.parent:
        raise NotASubgroup("subgroups live in different parent groups")
    return subgroup_generate(a.parent, tuple(a.generators) + tuple(b.generators))


def enumerate_subgroups(group: FiniteGroup, order_cap: int = DEFAULT_SUBGROUP_CAP) -> tuple[Subgroup, ...]:
    """All subgroups, unique, sorted by (order, members).

    Breadth-first from the trivial subgroup: each subgroup P found is extended
    by every g outside it, in index order, and <P, g> is recorded the first
    time its members appear, generated by P's generators (identity dropped)
    and then g.  As <P, x> = <P, g> for all x in the double coset PgP, only
    the smallest g of each double coset is closed; the rest would only
    rediscover that subgroup, so the recorded generators do not change.
    """
    if group.order > order_cap:
        raise OrderCapExceeded(
            f"subgroup enumeration capped at order {order_cap}, group has {group.order}"
        )
    if group._subgroups is not None:
        return group._subgroups
    found: dict[tuple[int, ...], tuple[int, ...]] = {(0,): (0,)}  # members -> generators
    layer = [(0,)]
    while layer:
        next_layer = []
        for members in layer:
            gens = found[members]
            done = bytearray(group.order)  # marks P and every double coset closed
            for h in members:
                done[h] = 1
            for g in range(1, group.order):
                if done[g]:
                    continue
                done[g] = 1
                frontier = [g]
                while frontier:
                    x = frontier.pop()
                    for s in gens:
                        for y in (group.mul(s, x), group.mul(x, s)):
                            if not done[y]:
                                done[y] = 1
                                frontier.append(y)
                new_gens = tuple(sorted(set(gens) - {0})) + (g,)
                new_members = _closure_from_generators(group, new_gens)
                if new_members not in found:
                    found[new_members] = new_gens
                    next_layer.append(new_members)
        layer = next_layer
    subgroups = [
        Subgroup(group, members, generators=gens) for members, gens in found.items()
    ]
    subgroups.sort(key=lambda h: (h.order, h.members))
    group._subgroups = tuple(subgroups)
    return group._subgroups


@dataclass(frozen=True)
class CosetAction:
    """Left action of a group on the left cosets of a subgroup.

    Coset 0 is the subgroup itself; representatives are the minimal element
    of each coset, sorted, so the numbering is canonical.
    """

    group: FiniteGroup
    subgroup_members: tuple[int, ...]
    representatives: tuple[int, ...]
    coset_of: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.representatives)

    def image(self, g: int, coset: int) -> int:
        """The coset that g sends the given coset to: the one holding g * rep."""
        return self.coset_of[self.group.mul(g, self.representatives[coset])]


def _require_subgroup(group: FiniteGroup, subgroup: Subgroup) -> None:
    if subgroup.parent is not group:
        raise NotASubgroup("subgroup belongs to a different group")


def coset_action(group: FiniteGroup, subgroup: Subgroup) -> CosetAction:
    _require_subgroup(group, subgroup)
    cached = group._coset_actions.get(subgroup.members)
    if cached is not None:
        return cached
    members = subgroup.members
    coset_of = [-1] * group.order
    reps: list[int] = []
    for g in range(group.order):
        if coset_of[g] >= 0:
            continue
        coset = sorted(group.mul(g, h) for h in members)
        idx = len(reps)
        reps.append(coset[0])
        for x in coset:
            coset_of[x] = idx
    action = CosetAction(
        group=group,
        subgroup_members=members,
        representatives=tuple(reps),
        coset_of=tuple(coset_of),
    )
    group._coset_actions[subgroup.members] = action
    return action


@dataclass(frozen=True)
class PartitionVerdict:
    """Result of the covering-by-subgroups test, with witnesses on failure."""

    is_partition: bool
    uncovered: int | None = None
    overlap: tuple[int, int, int] | None = None  # (i, j, shared element)

    def __bool__(self) -> bool:
        return self.is_partition


def is_partition(group: FiniteGroup, collection: Sequence[Subgroup]) -> PartitionVerdict:
    """True iff the subgroups cover the group and pairwise meet trivially."""
    for h in collection:
        _require_subgroup(group, h)
    uncovered = None
    covered = set()
    for h in collection:
        covered.update(h.members)
    for g in range(group.order):
        if g not in covered:
            uncovered = g
            break
    overlap = None
    for i in range(len(collection)):
        for j in range(i + 1, len(collection)):
            shared = set(collection[i].members) & set(collection[j].members) - {0}
            if shared:
                overlap = (i, j, min(shared))
                break
        if overlap:
            break
    ok = uncovered is None and overlap is None
    return PartitionVerdict(ok, uncovered, overlap)


def subgroup_as_group(subgroup: Subgroup) -> tuple[FiniteGroup, dict[int, int]]:
    """Re-package a subgroup as a standalone group.

    Returns the new group together with the map from parent element indices
    to indices in the new group.
    """
    parent = subgroup.parent
    ordering = [0] + [m for m in subgroup.members if m != 0]
    elements = [parent.elements[m] for m in ordering]
    gens = [g for g in subgroup.generators if g != 0]
    names = {f"x{k + 1}": g for k, g in enumerate(sorted(set(gens)))}
    group = FiniteGroup(elements, {})
    mapping = {m: i for i, m in enumerate(ordering)}
    group.generator_names = {name: mapping[g] for name, g in names.items()}
    return group, mapping


# -- words in named generators ------------------------------------------------

def element_from_word(group: FiniteGroup, word: str) -> int:
    """Resolve a word like 's*r^2' or 'r^-1' (or '1') to an element index."""
    text = word.strip()
    if text in ("", "1"):
        return 0
    result = 0
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise UnknownGenerator(f"empty factor in word {word!r}")
        if "^" in factor:
            name, _, power_text = factor.partition("^")
            name = name.strip()
            try:
                power = int(power_text.strip())
            except ValueError:
                raise UnknownGenerator(
                    f"bad exponent {power_text!r} in word {word!r}"
                ) from None
        else:
            name, power = factor, 1
        if name == "1":
            continue
        if name not in group.generator_names:
            raise UnknownGenerator(f"unknown generator {name!r} in word {word!r}")
        result = group.mul(result, group.power(group.generator_names[name], power))
    return result

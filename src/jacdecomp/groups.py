"""Finite groups: construction, presets, classes, subgroups, cosets.

A group is one flat Cayley table over the element indices 0..|G|-1, with the
identity at index 0: every product, inverse, element order, power and
conjugate is an index lookup, and all higher layers speak element indices.
Permutations are only the input format.  Generators are closed under
composition once, on image tuples, and the constructor fills the table from
their right-regular action: one ``operator.itemgetter(*s.images)`` per
generator s, applied to each element's image tuple, gives the index of x*s.
A walk over the generators' words from the identity then builds the table
column by column, since x(ys) = (xy)s makes column y*s that action read
along column y, and writes each column into the row-major table.  Closure
under the generators, with every element reached, proves closure under
products.  The walk is breadth-first over the named generators in index order
(every element when none is named), and the group keeps it as a spanning tree
of the Cayley graph: the order in which it reached the elements, and each
element's parent and the generator that led there.  Element words and the
linear characters read that tree.
Conjugacy classes and double cosets are orbits of point maps read off the
table, walked by :func:`orbits`; the cosets xH are read off table rows.  The
walks move points by a subgroup's generators only; :class:`Subgroup` is built
from its generators alone and computes its members as their closure, so the
generators always generate it.
The class partition owns the power map, the class of each rep^i, read down
rep's column of the table with no product call.
The subgroup lattice closes a subgroup only when it may be new: a closure
that Lagrange's theorem proves would rediscover a subgroup already found (a
found subgroup containing its generators has the least order it can have) is
skipped, so the walk and its recorded generators are those of closing them all.

The table never changes after construction.  The lazy caches on a group
(conjugacy classes, subgroup lattice, coset actions, and the character
caches kept by characters.py) fill without locks: concurrent callers may
compute the same entry twice, but every entry is deterministic, so they all
see equal results.  Only this module reads a member tuple as an identity:
the group's registry gives each member set one index, drawn as
``setdefault(members, next(counter))`` so racing callers read the one stored,
and every per-subgroup cache keys on it, one entry per subgroup of G at most.
The rows that depend on H only through its permutation character pi_H (fixed
dimensions, orbit counts, profiles) key on :func:`subgroup_class` instead:
conjugate subgroups give isomorphic G-sets, so one row serves the whole class.
"""

from __future__ import annotations

import math
import re
from array import array
from itertools import combinations, count, groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

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


def orbits(n: int, moves: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Orbits on the points 0..n-1 of the group generated by the moves.

    Each move lists the image of every point.  Returns the smallest point of
    each orbit, in increasing order, and the orbit number of every point.
    """
    orbit_of = [-1] * n
    reps: list[int] = []
    for start in range(n):
        if orbit_of[start] >= 0:
            continue
        k = len(reps)
        reps.append(start)
        orbit_of[start] = k
        frontier = [start]
        for x in frontier:
            for move in moves:
                y = move[x]
                if orbit_of[y] < 0:
                    orbit_of[y] = k
                    frontier.append(y)
    return reps, orbit_of


def _left_cosets(group: "FiniteGroup", members: Sequence[int]) -> tuple[list[int], list[int]]:
    """The left cosets xH, each read off x's row at H's members, x the least element
    not yet placed: the cosets' least elements, ascending, and each element's coset."""
    n, table = group.order, group._table
    coset_of, reps = [-1] * n, []
    for x in range(n):
        if coset_of[x] < 0:
            row, k = x * n, len(reps)
            reps.append(x)
            for q in members:
                coset_of[table[row + q]] = k
    return reps, coset_of


class Permutation:
    """Bijection of {0..degree-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        self.images = images

    def __eq__(self, other):
        return self.images == other.images if type(other) is Permutation else NotImplemented

    def __hash__(self) -> int:
        return hash(self.images)

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
    first); after construction every operation reads the table.  ``_walk``,
    ``_parent`` and ``_via`` are the table walk's breadth-first spanning tree:
    the elements in the order reached, and for each x other than the identity
    the element y and generator s with y*s = x that reached it.  Use
    :func:`build_group` or one of the presets; the constructor raises
    :class:`GroupError` if the element list is not closed or the named
    generators do not generate it.
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
        # right[k][x] is the index of x*s for the k-th generator s (every element
        # when none is named): itemgetter(*s)(x) is the image tuple of x*s; below
        # degree 2 the only element is the identity, and itemgetter would not
        # return a tuple
        gens = sorted(set(self.generator_names.values())) or range(n)
        getters = [itemgetter(*images[s]) if self.degree > 1 else tuple for s in gens]
        try:
            right = [[index[get(x)] for x in images] for get in getters]
        except KeyError as exc:
            raise GroupError(f"element list is not closed: product {exc.args[0]} is missing") from None
        # column y*s is right[k] read along column y, as x(ys) = (xy)s; a walk over
        # the generators' words that reaches every element proves closure.  Each
        # column is written into the row-major table, and dropped, once its
        # children are built; the walk, and the parent y and generator s of each
        # z = y*s it reaches, are kept as the group's spanning tree.
        table = self._table = array("H", bytes(2 * n * n))
        parent, via = self._parent, self._via = [0] * n, [0] * n
        columns = [None] * n
        columns[0] = range(n)
        walk = self._walk = [0]
        for y in walk:
            column, columns[y] = columns[y], ()
            get = itemgetter(*column)
            for s, action in zip(gens, right):
                z = action[y]
                if columns[z] is None:
                    columns[z] = get(action)
                    parent[z], via[z] = y, s
                    walk.append(z)
            table[y::n] = array("H", column)
        if len(walk) != n:
            raise GroupError("the named generators do not generate the group")
        # one walk of each cycle x, x^2, ..., x^m = 1 not yet covered: x^k has
        # order m / gcd(m, k) and inverse x^(m-k)
        orders, inverse = [0] * n, [0] * n
        for i in range(n):
            if orders[i]:
                continue
            cycle, x = [0], i
            while x:
                cycle.append(x)
                x = table[x * n + i]
            m = len(cycle)
            for k, y in enumerate(cycle):
                orders[y], inverse[y] = m // math.gcd(m, k), cycle[-k]
        self._inverse = tuple(inverse)
        self._orders = tuple(orders)
        self._conjugations = [  # x -> g x g^-1: row g is x -> g x, column g^-1 is y -> y g^-1
            list(map(table[inverse[g]::n].__getitem__, table[g * n:g * n + n])) for g in gens
        ]
        self.exponent = math.lcm(*self._orders)
        # lazy caches
        self._classes = None
        self._character_table = None
        self._rational_classes = None
        self._subgroups: tuple | None = None
        self._subgroup_index: dict[tuple[int, ...], int] = {}  # members -> Subgroup.index
        self._subgroup_counter = count()
        self._coset_actions: dict[int, "CosetAction"] = {}
        # rows keyed by class of subgroups, sound as pi_H = pi_gHg^-1 (see subgroup_class)
        self._subgroup_classes: dict[int, int] = {}  # Subgroup.index -> its class's key
        self._fixed_dims: dict[int, tuple[int, ...]] = {}  # class of H -> row
        self._exponent_rows: dict[int, tuple[int, ...]] = {}  # class of H -> its heuristic n_H row
        self._orbit_counts: dict[int, dict[int, int]] = {}  # class of H -> {class of <c>: count}
        self._cyclic_subgroups: dict[int, "Subgroup"] = {}  # c -> <c>, generated by (c,)
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

    def element_word(self, i: int) -> str:
        """Shortest word for element i in the named generators, read along the table
        walk's spanning tree; a generator named twice takes its least name, and with
        no names every word is "1"."""
        if self._words is None:
            least: dict[int, str] = {}
            for name, g in sorted(self.generator_names.items()):
                least.setdefault(g, name)
            letters: list[tuple[str, ...]] = [()] * self.order
            for x in self._walk[1:] if least else ():
                letters[x] = letters[self._parent[x]] + (least[self._via[x]],)
            self._words = tuple(map(_compress_word, letters))
        return self._words[i]

    def __repr__(self):
        gens = ",".join(sorted(self.generator_names))
        return f"<FiniteGroup order={self.order} degree={self.degree} gens=[{gens}]>"


def _compress_word(letters: tuple[str, ...]) -> str:
    runs = [(name, len(list(run))) for name, run in groupby(letters)]
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in runs) or "1"


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

    # breadth-first over image tuples: itemgetter(*gen)(cur) is cur*gen (see FiniteGroup);
    # the walk stops at the Cayley table's limit too, past which FiniteGroup rejects it
    cap = min(order_cap, TABLE_ORDER_LIMIT)
    getters = [itemgetter(*gen.images) if degree > 1 else tuple for gen in generators]
    walk = [tuple(range(degree))]
    seen = {walk[0]: 0}
    for cur in walk:
        for get in getters:
            new = get(cur)
            if new not in seen:
                seen[new] = len(walk)
                walk.append(new)
                if len(walk) > cap:
                    raise OrderCapExceeded(
                        f"closure exceeded order cap {order_cap}" if cap == order_cap
                        else f"closure exceeded the Cayley table limit {TABLE_ORDER_LIMIT}"
                    )
    name_map = {name: seen[gen.images] for name, gen in zip(names, generators)}
    return FiniteGroup([Permutation(x) for x in walk], name_map)


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


def preset_quaternion(order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Quaternion group of order 8 in its regular action, generators i and j."""
    # element order: 1, -1, i, -i, j, -j, k, -k
    perm_i = Permutation((2, 3, 1, 0, 6, 7, 5, 4))
    perm_j = Permutation((4, 5, 7, 6, 1, 0, 2, 3))
    group = build_group([perm_i, perm_j], ["i", "j"], order_cap=order_cap)
    assert group.order == 8
    return group


class ConjugacyClassPartition(NamedTuple):
    """Conjugacy classes ordered by smallest member, identity class first;
    ``power_map[c][i]`` is the class of rep_c^i for i below the order of rep_c."""

    group: FiniteGroup
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    class_of: tuple[int, ...]
    power_map: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.classes)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClassPartition:
    """Orbits of conjugation x -> g x g^-1 by the group's generators."""
    if group._classes is not None:
        return group._classes
    reps, class_of = orbits(group.order, group._conjugations)
    classes: list[list[int]] = [[] for _ in reps]
    for x, k in enumerate(class_of):
        classes[k].append(x)
    n, table = group.order, group._table
    power_map = []
    for rep in reps:  # walk rep's column of the table: x <- x * rep until the identity
        powers, x = [0], rep
        while x:
            powers.append(class_of[x])
            x = table[x * n + rep]
        power_map.append(tuple(powers))
    partition = ConjugacyClassPartition(
        group=group,
        classes=tuple(map(tuple, classes)),
        representatives=tuple(reps),
        sizes=tuple(len(c) for c in classes),
        class_of=tuple(class_of),
        power_map=tuple(power_map),
    )
    group._classes = partition
    return partition


class Subgroup:
    """The subgroup of a parent group generated by the given element indices.

    The constructor is the one place a subgroup is made: it checks each
    generator index and closes the generators under products, so the
    generators always generate the members.  Generators keep their order;
    ``index`` is the parent's registry number of the sorted members, and
    subgroups compare by parent and index and hash by index.
    """

    __slots__ = ("parent", "generators", "members", "index", "_member_set")

    def __init__(self, parent: FiniteGroup, generators: Iterable[int]):
        self.parent = parent
        self.generators: tuple[int, ...] = tuple(parent.check_index(g) for g in generators)
        n, table = parent.order, parent._table
        members = {0}
        frontier = [0]
        for x in frontier:
            for g in self.generators:
                y = table[x * n + g]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        self.members: tuple[int, ...] = tuple(sorted(members))
        self._member_set = frozenset(members)
        self.index = parent._subgroup_index.setdefault(self.members, next(parent._subgroup_counter))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self._member_set

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other):
        return type(other) is Subgroup and other.parent is self.parent and other.index == self.index

    def __hash__(self):
        return self.index

    def __repr__(self):
        return f"<Subgroup order={self.order} of group order {self.parent.order}>"

    def conjugate_by(self, g: int) -> "Subgroup":
        return Subgroup(self.parent, (self.parent.conjugate(x, g) for x in self.generators))

    def describe(self) -> str:
        gens = sorted(set(self.generators) - {0}) or [0]
        words = ",".join(self.parent.element_word(g) for g in gens)
        return f"<{words}>"


def subgroup_generate(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed element indices."""
    return Subgroup(group, sorted(set(seed)) or (0,))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (0,))


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, sorted(set(group.generator_names.values())) or range(group.order))


def subgroup_join(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.parent is not b.parent:
        raise NotASubgroup("subgroups live in different parent groups")
    return subgroup_generate(a.parent, tuple(a.generators) + tuple(b.generators))


def enumerate_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups, unique, sorted by (order, members).

    Breadth-first from the trivial subgroup: each subgroup P found is extended
    by every g outside it, in index order, and <P, g> is recorded the first
    time its members appear, generated by P's generators (identity dropped)
    and then g.  As <P, x> = <P, g> for all x in the double coset PgP, only
    the smallest g of each double coset is tried; the rest would only
    rediscover that subgroup, so the recorded generators do not change.  The
    double cosets are the orbits of P's generators, by left multiplication, on
    P's left cosets (read off rows), the first coset of each holding its least g.

    <P, g> is closed only when Lagrange's theorem cannot prove that it is a
    subgroup already found.  The candidates are the found subgroups that
    contain P and g, read as the AND of bitmasks (``containing[x]`` has one
    bit per found subgroup holding x), so each candidate contains <P, g>.
    The order o of <P, g> divides |G|; it is a multiple of |P| and of ord(x)
    for each x known to lie in it (g, then, if that does not settle it, each
    x in the coset Pg); it exceeds |P|, as g is not in P; and it exceeds
    ord(x) whenever <x> is not a candidate, for then <x> misses g or a
    generator of P.  That last bound needs <x> to be found: the trivial
    subgroup's loop finds every cyclic subgroup, so it is used only for
    P > 1.  The coset's bounds depend only on its distinct element orders,
    read in one pass over column g of the table at P's members.  Let d be
    the least divisor of |G| that meets all these bounds: then o >= d, and
    every candidate has order at least o, so a candidate of order exactly d
    is <P, g> itself.  Only then is the closure skipped, so a skip is proven,
    never guessed: the closure would have rediscovered that subgroup and
    recorded nothing.  The bounds come down to a step (the lcm) and a floor
    (the largest strict lower bound), both divisors of |G|, so d is read
    from a table of at most tau(|G|)^2 entries, each filled on first use and
    dropped when the walk ends.
    """
    if group._subgroups is not None:
        return group._subgroups
    if group.order > DEFAULT_SUBGROUP_CAP:
        raise OrderCapExceeded(
            f"subgroup enumeration capped at order {DEFAULT_SUBGROUP_CAP}, group has {group.order}"
        )
    n, table, orders = group.order, group._table, group._orders
    divisors = [e for e in range(2, n + 1) if n % e == 0]
    trivial = trivial_subgroup(group)
    found = {trivial.index: trivial}
    containing = [1] + [0] * (n - 1)  # bit i: the i-th subgroup found holds x
    by_order = [0, 1] + [0] * (n - 1)  # bits of the found subgroups of each order
    least: dict[tuple[int, int], int] = {}  # (step, floor) -> d, both divisors of |G|

    def settled(step: int, floor: int, cands: int) -> int:
        """The candidates of order d, the least multiple of step above floor dividing |G|."""
        d = least.get((step, floor))
        if d is None:
            d = least[step, floor] = next(e for e in divisors if e > floor and e % step == 0)
        return cands & by_order[d]

    layer = [trivial]
    while layer:
        next_layer = []
        for p in layer:
            gens, order = p.generators, p.order
            base = tuple(sorted(set(gens) - {0}))
            within = -1  # the found subgroups that contain P
            for s in base:
                within &= containing[s]
            reps, coset_of = _left_cosets(group, p.members)
            moves = [[coset_of[table[s * n + x]] for x in reps] for s in base]
            for g in [reps[k] for k in orbits(len(reps), moves)[0][1:]]:  # the first is P
                cands = within & containing[g]
                if cands:
                    step, floor = math.lcm(order, orders[g]), order
                    if base and not cands & by_order[orders[g]]:
                        floor = max(floor, orders[g])
                    if settled(step, floor, cands):
                        continue
                    if base:  # for P = 1 the coset Pg is g alone
                        for o in {orders[table[q * n + g]] for q in p.members}:
                            step = math.lcm(step, o)
                            if not cands & by_order[o]:
                                floor = max(floor, o)
                        if settled(step, floor, cands):
                            continue
                h = Subgroup(group, base + (g,))
                if h.index not in found:
                    bit = 1 << len(found)
                    found[h.index] = h
                    for x in h.members:
                        containing[x] |= bit
                    by_order[h.order] |= bit
                    within |= bit
                    next_layer.append(h)
        layer = next_layer
    group._subgroups = tuple(sorted(found.values(), key=lambda h: (h.order, h.members)))
    return group._subgroups


def subgroup_class(subgroup: Subgroup) -> int:
    """The key of H's conjugacy class of subgroups: the least registry index of a conjugate.

    One walk of H's orbit under the generators' conjugation maps registers each gHg^-1
    by its members, the images of H's, as ``Subgroup`` does, with no closure.  Registry
    indices never change, so racing callers publish equal keys, in one update."""
    group = subgroup.parent
    key = group._subgroup_classes.get(subgroup.index)
    if key is None:
        orbit = [subgroup.members]
        seen = set(orbit)
        for members in orbit:
            for conj in group._conjugations:
                image = tuple(sorted(map(conj.__getitem__, members)))
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        registry, counter = group._subgroup_index, group._subgroup_counter
        indices = [registry.setdefault(members, next(counter)) for members in orbit]
        key = min(indices)
        group._subgroup_classes.update(dict.fromkeys(indices, key))
    return key


def subgroup_class_representatives(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """The first member, in the sorted lattice, of each conjugacy class of subgroups."""
    first = {}
    for h in enumerate_subgroups(group):
        first.setdefault(subgroup_class(h), h)
    return tuple(first.values())


class CosetAction(NamedTuple):
    """Left action of a group on the left cosets of a subgroup.

    Coset 0 is the subgroup itself; representatives are the minimal element
    of each coset, sorted, so the numbering is canonical.
    """

    group: FiniteGroup
    representatives: tuple[int, ...]
    coset_of: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.representatives)

    def image(self, g: int, coset: int) -> int:
        """The coset that g sends the given coset to: the one holding g * rep."""
        return self.coset_of[self.group.mul(g, self.representatives[coset])]


def require_subgroup(group: FiniteGroup, subgroup: Subgroup) -> None:
    if subgroup.parent is not group:
        raise NotASubgroup("subgroup belongs to a different group")


def coset_action(group: FiniteGroup, subgroup: Subgroup) -> CosetAction:
    """The left action on the cosets xH, filled from table rows and cached by H's index."""
    require_subgroup(group, subgroup)
    cached = group._coset_actions.get(subgroup.index)
    if cached is not None:
        return cached
    reps, coset_of = _left_cosets(group, subgroup.members)
    action = CosetAction(group=group, representatives=tuple(reps), coset_of=tuple(coset_of))
    group._coset_actions[subgroup.index] = action
    return action


class PartitionVerdict(NamedTuple):
    """Result of the covering-by-subgroups test, with witnesses on failure."""

    is_partition: bool
    uncovered: int | None = None
    overlap: tuple[int, int, int] | None = None  # (i, j, shared element)

    def __bool__(self) -> bool:
        return self.is_partition


def is_partition(group: FiniteGroup, collection: Sequence[Subgroup]) -> PartitionVerdict:
    """True iff the subgroups cover the group and pairwise meet trivially."""
    for h in collection:
        require_subgroup(group, h)
    uncovered = min(set(range(group.order)).difference(*collection), default=None)
    overlaps = ((i, j, min(shared)) for (i, a), (j, b) in combinations(enumerate(collection), 2)
                if (shared := a._member_set & b._member_set - {0}))
    overlap = next(overlaps, None)
    return PartitionVerdict(uncovered is None and overlap is None, uncovered, overlap)


def subgroup_as_group(subgroup: Subgroup) -> tuple[FiniteGroup, dict[int, int]]:
    """Re-package a subgroup as a standalone group.

    Returns the new group together with the map from parent element indices
    to indices in the new group.
    """
    parent = subgroup.parent
    ordering = [0] + [m for m in subgroup.members if m != 0]
    elements = [parent.elements[m] for m in ordering]
    mapping = {m: i for i, m in enumerate(ordering)}
    gens = sorted(set(subgroup.generators) - {0})
    names = {f"x{k + 1}": mapping[g] for k, g in enumerate(gens)}
    return FiniteGroup(elements, names), mapping


# -- words in named generators ------------------------------------------------

def parse_integer(field: str, text, error: type[Exception], signed: bool = False) -> int:
    """Plain ASCII decimal digits as an int, after one leading '-' if signed; a
    '+', a space, an underscore, a decimal point or another script's digits
    raises ``error`` naming the field, never read as a nearby integer."""
    try:
        if type(text) is str and re.fullmatch("-?[0-9]+" if signed else "[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise error(f"{field} has {len(text)} digits, too many to read") from None
    raise error(f"{field} needs plain ASCII decimal digits, got {text!r}")


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
        name, caret, power_text = factor.partition("^")
        name = name.strip()
        power = parse_integer(
            f"exponent in word {word!r}", power_text, UnknownGenerator, signed=True
        ) if caret else 1
        if name == "1":
            continue
        if name not in group.generator_names:
            raise UnknownGenerator(f"unknown generator {name!r} in word {word!r}")
        result = group.mul(result, group.power(group.generator_names[name], power))
    return result

"""Discrete covering data: signatures, generating vectors, genus calculations.

A group action on a compact surface is recorded by its monodromy: the orbit
genus, the branch periods, and a generating vector (handle pairs plus branch
elements) satisfying the long relation.  Validation replaces any appeal to an
existence theorem: an action is accepted exactly when its vector checks out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .groups import (
    FiniteGroup,
    NotASubgroup,
    Subgroup,
    coset_action,
    require_subgroup,
    subgroup_generate,
)


class CoveringError(Exception):
    """Base error for covering-data validation."""


class MalformedAction(CoveringError):
    """Lengths or indices of the action data are inconsistent."""


class PeriodMismatch(CoveringError):
    """A branch element's order differs from its declared period."""

    def __init__(self, k: int, expected: int, actual: int):
        super().__init__(
            f"branch element {k} has order {actual}, declared period {expected}"
        )
        self.branch_index = k
        self.expected = expected
        self.actual = actual


class RelationFails(CoveringError):
    """The long product of handles and branch elements is not the identity."""


class NotGenerating(CoveringError):
    """The vector generates a proper subgroup (the cover would disconnect)."""


class NonIntegralGenus(CoveringError):
    """A genus came out non-integral; the covering data is inconsistent."""


class CoveringAction(NamedTuple):
    """Monodromy data of a group action on a surface.

    orbit_genus is the genus of the quotient; periods are the branch orders;
    handles holds orbit_genus pairs (a_i, b_i) and branch_elements the c_k,
    all as element indices.
    """

    group: FiniteGroup
    orbit_genus: int
    periods: tuple[int, ...]
    handles: tuple[tuple[int, int], ...]
    branch_elements: tuple[int, ...]


class GenusCertificate(NamedTuple):
    """Riemann-Hurwitz audit trail for a validated action."""

    total_genus: int
    contributions: tuple[Fraction, ...]


@lru_cache(maxsize=1)
def validate_action(action: CoveringAction) -> GenusCertificate:
    """Check periods, the long relation and generation; return the genus.

    Raises PeriodMismatch, RelationFails, NotGenerating or NonIntegralGenus.
    """
    group = action.group
    if action.orbit_genus < 0:
        raise MalformedAction(f"orbit genus {action.orbit_genus} negative")
    if len(action.handles) != action.orbit_genus:
        raise MalformedAction(
            f"{len(action.handles)} handle pairs for orbit genus {action.orbit_genus}"
        )
    if len(action.periods) != len(action.branch_elements):
        raise MalformedAction(
            f"{len(action.periods)} periods vs {len(action.branch_elements)} branch elements"
        )
    for pair in action.handles:
        for idx in pair:
            group.check_index(idx)
    for idx in action.branch_elements:
        group.check_index(idx)

    for k, (m, c) in enumerate(zip(action.periods, action.branch_elements)):
        if m < 2:
            raise MalformedAction(f"period {m} at branch point {k} below 2")
        actual = group.element_order(c)
        if actual != m:
            raise PeriodMismatch(k, m, actual)

    product = 0
    for a, b in action.handles:
        commutator = group.mul(
            group.mul(group.mul(a, b), group.inv(a)), group.inv(b)
        )
        product = group.mul(product, commutator)
    for c in action.branch_elements:
        product = group.mul(product, c)
    if product != 0:
        raise RelationFails(
            f"long relation product is element {product}, not the identity"
        )

    seeds = [idx for pair in action.handles for idx in pair] + list(action.branch_elements)
    generated = subgroup_generate(group, seeds)
    if generated.order != group.order:
        raise NotGenerating(
            f"vector generates subgroup of order {generated.order} < {group.order}"
        )

    contributions = tuple(Fraction(group.order * (m - 1), m) for m in action.periods)
    rhs = group.order * (2 * action.orbit_genus - 2) + sum(contributions)
    if rhs.denominator != 1 or (rhs.numerator + 2) % 2 != 0:
        raise NonIntegralGenus(f"2g - 2 = {rhs} is not an even integer")
    genus = (rhs.numerator + 2) // 2
    if genus < 0:
        raise NonIntegralGenus(f"total genus {genus} negative")
    return GenusCertificate(total_genus=genus, contributions=contributions)


def total_genus(action: CoveringAction) -> int:
    return validate_action(action).total_genus


def branch_stabilizers(action: CoveringAction) -> tuple[Subgroup, ...]:
    """Cyclic stabilizer subgroup <c> of each branch element c, generated by (c,)
    and interned by the group under c, so equal elements share one object."""
    cyclic = action.group._cyclic_subgroups
    for c in action.branch_elements:
        if c not in cyclic:
            cyclic[c] = subgroup_generate(action.group, (c,))
    return tuple(cyclic[c] for c in action.branch_elements)


def orbit_count(stabilizer: Subgroup, cosets) -> int:
    """Number of orbits of a cyclic stabilizer <g> on a coset action.

    The orbits are the cycles of x -> coset of g * rep_x, read off g's row of
    the table; each cycle is walked once.
    """
    if len(stabilizer.generators) != 1:
        raise ValueError("the stabilizer must be cyclic with one generator")
    require_subgroup(cosets.group, stabilizer)
    reps, coset_of, table = cosets.representatives, cosets.coset_of, cosets.group._table
    row = stabilizer.generators[0] * cosets.group.order
    seen = [False] * len(reps)
    count = 0
    for start in range(len(reps)):
        if not seen[start]:
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = coset_of[table[row + reps[x]]]
    return count


def genus_from_branch_data(
    group: FiniteGroup,
    orbit_genus: int,
    stabilizers: Sequence[Subgroup],
    subgroup: Subgroup,
) -> int:
    """Genus of the intermediate quotient by a subgroup, via coset orbits.

    2g_H - 2 = [G:H](2*gamma - 2) + sum_k ([G:H] - #orbits of the k-th
    stabilizer on the cosets of H).  Each count is read from the group's row for
    H, keyed by <c>'s index, or walked once on a miss (the only time the cosets of
    H are read); a subgroup or stabilizer of another group raises NotASubgroup.
    """
    require_subgroup(group, subgroup)
    index = group.order // subgroup.order  # [G:H], by Lagrange
    rhs = index * (2 * orbit_genus - 2)
    row = group._orbit_counts.setdefault(subgroup.index, {})
    cosets = None
    for stab in stabilizers:
        if stab.parent is not group:
            raise NotASubgroup("stabilizer belongs to a different group")
        count = row.get(stab.index)  # a count is at least 1, so None is a miss
        if count is None:
            cosets = cosets or coset_action(group, subgroup)
            count = row[stab.index] = orbit_count(stab, cosets)
        rhs += index - count
    if rhs % 2 != 0:
        raise NonIntegralGenus(f"2g - 2 = {rhs} is odd")
    genus = (rhs + 2) // 2
    if genus < 0:
        raise NonIntegralGenus(f"quotient genus {genus} negative")
    return genus


def quotient_genus(action: CoveringAction, subgroup: Subgroup) -> int:
    """Genus of the quotient surface by a subgroup of the acting group."""
    validate_action(action)
    return genus_from_branch_data(
        action.group, action.orbit_genus, branch_stabilizers(action), subgroup
    )

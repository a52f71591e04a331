"""Discrete covering data: signatures, generating vectors, genus calculations.

A group action on a compact surface is recorded by its monodromy: the orbit
genus, the branch periods, and a generating vector (handle pairs plus branch
elements) satisfying the long relation.  Validation replaces any appeal to an
existence theorem: an action is accepted exactly when its vector checks out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .groups import (
    FiniteGroup,
    Subgroup,
    coset_action,
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


@dataclass(frozen=True)
class CoveringAction:
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


@dataclass(frozen=True)
class GenusCertificate:
    """Riemann-Hurwitz audit trail for a validated action."""

    total_genus: int
    branch_number: Fraction
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

    branch_number = sum(
        (Fraction(1) - Fraction(1, m) for m in action.periods), Fraction(0)
    )
    contributions = tuple(
        group.order * (Fraction(1) - Fraction(1, m)) for m in action.periods
    )
    rhs = group.order * (2 * action.orbit_genus - 2) + group.order * branch_number
    if rhs.denominator != 1 or (rhs.numerator + 2) % 2 != 0:
        raise NonIntegralGenus(f"2g - 2 = {rhs} is not an even integer")
    genus = (rhs.numerator + 2) // 2
    if genus < 0:
        raise NonIntegralGenus(f"total genus {genus} negative")
    return GenusCertificate(
        total_genus=genus, branch_number=branch_number, contributions=contributions
    )


def total_genus(action: CoveringAction) -> int:
    return validate_action(action).total_genus


def branch_stabilizers(action: CoveringAction) -> tuple[Subgroup, ...]:
    """Cyclic stabilizer subgroup generated by each branch element."""
    return tuple(
        subgroup_generate(action.group, (c,)) for c in action.branch_elements
    )


def orbit_count(stabilizer: Subgroup, cosets) -> int:
    """Number of orbits of a stabilizer subgroup on a coset action.

    The walk moves cosets by the stabilizer's generators only, which
    generate it: a Subgroup is the closure of its generators.
    """
    degree = cosets.degree
    seen = [False] * degree
    count = 0
    for start in range(degree):
        if seen[start]:
            continue
        count += 1
        frontier = [start]
        seen[start] = True
        while frontier:
            x = frontier.pop()
            for g in stabilizer.generators:
                y = cosets.image(g, x)
                if not seen[y]:
                    seen[y] = True
                    frontier.append(y)
    return count


def genus_from_branch_data(
    group: FiniteGroup,
    orbit_genus: int,
    stabilizers: Sequence[Subgroup],
    subgroup: Subgroup,
) -> int:
    """Genus of the intermediate quotient by a subgroup, via coset orbits.

    2g_H - 2 = [G:H](2*gamma - 2) + sum_k ([G:H] - #orbits of the k-th
    stabilizer on the cosets of H).
    """
    cosets = coset_action(group, subgroup)  # raises NotASubgroup for a foreign subgroup
    index = cosets.degree
    rhs = index * (2 * orbit_genus - 2)
    for stab in stabilizers:
        rhs += index - orbit_count(stab, cosets)
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

"""Isotypical factor dimensions, induced decompositions, admissibility reports.

Everything here is dimension/exponent bookkeeping over exact arithmetic: an
isogeny statement is rendered as a string, but every asserted fact is an
integer identity between two independently computed quantities (character
formula versus Riemann-Hurwitz orbit counting, or a closed formula versus
the construction), checked on every call.  Every such comparison is one call
to ``_agree``, which raises ``RoutesDisagree`` naming the check and both
values; the remaining raises guard inputs, signs and integrality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from operator import add, mul
from typing import Mapping, NamedTuple, Sequence

from .characters import (
    CharacterTable,
    RationalClass,
    character_table,
    fixed_dims,
    inner_product,
    permutation_character,
    rational_classes,
    regular_character,
    trivial_character,
)
from .covering import (
    CoveringAction,
    branch_stabilizers,
    genus_from_branch_data,
    quotient_genus,
    total_genus,
    validate_action,
)
from .groups import (
    FiniteGroup,
    PartitionVerdict,
    Subgroup,
    coset_action,
    enumerate_subgroups,
    is_partition,
    orbits,
    preset_elementary_abelian_2,
    require_subgroup,
    subgroup_as_group,
    subgroup_class,
    subgroup_class_representatives,
    subgroup_generate,
    subgroup_join,
)


class DecompositionError(Exception):
    """Base error for decomposition bookkeeping."""


class RoutesDisagree(DecompositionError):
    """Two independent routes to one quantity gave different values."""


def _agree(what: str, first, second) -> None:
    """Raise ``RoutesDisagree`` unless two independent routes to ``what`` agree."""
    if first != second:
        raise RoutesDisagree(f"{what}: routes disagree, {first} vs {second}")


class NotAdmissible(DecompositionError):
    """The collection fails the admissibility inequality."""

    def __init__(self, report: "AdmissibilityReport"):
        super().__init__("collection is not admissible for the ambient group")
        self.report = report


class NonIntegralDimension(DecompositionError):
    """A factor dimension or exponent came out non-integral."""


class NonIntegralMultiplicity(DecompositionError):
    """A homology multiplicity came out non-integral."""


class NotAPartition(DecompositionError):
    """The subgroups do not partition the group."""

    def __init__(self, verdict: PartitionVerdict):
        detail = []
        if verdict.uncovered is not None:
            detail.append(f"element {verdict.uncovered} uncovered")
        if verdict.overlap is not None:
            i, j, x = verdict.overlap
            detail.append(f"subgroups {i} and {j} share element {x}")
        super().__init__("; ".join(detail) or "not a partition")
        self.verdict = verdict


class TooFewFactors(DecompositionError):
    """Fiber-product constructions need at least two factors."""


class IsotypicalFactor(NamedTuple):
    """One factor of the group-algebra decomposition: class data plus dim."""

    rational_class: RationalClass
    dim: int

    @property
    def exponent(self) -> int:
        return self.rational_class.n


class SubgroupProfile(NamedTuple):
    """Quotient data shared by every generating set of one subgroup: genus, exponents, dims."""

    genus: int
    exponents: tuple[int, ...]
    fixed_dims: tuple[int, ...]


class AdmissibilityReport(NamedTuple):
    """Per-class sums and slacks for one collection against one ambient group."""

    subgroups: tuple[Subgroup, ...]
    ambient: str
    ambient_order: int
    degrees: tuple[int, ...]
    sums: tuple[int, ...]
    support: tuple[bool, ...]
    slacks: tuple[int | None, ...]  # degree - sum on support classes, None off support
    admissible: bool

    def __bool__(self) -> bool:
        return self.admissible


class DecompositionReport(NamedTuple):
    """Verified dimension bookkeeping for JC ~ JC_H1 x ... x JC_Ht x P."""

    subgroups: tuple[Subgroup, ...]
    quotient_genera: tuple[int, ...]
    deltas: tuple[int | None, ...]  # reduced slacks per class, None off support
    dim_p: int
    full: bool
    statement: str
    admissibility: AdmissibilityReport


class Proposition2Report(NamedTuple):
    """Verified bookkeeping for JC x JC_join ~ JC_H1 x JC_H2 x P."""

    join: Subgroup
    genus: int
    join_genus: int
    h1_genus: int
    h2_genus: int
    deltas: tuple[int, ...]
    dim_p: int
    degenerate_full: bool
    statement: str


class Corollary1Report(NamedTuple):
    """Prym containment check for one distinguished index of a collection."""

    k: int
    prym_dim: int
    complement_sum: int
    bounded: bool
    equality: bool
    full: bool


class TheoremCReport(NamedTuple):
    """Hypothesis check for the classical pairwise-permuting criterion.

    The three hypotheses: all pairs of subgroups permute (the product set is
    a subgroup), every pairwise quotient has genus zero, and the quotient
    genera sum to the total genus.  Reported next to the admissibility route
    so the two applicability ranges can be compared.
    """

    pairs_permute: bool
    non_permuting_pair: tuple[int, int] | None
    pairwise_genera: tuple[int, ...]  # genus of each pairwise quotient, i < j
    pairwise_zero: bool
    genus_sum: int
    genus_matches: bool
    applicable: bool


class Proposition1Report(NamedTuple):
    """Agreement of the two algebraic restatements of admissible-and-full."""

    statement2: bool
    statement3: bool
    special_case: bool
    eq8_holds: bool | None
    a1: int | None
    sums: tuple[int, ...]
    degrees: tuple[int, ...]
    support: tuple[bool, ...]
    statement: str | None


class TheoremBReport(NamedTuple):
    """The three exact identities behind the partition decomposition."""

    t: int
    character_identity: bool
    class_identities: bool
    dimension_lhs: int
    dimension_rhs: int
    holds: bool


class RationalRepProfile(NamedTuple):
    """Multiplicity of each rational class in the degree-2g homology action."""

    multiplicities: tuple[int, ...]
    total_degree: int


class FiberPlan(NamedTuple):
    """Constructed elementary-abelian covering realizing prescribed quotients.

    ``analysis`` is the analysis of ``action`` that checked the plan; callers
    read deck profiles from it instead of analyzing the action again.
    """

    genera: tuple[int, ...]
    action: CoveringAction
    deck_subgroups: tuple[Subgroup, ...]
    genus: int
    predicted_genus: int
    dim_p: int
    predicted_dim_p: int
    admissibility: AdmissibilityReport
    theorem1: DecompositionReport
    analysis: ActionAnalysis
    elliptic_count: int | None = None
    pairing: tuple[tuple[int, ...], ...] | None = None


def exponent_row(fixed: Sequence[int], classes: Sequence[RationalClass]) -> tuple[int, ...]:
    """n_{H,l} = dim V_l^H / s_l for each rational class, from H's fixed_dims row."""
    exponents = []
    for rc, f in zip(classes, fixed):
        if f % rc.schur_index != 0:
            raise NonIntegralDimension(
                f"fixed dimension {f} not divisible by Schur index {rc.schur_index}"
            )
        n_h = f // rc.schur_index
        if not 0 <= n_h <= rc.n:
            raise DecompositionError(
                f"induced exponent {n_h} outside 0..{rc.n}"
            )
        exponents.append(n_h)
    return tuple(exponents)


class ActionAnalysis:
    """Character-side data of one covering: table, factors, profiles, reports.

    Built by ``analyze`` from a validated action (the acting group as given)
    or by ``induced_join_analysis`` from induced branch data (a subgroup
    reinterpreted as the acting group).  It is a plain object that its caller
    holds: nothing at module level keeps it alive.  Per-group data (the
    character table, the heuristic rational classes, fixed dimensions and exponent
    rows, coset actions, orbit counts) is cached by the group; the analysis memoizes
    only what its Schur overrides or branch data change: its override view of the
    rational classes, factors with their dimensions and support, and one profile per
    conjugacy class of subgroups, keyed by ``subgroup_class``.  A profile reads H
    only through pi_H, a class invariant, so the quotients X/H and X/gHg^-1 share
    it; ``profile`` reads it only for the group's own subgroups.
    """

    def __init__(
        self,
        group: FiniteGroup,
        orbit_genus: int,
        stabilizers: tuple[Subgroup, ...],
        genus: int,
        schur_overrides: Mapping[int, int] | None = None,
        ambient: str = "acting",
    ):
        self.group = group
        self.orbit_genus = orbit_genus
        self.stabilizers = stabilizers
        self.genus = genus
        self.schur_overrides = dict(schur_overrides or {})
        self.ambient = ambient
        self._factors: tuple[IsotypicalFactor, ...] | None = None
        self._profiles: dict[int, SubgroupProfile] = {}

    # -- cached layers ------------------------------------------------------

    @property
    def table(self) -> CharacterTable:
        return character_table(self.group)

    @cached_property
    def rational_classes(self) -> tuple[RationalClass, ...]:
        return rational_classes(self.table, self.schur_overrides)

    @property
    def factors(self) -> tuple[IsotypicalFactor, ...]:
        if self._factors is None:
            factors = []
            fixed = [0] * len(self.rational_classes)  # sum over branch points of dim V^<c>
            for stab in self.stabilizers:
                fixed = list(map(add, fixed, fixed_dims(stab)))
            branch = 2 * self.orbit_genus - 2 + len(self.stabilizers)
            for rc, f in zip(self.rational_classes, fixed):
                if rc.is_trivial():
                    dim = self.orbit_genus
                else:  # twice m f (d (gamma - 1) + sum (d - dim V^<c>) / 2)
                    twice = rc.schur_index * rc.field_degree * (rc.degree * branch - f)
                    if twice % 2 or twice < 0:
                        raise NonIntegralDimension(
                            f"factor dimension {Fraction(twice, 2)} for class at row "
                            f"{rc.representative}"
                        )
                    dim = twice // 2
                factors.append(IsotypicalFactor(rc, dim))
            # both read gamma and the branch elements: rows of their stabilizers, or their orders
            _agree("conservation", sum(f.exponent * f.dim for f in factors), self.genus)
            self._factors = tuple(factors)
        return self._factors

    @cached_property
    def _dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @cached_property
    def support(self) -> tuple[bool, ...]:
        return tuple(d > 0 for d in self._dims)

    # -- per-subgroup data ----------------------------------------------------

    def profile(self, subgroup: Subgroup) -> SubgroupProfile:
        require_subgroup(self.group, subgroup)
        key = subgroup_class(subgroup)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached
        fixed = fixed_dims(subgroup)
        rows = {} if self.schur_overrides else self.group._exponent_rows  # an override's are its own
        exponents = rows.get(key)
        if exponents is None:
            exponents = rows[key] = exponent_row(fixed, self.rational_classes)
        genus_characters = sum(map(mul, exponents, self._dims))
        genus_surfaces = genus_from_branch_data(
            self.group, self.orbit_genus, self.stabilizers, subgroup
        )
        _agree("quotient genus", genus_characters, genus_surfaces)  # both read H, gamma, stabilizers
        profile = SubgroupProfile(
            genus=genus_surfaces,
            exponents=exponents,
            fixed_dims=fixed,
        )
        self._profiles[key] = profile
        return profile

    # -- reports ---------------------------------------------------------------

    def admissibility(self, collection: Sequence[Subgroup]) -> AdmissibilityReport:
        if not collection:
            raise DecompositionError("admissibility needs a non-empty collection")
        profiles = [self.profile(h) for h in collection]
        sums = tuple(map(sum, zip(*(p.fixed_dims for p in profiles))))
        degrees = tuple(rc.degree for rc in self.rational_classes)
        support = self.support
        slacks = tuple(d - s if on else None for d, s, on in zip(degrees, sums, support))
        admissible = all(s is None or s >= 0 for s in slacks)
        return AdmissibilityReport(
            subgroups=tuple(collection),
            ambient=self.ambient,
            ambient_order=self.group.order,
            degrees=degrees,
            sums=sums,
            support=support,
            slacks=slacks,
            admissible=admissible,
        )

    def theorem1(self, collection: Sequence[Subgroup]) -> DecompositionReport:
        return self._theorem1(self.admissibility(collection))

    def _theorem1(self, report: AdmissibilityReport) -> DecompositionReport:
        """Theorem 1's decomposition of the collection an admissibility report scored."""
        if not report.admissible:
            raise NotAdmissible(report)
        collection = report.subgroups
        deltas: list[int | None] = []
        dim_p = 0
        for factor, slack in zip(self.factors, report.slacks):
            if slack is None:
                deltas.append(None)
                continue
            s = factor.rational_class.schur_index
            if slack % s != 0:
                raise NonIntegralDimension(
                    f"slack {slack} not divisible by Schur index {s}"
                )
            reduced = slack // s
            deltas.append(reduced)
            dim_p += reduced * factor.dim
        genera = tuple(self.profile(h).genus for h in collection)
        _agree("theorem 1 dim P", dim_p, self.genus - sum(genera))  # conservation + quotient genus imply it
        full = dim_p == 0
        names = " x ".join(f"JC_H{i + 1}" for i in range(len(collection)))
        statement = f"JC ~ {names}" if full else f"JC ~ {names} x P,  dim P = {dim_p}"
        return DecompositionReport(
            subgroups=collection,
            quotient_genera=genera,
            deltas=tuple(deltas),
            dim_p=dim_p,
            full=full,
            statement=statement,
            admissibility=report,
        )

    def proposition2(self, h1: Subgroup, h2: Subgroup) -> Proposition2Report:
        join = subgroup_join(h1, h2)
        p1 = self.profile(h1)
        p2 = self.profile(h2)
        pj = self.profile(join)
        deltas = []
        dim_check = 0
        for l, factor in enumerate(self.factors):
            delta = (
                factor.exponent + pj.exponents[l] - p1.exponents[l] - p2.exponents[l]
            )
            if delta < 0:
                raise DecompositionError(
                    f"subspace-sum slack negative ({delta}) on class {l}"
                )
            deltas.append(delta)
            dim_check += delta * factor.dim
        dim_p = self.genus + pj.genus - p1.genus - p2.genus
        _agree("proposition 2 dim P", dim_p, dim_check)  # conservation + quotient genus imply it
        degenerate_full = pj.genus == 0 and dim_p == 0
        statement = (
            "JC ~ JC_H1 x JC_H2"
            if degenerate_full
            else f"JC x JC_J ~ JC_H1 x JC_H2 x P,  dim P = {dim_p}  (J = <H1,H2>)"
        )
        return Proposition2Report(
            join=join,
            genus=self.genus,
            join_genus=pj.genus,
            h1_genus=p1.genus,
            h2_genus=p2.genus,
            deltas=tuple(deltas),
            dim_p=dim_p,
            degenerate_full=degenerate_full,
            statement=statement,
        )

    def prym_dim(self, subgroup: Subgroup) -> int:
        return self.genus - self.profile(subgroup).genus

    def corollary1(self, report: DecompositionReport) -> tuple[Corollary1Report, ...]:
        """Prym containment for every distinguished index k of a Theorem 1 report."""
        genera = report.quotient_genera
        total = sum(genera)
        full = total == self.genus
        results = []
        for k, h in enumerate(report.subgroups):
            complement_sum = total - genera[k]
            prym = self.prym_dim(h)
            bounded = complement_sum <= prym
            equality = complement_sum == prym
            # equality is the comparison that set full, and the bound is dim P >= 0
            _agree("Prym containment", (bounded, equality), (True, full))
            results.append(Corollary1Report(k, prym, complement_sum, bounded, equality, full))
        return tuple(results)

    def proposition1(self, report: AdmissibilityReport) -> Proposition1Report:
        """Proposition 1's equivalent statements for the collection an admissibility report scored."""
        collection = report.subgroups
        sums, degrees, support = report.sums, report.degrees, report.support
        r = len(self.rational_classes)

        statement2 = all(
            sums[l] == degrees[l] for l in range(r) if support[l]
        )

        # independent route: class-function arithmetic on the induced sum
        group = self.group
        total = permutation_character(group, collection[0])
        for h in collection[1:]:
            total = total + permutation_character(group, h)
        residual = total
        for l, factor in enumerate(self.factors):
            if support[l]:
                residual = residual - factor.exponent * factor.rational_class.rational_character
        statement3 = True
        reconstruction = 0 * residual
        for l, rc in enumerate(self.rational_classes):
            coefficient = inner_product(residual, rc.character)
            if support[l]:
                if coefficient != 0:
                    statement3 = False
                    break
            else:
                a_l = coefficient / rc.schur_index
                if a_l.denominator != 1 or a_l < 0:
                    statement3 = False
                    break
                reconstruction = reconstruction + int(a_l) * rc.rational_character
        if statement3 and reconstruction != residual:
            statement3 = False
        # both read the collection, the support and the rational classes: rows, or characters
        _agree("statement (2) vs (3)", statement2, statement3)

        special_case = self.factors[0].dim == 0 and all(
            f.dim > 0 for f in self.factors[1:]
        )
        eq8_holds: bool | None = None
        a1: int | None = None
        statement = None
        if special_case:
            t = len(collection)
            expected = regular_character(group) + (t - 1) * trivial_character(group)
            eq8_holds = total == expected
            a1_frac = inner_product(total, trivial_character(group))
            if a1_frac.denominator != 1:
                raise DecompositionError("trivial multiplicity non-integral")
            a1 = int(a1_frac)
            # both read the collection's permutation characters; a1 = t always, by Frobenius
            _agree("regular-plus-trivial form", (eq8_holds, a1), (statement2, t))
            if eq8_holds:
                statement = f"sum of induced trivials = regular + {t - 1}*W1"
        return Proposition1Report(
            statement2=statement2,
            statement3=statement3,
            special_case=special_case,
            eq8_holds=eq8_holds,
            a1=a1,
            sums=sums,
            degrees=degrees,
            support=support,
            statement=statement,
        )

    def theorem_b(self, collection: Sequence[Subgroup]) -> TheoremBReport:
        verdict = is_partition(self.group, collection)
        if not verdict:
            raise NotAPartition(verdict)
        group = self.group
        t = len(collection)
        lhs = None
        for h in collection:
            term = h.order * permutation_character(group, h)
            lhs = term if lhs is None else lhs + term
        rhs = (t - 1) * regular_character(group) + group.order * trivial_character(group)
        character_identity = lhs == rhs

        class_identities = True
        profiles = [self.profile(h) for h in collection]
        for l, rc in enumerate(self.rational_classes):
            if rc.is_trivial():
                continue
            weighted = sum(p.fixed_dims[l] * h.order for h, p in zip(collection, profiles))
            if weighted != (t - 1) * rc.degree:
                class_identities = False
        dimension_lhs = (t - 1) * self.genus + group.order * self.orbit_genus
        dimension_rhs = sum(h.order * p.genus for h, p in zip(collection, profiles))
        return TheoremBReport(
            t=t,
            character_identity=character_identity,
            class_identities=class_identities,
            dimension_lhs=dimension_lhs,
            dimension_rhs=dimension_rhs,
            holds=character_identity
            and class_identities
            and dimension_lhs == dimension_rhs,
        )

    def theorem_c(self, collection: Sequence[Subgroup]) -> TheoremCReport:
        """Which hypotheses of the pairwise-permuting criterion hold.

        Two subgroups permute exactly when their product set HK fills the
        join.  As |HK| = |H| |K| / |H n K|, that is |H| |K| = |H n K| |<H, K>|.
        """
        if not collection:
            raise DecompositionError("hypothesis check needs a non-empty collection")
        pairs_permute = True
        witness = None
        genera = []
        for i in range(len(collection)):
            for j in range(i + 1, len(collection)):
                h, k = collection[i], collection[j]
                join = subgroup_join(h, k)
                meet = sum(1 for x in h.members if x in k)
                if h.order * k.order != meet * join.order and witness is None:
                    pairs_permute = False
                    witness = (i, j)
                genera.append(self.profile(join).genus)
        pairwise_zero = all(g == 0 for g in genera)
        genus_sum = sum(self.profile(h).genus for h in collection)
        genus_matches = genus_sum == self.genus
        return TheoremCReport(
            pairs_permute=pairs_permute,
            non_permuting_pair=witness,
            pairwise_genera=tuple(genera),
            pairwise_zero=pairwise_zero,
            genus_sum=genus_sum,
            genus_matches=genus_matches,
            applicable=pairs_permute and pairwise_zero and genus_matches,
        )

    def rational_rep(self) -> RationalRepProfile:
        mults = []
        for factor in self.factors:
            rc = factor.rational_class
            numerator = 2 * factor.exponent * factor.dim
            if numerator % rc.dim_w != 0:
                raise NonIntegralMultiplicity(
                    f"2 n dim B = {numerator} not divisible by dim W = {rc.dim_w}"
                )
            mult = numerator // rc.dim_w
            _agree("homology support", mult == 0, factor.dim == 0)  # mult = 2 n dim / dim_w
            mults.append(mult)
        total = sum(m * f.rational_class.dim_w for m, f in zip(mults, self.factors))
        _agree("homology degree", total, 2 * self.genus)  # twice conservation
        return RationalRepProfile(multiplicities=tuple(mults), total_degree=total)

    def search_admissible(
        self,
        max_t: int,
        require_full: bool = False,
        dedupe_conjugates: bool = False,
    ) -> tuple[DecompositionReport, ...]:
        """Theorem 1 reports of the admissible collections of at most max_t subgroups.

        Fixed dimensions are nonnegative, so a collection holding an
        inadmissible one is inadmissible: each size extends only the previous
        size's admissible combinations (in itertools.combinations order), by
        later subgroups, carrying their per-class sums.  Theorem 1 proves
        dim P = genus - sum of the quotient genera, so require_full builds the
        reports of the combinations whose genera sum to the genus and no other.
        """
        if dedupe_conjugates:
            subgroups = subgroup_class_representatives(self.group)
        else:
            subgroups = enumerate_subgroups(self.group)
        profiles = [self.profile(h) for h in subgroups]
        rows = [p.fixed_dims for p in profiles]
        on = [l for l, supported in enumerate(self.support) if supported]
        degrees = [rc.degree for rc in self.rational_classes]
        level = [((), [0] * len(degrees))]  # (indices, per-class sums)
        results = []
        while level and len(level[0][0]) < max_t:  # an empty level has no extension, at any size
            extended = []
            for combo, prefix_sums in level:
                for j in range(combo[-1] + 1 if combo else 0, len(subgroups)):
                    sums = [s + x for s, x in zip(prefix_sums, rows[j])]
                    if all(sums[l] <= degrees[l] for l in on):
                        extended.append((combo + (j,), sums))
            level = extended
            for combo, _ in level:
                if not require_full or sum(profiles[j].genus for j in combo) == self.genus:
                    results.append(self._theorem1(self.admissibility(tuple(subgroups[j] for j in combo))))
        return tuple(results)


# -- entry point ---------------------------------------------------------------------


def analyze(
    action: CoveringAction,
    schur_overrides: Mapping[int, int] | None = None,
) -> ActionAnalysis:
    """Validate one action and return a fresh analysis for the caller to hold."""
    certificate = validate_action(action)
    return ActionAnalysis(
        group=action.group,
        orbit_genus=action.orbit_genus,
        stabilizers=branch_stabilizers(action),
        genus=certificate.total_genus,
        schur_overrides=schur_overrides,
    )


# -- join-ambient reinterpretation ------------------------------------------------


def induced_join_analysis(
    action: CoveringAction,
    collection: Sequence[Subgroup],
) -> tuple[ActionAnalysis, tuple[Subgroup, ...], Subgroup]:
    """Reinterpret the covering with the join of the collection acting.

    The branch data of the intermediate covering is recomputed from double
    cosets J g <c>: the join J acts on the cosets of each branch stabilizer
    <c>, and each orbit whose point stabilizer J meet g <c> g^-1 is
    nontrivial becomes a branch point of the new covering.  Returns the analysis over the join, the collection translated into the
    join's own element indices, and the join as a subgroup of the original
    group.
    """
    group = action.group
    join = reduce(subgroup_join, collection)
    join_group, mapping = subgroup_as_group(join)
    gamma = quotient_genus(action, join)

    n, table = group.order, group._table
    stabilizers = []
    for cyc in branch_stabilizers(action):
        _, reps, coset_of = coset_action(group, cyc)
        moves = [[coset_of[table[j * n + x]] for x in reps] for j in join.generators]
        for k in orbits(len(reps), moves)[0]:
            g = reps[k]  # the smallest element of J g <c>
            stab = [
                mapping[y]
                for y in (group.conjugate(m, g) for m in cyc.members)
                if y in join
            ]
            if len(stab) > 1:  # J meet g<c>g^-1 is cyclic, generated by any element of full order
                generator = min(m for m in stab if join_group.element_order(m) == len(stab))
                stabilizers.append(Subgroup(join_group, (generator,)))

    analysis = ActionAnalysis(
        group=join_group,
        orbit_genus=gamma,
        stabilizers=tuple(stabilizers),
        genus=total_genus(action),
        ambient="join",
    )
    translated_collection = tuple(
        Subgroup(join_group, (mapping[g] for g in h.generators)) for h in collection
    )
    return analysis, translated_collection, join


# -- fiber products over elementary abelian 2-groups -------------------------------


def fiber_generators(genera: Sequence[int]) -> tuple[list[str], list[list[str]]]:
    """The fiber product's generating vector and deck generators, as generator
    names of (Z_2)^t: factor i brings 2g_i + 2 branch points at e{i}, and deck
    subgroup i is generated by every e_j but e_i."""
    names = [f"e{i + 1}" for i in range(len(genera))]
    vector = [e for e, g in zip(names, genera) for _ in range(2 * g + 2)]
    return vector, [[e for e in names if e != name] for name in names]


def fiber_closed_forms(genera: Sequence[int]) -> tuple[int, int]:
    """Closed-form total genus and dim P of a fiber product of double covers.

    Each genus must be an exact int >= 1 (a bool, a float or a numeric string is
    none), else a DecompositionError: the one check both fiber entry points run.
    """
    if any(type(g) is not int or g < 1 for g in genera):
        raise DecompositionError(f"factor genera must be ints >= 1, got {list(genera)}")
    t, total = len(genera), sum(genera)
    return (1 - 2**t + 2 ** (t - 1) * (t + total),
            1 + 2 ** (t - 1) * t - 2**t + (2 ** (t - 1) - 1) * total)


def _build_fiber_plan(
    genera: Sequence[int],
    elliptic_count: int | None = None,
    pairing: tuple[tuple[int, ...], ...] | None = None,
) -> FiberPlan:
    predicted_genus, predicted_dim_p = fiber_closed_forms(genera)
    genera = tuple(genera)
    group = preset_elementary_abelian_2(len(genera))
    index = group.generator_names
    vector, deck_words = fiber_generators(genera)
    action = CoveringAction(
        group=group,
        orbit_genus=0,
        periods=(2,) * len(vector),
        handles=(),
        branch_elements=tuple(index[e] for e in vector),
    )
    deck = tuple(subgroup_generate(group, [index[e] for e in words]) for words in deck_words)
    analysis = analyze(action)
    genus = analysis.genus
    _agree("fiber genus", genus, predicted_genus)  # both read only the genera
    # both read only the genera: the deck's quotient genera, or the genera asked for
    _agree("deck quotient genus", tuple(analysis.profile(k).genus for k in deck), genera)
    report = analysis.theorem1(deck)  # raises NotAdmissible on an inadmissible deck
    _agree("fiber dim P", report.dim_p, predicted_dim_p)  # both read only the genera
    return FiberPlan(
        genera=genera,
        action=action,
        deck_subgroups=deck,
        genus=genus,
        predicted_genus=predicted_genus,
        dim_p=report.dim_p,
        predicted_dim_p=predicted_dim_p,
        admissibility=report.admissibility,
        theorem1=report,
        analysis=analysis,
        elliptic_count=elliptic_count,
        pairing=pairing,
    )


def fiber_product_action(genera: Sequence[int]) -> FiberPlan:
    """Fiber product of hyperelliptic double covers with disjoint branching.

    Builds the order-2^t elementary abelian action whose deck quotients
    realize the requested genera, checks the closed genus and complement
    formulas against the Riemann-Hurwitz route, and returns the full plan.
    """
    if len(genera) < 2:
        raise TooFewFactors(f"need at least two factor genera, got {len(genera)}")
    return _build_fiber_plan(genera)


def cor3_plan(t: int) -> FiberPlan:
    """Plan a surface whose Jacobian contains t elliptic factors.

    Even t pairs the elliptic curves into genus-2 inputs; odd t adds one
    genus-1 input.  The degenerate t = 2 case is the single genus-2 surface
    itself (complement dimension zero).
    """
    if t < 2:
        raise TooFewFactors(f"need at least two elliptic factors, got {t}")
    if t > 22:  # ceil(t/2) factors, and preset_elementary_abelian_2 stops at (Z_2)^11
        raise DecompositionError(f"need at most 22 elliptic factors, got {t}")
    if t % 2 == 0:
        s = t // 2
        genera = (2,) * s
        pairing = tuple((j + 1, j + 1 + s) for j in range(s))
        predicted = 1 - 2**s + 3 * s * 2 ** (s - 1)
    else:
        s = (t - 1) // 2
        genera = (2,) * s + (1,)
        pairing = tuple((j + 1, j + 1 + s) for j in range(s)) + ((t,),)
        predicted = 1 - 2 ** (s + 1) + (3 * t + 1) * 2 ** (s - 1)
    plan = _build_fiber_plan(genera, elliptic_count=t, pairing=pairing)
    _agree("parity genus", plan.genus, predicted)  # after fiber genus, both are closed forms in t
    _agree("elliptic complement", plan.dim_p, plan.genus - t)  # genus - dim P = sum of genera = t
    return plan

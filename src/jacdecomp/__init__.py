"""Exact group-algebra decomposition bookkeeping for Jacobian varieties.

Given a finite group acting on a compact Riemann surface as discrete data
(group, signature, generating vector), this package computes character
tables and rational irreducibles exactly, the dimensions and exponents of
the isotypical factors of the Jacobian, the induced decompositions of
quotient Jacobians, and admissibility of subgroup collections, and emits
verified decomposition reports.  All arithmetic is exact (rationals and
cyclotomic integers); every headline identity is checked through two
independent computation routes.
"""

__version__ = "0.1.0"

from .characters import (
    CharacterTable,
    ClassFunction,
    RationalClass,
    central_idempotent,
    character_table,
    fixed_dim,
    frobenius_schur,
    inner_product,
    permutation_character,
    rational_classes,
    regular_character,
    trivial_character,
)
from .covering import (
    CoveringAction,
    GenusCertificate,
    quotient_genus,
    total_genus,
    validate_action,
)
from .cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi
from .decomposition import (
    ActionAnalysis,
    AdmissibilityReport,
    DecompositionReport,
    FiberPlan,
    IsotypicalFactor,
    SubgroupProfile,
    analyze,
    cor3_plan,
    fiber_product_action,
    induced_join_analysis,
)
from .groups import (
    ConjugacyClassPartition,
    FiniteGroup,
    Permutation,
    Subgroup,
    build_group,
    conjugacy_classes,
    coset_action,
    element_from_word,
    enumerate_subgroups,
    is_partition,
    preset_dihedral,
    preset_elementary_abelian_2,
    preset_quaternion,
    subgroup_generate,
    subgroup_join,
)
from .scenario import ScenarioFile, parse_scenario

__all__ = [
    "__version__",
    # groups
    "Permutation", "FiniteGroup", "Subgroup", "ConjugacyClassPartition",
    "build_group", "preset_dihedral", "preset_elementary_abelian_2",
    "preset_quaternion", "conjugacy_classes", "subgroup_generate",
    "subgroup_join", "enumerate_subgroups", "coset_action", "is_partition",
    "element_from_word",
    # cyclotomic
    "Cyclotomic", "euler_phi", "cyclotomic_polynomial",
    # characters
    "ClassFunction", "CharacterTable", "RationalClass",
    "character_table", "inner_product", "permutation_character",
    "trivial_character", "regular_character", "fixed_dim", "frobenius_schur",
    "rational_classes", "central_idempotent",
    # covering
    "CoveringAction", "GenusCertificate", "validate_action", "total_genus",
    "quotient_genus",
    # decomposition
    "ActionAnalysis", "IsotypicalFactor", "SubgroupProfile",
    "AdmissibilityReport", "DecompositionReport", "FiberPlan", "analyze",
    "fiber_product_action", "cor3_plan", "induced_join_analysis",
    # scenarios
    "ScenarioFile", "parse_scenario",
]

"""Walkthrough: a dihedral action of order 4q on a surface of genus 4q - 1.

The running example: the dihedral group D = <r, s : r^(2q) = s^2 = (sr)^2 = 1>
acts with six branch points, two stabilized by conjugates of <s>, two by
conjugates of <sr>, and two by the rotation subgroup <r>.  We compute the
character table exactly, the isotypical factor dimensions of the Jacobian,
the induced decompositions of the three named quotients, and verify that the
collection {<s>, <sr>, <r>} decomposes the Jacobian completely.

Run:  python demos/01_dihedral_family.py [q]
"""

import sys

from jacdecomp import (
    CoveringAction,
    analyze,
    preset_dihedral,
    quotient_genus,
    subgroup_generate,
    total_genus,
)

q = int(sys.argv[1]) if len(sys.argv) > 1 else 3

# -- the covering data ---------------------------------------------------------
group = preset_dihedral(q)
r = group.generator_names["r"]
s = group.generator_names["s"]
sr = group.mul(s, r)

action = CoveringAction(
    group=group,
    orbit_genus=0,
    periods=(2, 2, 2, 2, 2 * q, 2 * q),
    handles=(),
    branch_elements=(s, s, sr, sr, r, group.inv(r)),
)
print(f"group of order {group.order}, exponent {group.exponent}")
print(f"total genus by Riemann-Hurwitz: {total_genus(action)}  (expected {4 * q - 1})")

# -- exact character data --------------------------------------------------------
analysis = analyze(action)
table = analysis.table
print(f"\ncharacter table over Q(zeta_{table.conductor}), degrees {table.degrees}")
for row in table.irreducibles:
    print("  ", [str(v) for v in row.values])

print("\nrational classes (degree, field degree, Schur index, exponent):")
for rc in analysis.rational_classes:
    print("  ", (rc.degree, rc.field_degree, rc.schur_index, rc.n))

# -- isotypical factors ------------------------------------------------------------
print("\nisotypical factor dimensions:", [f.dim for f in analysis.factors])
print("exponents:", [f.exponent for f in analysis.factors])
total = sum(f.exponent * f.dim for f in analysis.factors)
print(f"conservation: sum n_l dim B_l = {total} = genus")

# -- quotients and the decomposition ------------------------------------------------
h1 = subgroup_generate(group, (s,))
h2 = subgroup_generate(group, (sr,))
h3 = subgroup_generate(group, (r,))
for name, h in (("<s>", h1), ("<sr>", h2), ("<r>", h3)):
    print(f"quotient by {name}: genus {quotient_genus(action, h)}")

report = analysis.theorem1([h1, h2, h3])
print(f"\n{report.statement}")
print("complement dimension:", report.dim_p, "(full decomposition)" if report.full else "")

# dropping the rotations leaves a complement of dimension 2q - 1
partial = analysis.theorem1([h1, h3])
print(partial.statement)

# the two reflection subgroups do not permute, so the pairwise-permuting
# criterion cannot see the full decomposition that admissibility delivers
criterion = analysis.theorem_c([h1, h2, h3])
print(
    "pairwise-permuting criterion applicable:",
    criterion.applicable,
    "(pair", criterion.non_permuting_pair, "does not permute)",
)

# every Prym complement is accounted for by the other two quotients
for k, cor in enumerate(analysis.corollary1(analysis.theorem1([h1, h2, h3]))):
    print(
        f"Prym of quotient {k + 1}: dim {cor.prym_dim}, "
        f"other quotients sum to {cor.complement_sum} (equality: {cor.equality})"
    )

"""Walkthrough: partition identities and the admissible-collection search.

A group partitioned into subgroups with pairwise trivial intersections
satisfies an exact character identity (the weighted sum of the induced
trivial characters equals a multiple of the regular character plus a
multiple of the trivial one), per-class integer identities, and a dimension
identity between the Jacobian of the total space and those of the quotients.
The search command mechanizes hunting for admissible collections.

Run:  python demos/03_partitions.py
"""

from jacdecomp import (
    CoveringAction,
    analyze,
    preset_dihedral,
    subgroup_generate,
)

group = preset_dihedral(3)
r = group.generator_names["r"]
s = group.generator_names["s"]
sr = group.mul(s, r)
action = CoveringAction(
    group, 0, (2, 2, 2, 2, 6, 6), (), (s, s, sr, sr, r, group.inv(r))
)
analysis = analyze(action)

# rotations plus the six reflection subgroups partition the group
collection = [subgroup_generate(group, (r,))] + [
    subgroup_generate(group, (group.mul(s, group.power(r, i)),)) for i in range(6)
]
report = analysis.theorem_b(collection)
print(f"partition into {report.t} subgroups")
print("character identity holds:", report.character_identity)
print("per-class identities hold:", report.class_identities)
print(f"dimension identity: {report.dimension_lhs} = {report.dimension_rhs}")

# the same machinery on the Klein-group fiber action
from jacdecomp import fiber_product_action

plan = fiber_product_action((1, 1))
fib = plan.analysis
e1 = plan.action.group.generator_names["e1"]
e2 = plan.action.group.generator_names["e2"]
klein = [
    subgroup_generate(plan.action.group, (e1,)),
    subgroup_generate(plan.action.group, (e2,)),
    subgroup_generate(plan.action.group, (plan.action.group.mul(e1, e2),)),
]
klein_report = fib.theorem_b(klein)
print(f"\nKlein partition: {klein_report.dimension_lhs} = {klein_report.dimension_rhs}")

# search for admissible collections that decompose the Jacobian completely
results = analysis.search_admissible(max_t=3, require_full=True)
print(f"\nfull admissible collections of size <= 3: {len(results)}")
for found in results:
    print("  ", [h.describe() for h in found.subgroups])

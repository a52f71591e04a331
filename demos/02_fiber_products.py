"""Walkthrough: fiber products of hyperelliptic double covers.

Given factor genera g_1..g_t, the fiber product of t double covers of the
line with disjoint branching carries an elementary abelian group of order
2^t; its deck subgroups K_i recover the factor curves as quotients.  The
constructed covering genus has a closed formula, the deck collection is
always admissible, and the complement dimension has a closed formula too.
The engine verifies all three against the Riemann-Hurwitz route on every
call.

Run:  python demos/02_fiber_products.py
"""

import itertools

from jacdecomp import cor3_plan, fiber_product_action

print("fiber products over (Z_2)^t")
print(f"{'genera':>12}  {'genus':>5}  {'dim P':>5}  admissible  full")
for t in (2, 3):
    for genera in itertools.combinations_with_replacement((1, 2, 3), t):
        plan = fiber_product_action(genera)
        print(
            f"{str(genera):>12}  {plan.genus:>5}  {plan.dim_p:>5}"
            f"  {str(plan.admissibility.admissible):>10}  {plan.theorem1.full}"
        )

# deck quotients really have the requested genera
plan = fiber_product_action((2, 1))
for g_i, deck in zip(plan.genera, plan.deck_subgroups):
    print(f"deck subgroup of order {deck.order}: quotient genus {plan.analysis.profile(deck).genus} = {g_i}")

# plans whose Jacobian contains a prescribed number of elliptic factors:
# even counts pair the curves into genus-2 inputs, odd counts add one
# genus-1 input, and t = 2 degenerates to a single genus-2 surface.
print("\nelliptic-factor plans")
print(f"{'t':>2}  {'genus':>5}  {'dim P':>5}  pairing")
for t in range(2, 8):
    plan = cor3_plan(t)
    pairing = ", ".join("(" + ",".join(f"E{i}" for i in pair) + ")" for pair in plan.pairing)
    print(f"{t:>2}  {plan.genus:>5}  {plan.dim_p:>5}  {pairing}")

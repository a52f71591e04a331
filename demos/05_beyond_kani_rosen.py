"""Walkthrough: Theorem 1 decomposes Jacobians that Kani and Rosen's criterion cannot.

Kani and Rosen's Theorem C gives JC ~ JC_H1 x ... x JC_Ht when the subgroups
permute pairwise, every pairwise quotient C/H_iH_j has genus zero, and the
quotient genera sum to the genus of C.  Theorem 1 asks only that the
collection be admissible, and reads fullness off the complement dimension.
For every pair and triple of subgroup class representatives this counts the
collections Theorem C makes full (Theorem 1 confirms each one), the further
collections only Theorem 1 makes full, and shows the last of the latter
(or of the former, where there are none).

Run:  python demos/05_beyond_kani_rosen.py
"""

import itertools

from jacdecomp import parse_scenario
from jacdecomp.decomposition import analyze
from jacdecomp.groups import subgroup_class_representatives

# Z7 x| Z9 with b a b^-1 = a^2, as permutations of 0..15, and signature (0; 9, 9, 7)
Z7_Z9 = {
    "name": "Z7:Z9",
    "group": {
        "generators": [
            [1, 2, 3, 4, 5, 6, 0] + list(range(7, 16)),
            [2 * x % 7 for x in range(7)] + [7 + (y + 1) % 9 for y in range(9)],
        ],
        "names": ["a", "b"],
    },
    "action": {"orbit_genus": 0, "periods": [9, 9, 7], "vector": ["b", "b^-1*a", "a^-1"]},
}


def failed_hypothesis(report) -> str:
    if not report.pairs_permute:
        i, j = report.non_permuting_pair
        return f"H{i + 1} and H{j + 1} do not permute"
    if not report.pairwise_zero:
        return f"pairwise quotient genera {report.pairwise_genera}"
    return f"quotient genera sum to {report.genus_sum}"


for source in ("d2q?q=3", "fiber", Z7_Z9):
    scenario = parse_scenario(source)
    analysis = analyze(scenario.action)
    reps = subgroup_class_representatives(scenario.group)
    kani_rosen, beyond = [], []
    for collection in itertools.chain.from_iterable(
        itertools.combinations(reps, t) for t in (2, 3)
    ):
        full = analysis.admissibility(collection) and analysis.theorem1(collection).full
        criterion = analysis.theorem_c(collection)
        if criterion.applicable and not full:
            raise SystemExit(f"Theorem C holds but Theorem 1 is not full on {collection}")
        if criterion.applicable:
            kani_rosen.append((collection, "by Theorem C"))
        elif full:
            beyond.append((collection, f"though {failed_hypothesis(criterion)}"))
    print(
        f"{scenario.name}: order {scenario.group.order}, genus {analysis.genus}, "
        f"{len(reps)} classes of subgroups"
    )
    print(f"  full by Theorem C: {len(kani_rosen)}; full only by Theorem 1: {len(beyond)}")
    collection, reason = (beyond or kani_rosen)[-1]
    names = ", ".join(f"H{i + 1} = {h.describe()}" for i, h in enumerate(collection))
    print(f"  e.g. {names}:")
    print(f"    {analysis.theorem1(collection).statement}, {reason}")

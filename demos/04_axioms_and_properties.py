"""Auditing axioms and voting properties.

Six betweenness-style axioms pin down which distances decompose over
inversions, which are graphic on the swap graph, and how swap costs may
vary; a second family of checkers audits the induced voting rule
(majority, Condorcet, monotonicity, reinforcing, Pareto blocks).

Run:  python demos/04_axioms_and_properties.py
"""

from menurank import (
    MenuWeights,
    Measure,
    Permutation,
    Profile,
    check_property,
    condorcet_candidates,
    audit_axiom,
    make_params,
    preset,
    recover_pair_weights,
)
from menurank.audit import AXIOMS, params_distance


def prof(*rows):
    entries = tuple((mult, Permutation(order)) for mult, order in rows)
    return Profile(entries, entries[0][1].n)


print("axiom audit at n = 4 (verdict per distance family):")
families = [
    ("pairwise / counting", make_params(*preset("kendall", 4))),
    ("pairwise / weighted", make_params(MenuWeights([1, 0, 0]), Measure([1, 2, 3, 4]))),
    ("flat / counting", make_params(*preset("ok-nishimura", 4))),
    ("linear / counting", make_params(*preset("linear", 4))),
]
print(f"  {'family':<22}" + "".join(f"{ax:>7}" for ax in AXIOMS))
for label, params in families:
    verdicts = [audit_axiom(params, ax).verdict for ax in AXIOMS]
    print(f"  {label:<22}" + "".join(f"{v[:5]:>7}" for v in verdicts))
print("  only pairwise weights decompose over single inversions (A1, A2);")
print("  every family here is graphic on the swap graph (A3)")

print("\npair costs recovered from an inversion-additive distance:")
params = make_params(MenuWeights([1, 0, 0]), Measure([1, 2, 3, 4]))
weights = recover_pair_weights(params_distance(params), 4)
for pair in sorted(weights, key=sorted):
    print(f"  {tuple(sorted(pair))}: {weights[pair]}")
print("  each equals the summed measure of the two candidates")

print("\nvoting-rule audit on a profile with a pairwise tie at the top:")
V = prof((5, (1, 2, 3, 4)), (4, (3, 2, 1, 4)), (1, (2, 3, 1, 4)))
print(f"  ballots: 5 x 1234, 4 x 3214, 1 x 2314")
print(f"  candidates never losing a pairwise vote: {sorted(condorcet_candidates(V))}")
for label, params in [
    ("pairwise weights", make_params(*preset("kendall", 4))),
    ("a size-3 menu weight", make_params(MenuWeights([1, 1, 0]))),
]:
    report = check_property(params, V, "condorcet_W")
    print(f"  {label:<22}: condorcet_W {report.verdict}")
print("  menus beyond pairs trade the tied candidate away")

print("\nneutrality needs a constant measure:")
params = make_params(MenuWeights([1, 0]), Measure([1, 1, 2]))
V = prof((1, (1, 2, 3)), (1, (3, 1, 2)), (1, (2, 3, 1)))
report = check_property(params, V, "neutrality_P")
print(f"  verdict: {report.verdict}; witness relabelling tau = {report.witness['tau']}")

print("\nproperties that hold for every nonnegative parameter pair:")
W = prof((5, (1, 2, 3, 4)), (4, (3, 2, 1, 4)), (1, (2, 3, 1, 4)))
for name in ("majority", "monotonicity", "blockwise_pareto", "partitionwise_pareto"):
    report = check_property(make_params(*preset("linear", 4)), W, name)
    print(f"  {name:<22}: {report.verdict}")

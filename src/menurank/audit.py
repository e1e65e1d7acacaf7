"""Executable checkers for the betweenness axioms and voting properties.

``check_axiom`` evaluates one of six quantified statements about a distance
function literally, by enumeration over all rankings of 1..n (guarded to
n <= 5), and returns the first counterexample in lexicographic order when
the statement fails.  ``check_property`` evaluates social-choice properties
of the induced consensus correspondence against the exact solver;
``neutrality_P`` solves the profile once per relabelling, n! times, so it is
guarded to n <= 7 (about 3 s at n = 7).

Axiom catalogue (d a distance on rankings, t_a the swap at positions a,a+1):

A1  whenever w lies between p and q, d(p, q) = d(p, w) + d(w, q)
A2  the value attached to inverting one candidate pair is additively
    separable: val(i,j) + val(k,l) = val(i,k) + val(j,l) for distinct
    i, j, k, l, over every realisation of the single-pair inversions
A3  every pair disagreeing on two or more candidate pairs admits a distinct
    ranking strictly between them where the triangle inequality is tight
A4  the cost of an adjacent swap depends only on the position and on the
    unordered candidate pair swapped
A5  swap costs at two positions are proportional across candidate pairs
A6  swap costs at one position are additive across candidate pairs

A2 is checked through single-pair inversion realisations rather than through
the full transpositions t_{i,j}: a transposition of non-adjacent candidates
inverts many pairs at once, which would make the statement fail even for
plain pair-counting distances; the separability content lives on single
inversions.

Every ``Fails`` report carries a witness with enough permutations attached
to replay the violated instance by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as _it_perms
from typing import Callable, Mapping, Sequence

from .aggregation import aggregate_exact
from .distances import distance
from .permutations import (
    Permutation,
    all_rankings,
    adjacent_promotions,
    is_between,
    kendall_count,
)
from .profiles import Profile
from .weights import DistanceParams, ParamLabel

AXIOM_CANDIDATE_LIMIT = 5
NEUTRALITY_CANDIDATE_LIMIT = 7

DistanceFn = Callable[[Permutation, Permutation], Fraction]

AXIOMS = ("A1", "A2", "A3", "A4", "A5", "A6")
PROPERTIES = (
    "neutrality_P",
    "majority",
    "condorcet_P",
    "condorcet_W",
    "reinforcing",
    "monotonicity",
    "blockwise_pareto",
    "partitionwise_pareto",
)


@dataclass(frozen=True)
class AuditReport:
    property: str
    verdict: str  # 'Holds' | 'Fails' | 'Inapplicable'
    witness: Mapping[str, object] | None = None
    note: str = ""

    def holds(self) -> bool:
        return self.verdict == "Holds"


def _holds(prop: str, note: str = "") -> AuditReport:
    return AuditReport(prop, "Holds", None, note)


def _fails(prop: str, witness: Mapping[str, object]) -> AuditReport:
    return AuditReport(prop, "Fails", witness)


# ---------------------------------------------------------------------------
# pairwise margins and Condorcet candidates


def net_preference_matrix(profile: Profile) -> list[list[int]]:
    """Antisymmetric margins: entry (i, j) counts voters ranking i above j
    minus those ranking j above i."""
    n = profile.n
    margins = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            margins[i][j] = sum(
                mult if v.prefers(i, j) else -mult for mult, v in profile.entries
            )
    return margins


def top_choice_margins(profile: Profile) -> list[int]:
    """Per candidate: voters ranking it first minus voters who do not."""
    n = profile.n
    totals = [0] * (n + 1)
    for mult, v in profile.entries:
        for c in range(1, n + 1):
            totals[c] += mult if v.order[0] == c else -mult
    return totals


def condorcet_candidates(profile: Profile) -> frozenset[int]:
    """Candidates with nonnegative margin against every rival."""
    margins = net_preference_matrix(profile)
    n = profile.n
    return frozenset(
        i
        for i in range(1, n + 1)
        if all(margins[i][j] >= 0 for j in range(1, n + 1) if j != i)
    )


# ---------------------------------------------------------------------------
# axiom checkers


def params_distance(params: DistanceParams) -> DistanceFn:
    return lambda a, b: distance(params, a, b)


def _guard_axiom_n(n: int) -> None:
    if n > AXIOM_CANDIDATE_LIMIT:
        raise ValueError(
            f"axiom checks enumerate all rankings; n is capped at {AXIOM_CANDIDATE_LIMIT}"
        )


def _distance_table(
    dist: DistanceFn, perms: Sequence[Permutation]
) -> dict[tuple[Permutation, Permutation], Fraction]:
    table = {}
    for a in perms:
        for b in perms:
            table[(a, b)] = dist(a, b)
    return table


def _swap_realisations(
    dist: DistanceFn, perms: Sequence[Permutation]
) -> dict[tuple[int, frozenset[int]], dict[Fraction, Permutation]]:
    """Distinct adjacent-swap costs, keyed by position and candidate pair.

    Values map each observed cost to one witnessing ranking.
    """
    out: dict[tuple[int, frozenset[int]], dict[Fraction, Permutation]] = {}
    for p in perms:
        for a in range(1, p.n):
            pair = frozenset((p.order[a - 1], p.order[a]))
            value = dist(p, p.swap_adjacent(a))
            out.setdefault((a, pair), {}).setdefault(value, p)
    return out


def _pair_realisations(swaps) -> dict[frozenset[int], dict[Fraction, tuple[Permutation, int]]]:
    """Single-pair inversion costs keyed by the candidate pair alone."""
    out: dict[frozenset[int], dict[Fraction, tuple[Permutation, int]]] = {}
    for (a, pair), values in swaps.items():
        for value, p in values.items():
            out.setdefault(pair, {}).setdefault(value, (p, a))
    return out


def check_axiom(dist: DistanceFn, n: int, axiom: str) -> AuditReport:
    """Evaluate one axiom over every required tuple of rankings of 1..n."""
    _guard_axiom_n(n)
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; choose from {AXIOMS}")
    perms = all_rankings(n)
    if axiom == "A1":
        return _check_a1(dist, perms)
    if axiom == "A2":
        return _check_a2(dist, perms, n)
    if axiom == "A3":
        return _check_a3(dist, perms)
    if axiom == "A4":
        return _check_a4(dist, perms)
    if axiom == "A5":
        return _check_a5(dist, perms, n)
    return _check_a6(dist, perms, n)


def _check_a1(dist: DistanceFn, perms) -> AuditReport:
    table = _distance_table(dist, perms)
    for p in perms:
        for q in perms:
            base = table[(q, p)]
            for w in perms:
                if w == p or w == q or p == q:
                    continue
                if not is_between(p, w, q):
                    continue
                if table[(q, w)] + table[(w, p)] != base:
                    return _fails(
                        "A1",
                        {
                            "p": p,
                            "w": w,
                            "q": q,
                            "d(q,p)": base,
                            "d(q,w)": table[(q, w)],
                            "d(w,p)": table[(w, p)],
                        },
                    )
    return _holds("A1")


def _check_a2(dist: DistanceFn, perms, n: int) -> AuditReport:
    pairs = _pair_realisations(_swap_realisations(dist, perms))
    for i, j, k, l in _it_perms(range(1, n + 1), 4):
        left_a = pairs.get(frozenset((i, j)), {})
        left_b = pairs.get(frozenset((k, l)), {})
        right_a = pairs.get(frozenset((i, k)), {})
        right_b = pairs.get(frozenset((j, l)), {})
        for xa, wit_xa in left_a.items():
            for xb, wit_xb in left_b.items():
                for ya, wit_ya in right_a.items():
                    for yb, wit_yb in right_b.items():
                        if xa + xb != ya + yb:
                            return _fails(
                                "A2",
                                {
                                    "pairs": ((i, j), (k, l), (i, k), (j, l)),
                                    "values": (xa, xb, ya, yb),
                                    "realisations": (wit_xa, wit_xb, wit_ya, wit_yb),
                                },
                            )
    return _holds("A2")


def _check_a3(dist: DistanceFn, perms) -> AuditReport:
    table = _distance_table(dist, perms)
    for p in perms:
        for q in perms:
            if kendall_count(p, q) < 2:
                continue
            target = table[(p, q)]
            if not any(
                w != p
                and w != q
                and is_between(p, w, q)
                and table[(p, w)] + table[(w, q)] == target
                for w in perms
            ):
                return _fails("A3", {"p": p, "q": q, "d(p,q)": target})
    return _holds("A3")


def _check_a4(dist: DistanceFn, perms) -> AuditReport:
    swaps = _swap_realisations(dist, perms)
    for (a, pair), values in sorted(
        swaps.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
    ):
        if len(values) > 1:
            (v1, p1), (v2, p2) = sorted(values.items())[:2]
            return _fails(
                "A4",
                {
                    "position": a,
                    "pair": tuple(sorted(pair)),
                    "rankings": (p1, p2),
                    "values": (v1, v2),
                },
            )
    return _holds("A4")


def _check_a5(dist: DistanceFn, perms, n: int) -> AuditReport:
    swaps = _swap_realisations(dist, perms)
    candidates = range(1, n + 1)
    pairs = sorted({frozenset(t) for t in _it_perms(candidates, 2)}, key=sorted)
    for a in range(1, n):
        for b in range(1, n):
            if a == b:
                continue
            for pair_one in pairs:
                for pair_two in pairs:
                    lhs_one = swaps.get((a, pair_one), {})
                    lhs_two = swaps.get((b, pair_two), {})
                    rhs_one = swaps.get((b, pair_one), {})
                    rhs_two = swaps.get((a, pair_two), {})
                    for x, wx in lhs_one.items():
                        for y, wy in lhs_two.items():
                            for xx, wxx in rhs_one.items():
                                for yy, wyy in rhs_two.items():
                                    if x * y != xx * yy:
                                        return _fails(
                                            "A5",
                                            {
                                                "positions": (a, b),
                                                "pairs": (
                                                    tuple(sorted(pair_one)),
                                                    tuple(sorted(pair_two)),
                                                ),
                                                "values": (x, y, xx, yy),
                                                "realisations": (wx, wy, wxx, wyy),
                                            },
                                        )
    return _holds("A5")


def _check_a6(dist: DistanceFn, perms, n: int) -> AuditReport:
    swaps = _swap_realisations(dist, perms)
    candidates = range(1, n + 1)
    pairs = sorted(
        {frozenset(t) for t in _it_perms(candidates, 2)}, key=sorted
    )
    for a in range(1, n):
        for idx, pair_one in enumerate(pairs):
            for pair_two in pairs[idx + 1 :]:
                one = swaps.get((a, pair_one), {})
                two = swaps.get((a, pair_two), {})
                sums = {
                    x + y: (wx, wy)
                    for x, wx in one.items()
                    for y, wy in two.items()
                }
                if len(sums) > 1:
                    (s1, w1), (s2, w2) = sorted(sums.items())[:2]
                    return _fails(
                        "A6",
                        {
                            "position": a,
                            "pairs": (tuple(sorted(pair_one)), tuple(sorted(pair_two))),
                            "sums": (s1, s2),
                            "realisations": (w1, w2),
                        },
                    )
    return _holds("A6")


def audit_axiom(params: DistanceParams, axiom: str, n: int | None = None) -> AuditReport:
    """Gate on the parameter classification, then check the axiom."""
    if n is None:
        n = params.n
    if params.label is ParamLabel.NOT_SEMIMETRIC:
        return AuditReport(axiom, "Inapplicable", None, "parameters are not a semimetric")
    return check_axiom(params_distance(params), n, axiom)


# ---------------------------------------------------------------------------
# derived characterisations


def recover_pair_weights(
    dist: DistanceFn, n: int
) -> dict[frozenset[int], Fraction] | None:
    """Recover the per-pair costs of an inversion-additive distance.

    Reads each cost off a canonical single-swap realisation and validates the
    pairwise decomposition against every ranking pair; returns None when the
    distance is not additive over inversions.
    """
    _guard_axiom_n(n)
    weights: dict[frozenset[int], Fraction] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = [c for c in range(1, n + 1) if c not in (i, j)]
            base = Permutation([i, j] + rest)
            weights[frozenset((i, j))] = dist(base, base.swap_adjacent(1))
    perms = all_rankings(n)
    for a in perms:
        for b in perms:
            mask = a.pair_mask ^ b.pair_mask
            expected = Fraction(0)
            bit = 0
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    if mask >> bit & 1:
                        expected += weights[frozenset((i, j))]
                    bit += 1
            if dist(a, b) != expected:
                return None
    return weights


def minimal_path_costs(
    dist: DistanceFn, n: int
) -> dict[tuple[Permutation, Permutation], Fraction]:
    """Cheapest total swap cost along *shortest* permutahedron paths.

    For each source, a layered pass over rankings ordered by inversion count
    relaxes only edges that step one inversion further from the source, so
    sums range exactly over minimal adjacent-transposition paths.
    """
    _guard_axiom_n(n)
    perms = all_rankings(n)
    neighbours = {
        p: tuple(p.swap_adjacent(a) for a in range(1, n)) for p in perms
    }
    out: dict[tuple[Permutation, Permutation], Fraction] = {}
    for source in perms:
        ordered = sorted(perms, key=lambda p: (kendall_count(source, p), p.order))
        costs: dict[Permutation, Fraction] = {source: Fraction(0)}
        for p in ordered:
            if p == source:
                continue
            level = kendall_count(source, p)
            best = None
            for q in neighbours[p]:
                if kendall_count(source, q) == level - 1:
                    cand = costs[q] + dist(q, p)
                    if best is None or cand < best:
                        best = cand
            costs[p] = best
        for p, value in costs.items():
            out[(source, p)] = value
    return out


# ---------------------------------------------------------------------------
# social-choice property checkers


def check_property(
    params: DistanceParams,
    profile: Profile,
    prop: str,
    other: Profile | None = None,
) -> AuditReport:
    """Evaluate a property of the exact consensus correspondence on a profile."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; choose from {PROPERTIES}")
    if params.label is ParamLabel.NOT_SEMIMETRIC:
        return AuditReport(prop, "Inapplicable", None, "parameters are not a semimetric")
    if prop == "reinforcing":
        if other is None:
            raise ValueError("reinforcing compares two profiles; pass `other`")
        return _check_reinforcing(params, profile, other)
    checker = {
        "neutrality_P": _check_neutrality,
        "majority": _check_majority,
        "condorcet_P": _check_condorcet_p,
        "condorcet_W": _check_condorcet_w,
        "monotonicity": _check_monotonicity,
        "blockwise_pareto": _check_blockwise,
        "partitionwise_pareto": _check_partitionwise,
    }[prop]
    return checker(params, profile)


def _check_neutrality(params, profile) -> AuditReport:
    # one exact solve per relabelling: 0.28 s at n = 6, 3.1 s at n = 7 and
    # 43 s at n = 8 on a 2-core VM with Python 3.11
    if profile.n > NEUTRALITY_CANDIDATE_LIMIT:
        raise ValueError(
            f"the neutrality check solves all {profile.n}! relabelled profiles; "
            f"n is capped at {NEUTRALITY_CANDIDATE_LIMIT}"
        )
    base = aggregate_exact(params, profile).minimizers
    for tau in all_rankings(profile.n):
        relabeled = aggregate_exact(params, profile.relabel(tau)).minimizers
        expected = tuple(sorted(tau.compose(p) for p in base))
        if relabeled != expected:
            return _fails(
                "neutrality_P",
                {
                    "tau": tau,
                    "consensus": base,
                    "relabeled_consensus": relabeled,
                    "expected": expected,
                },
            )
    return _holds("neutrality_P")


def _check_majority(params, profile) -> AuditReport:
    winners = aggregate_exact(params, profile).winners
    margins = top_choice_margins(profile)
    for c in range(1, profile.n + 1):
        if margins[c] >= 0 and c not in winners:
            return _fails(
                "majority", {"candidate": c, "margin": margins[c], "winners": winners}
            )
    return _holds("majority")


def _check_condorcet_p(params, profile) -> AuditReport:
    consensus = aggregate_exact(params, profile).minimizers
    margins = net_preference_matrix(profile)
    adjacency = [
        {(p.order[k], p.order[k + 1]) for k in range(profile.n - 1)}
        for p in consensus
    ]
    for i in range(1, profile.n + 1):
        for j in range(1, profile.n + 1):
            if i == j:
                continue
            if margins[i][j] > 0:
                for p, adj in zip(consensus, adjacency):
                    if (j, i) in adj:
                        return _fails(
                            "condorcet_P",
                            {"i": i, "j": j, "margin": margins[i][j], "ranking": p},
                        )
            elif margins[i][j] == 0:
                has_ij = any((i, j) in adj for adj in adjacency)
                has_ji = any((j, i) in adj for adj in adjacency)
                if has_ij != has_ji:
                    return _fails(
                        "condorcet_P",
                        {"i": i, "j": j, "margin": 0, "consensus": consensus},
                    )
    return _holds("condorcet_P")


def _check_condorcet_w(params, profile) -> AuditReport:
    winners = aggregate_exact(params, profile).winners
    strong = condorcet_candidates(profile)
    missing = strong - winners
    if missing:
        return _fails(
            "condorcet_W",
            {"condorcet_candidates": strong, "winners": winners, "missing": missing},
        )
    return _holds("condorcet_W")


def _check_reinforcing(params, one, two) -> AuditReport:
    first = set(aggregate_exact(params, one).minimizers)
    second = set(aggregate_exact(params, two).minimizers)
    common = first & second
    if not common:
        return _holds("reinforcing", "consensus sets are disjoint; nothing to require")
    merged = set(aggregate_exact(params, one.concat(two)).minimizers)
    if merged != common:
        return _fails(
            "reinforcing",
            {"P(V1)": sorted(first), "P(V2)": sorted(second), "P(V1+V2)": sorted(merged)},
        )
    return _holds("reinforcing")


def _check_monotonicity(params, profile) -> AuditReport:
    winners = aggregate_exact(params, profile).winners
    for c in sorted(winners):
        for index, (mult, ballot) in enumerate(profile.entries):
            for promoted in adjacent_promotions(ballot, c):
                #  lift one voter out of the ballot group and uprank c there
                entries = list(profile.entries)
                entries[index] = (mult - 1, ballot) if mult > 1 else None
                entries = [e for e in entries if e is not None]
                entries.append((1, promoted))
                upranked = Profile(tuple(entries), profile.n)
                new_winners = aggregate_exact(params, upranked).winners
                if c not in new_winners:
                    return _fails(
                        "monotonicity",
                        {
                            "candidate": c,
                            "ballot": ballot,
                            "promoted_ballot": promoted,
                            "new_winners": new_winners,
                        },
                    )
    return _holds("monotonicity")


def _agreed_prefix_sizes(profile: Profile) -> list[int]:
    first = profile.entries[0][1]
    sizes = []
    for k in range(1, profile.n + 1):
        top = frozenset(first.order[:k])
        if all(frozenset(v.order[:k]) == top for v in profile.ballots()):
            sizes.append(k)
    return sizes


def _check_blockwise(params, profile) -> AuditReport:
    """Shared top-k sets (equivalently bottom-(n-k) sets) must be preserved."""
    consensus = aggregate_exact(params, profile).minimizers
    first = profile.entries[0][1]
    for k in _agreed_prefix_sizes(profile):
        top = frozenset(first.order[:k])
        for p in consensus:
            if frozenset(p.order[:k]) != top:
                return _fails(
                    "blockwise_pareto",
                    {"k": k, "shared_top_set": sorted(top), "ranking": p},
                )
    return _holds("blockwise_pareto")


def _check_partitionwise(params, profile) -> AuditReport:
    """Blocks cut at every agreed prefix size must be preserved as sets.

    Cutting at every agreed size gives the finest admissible partition;
    coarser cut sequences follow from it by unions of blocks.
    """
    consensus = aggregate_exact(params, profile).minimizers
    first = profile.entries[0][1]
    cuts = [0] + _agreed_prefix_sizes(profile)  # final agreed size is always n
    for lo, hi in zip(cuts, cuts[1:]):
        block = frozenset(first.order[lo:hi])
        for p in consensus:
            if frozenset(p.order[lo:hi]) != block:
                return _fails(
                    "partitionwise_pareto",
                    {"block": (lo + 1, hi), "shared_set": sorted(block), "ranking": p},
                )
    return _holds("partitionwise_pareto")

"""Executable checkers for the betweenness axioms and voting properties.

``check_axiom`` evaluates one of six quantified statements about a distance
function literally, by enumeration over all rankings of 1..n (guarded to
n <= 5), and returns the first counterexample in lexicographic order when
the statement fails.  A1 and A3 read one interval scan (``_intervals``): the
distance once per ordered pair of rankings, into integer rows over one
common scale indexed by rank, and the rankings between each pair, tested on
their pair masks; A2, A4, A5 and A6 read one table of realised
adjacent-swap costs (``_swap_realisations``).
``check_property`` evaluates social-choice properties of the induced
consensus correspondence against the exact solver.  ``neutrality_P`` solves
once per distinct relabelled measure, n!/prod(m_v!) for m_v labels of
measure value v, reached without walking the n! relabellings; before any
solve it refuses a count times 2^n over 7! * 2^7, the work of seven distinct
values at n = 7 (2.0 s for a ballot and its reversal under kendall weights,
2-core VM).  The counting measure takes one solve at every n the exact
solver takes.  ``condorcet_P``, ``reinforcing`` and the two Pareto
properties query the consensus set's DAG and list no ranking, so they run
at every n the exact solver takes.

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
A6  swap costs at one position are additively separable: at each position
    a, val_a(i,j) + val_a(k,l) = val_a(i,k) + val_a(j,l) for distinct
    i, j, k, l, over every realisation of the swaps at a

A2 is checked through single-pair inversion realisations rather than through
the full transpositions t_{i,j}: a transposition of non-adjacent candidates
inverts many pairs at once, which would make the statement fail even for
plain pair-counting distances; the separability content lives on single
inversions.  A2 and A6 are one separability scan (``_inseparable``), run
over every position's realisations of each pair for A2 and over one
position's at a time for A6.  Both quantify over four distinct candidates,
so both hold vacuously below n = 4.  A6 asks more than A4: a swap cost that
depends on the pair alone but not additively (i*j for {i, j}) holds A4 and
fails A6.

Every ``Fails`` report carries a witness with enough permutations attached
to replay the violated instance by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, permutations as _it_perms, product
from math import factorial, prod
from typing import Callable, Mapping, Sequence

from .aggregation import aggregate_exact
from .distances import distance
from .permutations import (
    Permutation,
    all_rankings,
    adjacent_promotions,
    kendall_count,
)
from .profiles import Profile
from .weights import DistanceParams, Measure, ParamLabel, _scaled_ints

AXIOM_CANDIDATE_LIMIT = 5
# 7! relabelled measures at n = 7, each a DP over 2^7 subsets
NEUTRALITY_WORK_LIMIT = factorial(7) << 7

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


def _intervals(dist: DistanceFn, perms: Sequence[Permutation]):
    """``(i, j, rows, wide, between)`` for each ordered pair of distinct
    rankings p = perms[i] and q = perms[j], in index order.  ``rows[i][k]``
    is ``dist(perms[i], perms[k])`` times one scale common to every row, an
    integer; ``wide`` says p and q disagree on two or more candidate pairs;
    ``between`` lazily yields, in increasing order, each k != i, j whose
    ranking w lies between them (``is_between``): q inverts every pair w
    inverts against p, that is, ``(m[p] ^ m[w]) & ~(m[p] ^ m[q]) == 0`` for
    the rankings' pair masks m.  Read it before the next pair."""
    masks = [p.pair_mask for p in perms]
    flat = _scaled_ints([dist(a, b) for a in perms for b in perms])[0]
    rows = [flat[k:k + len(perms)] for k in range(0, len(flat), len(perms))]
    for i, mp in enumerate(masks):
        diffs = [mp ^ mw for mw in masks]
        for j, dq in enumerate(diffs):
            if i != j:
                agree = ~dq
                between = (k for k, d in enumerate(diffs) if not d & agree and k != i and k != j)
                yield i, j, rows, dq.bit_count() > 1, between


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


def _inseparable(
    costs: Mapping[frozenset[int], Mapping[Fraction, object]], n: int
) -> dict[str, tuple] | None:
    """The first distinct (i, j, k, l), and the first realisations of their
    four pairs, where val(i,j) + val(k,l) != val(i,k) + val(j,l); None when
    ``costs`` (each pair's realised values) is additively separable."""
    for i, j, k, l in _it_perms(range(1, n + 1), 4):
        quad = ((i, j), (k, l), (i, k), (j, l))
        realised = (costs.get(frozenset(pair), {}).items() for pair in quad)
        for chosen in product(*realised):
            values, witnesses = zip(*chosen)
            if values[0] + values[1] != values[2] + values[3]:
                return {"pairs": quad, "values": values, "realisations": witnesses}
    return None


def _check_a1(dist: DistanceFn, perms, n: int) -> AuditReport:
    for i, j, rows, _, between in _intervals(dist, perms):
        from_q, base = rows[j], rows[j][i]
        for k in between:
            if from_q[k] + rows[k][i] != base:
                p, w, q = perms[i], perms[k], perms[j]
                return _fails("A1", {"p": p, "w": w, "q": q, "d(q,p)": dist(q, p),
                                     "d(q,w)": dist(q, w), "d(w,p)": dist(w, p)})
    return _holds("A1")


def _check_a2(dist: DistanceFn, perms, n: int) -> AuditReport:
    witness = _inseparable(_pair_realisations(_swap_realisations(dist, perms)), n)
    return _holds("A2") if witness is None else _fails("A2", witness)


def _check_a3(dist: DistanceFn, perms, n: int) -> AuditReport:
    for i, j, rows, wide, between in _intervals(dist, perms):
        from_p = rows[i]
        if wide and not any(from_p[k] + rows[k][j] == from_p[j] for k in between):
            p, q = perms[i], perms[j]
            return _fails("A3", {"p": p, "q": q, "d(p,q)": dist(p, q)})
    return _holds("A3")


def _check_a4(dist: DistanceFn, perms, n: int) -> AuditReport:
    swaps = _swap_realisations(dist, perms)
    for (a, pair), values in sorted(swaps.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
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
    pairs = list(combinations(range(1, n + 1), 2))
    for (a, b), (one, two) in product(_it_perms(range(1, n), 2), product(pairs, repeat=2)):
        keys = ((a, one), (b, two), (b, one), (a, two))
        realised = (swaps.get((pos, frozenset(pair)), {}).items() for pos, pair in keys)
        for (x, wx), (y, wy), (xx, wxx), (yy, wyy) in product(*realised):
            if x * y != xx * yy:
                return _fails("A5", {"positions": (a, b), "pairs": (one, two),
                                     "values": (x, y, xx, yy), "realisations": (wx, wy, wxx, wyy)})
    return _holds("A5")


def _check_a6(dist: DistanceFn, perms, n: int) -> AuditReport:
    swaps = _swap_realisations(dist, perms)
    for a in range(1, n):
        at_a = {pair: values for (b, pair), values in swaps.items() if b == a}
        witness = _inseparable(at_a, n)
        if witness is not None:
            return _fails("A6", {"position": a, **witness})
    return _holds("A6")


_AXIOM_CHECKERS = dict(
    zip(AXIOMS, (_check_a1, _check_a2, _check_a3, _check_a4, _check_a5, _check_a6))
)


def check_axiom(dist: DistanceFn, n: int, axiom: str) -> AuditReport:
    """Evaluate one axiom over every required tuple of rankings of 1..n."""
    _guard_axiom_n(n)
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}; choose from {AXIOMS}")
    return _AXIOM_CHECKERS[axiom](dist, all_rankings(n), n)


def audit_axiom(params: DistanceParams, axiom: str) -> AuditReport:
    """Gate on the parameter classification, then check the axiom over the
    parameters' ``n`` candidates."""
    if params.label is ParamLabel.NOT_SEMIMETRIC:
        return AuditReport(axiom, "Inapplicable", None, "parameters are not a semimetric")
    return check_axiom(params_distance(params), params.n, axiom)


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
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]  # pair_mask bit order
    costs = []
    for i, j in pairs:
        rest = [c for c in range(1, n + 1) if c not in (i, j)]
        base = Permutation([i, j] + rest)
        costs.append(dist(base, base.swap_adjacent(1)))
    perms = all_rankings(n)
    for a in perms:
        for b in perms:
            mask = a.pair_mask ^ b.pair_mask
            expected = sum(
                (cost for bit, cost in enumerate(costs) if mask >> bit & 1), Fraction(0)
            )
            if dist(a, b) != expected:
                return None
    return {frozenset(pair): cost for pair, cost in zip(pairs, costs)}


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
    if prop.endswith("_pareto"):
        return _check_pareto(params, profile, prop)
    checker = {
        "neutrality_P": _check_neutrality,
        "majority": _check_majority,
        "condorcet_P": _check_condorcet_p,
        "condorcet_W": _check_condorcet_w,
        "monotonicity": _check_monotonicity,
    }[prop]
    return checker(params, profile)


def _relabellings(values: Sequence[int]):
    """The first tau (as a tuple of labels) of each distinct arrangement
    ``[values[t - 1] for t in tau]``, in lexicographic order: each position
    takes, in increasing label order, the smallest unused label of each
    distinct value.  The identity comes first."""
    def extend(prefix, unused):
        if not unused:
            yield prefix
        seen = set()
        for t in unused:
            if values[t - 1] not in seen:
                seen.add(values[t - 1])
                yield from extend(prefix + (t,), tuple(u for u in unused if u != t))

    return extend((), tuple(range(1, len(values) + 1)))


def _check_neutrality(params, profile) -> AuditReport:
    # P_mu(tau V) = tau P_{mu o tau}(V): one solve per distinct arrangement of
    # mu, n!/prod(m_v!) for m_v labels of value v, each a DP over 2^n subsets
    n, int_mu = profile.n, params.int_mu
    solves = factorial(n) // prod(factorial(int_mu.count(v)) for v in set(int_mu))
    if solves << n > NEUTRALITY_WORK_LIMIT:
        raise ValueError(
            f"the neutrality check solves {solves} relabelled measures over 2^{n} subsets; "
            f"solves * 2^n is capped at 7! * 2^7 = {NEUTRALITY_WORK_LIMIT}"
        )
    mu = params.mu.values
    base = aggregate_exact(params, profile).minimizers
    for order in islice(_relabellings(int_mu), 1, None):  # the identity solved the base
        permuted = DistanceParams(params.weights, Measure(mu[t - 1] for t in order))
        found = aggregate_exact(permuted, profile).minimizers
        if found != base:  # the witness: both solved sets, relabelled by tau
            tau = Permutation(order)
            return _fails(
                "neutrality_P",
                {
                    "tau": tau,
                    "consensus": base,
                    "relabeled_consensus": found.relabel(tau),
                    "expected": base.relabel(tau),
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
    adjacent = consensus.adjacent_pairs()
    margins = net_preference_matrix(profile)
    for i in range(1, profile.n + 1):
        for j in range(1, profile.n + 1):
            if i == j:
                continue
            if margins[i][j] > 0 and (j, i) in adjacent:
                ranking = consensus.first(lambda last, placed, c: (last, c) == (j, i))
                return _fails(
                    "condorcet_P", {"i": i, "j": j, "margin": margins[i][j], "ranking": ranking}
                )
            if margins[i][j] == 0 and ((i, j) in adjacent) != ((j, i) in adjacent):
                return _fails("condorcet_P", {"i": i, "j": j, "margin": 0, "consensus": consensus})
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
    # costs add over ballots, so the merged optimum is the sum of the two
    # exactly when the sets meet, and then every shared ranking attains it
    first = aggregate_exact(params, one)
    second = aggregate_exact(params, two)
    merged = aggregate_exact(params, one.concat(two))
    if merged.optimum != first.optimum + second.optimum:
        return _holds("reinforcing", "consensus sets are disjoint; nothing to require")
    if not (merged.minimizers <= first.minimizers and merged.minimizers <= second.minimizers):
        return _fails(
            "reinforcing",
            {"P(V1)": first.minimizers, "P(V2)": second.minimizers, "P(V1+V2)": merged.minimizers},
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


def _check_pareto(params, profile, prop: str) -> AuditReport:
    """Top sets every ballot shares must stay on top (blockwise), and the
    blocks between them, the finest partition they cut (coarser ones are
    unions of its blocks), in place (partitionwise).  While the top sets up
    to one cut hold in every ranking, the next block holds where the next
    top set does: both forms first fail at the same cut, on the same ranking."""
    order = profile.entries[0][1].order
    full = (1 << profile.n) - 1
    shared = set.intersection(*(set(v._below) for v in profile.ballots()))
    consensus = aggregate_exact(params, profile).minimizers
    cut = 0
    for below in sorted(shared, reverse=True):  # nested down-sets, largest first
        top = full ^ below
        k = top.bit_count()
        ranking = consensus.first(
            lambda last, placed, c: placed.bit_count() == k - 1 and placed | 1 << (c - 1) != top
        )
        if ranking is not None:
            if prop == "blockwise_pareto":
                witness = {"k": k, "shared_top_set": sorted(order[:k]), "ranking": ranking}
            else:
                witness = {"block": (cut + 1, k), "shared_set": sorted(order[cut:k]), "ranking": ranking}
            return _fails(prop, witness)
        cut = k
    return _holds(prop)

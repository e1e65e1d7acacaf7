"""Median rank aggregation: exact consensus sets and approximation schemes.

Everything here exploits one decomposition: the aggregate distance from a
ranking to a profile is a sum of per-position terms, where the term for
position i depends only on the candidate placed there and on the *set*
placed before it.  That turns the search over n! orders into dynamic
programming over 2^n subsets, which is how the exact solver enumerates the
full argmin set, and how the myopic scheme minimises its truncated window.

The exact solver reads every term from one integer table built per
(parameters, profile) by two subset zeta transforms (Yates' algorithm, as in
Bjorklund, Husfeldt, Kaski and Koivisto's "Fourier meets Moebius"): a
candidate's overlap with the ballots' down-sets is a subset-sum of its
down-set histogram's superset-sums, weighted by the menu weights.  The tables
hold n 2^(n-1) lanes, 2^(n-1) per candidate (a down-set never holds its own
candidate), and each candidate's lanes are packed into one Python integer,
so a transform pass is one shift, one mask and one add.  That costs
O(n^2 2^n + n m) lane additions for m ballots, against O(n 2^n m) for
pricing each DP edge ballot by ballot.  The myopic window visits too few
(candidate, placed set) pairs for a full table to pay, so it keeps the
per-ballot ``_position_terms`` closure.

Approximation routes:

* ``aggregate_footrule`` minimises the footrule relaxation as a min-cost
  perfect matching between candidates and positions; its true cost is within
  the ``approximation_factor`` of the optimum.
* ``aggregate_myopic`` greedily pins strict-majority favourites, brute-forces
  the next ``depth`` window positions through the subset DP, and fills the
  tail in ascending label order (the window objective does not see the tail).
  ``ptas_depth`` picks the window size that makes this a (1 + eps)-scheme.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, repeat
from math import comb
from operator import add, lshift, mul, sub
from typing import Callable, Literal

from .assignment import min_cost_assignment
from .distances import profile_cost
from .permutations import Permutation
from .profiles import Profile
from .weights import (
    DistanceParams,
    Measure,
    MenuWeights,
    Rational,
    _scaled_mass,
    as_fraction,
    downset_mass,
    make_params,
    scaled_downset_table,
)

EXACT_CANDIDATE_LIMIT = 10
MYOPIC_SUBSET_LIMIT = 1 << 16


@dataclass(frozen=True)
class AggregationResult:
    """Outcome of one aggregation run.

    ``optimum`` is the minimised value of the method's own objective (the
    true aggregate distance for the exact method, the footrule objective for
    the matching method, the truncated window objective for the myopic one);
    ``certificate`` is always the true aggregate distance achieved by the
    returned ranking(s).
    """

    method: Literal["exact", "footrule", "myopic"]
    minimizers: tuple[Permutation, ...]
    optimum: Fraction
    winners: frozenset[int]
    certificate: Fraction


def _position_constants(params: DistanceParams, profile: Profile) -> list[int]:
    """``f(n - i) * sum_v mult_v * mu(v's i-th candidate)`` at i = 1..n.

    The measure mass the ballots put at position i, which every term for
    position i pays whatever candidate is placed there (entry 0 is unused).
    """
    n = params.n
    f = params.int_table
    mu = params.int_mu
    constants = [0] * (n + 1)
    for i in range(1, n + 1):
        constants[i] = f[n - i] * sum(
            mult * mu[v.order[i - 1] - 1] for mult, v in profile.entries
        )
    return constants


def _position_terms(
    params: DistanceParams, profile: Profile
) -> tuple[Callable[[int, int, int], int], int]:
    """Per-position cost: place candidate c at position i after ``placed``.

    Summing the returned term over a whole ranking gives its aggregate
    distance to the profile, times the returned integer scale.  Terms are
    plain integers so the subset DP never touches Fractions.
    """
    n = params.n
    f = params.int_table
    mu = params.int_mu
    total_voters = profile.voters
    universe = (1 << n) - 1
    ballots = [(mult, v._below) for mult, v in profile.entries]
    position_const = _position_constants(params, profile)

    def term(i: int, candidate: int, placed: int) -> int:
        free = universe & ~placed
        below = candidate - 1
        overlap = 0
        for mult, ballot_below in ballots:
            overlap += mult * f[(ballot_below[below] & free).bit_count()]
        return position_const[i] + mu[below] * (f[n - i] * total_voters - 2 * overlap)

    return term, params.weights_scale * params.mu_scale


@lru_cache(maxsize=64)
def _lane_masks(
    bits: int, width: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Masks over 2^bits packed lanes of ``width`` bits each.

    ``lack[j]`` fills the lanes whose index lacks bit j; ``by_size[k]`` fills
    the lanes whose index has k bits set, and ``ones[k]`` puts a 1 in each of
    them.  Each level is the level below (the low half of the lanes) joined
    with its copy in the high half, so it costs time linear in its size.
    """
    if bits == 0:
        return (), ((1 << width) - 1,), (1,)
    lack, by_size, ones = _lane_masks(bits - 1, width)
    half = width << (bits - 1)
    return (
        tuple(mask | mask << half for mask in lack) + ((1 << half) - 1,),
        tuple(low | high << half for low, high in zip(by_size + (0,), (0,) + by_size)),
        tuple(low | high << half for low, high in zip(ones + (0,), (0,) + ones)),
    )


def _unpack_lanes(packed: int, lanes: int, words: int) -> list[int]:
    """The ``lanes`` signed lanes of ``words`` 64-bit words in ``packed``.

    Lane i holds a two's complement value in bits ``64 words i`` onwards; the
    top word of each lane carries the sign, the lower words are unsigned.
    """
    data = packed.to_bytes(8 * words * lanes, "little")
    chunks = array("Q", data)
    tops = array("q", data)
    if sys.byteorder == "big":
        chunks.byteswap()
        tops.byteswap()
    values = tops[words - 1 :: words].tolist()
    for k in range(words - 2, -1, -1):
        values = list(map(add, map(lshift, values, repeat(64)), chunks[k::words]))
    return values


def _term_table(
    params: DistanceParams, profile: Profile
) -> tuple[list[list[int]], int]:
    """Every term of ``_position_terms`` at once, without a per-ballot loop.

    ``rows[c - 1][placed]`` equals ``term(|placed| + 1, c, placed)`` for every
    mask ``placed`` but the full one, where it is 0; the DP reads only the
    masks without c.  The term's only profile-dependent part is the overlap
    ``sum_v mult_v f(|B_v(c) & U|)`` over the free set U, where B_v(c) is
    what ballot v ranks below c.  As f(0) = 0 and the Newton coefficients
    of f are the menu weights (the k-th difference at 0 is w_{k+1}), that
    overlap is the subset-sum over T subset of U of ``w_{|T|+1} G_c(T)``,
    where G_c is the superset-sum of the histogram of the B_v(c).

    B_v(c) never holds c, so candidate c's table has 2^(n-1) lanes, indexed
    by sets of the other candidates.  Each down-set is counted at its
    complement: G_c becomes a subset-sum, and the second transform, a
    superset-sum, lands indexed by the placed set.  The lanes are packed into
    one integer, ``width`` bits each, so pass j of a transform is one shift,
    one mask and one add over the whole table.  Positive and negative menu
    weights go through the second transform as two integers, so no lane is
    ever negative there; the row values (signed, by then) are assembled in
    the packed form too and unpacked once.  Cost: O(n^2 2^n) lane additions,
    n 2^(n-1) lanes per transform pass, after O(n m) histogram updates for m
    ballots.
    """
    n = params.n
    f = params.int_table
    mu = params.int_mu
    bits = n - 1
    lanes = 1 << bits
    voters = profile.voters
    # the row constants by |placed| = 0..n: positional mass and measure term
    # (the full mask, |placed| = n, holds c and is never read)
    position = _position_constants(params, profile)[1:] + [0]
    spread = [f[n - 1 - k] * voters for k in range(n)] + [0]
    # w_{|T|+1} for the lanes S = complement of T, by |S| = bits - |T|
    lane_weights = ((0,) + params.int_weights)[::-1]
    # a transform lane sums at most 2^bits weighted counts; a row value
    # |P + mu (f V - 2 overlap)| has every part within max|mu f| V, and
    # needs a sign bit
    overlap_bound = (max(map(abs, lane_weights)) or 1) * voters << bits
    row_bound = 4 * max(map(abs, mu)) * max(map(abs, f)) * voters
    words = (max(overlap_bound, 2 * row_bound).bit_length() + 63) // 64
    width = 64 * words
    lack, by_size, ones = _lane_masks(bits, width)
    # a lane bit above every row value: with it added, every lane is
    # nonnegative, and xor-ing it back leaves each lane in two's complement
    bias = sum(ones) << (width - 1)
    # the constants, lane by lane: a placed set without c has the lane's
    # size, one holding c is one larger
    base = sum(map(mul, position, ones))
    step = sum(map(mul, map(sub, position[1:], position), ones))
    base_slope = sum(map(mul, spread, ones))
    step_slope = sum(map(mul, map(sub, spread[1:], spread), ones))

    stride = 8 * words
    counts: dict[int, int] = {}
    for mult, v in profile.entries:
        for c, below in enumerate(v._below):
            low = (1 << c) - 1
            slot = c * lanes + (lanes - 1 - (below & low | below >> 1 & ~low))
            counts[slot] = counts.get(slot, 0) + mult
    packed = bytearray(stride * n * lanes)
    for slot, count in counts.items():
        packed[slot * stride : (slot + 1) * stride] = count.to_bytes(stride, "little")
    view = memoryview(packed)

    size = 1 << n
    rows = []
    for c in range(n):
        x = int.from_bytes(view[c * lanes * stride : (c + 1) * lanes * stride], "little")
        for j in range(bits):
            x += (x & lack[j]) << (width << j)
        plus = minus = 0
        for k, w in enumerate(lane_weights):
            if w > 0:
                plus += w * (x & by_size[k])
            elif w < 0:
                minus -= w * (x & by_size[k])
        for j in range(bits):
            plus += (plus >> (width << j)) & lack[j]
            minus += (minus >> (width << j)) & lack[j]
        without = base + mu[c] * (base_slope - 2 * (plus - minus))
        holding = without + step + mu[c] * step_slope
        without = _unpack_lanes((without + bias) ^ bias, lanes, words)
        holding = _unpack_lanes((holding + bias) ^ bias, lanes, words)
        # insert bit c into the lane index: runs of 2^c lanes without c,
        # then the same runs with c
        row = [0] * size
        run = 1 << c
        if run * run <= lanes:
            for o in range(run):
                row[o :: 2 * run] = without[o::run]
                row[o + run :: 2 * run] = holding[o::run]
        else:
            for t in range(0, lanes, run):
                row[2 * t : 2 * t + run] = without[t : t + run]
                row[2 * t + run : 2 * t + 2 * run] = holding[t : t + run]
        rows.append(row)
    return rows, params.weights_scale * params.mu_scale


def _masks_by_size(pool: tuple[int, ...], depth: int) -> list[list[int]]:
    """Subset bitmasks of ``pool`` (candidate labels) grouped by popcount."""
    layers: list[list[int]] = []
    for size in range(depth + 1):
        layers.append(
            [
                sum(1 << (c - 1) for c in combo)
                for combo in combinations(pool, size)
            ]
        )
    return layers


def _tight_orders(
    mask: int,
    best: list[int],
    rows: list[list[int]],
    tails: dict[int, list[tuple[int, ...]]],
) -> list[tuple[int, ...]]:
    """Every order of the candidates in ``mask`` that reaches ``best[mask]``.

    Walks the DP's tight edges back to the empty set, memoised per mask in
    ``tails`` (seeded with the empty order).
    """
    cached = tails.get(mask)
    if cached is not None:
        return cached
    out = []
    rest = mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        prev = mask ^ bit
        candidate = bit.bit_length()
        if best[prev] + rows[candidate - 1][prev] == best[mask]:
            prefixes = _tight_orders(prev, best, rows, tails)
            out.extend(map(add, prefixes, repeat((candidate,))))
    tails[mask] = out
    return out


def aggregate_exact(params: DistanceParams, profile: Profile) -> AggregationResult:
    """The full set of rankings minimising the aggregate distance.

    Dynamic programming over candidate subsets, priced from ``_term_table``
    (O(n^2 2^n + n m) for m ballots, in packed passes over n 2^(n-1) lanes)
    and relaxed in numeric mask order over a flat list; every tied minimiser
    is reconstructed along the tight DP edges, in lexicographic order, as
    bare tuples: they are bijections by construction, so they become
    ``Permutation``s without the public constructor's check, and their
    position and down-set tables are only derived if a caller reads them.  Guarded to n <= 10, since every tied
    minimiser is still built (a zero measure ties all n! rankings).
    """
    n = params.n
    if profile.n != n:
        raise ValueError(f"dimension mismatch: params over {n}, profile over {profile.n}")
    if n > EXACT_CANDIDATE_LIMIT:
        raise ValueError(
            f"exact search over {n} candidates exceeds the n <= "
            f"{EXACT_CANDIDATE_LIMIT} guard"
        )
    rows, scale = _term_table(params, profile)
    full = (1 << n) - 1
    # best[mask]: cheapest order of the candidates in mask on positions
    # 1..|mask|; every mask minus one member comes before it numerically
    best = [0] * (full + 1)
    for mask in range(1, full + 1):
        value = None
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            prev = mask ^ bit
            cur = best[prev] + rows[bit.bit_length() - 1][prev]
            if value is None or cur < value:
                value = cur
        best[mask] = value

    optimum = Fraction(best[full], scale)
    orders = _tight_orders(full, best, rows, {0: [()]})
    minimizers = tuple(map(Permutation._trusted, sorted(orders)))
    winners = frozenset(p.order[0] for p in minimizers)
    return AggregationResult(
        method="exact",
        minimizers=minimizers,
        optimum=optimum,
        winners=winners,
        certificate=optimum,
    )


def footrule_position_costs(
    params: DistanceParams, profile: Profile
) -> tuple[list[list[int]], int]:
    """Cost of pinning candidate c (row) at position p (column).

    The costs are integers; divided by the returned scale they are the
    footrule terms ``mu_c * sum_v mult_v |f(n - p) - f(|down-set of c in v|)|``.
    """
    n = params.n
    f = params.int_table
    mu = params.int_mu
    costs = []
    for c in range(n):
        masses = [(mult, f[v._below[c].bit_count()]) for mult, v in profile.entries]
        costs.append(
            [
                mu[c] * sum(mult * abs(f[n - p] - mass) for mult, mass in masses)
                for p in range(1, n + 1)
            ]
        )
    return costs, params.weights_scale * params.mu_scale


def aggregate_footrule(
    weights: MenuWeights, profile: Profile, mu: Measure | None = None
) -> AggregationResult:
    """Minimise the aggregate footrule by a candidate-to-position matching.

    Nonnegative menu weights required; for a non-counting measure it must be
    strictly positive.  The certificate is the true aggregate distance of the
    matched ranking, which stays within ``approximation_factor(weights)``
    (times the measure's spread, when weighted) of the exact optimum.
    """
    if not weights.is_nonnegative():
        raise ValueError("footrule aggregation needs nonnegative menu weights")
    if mu is not None and not mu.is_positive():
        raise ValueError("weighted footrule aggregation needs a strictly positive measure")
    if profile.n != weights.n:
        raise ValueError(
            f"dimension mismatch: weights over {weights.n}, profile over {profile.n}"
        )
    params = make_params(weights, mu)
    costs, scale = footrule_position_costs(params, profile)
    cols, total = min_cost_assignment(costs)
    order = [0] * weights.n
    for c, p in enumerate(cols, start=1):
        order[p] = c
    ranking = Permutation(order)
    return AggregationResult(
        method="footrule",
        minimizers=(ranking,),
        optimum=Fraction(total, scale),
        winners=frozenset({ranking.order[0]}),
        certificate=profile_cost(params, ranking, profile),
    )


def _majority_prefix(profile: Profile) -> tuple[list[int], set[int]]:
    """Greedily pull out candidates a strict voter majority ranks top."""
    n = profile.n
    total = profile.voters
    remaining = set(range(1, n + 1))
    prefix: list[int] = []
    while remaining:
        pool_mask = sum(1 << (c - 1) for c in remaining)
        placed = None
        for c in sorted(remaining):
            rivals = pool_mask & ~(1 << (c - 1))
            count = sum(
                mult
                for mult, v in profile.entries
                if rivals & ~v._below[c - 1] == 0
            )
            if 2 * count > total:
                placed = c
                break
        if placed is None:
            break
        prefix.append(placed)
        remaining.remove(placed)
    return prefix, remaining


def aggregate_myopic(
    params: DistanceParams, profile: Profile, depth: int
) -> AggregationResult:
    """Majority prefix, then exhaustive search of one truncated window.

    After the greedy prefix of strict-majority favourites, the next
    ``min(depth, remaining)`` positions are optimised against the truncated
    objective (a subset DP); candidates never reached by the window follow in
    ascending label order, which the window objective cannot distinguish.

    The DP visits every subset of the remaining candidates with at most
    ``min(depth, remaining)`` members, so that count is checked before any of
    them is built: above ``MYOPIC_SUBSET_LIMIT`` (2^16) it raises
    ``ValueError``.  At the limit, a full window over 16 candidates and 40
    distinct ballots (ok-nishimura weights) took 3.9-4.4 s on a 2-core VM
    with Python 3.11, about 60 us a subset.
    """
    if depth < 1:
        raise ValueError("window depth must be at least 1")
    if not params.weights.is_nonnegative():
        raise ValueError("the myopic scheme needs nonnegative menu weights")
    if profile.n != params.n:
        raise ValueError(f"dimension mismatch: params over {params.n}, profile over {profile.n}")
    n = params.n
    prefix, remaining = _majority_prefix(profile)
    span = min(depth, len(remaining))
    subsets = sum(comb(len(remaining), size) for size in range(span + 1))
    if subsets > MYOPIC_SUBSET_LIMIT:
        raise ValueError(
            f"myopic window of depth {span} over {len(remaining)} candidates "
            f"visits {subsets} subsets, over the {MYOPIC_SUBSET_LIMIT} guard"
        )
    start = len(prefix) + 1
    prefix_mask = sum(1 << (c - 1) for c in prefix)

    window: list[int] = []
    window_value = Fraction(0)
    if span > 0:
        term, scale = _position_terms(params, profile)
        pool = tuple(sorted(remaining))
        layers = _masks_by_size(pool, span)
        # completion[mask]: cheapest way to extend the placed window ``mask``
        # to a full span; build bottom-up from the deepest layer
        completion: dict[int, int] = {mask: 0 for mask in layers[span]}
        for size in range(span - 1, -1, -1):
            for mask in layers[size]:
                value = None
                for c in pool:
                    bit = 1 << (c - 1)
                    if mask & bit:
                        continue
                    cur = (
                        term(start + size, c, prefix_mask | mask)
                        + completion[mask | bit]
                    )
                    if value is None or cur < value:
                        value = cur
                completion[mask] = value
        window_value = Fraction(completion[0], scale)
        mask = 0
        while len(window) < span:
            size = len(window)
            for c in pool:
                bit = 1 << (c - 1)
                if mask & bit:
                    continue
                step = term(start + size, c, prefix_mask | mask)
                if step + completion[mask | bit] == completion[mask]:
                    window.append(c)
                    mask |= bit
                    break

    tail = sorted(remaining - set(window))
    ranking = Permutation(prefix + window + tail)
    return AggregationResult(
        method="myopic",
        minimizers=(ranking,),
        optimum=window_value,
        winners=frozenset({ranking.order[0]}),
        certificate=profile_cost(params, ranking, profile),
    )


PTAS_RULES = ("affine", "exponential", "alternating", "custom")


def truncation_ratio(weights: MenuWeights, t: int, depth: int) -> Fraction:
    """Mass the window of size ``depth`` ignores, relative to the top swap price,
    for a pool of ``t`` candidates.

    With f = ``downset_mass`` this is ``sum_{s < t - depth} f(s)`` over the
    price ``f(t - 1) - f(t - 2)``; by the hockey-stick identity the numerator
    is ``sum_j w_j C(t - depth, j)`` and the denominator
    ``sum_j w_j C(t - 2, j - 2)``.
    """
    numerator = sum(
        (downset_mass(weights, s) for s in range(t - depth)), Fraction(0)
    )
    denominator = downset_mass(weights, t - 1) - downset_mass(weights, t - 2)
    if denominator <= 0:
        raise ValueError("truncation ratio needs a positive size-2 weight")
    return numerator / denominator


def _ceil_log(base: Fraction, x: Fraction) -> int:
    """Smallest integer k >= 0 with base^k >= x (base > 1)."""
    k = 0
    power = Fraction(1)
    while power < x:
        power *= base
        k += 1
    return k


def ptas_depth(
    rule: str,
    inv_epsilon: Rational,
    n: int | None = None,
    alpha: Rational | None = None,
    weights: MenuWeights | None = None,
) -> int:
    """Window depth guaranteeing the myopic scheme a (1 + eps) factor.

    Closed forms exist for three weight growth rules (as functions of the
    menu-size index j >= 2):

    affine        w_j = j + 1          -> ceil(log2(4 / eps))
    exponential   w_j = (alpha - 1)^j  -> ceil(log_alpha(alpha^2 / ((alpha-1)^2 eps)))
    alternating   w_j = 1 + (-1)^j     -> ceil(log2(4 / eps))

    ``custom`` takes an explicit weight vector plus its horizon ``n`` and
    returns the smallest depth whose truncation ratio stays below eps for
    every pool size up to ``n``.
    """
    eps = 1 / as_fraction(inv_epsilon)
    if eps <= 0:
        raise ValueError("1/epsilon must be positive")
    if rule == "affine" or rule == "alternating":
        return max(1, _ceil_log(Fraction(2), 4 / eps))
    if rule == "exponential":
        if alpha is None:
            raise ValueError("the exponential rule needs alpha > 1")
        alpha = as_fraction(alpha)
        if alpha <= 1:
            raise ValueError(f"the exponential rule needs alpha > 1, got {alpha}")
        return max(1, _ceil_log(alpha, alpha**2 / ((alpha - 1) ** 2 * eps)))
    if rule == "custom":
        if weights is None or n is None:
            raise ValueError("the custom rule needs explicit weights and a horizon n")
        if not weights.is_nonnegative() or weights.values[0] <= 0:
            raise ValueError("custom depths need nonnegative weights with w_2 > 0")
        # truncation_ratio(weights, t, depth) is prefix[t - depth] over
        # f(t - 1) - f(t - 2), both scaled alike, with f tabulated up to n - 1
        int_weights, scale = weights.scaled
        f = scaled_downset_table(int_weights, scale)[0] + tuple(
            _scaled_mass(int_weights, t) for t in range(weights.n, n)
        )
        prefix = [0, *accumulate(f)]
        for depth in range(1, n + 1):
            if all(
                Fraction(prefix[t - depth], f[t - 1] - f[t - 2]) <= eps
                for t in range(max(depth, 2), n + 1)
            ):
                return depth
        return n
    raise ValueError(f"unknown depth rule {rule!r}; choose from {PTAS_RULES}")


def ptas_weights(rule: str, n: int, alpha: Rational | None = None) -> MenuWeights:
    """The weight vector of a named growth rule, truncated to dimension n."""
    sizes = range(2, n + 1)
    if rule == "affine":
        return MenuWeights([Fraction(j + 1) for j in sizes])
    if rule == "alternating":
        return MenuWeights([Fraction(1 + (-1) ** j) for j in sizes])
    if rule == "exponential":
        if alpha is None:
            raise ValueError("the exponential rule needs alpha > 1")
        alpha = as_fraction(alpha)
        if alpha <= 1:
            raise ValueError(f"the exponential rule needs alpha > 1, got {alpha}")
        return MenuWeights([(alpha - 1) ** j for j in sizes])
    raise ValueError(f"no weight vector for rule {rule!r}")

"""Median rank aggregation: exact consensus sets and approximation schemes.

Everything here exploits one decomposition: the aggregate distance from a
ranking to a profile is a sum of per-position terms, where the term for
position i depends only on the candidate placed there and on the *set*
placed before it.  That turns the search over n! orders into dynamic
programming over 2^n subsets, which is how the exact solver finds the full
argmin set, and how the myopic scheme minimises its truncated window.  The
exact solver relaxes each placed set's edges in increasing candidate order,
read from one cached table per n (``_free_pairs``) that lists the
candidates each mask lacks, and keeps the argmin set as the DAG of tight
edges of its cost-to-go table (``ConsensusSet``): path counting, done on
the first read that needs it, gives its size, the edges out of the empty
set give its winners, the path counts unrank any one ranking in O(n^2), and
iteration walks the DAG one ranking at a time.  Printed, the set meets in
the middle: the masks below a middle layer fold their text blocks in the
order the path counts are, the paths down to that layer become head
strings, and each output line is written once, when a head is put before
the lines of its block, so no ranking becomes an object or a string of its
own.

The exact solver reads every term from one integer table built per
(parameters, profile) by two subset zeta transforms (Yates' algorithm, as in
Bjorklund, Husfeldt, Kaski and Koivisto's "Fourier meets Moebius"): a
candidate's overlap with the ballots' down-sets is a subset-sum of its
down-set histogram's superset-sums, weighted by the menu weights.  The tables
hold n 2^(n-1) lanes, 2^(n-1) per candidate (a down-set never holds its own
candidate), and each candidate's lanes are packed into one Python integer,
so a transform pass is one shift, one mask and one add.  A lane is as narrow
as the largest sum it can hold allows (16 or 32 bits for the presets at
n = 10), which sets how long each packed integer is.  That costs
O(n^2 2^n + n m) lane additions for m ballots, against O(n 2^n m) for
pricing each DP edge ballot by ballot.  The myopic window visits too few
placed sets for a full table to pay.  ``_window_terms`` prices all of one
window at once instead, one packed integer per placed window with a lane per
pool candidate.  By inclusion-exclusion over the placed set (the backward
differences of ``_differences``), each overlap is a sum, over the subsets S of
the placed set, of a term that reads each ballot once, at the top member of
S; one zeta pass sums them, adding each mask of the layers below the deepest
into its supersets one member larger (the deepest layer, of span - 1
members, is only read).  ``aggregate_myopic`` keeps only the recurrence: a
deepest mask takes one ``min`` over its unpacked lanes, with its placed
members' lanes set above every term, and each mask above it relaxes its
edges one by one.  ``_position_terms`` prices one term ballot by ballot, and
is the tests' referee for both routes.

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

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, filterfalse, islice
from math import ceil, comb, floor
from operator import eq, getitem, index, lshift, mul
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
    _mass_table,
    _scaled_mass,
    as_fraction,
    make_params,
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
    returned ranking(s).  ``minimizers`` is a ``ConsensusSet`` for every
    method, holding one ranking for the approximate ones; ``winners`` is
    derived from it, the labels its rankings put first.
    """

    method: Literal["exact", "footrule", "myopic"]
    minimizers: ConsensusSet
    optimum: Fraction
    certificate: Fraction

    @property
    def winners(self) -> frozenset[int]:
        """The labels of the minimizers' edges out of the empty set."""
        return frozenset(c + 1 for c in self.minimizers._dag[0])


def _one_ranking(method: str, params: DistanceParams, profile: Profile, ranking: Permutation,
                 optimum: Fraction) -> AggregationResult:
    """An approximate answer: ``ranking`` alone, certified by its true cost."""
    return AggregationResult(method, ConsensusSet.of_ranking(ranking), optimum,
                             profile_cost(params, ranking, profile))


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

    return term, params.scale


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


# struct codes of the signed lanes one struct format reads: "<" fixes both
# the size and the byte order
_LANE_CODES = {16: "h", 32: "i", 64: "q"}


def _lane_width(params: DistanceParams, voters: int) -> int:
    """Bits per lane of ``_term_table`` and ``_window_terms`` for ``voters``
    voters: 16, 32 or 64, or 64 k above that, whichever is the narrowest to
    hold both bounds below and a sign bit.

    A lane first holds a histogram count and its subset-sums, at most V.  A
    transform lane then holds part of the positive or the negative overlap,
    ``sum_v mult_v f+(|B_v(c) & U|)`` or its f- twin, where f+ and f- are
    the down-set masses over the positive and the negative menu weights, so
    it is at most ``V max(f+(n - 1), f-(n - 1))``; that covers the counts
    unless every weight is 0, hence the 1.  A row value, or a window term,
    ``P + mu (f V - 2 overlap)`` has every part within ``max|mu f| V``.
    """
    n = params.n
    weights = params.weights.scaled[0]
    overlap_bound = voters * max(
        _scaled_mass(tuple(max(w, 0) for w in weights), n - 1),
        _scaled_mass(tuple(max(-w, 0) for w in weights), n - 1),
        1,
    )
    row_bound = 4 * max(map(abs, params.int_mu)) * max(map(abs, params.int_table)) * voters
    bits = (max(overlap_bound, row_bound) << 1).bit_length()
    if bits <= 32:
        return 16 if bits <= 16 else 32
    return 64 * -(-bits // 64)


def _pack_lanes(values: Sequence[int], width: int) -> int:
    """``values`` as signed lanes of ``width`` bits each in one integer:
    lane i holds ``values[i]`` in two's complement in bits ``width i``
    upward.  Lanes of 16, 32 or 64 bits are written by one struct format, a
    wider lane (64 k bits) by its own ``int.to_bytes``."""
    if width in _LANE_CODES:
        data = struct.pack(f"<{len(values)}{_LANE_CODES[width]}", *values)
    else:
        data = b"".join([value.to_bytes(width // 8, "little", signed=True) for value in values])
    return int.from_bytes(data, "little")


def _unpack_lanes(packed: int, lanes: int, width: int) -> list[int]:
    """The ``lanes`` signed lanes of ``width`` bits each in ``packed``, the
    inverse of ``_pack_lanes``: lanes of 16, 32 or 64 bits are read by one
    struct format, a wider lane by its own ``int.from_bytes``."""
    size = width // 8
    data = packed.to_bytes(size * lanes, "little")
    if width in _LANE_CODES:
        return list(struct.unpack(f"<{lanes}{_LANE_CODES[width]}", data))
    return [
        int.from_bytes(data[i : i + size], "little", signed=True)
        for i in range(0, len(data), size)
    ]


def _lane_tops(lanes: int, width: int) -> int:
    """The top bit of each of ``lanes`` lanes of ``width`` bits."""
    return ((1 << width * lanes) - 1) // ((1 << width) - 1) << (width - 1)


def _term_table(
    params: DistanceParams, profile: Profile
) -> tuple[list[list[int]], int]:
    """Every term of ``_position_terms`` at once, without a per-ballot loop.

    ``rows[c - 1][placed]`` equals ``term(|placed| + 1, c, placed)`` for every
    mask ``placed`` without c, and is 0 at the masks holding c, which the DP
    never reads.  The term's only profile-dependent part is the overlap
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

    The lanes are as narrow as the bounds in ``_lane_width`` allow: 16 bits
    for the Kendall distance and 32 for the other presets at n = 10 with up
    to 150 voters.  Each pass costs time linear in the packed length, so a
    lane half as wide halves it.  Each candidate's histogram is one list of
    2^(n-1) counts, packed into one integer by ``_pack_lanes``; its row
    values are read back by ``_unpack_lanes``.
    """
    n = params.n
    f = params.int_table
    mu = params.int_mu
    bits = n - 1
    lanes = 1 << bits
    voters = profile.voters
    # the row constants by |placed| = 0..n-1: positional mass and measure term
    position = _position_constants(params, profile)[1:]
    spread = [f[n - 1 - k] * voters for k in range(n)]
    # w_{|T|+1} for the lanes S = complement of T, by |S| = bits - |T|
    lane_weights = ((0,) + params.weights.scaled[0])[::-1]
    width = _lane_width(params, voters)
    lack, by_size, ones = _lane_masks(bits, width)
    # a lane bit above every row value: with it added, every lane is
    # nonnegative, and xor-ing it back leaves each lane in two's complement
    bias = _lane_tops(lanes, width)
    # the constants, lane by lane: a placed set without c has the lane's size
    base = sum(map(mul, position, ones))
    base_slope = sum(map(mul, spread, ones))
    ballots = [(mult, v._below) for mult, v in profile.entries]

    size = 1 << n
    rows = []
    for c in range(n):
        # candidate c's histogram: each down-set counted at its complement,
        # indexed by sets of the other candidates
        low = (1 << c) - 1
        counts = [0] * lanes
        for mult, belows in ballots:
            below = belows[c]
            counts[lanes - 1 - (below & low | below >> 1 & ~low)] += mult
        x = _pack_lanes(counts, width)
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
        without = _unpack_lanes((without + bias) ^ bias, lanes, width)
        # insert a clear bit c into the lane index: runs of 2^c lanes go to
        # the masks without c, and the runs between them (with c) stay 0
        row = [0] * size
        run = 1 << c
        if run * run <= lanes:
            for o in range(run):
                row[o :: 2 * run] = without[o::run]
        else:
            for t in range(0, lanes, run):
                row[2 * t : 2 * t + run] = without[t : t + run]
        rows.append(row)
    return rows, params.scale


def _differences(table: Sequence[int], size: int, depth: int) -> list[list[int]]:
    """``rows[j][d]``, the j-th backward difference of ``table`` at d, for
    j < ``depth`` and j <= d < ``size``; the entries below j are 0 and unread.

    With ``nabla g(d) = g(d) - g(d - 1)``, ``1 - nabla`` is the backward
    shift, so ``g(d - k) = sum_i (-1)^i C(k, i) nabla^i g(d)`` for k <= d:
    the identity ``_window_terms`` rests on.  It holds for any integers, so
    for menu weights of any sign.
    """
    rows = [list(table[:size])]
    for j in range(1, depth):
        prev = rows[-1]
        rows.append([0] * j + [prev[d] - prev[d - 1] for d in range(j, size)])
    return rows


def _window_terms(
    params: DistanceParams, profile: Profile, pool: tuple[int, ...], span: int
) -> tuple[dict[int, int], int]:
    """Every term of one myopic window, one packed integer per placed window.

    The window follows the n - p candidates outside ``pool`` (p = |pool|,
    sorted; the majority prefix), so placing pool candidate c after a placed
    window M costs ``term(n - p + |M| + 1, c, prefix | M)`` of
    ``_position_terms``, whose free set is pool - M.  ``table[M]``, for each M
    of fewer than ``span`` members, holds that term for c = pool[i] in lane i,
    as ``sum_i term_i 2^(width i)`` with signed terms.  The lane of a member
    c of M holds layer |M|'s constant plus c's overlap part after M - {c},
    which nothing reads.  Every lane is within the row bound of
    ``_lane_width``, which sets ``width``.  No term is priced on its own.

    For a ballot v write D = B_v(c) & pool and d = |D|.  By the identity in
    ``_differences``, f(|D - M|) is the sum over S within M & D of
    (-1)^|S| nabla^|S| f(d), and S lies within B_v(c) exactly when v ranks c
    above top_v(S), the highest-placed member of S.  So the overlap part
    ``-2 mu_c sum_v mult_v f(|D - M|)`` is the sum of T_c(S) over S within M,
    where ``T(S) = sum_v pre_v^|S|[top_v(S)]`` and lane c of the prefix
    ``pre_v^j[q]`` is ``(-1)^(j+1) 2 mu_c mult_v nabla^j f(d)`` when c is
    among v's first q pool candidates, else 0.  The layer constants (the
    position mass and the spread ``mu_c f(p - 1 - |M|) V``) enter T as
    ``start[|S|]``, their binomial inverse, so that the sum of start over S
    within M is layer |M|'s constant.

    T is built a layer at a time.  T(empty set) and each T({x}) are summed
    one ballot entry at a time, as x's top in v is its rank there.  Above
    that, the tops of S + {x} (x above S's members in pool order, so each S
    comes once) are one SWAR lane-min of S's tops and x's ranks, a lane per
    ballot entry, and T(S) is one C-level ``sum(map(getitem, ...))`` over
    that layer's prefix vectors; only the layer being extended keeps its
    tops, and each layer's prefixes live only while it is built.  One zeta
    pass over these down-closed layers then turns T into the terms in place:
    bit by bit, each mask of the lower layers (fewer than span - 1 members)
    that lacks the bit is added into the mask with it.  The deepest layer
    (span - 1 members) is read, never added, so the pass walks the lower
    layers alone: O(p) packed additions for each of their masks, and none
    per (M, c) pair.

    The table's keys are its only list of placed windows, and their order is
    part of the contract: the empty set, then the singletons, then layer
    j = 2, 3, ... in turn, each mask inserted once and never added later
    (the zeta pass rewrites values only).  So the lower layers are a prefix
    of the keys, and reversed, the keys open with the deepest layer and
    reach every mask after every mask one member larger, as
    ``aggregate_myopic``'s recurrence needs.
    """
    voters = profile.voters
    width = _lane_width(params, voters)
    n, p = params.n, len(pool)
    f = params.int_table
    shifts = [width * i for i in range(p)]
    bits = [1 << (c - 1) for c in pool]
    mu = [params.int_mu[c - 1] for c in pool]
    rank = {c: i for i, c in enumerate(pool)}
    # each ballot entry's pool candidates, as pool indices, in its order
    orders = [(mult, [rank[c] for c in v.order if c in rank]) for mult, v in profile.entries]
    position = _position_constants(params, profile)
    base = [
        sum(map(lshift, [position[n - p + 1 + k] + mu_c * f[p - 1 - k] * voters for mu_c in mu],
                shifts))
        for k in range(span)
    ]
    start = [sum((-1) ** (j - i) * comb(j, i) * base[i] for i in range(j + 1))
             for j in range(span)]
    nabla = _differences(f, p, span)

    def lanes(j: int, mult: int, order: list[int]) -> list[int]:
        """One ballot entry's layer-j lane values, packed, in its order."""
        row, sign = nabla[j], 2 * mult if j % 2 else -2 * mult
        return [(sign * mu[i] * row[p - 1 - r]) << shifts[i] for r, i in enumerate(order)]

    # the tops are pool ranks, in lanes whose top bit stays clear for the
    # lane-min; 8-bit lanes (p <= 128) are read as the bytes of the integer
    top_width = 8
    while p > 1 << (top_width - 1):
        top_width <<= 1
    entries, high = len(orders), _lane_tops(len(orders), top_width)
    ranks = [0] * p  # pool candidate i's rank in each ballot entry, a lane each
    overlaps = [0] * p  # sum_v mult_v f(d_v(c)): T(empty set) is -2 mu_c times it
    singles = [start[1]] * p if span > 1 else []
    for k, (mult, order) in enumerate(orders):
        for r, i in enumerate(order):
            ranks[i] |= r << top_width * k
            overlaps[i] += mult * f[p - 1 - r]
        if span > 1:
            for i, pre in zip(order, accumulate(lanes(1, mult, order), initial=0)):
                singles[i] += pre
    table = {0: start[0] - 2 * sum(map(lshift, map(mul, mu, overlaps), shifts))}
    table.update(zip(bits, singles))
    level = list(zip(bits, range(p), ranks))  # (S, S's last pool index, S's tops)
    for j in range(2, span):
        pre = [list(accumulate(lanes(j, mult, order), initial=0)) for mult, order in orders]
        start_j, extended = start[j], []
        for mask, last, tops in level:
            for x in range(last + 1, p):
                ranks_x, subset = ranks[x], mask | bits[x]
                above = ((tops | high) - ranks_x) & high  # lanes where tops >= ranks_x
                tops_x = tops ^ ((tops ^ ranks_x) & (above - (above >> (top_width - 1))))
                tops_read = (tops_x.to_bytes(entries, "little") if top_width == 8
                             else _unpack_lanes(tops_x, entries, top_width))
                table[subset] = sum(map(getitem, pre, tops_read), start_j)
                if j + 1 < span:
                    extended.append((subset, x, tops_x))
        level = extended
    lower = list(islice(table, len(table) - comb(p, span - 1)))
    for bit in bits:
        for mask in filterfalse(bit.__and__, lower):
            table[mask | bit] += table[mask]
    return table, width


@lru_cache(maxsize=None)
def _free_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per mask over n candidates, the pairs ``(c, 1 << c)`` of the
    candidates it lacks, in increasing c: the edges out of that placed set.

    Built by doubling: a mask without bit n - 1 lacks what its low bits lack
    and n - 1 too, a mask with it lacks just what its low bits lack.  So the
    upper half of the table is the table for n - 1, and every entry shares
    the same n pair objects.  Cached per n for the process; its size and
    build time are in ``aggregate_exact``.
    """
    if n == 0:
        return ((),)
    below = _free_pairs(n - 1)
    last = ((n - 1, 1 << (n - 1)),)
    return tuple([pairs + last for pairs in below]) + below


def _cost_to_go(rows: list[list[int]]) -> list[int]:
    """``togo[mask]``: the cheapest order of the candidates outside mask on
    positions |mask|+1..n, relaxed in decreasing mask order over a flat list
    (every mask plus one candidate comes after it numerically).  Each mask
    takes its edges from ``_free_pairs``, in increasing c."""
    free = _free_pairs(len(rows))
    togo = [0] * len(free)
    for mask in range(len(free) - 2, -1, -1):
        value = None
        for c, bit in free[mask]:
            cur = rows[c][mask] + togo[mask | bit]
            if value is None or cur < value:
                value = cur
        togo[mask] = value
    return togo


def _tight_dag(rows: list[list[int]], togo: list[int]) -> dict[int, tuple[int, ...]]:
    """The tight edges out of every placed set on an optimal path, the masks
    in order of size (the full mask, with no edge, has no entry).

    Edge (mask, c), placing candidate c + 1 next, is tight when its term plus
    the cost-to-go after it equals ``togo[mask]``.  The masks are reached
    from the empty set one size at a time, so each edge is tested once, in
    increasing c from ``_free_pairs``.
    """
    full = len(togo) - 1
    free = _free_pairs(len(rows))
    dag: dict[int, tuple[int, ...]] = {}
    frontier = [0]
    while frontier[0] != full:
        reached = {}
        for mask in frontier:
            goal = togo[mask]
            tight = []
            for c, bit in free[mask]:
                if rows[c][mask] + togo[mask | bit] == goal:
                    tight.append(c)
                    reached[mask | bit] = None
            dag[mask] = tuple(tight)
        frontier = list(reached)
    return dag


def _orders(dag: dict[int, tuple[int, ...]], mask: int, head: tuple[int, ...]):
    """Every path on from ``mask`` through ``dag`` as ``head`` and then its
    labels, in lexicographic order, one tuple at a time.  Module-level, so
    that its recursion forms no reference cycle."""
    for c in dag.get(mask, ()):
        step = mask | 1 << c
        edges = dag.get(step)
        if edges is None:
            yield head + (c + 1,)
        elif step | 1 << edges[0] in dag:
            yield from _orders(dag, step, head + (c + 1,))
        else:  # one label left: its edge is the last, so no generator for it
            yield head + (c + 1, edges[0] + 1)


def _first(dag: dict[int, tuple[int, ...]], mask: int, last: int, breaks, memo: dict):
    """The lexicographically first path on from ``mask``, reached by placing
    ``last``, with a step ``breaks`` accepts, as labels, or None; after that
    step it takes the lowest edges.  Memoised per (mask, last)."""
    key = mask, last
    if key not in memo:
        memo[key] = None
        for c in dag.get(mask, ()):  # the full mask has no entry
            step = mask | 1 << c
            if breaks(last, mask, c + 1):
                rest = next(_orders(dag, step, ()), ())  # the lowest edges on
            else:
                rest = _first(dag, step, c + 1, breaks, memo)
            if rest is not None:
                memo[key] = (c + 1, *rest)
                break
    return memo[key]


class ConsensusSet(Sequence):
    """A consensus set kept as a DAG: the DP's tight edges, or one path.

    A read-only sequence of ``Permutation``s in lexicographic order, none
    kept: ``len`` counts the optimal paths, indexing unranks a ranking from
    the path counts in O(n^2), ``in``, ``index`` and ``count`` follow the
    ranking's own path in O(n^2), and iterating (as ``hash``, ``repr`` and
    ``==`` against a tuple do) walks the DAG one ranking at a time.  The
    paths are counted once, by the first read that needs them (``len``,
    indexing, ``in``, ``index``, ``count``); comparing two sets, relabelling,
    ``first``, ``adjacent_pairs``, ``text``, iterating and pickling never
    count.  ``text`` prints the set as one string of lines by meeting in the
    middle of the DAG, each line written once, without building a ranking.
    It equals, and hashes like, the tuple of its rankings.  The DAG is a
    canonical form of the set (every edge in it lies on an optimal path), so
    two views compare (``==``, and ``<=`` for inclusion), and ``first`` and
    ``adjacent_pairs`` answer, from the DAGs.
    """

    __slots__ = ("_n", "_dag", "_paths")

    def __init__(self, n: int, dag: dict[int, tuple[int, ...]]):
        self._n = n
        self._dag = dag

    def __getattr__(self, name):
        # Python calls this only while the slot ``name`` is unset: the first
        # read of ``_paths`` counts the optimal paths on from each mask, back
        # from the largest, and every later read is a plain slot read
        if name != "_paths":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dag = self._dag
        self._paths = paths = {(1 << self._n) - 1: 1}
        for mask in reversed(dag):
            paths[mask] = sum(paths[mask | 1 << c] for c in dag[mask])
        return paths

    @classmethod
    def of_ranking(cls, ranking: Permutation) -> "ConsensusSet":
        """The set holding ``ranking`` alone: one edge out of each of its
        prefixes, and none out of the full mask."""
        dag, mask = {}, 0
        for c in ranking.order:
            dag[mask] = (c - 1,)
            mask |= 1 << (c - 1)
        return cls(ranking.n, dag)

    def text(self, indent: str = "") -> str:
        """The rankings as one block of lines, in order, each ``indent`` and
        then ``str`` of the ranking (``indent + "2 3 1"``), with no final
        newline, written by meeting in the middle at depth
        h = max((n - 1) // 2, 1).  Below it, a mask of h or more members
        folds its block (its paths on, each line after a newline) from its
        tight edges c as the path counts are: the block after c with c's
        label put after every newline by one ``replace``.  Above it, the
        h-step paths out of the empty set become head strings, in order, and
        each output line is written once, by one ``replace`` of the newlines
        in the block where its head ends; no ranking is built in Python."""
        n, dag = self._n, self._dag
        depth = max((n - 1) // 2, 1)
        labels = [f" {c}" for c in range(1, n + 1)]
        tokens = ["\n" + label for label in labels]
        blocks = {(1 << n) - 1: "\n"}
        for mask in reversed(dag):  # the masks in order of size, largest first
            if mask.bit_count() < depth:
                break
            blocks[mask] = "".join([blocks[mask | 1 << c].replace("\n", tokens[c]) for c in dag[mask]])
        heads = [(1 << c, f"\n{indent}{c + 1}") for c in dag[0]]
        for _ in range(1, depth):
            heads = [(mask | 1 << c, head + labels[c]) for mask, head in heads for c in dag[mask]]
        lines = [blocks[mask].replace("\n", head) for mask, head in heads]
        lines[0] = lines[0][1:]  # no newline before the first line
        return "".join(lines)

    def first(self, breaks) -> Permutation | None:
        """The lexicographically first ranking here with a step that
        ``breaks(last, placed, c)`` accepts, or None: the step places label
        ``c`` right after label ``last`` (0 at the top), with the labels in
        bitmask ``placed`` (bit c - 1 for label c) already placed."""
        order = _first(self._dag, 0, 0, breaks, {})
        return None if order is None else Permutation._trusted(order)

    def relabel(self, tau: Permutation) -> "ConsensusSet":
        """The rankings ``tau.compose(p)``, label c renamed ``tau[c]`` in every
        mask and edge: the canonical DAG of the relabelled problem."""
        if tau.n != self._n:
            raise ValueError(f"dimension mismatch: {tau.n} vs {self._n}")
        image = [t - 1 for t in tau.order]
        dag = {}
        for mask, edges in self._dag.items():
            moved = sum(1 << image[c] for c in range(self._n) if mask >> c & 1)
            dag[moved] = tuple(sorted([image[c] for c in edges]))
        return ConsensusSet(self._n, dag)

    def adjacent_pairs(self) -> set[tuple[int, int]]:
        """Every label pair (a, b) with b right after a in some ranking here."""
        dag = self._dag
        return {(a + 1, b + 1) for mask, edges in dag.items() for a in edges
                for b in dag.get(mask | 1 << a, ())}

    def __le__(self, other) -> bool:
        # inclusion: as both DAGs are canonical, every edge here is one there
        if not isinstance(other, ConsensusSet):
            return NotImplemented
        theirs = other._dag
        return self._n == other._n and all(
            set(edges).issubset(theirs.get(mask, ())) for mask, edges in self._dag.items()
        )

    def __len__(self) -> int:
        return self._paths[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self[i] for i in range(*key.indices(len(self))))
        i = index(key)
        if not -len(self) <= i < len(self):
            raise IndexError("ConsensusSet index out of range")
        i %= len(self)
        # unrank: at each mask, skip the paths through the lower tight edges
        dag, paths, order, mask = self._dag, self._paths, [], 0
        while mask in dag:
            for c in dag[mask]:
                if i < paths[mask | 1 << c]:
                    break
                i -= paths[mask | 1 << c]
            order.append(c + 1)
            mask |= 1 << c
        # bijections by construction: no need for the checked constructor
        return Permutation._trusted(tuple(order))

    def _rank(self, value) -> int | None:
        """The index of ``value`` here, or None when it is not a member, a
        full path of tight edges: at each step, the paths through the lower
        tight edges rank before it (the inverse of the unrank)."""
        if not isinstance(value, Permutation):
            return None
        dag, paths, rank, mask = self._dag, self._paths, 0, 0
        for c in value.order:
            edges = dag.get(mask, ())
            if c - 1 not in edges:
                return None
            rank += sum(paths[mask | 1 << e] for e in edges[: edges.index(c - 1)])
            mask |= 1 << (c - 1)
        return rank if mask == (1 << self._n) - 1 else None

    def __contains__(self, value) -> bool:
        return self._rank(value) is not None

    def index(self, value, start: int = 0, stop: int | None = None) -> int:
        rank = self._rank(value)
        if rank is None or rank not in range(*slice(start, stop).indices(len(self))):
            raise ValueError(f"{value!r} is not in the ConsensusSet")
        return rank

    def count(self, value) -> int:
        return int(value in self)

    def __iter__(self):
        return map(Permutation._trusted, _orders(self._dag, 0, ()))

    def __eq__(self, other) -> bool:
        if isinstance(other, ConsensusSet):
            return self._n == other._n and self._dag == other._dag
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ConsensusSet({tuple(self)!r})"

    def __reduce__(self):
        return ConsensusSet, (self._n, self._dag)


def aggregate_exact(params: DistanceParams, profile: Profile) -> AggregationResult:
    """The full set of rankings minimising the aggregate distance.

    Dynamic programming over candidate subsets, priced from ``_term_table``
    (O(n^2 2^n + n m) for m ballots, in packed passes over n 2^(n-1) lanes):
    ``togo[mask]`` is the cheapest way to fill the positions after the
    placed set ``mask``, relaxed in decreasing mask order over a flat list
    (``_cost_to_go``).  Each of the n 2^(n-1) relaxations reads its
    candidate and bit from the mask's entry in ``_free_pairs(n)``, in
    increasing candidate order; that table is built once per n and kept for
    the process (0.09 MB and about 0.1 ms at n = 10, 1.4 MB and 2.5-3.8 ms
    at n = 14, 2-core VM, Python 3.11).  The consensus set is the DAG of
    tight edges out of the masks on optimal paths, tested in the same
    order; its size comes from counting paths and its winners are the tight
    edges out of the empty set, so neither lists a ranking.  The minimizers
    are a ``ConsensusSet`` view that builds a ranking only when it is read.
    Guarded to n <= 10: printing the set or iterating it to the end still
    costs a line or a ranking per tie, and a zero measure ties all n!.
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
    togo = _cost_to_go(rows)
    optimum = Fraction(togo[0], scale)
    return AggregationResult(
        method="exact",
        minimizers=ConsensusSet(n, _tight_dag(rows, togo)),
        optimum=optimum,
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
    return costs, params.scale


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
    # cols maps each candidate to its position: the ranking is its inverse
    ranking = Permutation([p + 1 for p in cols]).inverse()
    return _one_ranking("footrule", params, profile, ranking, Fraction(total, scale))


def _majority_prefix(profile: Profile) -> tuple[list[int], set[int]]:
    """Greedily pull out candidates a strict voter majority ranks top, one
    tally of the ballots' top remaining candidates a round."""
    total = profile.voters
    remaining = set(range(1, profile.n + 1))
    prefix: list[int] = []
    while remaining:
        tally = dict.fromkeys(remaining, 0)
        for mult, v in profile.entries:
            tally[next(filter(remaining.__contains__, v.order))] += mult
        top = max(tally, key=tally.get)
        if 2 * tally[top] <= total:
            break
        prefix.append(top)
        remaining.remove(top)
    return prefix, remaining


def aggregate_myopic(
    params: DistanceParams, profile: Profile, depth: int
) -> AggregationResult:
    """Majority prefix, then exhaustive search of one truncated window.

    After the greedy prefix of strict-majority favourites, the next
    ``min(depth, remaining)`` positions are optimised against the truncated
    objective (a subset DP over the terms of ``_window_terms``); candidates
    never reached by the window follow in ascending label order, which the
    window objective cannot distinguish.

    The DP visits every subset of the remaining candidates with at most
    ``min(depth, remaining)`` members, so that count is checked before any of
    them is built: above ``MYOPIC_SUBSET_LIMIT`` (2^16) it raises
    ``ValueError``.  At the guard's corners, with 40 random ballots over a
    pool of all p candidates, a call took (Kendall / ok-nishimura weights;
    the median of six runs on a 2-core VM with Python 3.11):

    * p = 16, the full window: 0.45 / 0.55 s, tracemalloc peak
      11.5 / 12.8 MB;
    * p = 35, depth 4: 0.04 / 0.08 s, 1.3 / 3.3 MB;
    * p = 73, depth 3: 0.02 / 0.12 s, 0.7 / 7.3 MB;
    * p = 361, depth 2: 0.03 / 0.21 s, 1.5 / 13.9 MB.
    """
    if depth < 1:
        raise ValueError("window depth must be at least 1")
    if not params.weights.is_nonnegative():
        raise ValueError("the myopic scheme needs nonnegative menu weights")
    if profile.n != params.n:
        raise ValueError(f"dimension mismatch: params over {params.n}, profile over {profile.n}")
    prefix, remaining = _majority_prefix(profile)
    if not remaining:  # the prefix places every candidate: no window
        return _one_ranking("myopic", params, profile, Permutation(prefix), Fraction(0))
    span = min(depth, len(remaining))
    subsets = sum(comb(len(remaining), size) for size in range(span + 1))
    if subsets > MYOPIC_SUBSET_LIMIT:
        raise ValueError(
            f"myopic window of depth {span} over {len(remaining)} candidates "
            f"visits {subsets} subsets, over the {MYOPIC_SUBSET_LIMIT} guard"
        )
    pool = tuple(sorted(remaining))
    table, width = _window_terms(params, profile, pool, span)
    p = len(pool)
    bias = _lane_tops(p, width)
    edges = [(c, 1 << (c - 1)) for c in pool]
    # the recurrence replaces table[mask] by the cheapest way to extend the
    # placed window mask to a full span, from the deepest layer up, as the
    # table's reversed insertion order reaches; choice[mask]: the lowest
    # pool label that reaches it
    masks = reversed(table)
    choice: dict[int, int] = {}
    # a deepest mask completes the window in one place, its cheapest free
    # lane: with its placed members' lanes set to 2^width, above every
    # signed lane value, that is one min, and index() finds its first,
    # lowest-label lane
    lane = {bit: i for i, (_, bit) in enumerate(edges)}
    placed_term = 1 << width
    for mask in islice(masks, comb(p, span - 1)):
        terms = _unpack_lanes((table[mask] + bias) ^ bias, p, width)
        placed = mask
        while placed:
            bit = placed & -placed
            terms[lane[bit]] = placed_term
            placed ^= bit
        value = min(terms)
        table[mask], choice[mask] = value, pool[terms.index(value)]
    for mask in masks:
        terms = _unpack_lanes((table[mask] + bias) ^ bias, p, width)
        value = None
        for term, (c, bit) in zip(terms, edges):
            if mask & bit:
                continue
            cur = term + table[mask | bit]
            if value is None or cur < value:
                value, best = cur, c
        table[mask], choice[mask] = value, best
    window: list[int] = []
    mask = 0
    while len(window) < span:
        c = choice[mask]
        window.append(c)
        mask |= 1 << (c - 1)

    tail = sorted(remaining - set(window))
    ranking = Permutation(prefix + window + tail)
    return _one_ranking("myopic", params, profile, ranking, Fraction(table[0], params.scale))


PTAS_RULES = ("affine", "exponential", "alternating", "custom")


def truncation_ratio(weights: MenuWeights, t: int, depth: int) -> Fraction:
    """Mass the window of size ``depth`` ignores, relative to the top swap price,
    for a pool of ``t >= 2`` candidates.

    With f = ``downset_mass`` this is ``sum_{s < t - depth} f(s)`` over the
    price ``f(t - 1) - f(t - 2)``.  By the hockey-stick identity the
    numerator is ``sum_j w_j C(max(t - depth, 0), j)``, the mass kernel over
    the weights shifted one size up by a leading 0.  Both are evaluated over
    the integer-scaled weights, whose common scale cancels.
    """
    if t < 2:
        raise ValueError(f"truncation ratio needs a pool of t >= 2 candidates, got {t}")
    w = weights.scaled[0]
    numerator = _scaled_mass((0, *w), max(t - depth, 0))
    denominator = _scaled_mass(w, t - 1) - _scaled_mass(w, t - 2)
    if denominator <= 0:
        raise ValueError("truncation ratio needs a positive size-2 weight")
    return Fraction(numerator, denominator)


# the precision of _ceil_log's last estimate, in digits: one estimate (two
# ln) at 2,000 digits took 0.3-0.8 s on a 2-core VM with Python 3.11
_LOG_DIGITS = 2000


def _ceil_log(base: Fraction, x: Fraction) -> int:
    """Smallest integer k >= 0 with base^k >= x (base > 1).

    k is the ceiling of y = ln x / ln base.  With base = p/q and x = a/b,
    y is estimated at D decimal digits as ln(a/b) / ln(p/q): two divisions,
    two ``ln`` and the quotient, each correctly rounded, so each off by a
    relative 10^(1-D) / 2 at most.  As ln(a/b) >= (a - b)/a, the estimate is
    within E = y s 10^(2-D) of y, for s = a // (a - b) + p // (p - q) + 3
    (about 10^z when an excess (a - b)/b or (p - q)/q has z leading zeros);
    E is over five times what those roundings and forming y - E and y + E
    can move it.

    When no integer lies within E of the estimate, k is its ceiling.  When
    one integer j does and j (bitlen(p) - 1) < bitlen(a), one exact
    comparison p^j b >= a q^j decides between j and j + 1: an integer y
    makes x = p^y / q^y in lowest terms, so a = p^y and the condition holds
    at every exact power, and p^j is then about as long as a.  Otherwise the
    next estimate doubles D.  D runs through ``_LOG_DIGITS`` / 2^i, from the
    least that is at least 60 plus the digits of s (so the relative error
    starts below 10^-57 and no quotient rounds to 1) up to ``_LOG_DIGITS``.
    When none of these estimates settles k, it is refused with a
    ``ValueError``.  That refuses a y within y s 10^-1998 of an integer that
    is not an exact power, any y with y s past about 10^1998 (a base within
    about 10^-1000 of 1 has a depth of a thousand digits), and an s of over
    1,750 digits (a base or x within about 10^-1750 of 1).

    The second kind is refused before any estimate, from integers.  As
    ln z >= 1 - 1/z, a/b > 2^(bitlen(a) - bitlen(b) - 1) and ln 2 > 2/3,
    ln x >= L = max((a - b)/a, 2 (bitlen(a) - bitlen(b) - 1) / 3); as
    ln z <= z - 1, ln base <= (p - q)/q; so y >= y_lo = L q / (p - q).  When
    y_lo s >= 2 10^(``_LOG_DIGITS`` - 2), every estimate, off by a relative
    10^-57 at most, has E >= 2 (1 - 10^-56) > 1 at ``_LOG_DIGITS`` digits and
    more at fewer.  Then y - E and y + E lie over two apart, so at least two
    integers lie between them and no estimate settles k: the refusal is the
    one the ladder would reach, without its ``ln``.
    """
    if x <= 1:
        return 0
    p, q = base.numerator, base.denominator
    a, b = x.numerator, x.denominator
    s = a // (a - b) + p // (p - q) + 3
    start = 61 + s.bit_length() // 3  # at least 60 plus the digits of s
    levels = (_LOG_DIGITS // start).bit_length()
    ln_x = max(Fraction(a - b, a), Fraction(2 * (a.bit_length() - b.bit_length() - 1), 3))
    if ln_x * q * s >= 2 * 10 ** (_LOG_DIGITS - 2) * (p - q):
        levels = 0  # y_lo s is past the last estimate's reach
    for halvings in reversed(range(levels)):
        digits = _LOG_DIGITS >> halvings
        with localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.Emin = digits, MAX_EMAX, MIN_EMIN
            y = (Decimal(a) / b).ln() / (Decimal(p) / q).ln()
            error = y * s * Decimal(10) ** (2 - digits)
            k, top = ceil(y - error), floor(y + error)
        if k > top:
            return k
        if k == top and k * (p.bit_length() - 1) < a.bit_length():
            return k if p**k * b >= a * q**k else k + 1
    raise ValueError(
        f"the depth cannot be settled exactly with logarithms of up to {_LOG_DIGITS} "
        "digits: it is too large, or too close to an integer"
    )


def _exponential_alpha(alpha: Rational | None) -> Fraction:
    """The exponential rule's base, checked to be a rational above 1."""
    if alpha is None:
        raise ValueError("the exponential rule needs alpha > 1")
    alpha = as_fraction(alpha)
    if alpha <= 1:
        raise ValueError(f"the exponential rule needs alpha > 1, got {alpha}")
    return alpha


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

    The affine and alternating depths are the exponential bound at alpha = 2,
    as 2^2 / (2 - 1)^2 = 4.

    ``custom`` takes an explicit weight vector plus its horizon ``n`` and
    returns the smallest depth whose ``truncation_ratio`` is at most eps at
    every pool size t from max(depth, 2) to ``n``.  Depth n - 1 always is:
    the window leaves at most one candidate of every pool out, and
    f(0) = f(1) = 0, so the ratio's numerator is 0.  A horizon past the
    weights' own n reads them as padded with zero weights.  Each ratio is
    read off one table of f(0..n-1): its numerator is a prefix sum.
    """
    inv_epsilon = as_fraction(inv_epsilon)
    if inv_epsilon <= 0:
        raise ValueError("1/epsilon must be positive")
    eps = 1 / inv_epsilon
    if rule in ("affine", "exponential", "alternating"):
        base = _exponential_alpha(alpha) if rule == "exponential" else Fraction(2)
        return max(1, _ceil_log(base, base**2 / ((base - 1) ** 2 * eps)))
    if rule == "custom":
        if weights is None or n is None:
            raise ValueError("the custom rule needs explicit weights and a horizon n")
        if n < 2:
            raise ValueError(f"the custom rule needs a horizon n >= 2, got {n}")
        if not weights.is_nonnegative() or weights.values[0] <= 0:
            raise ValueError("custom depths need nonnegative weights with w_2 > 0")
        f = _mass_table(weights.scaled[0], n)
        mass_below = [0, *accumulate(f)]  # sum_{s < u} f(s) at u = 0..n
        return next(
            depth
            for depth in range(1, n)
            if all(mass_below[t - depth] * eps.denominator <= eps.numerator * (f[t - 1] - f[t - 2])
                   for t in range(max(depth, 2), n + 1))
        )
    raise ValueError(f"unknown depth rule {rule!r}; choose from {PTAS_RULES}")


def ptas_weights(rule: str, n: int, alpha: Rational | None = None) -> MenuWeights:
    """The weight vector of a named growth rule, truncated to dimension n."""
    sizes = range(2, n + 1)
    if rule == "affine":
        return MenuWeights([Fraction(j + 1) for j in sizes])
    if rule == "alternating":
        return MenuWeights([Fraction(1 + (-1) ** j) for j in sizes])
    if rule == "exponential":
        alpha = _exponential_alpha(alpha)
        return MenuWeights([(alpha - 1) ** j for j in sizes])
    raise ValueError(f"no weight vector for rule {rule!r}")

"""Distance evaluations between rankings.

``distance`` is the closed form: a sum over candidates of tabulated down-set
masses, O(n^2) per pair; ``profile_cost`` sums the same integer kernel over
a profile's ballots and divides by the scale once.  ``distance_naive``
literally enumerates every menu of two or more candidates and charges the
measure of the symmetric difference of the two menu maxima; it exists as
the independent oracle the closed form is tested against.  It reads both rankings' menu-top tables
(``Permutation.menu_tops``, 2^n entries each) in one pass, keeps nothing
of its own between calls, and shares their cap of n <= 20.

Negative weights and measures are accepted by every evaluator here: the
formulas stay well-defined and the parameter classification, not the
arithmetic, decides what the numbers mean.
"""

from __future__ import annotations

from fractions import Fraction

from .permutations import NAIVE_CANDIDATE_LIMIT, Permutation
from .profiles import Profile
from .weights import (
    DistanceParams,
    Measure,
    MenuWeights,
    counting_measure,
)


def _check_dims(params: DistanceParams, *rankings: Permutation) -> int:
    n = params.n
    for r in rankings:
        if r.n != n:
            raise ValueError(f"dimension mismatch: params over {n}, ranking over {r.n}")
    return n


def distance_naive(params: DistanceParams, a: Permutation, b: Permutation) -> Fraction:
    """Menu-by-menu evaluation of the distance; exponential, oracle use only.

    Every menu of two or more candidates contributes its weight times the
    measure of the symmetric difference of the two menu maxima.
    """
    n = _check_dims(params, a, b)
    if n > NAIVE_CANDIDATE_LIMIT:
        raise ValueError(
            f"naive enumeration visits 2^{n} menus; n is capped at "
            f"{NAIVE_CANDIDATE_LIMIT}"
        )
    weight = (0, 0, *params.weights.scaled[0])  # by menu size
    mu = (0, *params.int_mu)  # by candidate
    # menus of fewer than two candidates never have differing maxima, so
    # every mask is scanned
    total = 0
    for mask, top_a, top_b in zip(range(1 << n), a.menu_tops(), b.menu_tops()):
        if top_a != top_b:
            total += weight[mask.bit_count()] * (mu[top_a] + mu[top_b])
    return Fraction(total, params.scale)


def _scaled_distance(
    f: tuple[int, ...], mu: tuple[int, ...], a: Permutation, b: Permutation
) -> int:
    """``distance`` times ``params.scale``, from the integer down-set table f
    and the integer measure mu."""
    n = len(mu)
    total = 0
    for m, pos, below_a, bb in zip(mu, a._pos, a._below, b._below):
        if m:
            total += (f[n - pos] + f[bb.bit_count()] - 2 * f[(below_a & bb).bit_count()]) * m
    return total


def distance(params: DistanceParams, a: Permutation, b: Permutation) -> Fraction:
    """Closed-form distance: down-set masses of both rankings minus twice the
    mass of their common down-sets, weighted by the measure."""
    _check_dims(params, a, b)
    return Fraction(_scaled_distance(params.int_table, params.int_mu, a, b), params.scale)


def footrule_weighted(
    weights: MenuWeights, mu: Measure, a: Permutation, b: Permutation
) -> Fraction:
    """Measure-weighted footrule: ``sum_c mu_c |f(n - pos_a(c)) - f(n - pos_b(c))|``.

    f is ``downset_mass``; the sum runs over the integer down-set table and
    the integer-scaled measure and divides once at the end.
    """
    if not weights.is_nonnegative():
        raise ValueError("the footrule relaxation needs nonnegative menu weights")
    n = weights.n
    if n != mu.n or a.n != n or b.n != n:
        raise ValueError("dimension mismatch between weights, measure and rankings")
    f, f_scale = weights.table, weights.scaled[1]
    int_mu, mu_scale = mu.scaled
    pos_a = a._pos
    pos_b = b._pos
    total = 0
    for c in range(n):
        total += abs(f[n - pos_a[c]] - f[n - pos_b[c]]) * int_mu[c]
    return Fraction(total, f_scale * mu_scale)


def footrule(weights: MenuWeights, a: Permutation, b: Permutation) -> Fraction:
    """Neutral footrule: the weighted version under the counting measure."""
    return footrule_weighted(weights, counting_measure(weights.n), a, b)


def truncated_distance(
    params: DistanceParams, a: Permutation, b: Permutation, first: int, last: int
) -> Fraction:
    """Contribution of positions ``first..last`` of ``a`` to the distance.

    The window [1, n] recovers ``distance`` exactly; a window only depends on
    the two rankings through their prefixes down to position ``last``.
    """
    n = _check_dims(params, a, b)
    if not 1 <= first <= last <= n:
        raise ValueError(f"invalid window [{first}, {last}] for n = {n}")
    f = params.int_table
    mu = params.int_mu
    total = 0
    for i in range(first, last + 1):
        c = a.order[i - 1]
        common = (a._below[c - 1] & b._below[c - 1]).bit_count()
        total += (
            f[n - i] * (mu[c - 1] + mu[b.order[i - 1] - 1])
            - 2 * f[common] * mu[c - 1]
        )
    return Fraction(total, params.scale)


def profile_cost(params: DistanceParams, a: Permutation, profile: Profile) -> Fraction:
    """Multiplicity-weighted sum of distances from ``a`` to every ballot,
    summed in integers and divided by the scale once."""
    if profile.n != params.n:
        raise ValueError(f"dimension mismatch: params over {params.n}, profile over {profile.n}")
    _check_dims(params, a)
    f = params.int_table
    mu = params.int_mu
    total = sum(mult * _scaled_distance(f, mu, a, ballot) for mult, ballot in profile.entries)
    return Fraction(total, params.scale)

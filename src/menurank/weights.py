"""The parameter space of menu-weighted rank distances.

Two exact-rational parameter vectors drive everything:

* menu weights ``w = (w_2, ..., w_n)`` scoring disagreements on menus by
  their size, and
* a measure ``mu = (mu_1, ..., mu_n)`` scoring the candidates involved.

From the menu weights we derive the polynomial

    downset_mass(w, t) = sum_k w_k * C(t, k - 1),

the total menu weight a candidate collects against ``t`` less-preferred
rivals; its increments are the per-position swap prices

    position_weights[a] = downset_mass(n - a) - downset_mass(n - a - 1),

and the linear map between menu weights and position weights is a bijection
whose inverse takes forward differences at 0.  ``classify`` places a
parameter pair into one of four regions (metric / semimetric only / trivially
zero / not a semimetric): measure conditions are sign patterns and pairwise
sums, while the weight-side region is closed-form for nonnegative,
nonpositive or pairwise-only weights and decided otherwise by exact
consensus solves.

Every result is an exact ``fractions.Fraction``.  Each weight vector
tabulates the masses over its common denominator at t = 0..n-1 once, by
forward differences (``_mass_table``, kept as ``MenuWeights.table``); the
Fraction table, the swap prices, ``approximation_factor`` and every distance
evaluator read that one table, run their inner loops over plain integers and
divide once at the end.  Its inverse ``_differences`` takes backward
differences, for integers and Fractions alike: ``position_to_menu_weights``
reads its diagonal, ``is_totally_monotone`` the signs of its rows, and the
myopic window its layer constants and overlap coefficients.  The point
kernel ``_scaled_mass``, ``sum_k w_k * math.comb(t, k - 1)`` over the
nonzero weights, serves only ``downset_mass`` and the exact solver's
``_lane_width``.  It stays because ``_lane_width`` reads the masses over the
positive and the negative weights at n - 1 alone, in O(n) each, where
``_mass_table`` would build all n entries in O(n^2): that matters at the
myopic window's p = 361 corner.  Weight vectors, measures and position
prices share one immutable exact-vector base, which derives the integer
scaling (``scaled``) and the sign test once per vector.
``DistanceParams`` stores nothing but the pair and derives the views its
evaluators read, ``int_table``, ``int_mu`` and ``scale``, on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm
from operator import add
from typing import Iterable, Sequence, Union

Rational = Union[int, str, Fraction]


_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints, 'p/q' strings, or Fractions to an exact Fraction.

    A string must be an optional sign, ASCII digits and an optional
    ``/digits``; anything else (decimal points, exponents, underscores,
    spaces) raises ``ValueError``, so a few characters such as ``1e9999999``
    cannot ask for an integer of millions of digits.  A zero denominator
    raises ``ZeroDivisionError`` naming the token.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL_TEXT.fullmatch(value) is None:
            raise ValueError(f"expected an integer or p/q rational, got {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ZeroDivisionError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected an exact rational, got {value!r}")


def int_text(value: int) -> str:
    """``str(value)`` at any length: ``str`` refuses over 4,300 digits, a
    limit that input keeps, but ``decimal`` writes any integer exactly."""
    try:
        return str(value)
    except ValueError:
        return str(Decimal(value))


@dataclass(frozen=True)
class _ExactVector:
    """An immutable vector of exact rationals, with the views every kind of
    parameter vector derives from its values once.  Equality, hashing and
    ``repr`` go by the subclass, which names the vector's empty-vector error
    in ``_EMPTY``."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[Rational]):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in values))
        if not self.values:
            raise ValueError(self._EMPTY)

    def negate(self):
        """The same kind of vector with every value negated."""
        return type(self)(-v for v in self.values)

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """``values`` as integers over their common denominator, derived once."""
        return _scaled_ints(self.values)

    def is_nonnegative(self) -> bool:
        return self._nonnegative

    @cached_property
    def _nonnegative(self) -> bool:
        return all(v >= 0 for v in self.values)


class MenuWeights(_ExactVector):
    """Exact weights ``(w_2, ..., w_n)`` indexed by menu size."""

    _EMPTY = "menu weights need at least the size-2 entry"

    @property
    def n(self) -> int:
        return len(self.values) + 1

    @cached_property
    def table(self) -> tuple[int, ...]:
        """``downset_mass`` at t = 0..n-1 times ``scaled[1]``, as exact integers."""
        return tuple(_mass_table(self.scaled[0], self.n))

    def is_pairwise_only(self) -> bool:
        """True when only the size-2 weight may be nonzero."""
        return all(v == 0 for v in self.values[1:])


class Measure(_ExactVector):
    """Exact per-candidate importances ``(mu_1, ..., mu_n)``.

    No sign restriction is imposed at construction; ``classify`` decides
    which sign patterns yield usable distances.
    """

    _EMPTY = "a measure needs at least one candidate"

    @property
    def n(self) -> int:
        return len(self.values)

    def of(self, candidate: int) -> Fraction:
        if not 1 <= candidate <= self.n:
            raise ValueError(f"candidate {candidate} outside 1..{self.n}")
        return self.values[candidate - 1]

    def is_positive(self) -> bool:
        return all(v > 0 for v in self.values)

    # the least sum of two candidates' values is that of the two smallest;
    # below two candidates there is no pair and both tests hold
    def pairwise_sums_nonnegative(self) -> bool:
        return self.n < 2 or sum(sorted(self.values)[:2]) >= 0

    def pairwise_sums_positive(self) -> bool:
        return self.n < 2 or sum(sorted(self.values)[:2]) > 0


@lru_cache(maxsize=None)
def counting_measure(n: int) -> Measure:
    return Measure([1] * n)


class PositionWeights(_ExactVector):
    """Exact swap prices ``(p_1, ..., p_{n-1})`` indexed by position."""

    _EMPTY = "position weights need at least one entry"

    @property
    def n(self) -> int:
        return len(self.values) + 1

    def at(self, position: int) -> Fraction:
        if not 1 <= position <= self.n - 1:
            raise ValueError(f"position {position} outside 1..{self.n - 1}")
        return self.values[position - 1]


def _scaled_mass(int_weights: tuple[int, ...], t: int) -> int:
    """``sum_k w_k * C(t, k - 1)`` over integer-scaled weights.

    ``int_weights[k - 2]`` is the size-k weight; zero weights are skipped.
    """
    return sum(w * comb(t, k) for k, w in enumerate(int_weights, 1) if w)


def _mass_table(int_weights: Sequence[int], size: int) -> list[int]:
    """``_scaled_mass`` at t = 0..size-1 by forward differences: the j-th
    difference at 0 is the size-(j + 1) weight (0 at j = 0 and past n), and
    a step adds each difference's successor into it, one fewer each step."""
    differences = ([0, *int_weights] + [0] * size)[:size]
    masses = []
    while differences:
        masses.append(differences[0])
        differences = list(map(add, differences, differences[1:]))
    return masses


def _differences(table: Sequence, size: int, depth: int) -> list[list]:
    """``rows[j][d]``, the j-th backward difference of ``table`` at d, for
    j < ``depth`` and j <= d < ``size``; the entries below j are 0 and unread.

    It inverts ``_mass_table``: row j read at j is the j-th forward
    difference at 0, so the diagonal of ``_differences(_mass_table(w, size),
    size, size)`` is ``w`` behind a leading 0.  With ``nabla g(d) = g(d) -
    g(d - 1)``, ``1 - nabla`` is the backward shift, so ``g(d - k) = sum_i
    (-1)^i C(k, i) nabla^i g(d)`` for k <= d: the identity the myopic
    window's ``_window_terms`` rests on.  Both hold for integers and
    Fractions of any sign.
    """
    rows = [list(table[:size])]
    for j in range(1, depth):
        prev = rows[-1]
        rows.append([0] * j + [prev[d] - prev[d - 1] for d in range(j, size)])
    return rows


def downset_mass(weights: MenuWeights, t: int) -> Fraction:
    """Total weight of menus a candidate tops against ``t`` dominated rivals."""
    if t < 0:
        raise ValueError("down-set sizes are nonnegative")
    int_weights, scale = weights.scaled
    return Fraction(_scaled_mass(int_weights, t), scale)


def downset_mass_table(weights: MenuWeights) -> tuple[Fraction, ...]:
    """``downset_mass`` tabulated at t = 0..n-1, as Fractions.

    Entry 0 is always 0 and entry 1 equals the size-2 menu weight.
    """
    scale = weights.scaled[1]
    return tuple(Fraction(v, scale) for v in weights.table)


def menu_to_position_weights(weights: MenuWeights) -> PositionWeights:
    """Swap price at position a: the increment of ``downset_mass`` at n - a - 1."""
    t, scale = weights.table, weights.scaled[1]
    n = weights.n
    return PositionWeights(
        tuple(Fraction(t[n - a] - t[n - a - 1], scale) for a in range(1, n))
    )


def position_to_menu_weights(prices: PositionWeights) -> MenuWeights:
    """Exact inverse of ``menu_to_position_weights``: read in reverse, the
    prices are the increments of ``downset_mass`` from t = 0, so the size-k
    weight is their (k - 2)-th forward difference at 0."""
    size = len(prices.values)
    rows = _differences(prices.values[::-1], size, size)
    return MenuWeights(rows[j][j] for j in range(size))


def is_totally_monotone(prices: PositionWeights) -> bool:
    """Positive entries whose alternating finite differences all stay >= 0."""
    size = len(prices.values)
    rows = _differences(prices.values, size, size)
    return all(v > 0 for v in rows[0]) and all(
        (-1) ** j * v >= 0 for j in range(1, size) for v in rows[j][j:])


class ParamLabel(Enum):
    """Where a (menu weights, measure) pair sits in the parameter space."""

    METRIC = "Metric"
    SEMIMETRIC_ONLY = "SemimetricOnly"
    TRIVIAL_ZERO = "TrivialZero"
    NOT_SEMIMETRIC = "NotSemimetric"


MIXED_SIGN_REGION_LIMIT = 7


@lru_cache(maxsize=None)
def neutral_region(weights: MenuWeights) -> tuple[bool, bool]:
    """Whether the counting-measure distance is a semimetric / a metric.

    Nonnegative weights always give a semimetric, a metric exactly when the
    size-2 weight is positive (a disagreeing pair always contributes it).
    Weights of mixed sign have no closed-form region.  Two cheap necessary
    screens come first: position prices nonnegative (so every d(id, q) >= 0)
    and no price below the last one (the triangle through an adjacent swap
    towards the antipode); nonzero nonpositive weights fail the first.  Then,
    by relabelling, no ranking may cost less than d(id, q) against the
    two-ballot profile {id, q}: one exact solve per pair {q, q^-1}, which
    relabelling by q^-1 makes one question, guarded to n <= 7.
    """
    if weights.is_nonnegative():
        return True, weights.values[0] > 0
    phi = menu_to_position_weights(weights).values
    if any(v < 0 for v in phi) or any(v < phi[-1] for v in phi):
        return False, False
    n = weights.n
    if n > MIXED_SIGN_REGION_LIMIT:
        raise ValueError(
            "mixed-sign menu weights have no closed-form region; exact "
            f"classification is supported for n <= {MIXED_SIGN_REGION_LIMIT}"
        )
    from .aggregation import aggregate_exact
    from .distances import distance
    from .permutations import all_rankings
    from .profiles import Profile

    params = make_params(weights)
    identity, *others = all_rankings(n)
    from_identity = [distance(params, identity, q) for q in others]
    for q, direct in zip(others, from_identity):
        if q.order > q._pos:  # q^-1 (in one-line form q._pos) came first
            continue
        if aggregate_exact(params, Profile(((1, identity), (1, q)), n)).optimum < direct:
            return False, False
    return True, all(v > 0 for v in from_identity)


def _positive_branch(weights: MenuWeights, mu: Measure) -> str | None:
    """Classify assuming the 'positive' orientation; None when outside it."""
    if weights.is_pairwise_only():
        w2 = weights.values[0]
        if w2 > 0 and mu.pairwise_sums_positive():
            return "metric"
        if w2 >= 0 and mu.pairwise_sums_nonnegative():
            return "semimetric"
        return None
    if not mu.is_nonnegative():
        return None
    in_semimetric, in_metric = neutral_region(weights)
    if in_metric and mu.pairwise_sums_positive():
        return "metric"
    if in_semimetric:
        return "semimetric"
    return None


def classify(weights: MenuWeights, mu: Measure) -> ParamLabel:
    """Exact region test for a parameter pair.

    The distance is identically zero when either vector vanishes.  Otherwise,
    up to negating both vectors at once (which leaves the distance
    unchanged):

    * weights supported on menu size 2, as every vector is at n = 2, pair
      with any measure whose pairwise sums are nonnegative (positive and
      with a positive size-2 weight for a metric);
    * all other weight vectors need a nonnegative measure and a weight
      vector whose neutral distance is itself a semimetric
      (``neutral_region``); the metric additionally needs positive pairwise
      measure sums, which allows at most one candidate of measure zero.
    """
    if weights.n != mu.n:
        raise ValueError(f"dimension mismatch: {weights.n} vs {mu.n}")
    if all(v == 0 for v in weights.values) or all(v == 0 for v in mu.values):
        return ParamLabel.TRIVIAL_ZERO
    verdicts = {
        _positive_branch(weights, mu),
        _positive_branch(weights.negate(), mu.negate()),
    }
    if "metric" in verdicts:
        return ParamLabel.METRIC
    if "semimetric" in verdicts:
        return ParamLabel.SEMIMETRIC_ONLY
    return ParamLabel.NOT_SEMIMETRIC


def _scaled_ints(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Clear denominators: values[i] == ints[i] / scale exactly."""
    scale = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


@dataclass(frozen=True)
class DistanceParams:
    """A parameter pair; everything an evaluator reads is derived from it.

    Three integer views are computed on first access and kept:
    ``int_table``, the down-set masses ``MenuWeights.table`` holds at
    t = 0..n-1, so ``downset_mass(weights, t) == int_table[t] /
    weights.scaled[1]``; ``int_mu``, the measure over ``mu.scaled[1]``; and
    ``scale``, the product of those two denominators.  Evaluators run their
    inner loops over ``int_table`` and ``int_mu`` and divide once by
    ``scale``; other integer views are read from the pair's own ``scaled``.
    The classification label is also derived on first access: distances are
    well defined for any signs, while classifying mixed-sign weights needs
    the exact-region machinery (guarded to n <= 7).
    """

    weights: MenuWeights
    mu: Measure

    @property
    def n(self) -> int:
        return self.mu.n

    @cached_property
    def int_mu(self) -> tuple[int, ...]:
        return self.mu.scaled[0]

    @cached_property
    def int_table(self) -> tuple[int, ...]:
        return self.weights.table

    @cached_property
    def scale(self) -> int:
        """The common denominator of every evaluator's integer total."""
        return self.weights.scaled[1] * self.mu.scaled[1]

    @cached_property
    def label(self) -> ParamLabel:
        return classify(self.weights, self.mu)

    def is_semimetric(self) -> bool:
        return self.label in (
            ParamLabel.METRIC,
            ParamLabel.SEMIMETRIC_ONLY,
            ParamLabel.TRIVIAL_ZERO,
        )


def make_params(
    weights: MenuWeights | Sequence[Rational],
    mu: Measure | Sequence[Rational] | None = None,
) -> DistanceParams:
    """Bundle menu weights and a measure (counting by default) for evaluation."""
    if not isinstance(weights, MenuWeights):
        weights = MenuWeights(weights)
    if mu is None:
        mu = counting_measure(weights.n)
    elif not isinstance(mu, Measure):
        mu = Measure(mu)
    if weights.n != mu.n:
        raise ValueError(f"dimension mismatch: weights over {weights.n}, measure over {mu.n}")
    return DistanceParams(weights, mu)


PRESET_NAMES = (
    "kendall",
    "ok-nishimura",
    "gilbert",
    "unavailable-candidate",
    "linear",
    "binomial",
)


def preset(
    name: str, n: int, param: Rational | None = None
) -> tuple[MenuWeights, Measure]:
    """Named weight families from the literature, with the counting measure.

    kendall                w = (1, 0, ..., 0): pairwise comparisons only
    ok-nishimura           w = (1, 1, ..., 1): every menu counts equally
    gilbert                ones up to the cutoff size ``param``, zero above
    unavailable-candidate  w_k = (alpha - 1)^(k-2) for ``param`` = alpha > 1
    linear                 w_k = k
    binomial               w_k = p^(n-k) (1-p)^k for ``param`` = p in (0, 1)
    """
    if n < 2:
        raise ValueError("presets need n >= 2")
    if param is not None and name in ("kendall", "ok-nishimura", "linear"):
        raise ValueError(f"{name} takes no parameter, got {param}")
    sizes = range(2, n + 1)
    if name == "kendall":
        values: list[Fraction] = [Fraction(int(k == 2)) for k in sizes]
    elif name == "ok-nishimura":
        values = [Fraction(1) for _ in sizes]
    elif name == "gilbert":
        if param is None:
            raise ValueError("gilbert needs a cutoff menu size")
        cutoff = as_fraction(param)
        if cutoff.denominator != 1:
            raise ValueError(f"gilbert cutoff {cutoff} is not a whole menu size")
        if not 2 <= cutoff <= n:
            raise ValueError(f"gilbert cutoff {cutoff} outside 2..{n}")
        values = [Fraction(int(k <= cutoff)) for k in sizes]
    elif name == "unavailable-candidate":
        if param is None:
            raise ValueError("unavailable-candidate needs alpha > 1")
        alpha = as_fraction(param)
        if alpha <= 1:
            raise ValueError(f"unavailable-candidate needs alpha > 1, got {alpha}")
        values = [(alpha - 1) ** (k - 2) for k in sizes]
    elif name == "linear":
        values = [Fraction(k) for k in sizes]
    elif name == "binomial":
        if param is None:
            raise ValueError("binomial needs p in (0, 1)")
        p = as_fraction(param)
        if not 0 < p < 1:
            raise ValueError(f"binomial needs p strictly between 0 and 1, got {p}")
        values = [p ** (n - k) * (1 - p) ** k for k in sizes]
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return MenuWeights(values), counting_measure(n)


class ParamsFormatError(ValueError):
    """Raised when a parameter file does not follow the documented format."""


def parse_params_text(text: str, n: int | None = None) -> tuple[MenuWeights, Measure]:
    """Parse a parameter file.

    Recognised lines (``#`` starts a comment)::

        beta: b2 b3 ... bn
        mu: m1 m2 ... mn
        preset: <name> [param]

    Tokens are integers or ``p/q`` rationals.  A ``preset`` line needs the
    dimension ``n`` from context; explicit ``beta`` fixes it by length, and
    ``mu`` defaults to the counting measure.
    """
    weights: MenuWeights | None = None
    mu: Measure | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParamsFormatError(f"malformed line {line!r}: expected 'key: values'")
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        tokens = rest.split()
        try:
            if key == "beta":
                weights = MenuWeights([as_fraction(t) for t in tokens])
            elif key == "mu":
                mu = Measure([as_fraction(t) for t in tokens])
            elif key == "preset":
                if not tokens:
                    raise ParamsFormatError("preset line names no preset")
                if len(tokens) > 2:
                    raise ParamsFormatError(
                        f"preset line {line!r} has more than a name and one parameter"
                    )
                if n is None:
                    raise ParamsFormatError(
                        "a preset line needs the candidate count from context"
                    )
                param = as_fraction(tokens[1]) if len(tokens) > 1 else None
                weights, preset_mu = preset(tokens[0], n, param)
                if mu is None:
                    mu = preset_mu
            else:
                raise ParamsFormatError(f"unknown key {key!r} in parameter file")
        except (ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, ParamsFormatError):
                raise
            raise ParamsFormatError(f"bad value on line {line!r}: {exc}") from None
    if weights is None:
        raise ParamsFormatError("parameter file defines no menu weights")
    if mu is None:
        mu = counting_measure(weights.n)
    if mu.n != weights.n:
        raise ParamsFormatError(
            f"beta is for {weights.n} candidates but mu lists {mu.n}"
        )
    return weights, mu


def approximation_factor(weights: MenuWeights) -> Fraction:
    """The multiplicative gap between the distance and its footrule relaxation.

    ``max (1 + f(n-h) / f(n-h+1))`` with f = ``downset_mass`` and h ranging
    over the swap positions 2..n (one term per position at which an
    up-ranking can happen; the h = n term is 1 because f(0) = 0).  Requires
    nonnegative weights with a positive size-2 entry, so every denominator
    is positive; the value is always below 2 because f is increasing, and
    the classic per-family constants (2 for pairwise weights, 3/2 for flat
    or linearly growing ones, 1 + p for binomial decay) are its envelopes
    as n grows.
    """
    if not weights.is_nonnegative() or weights.values[0] <= 0:
        raise ValueError(
            "the footrule sandwich needs nonnegative weights with w_2 > 0"
        )
    n, masses = weights.n, weights.table  # the scale cancels in each ratio
    return max(1 + Fraction(masses[n - h], masses[n - h + 1]) for h in range(2, n + 1))

from __future__ import annotations

import random
import time
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menurank import (
    Measure,
    MenuWeights,
    ParamLabel,
    PositionWeights,
    all_rankings,
    approximation_factor,
    classify,
    counting_measure,
    distance,
    downset_mass,
    downset_mass_table,
    is_totally_monotone,
    make_params,
    menu_to_position_weights,
    position_to_menu_weights,
    preset,
)
from menurank.weights import (
    DistanceParams,
    ParamsFormatError,
    _differences,
    _mass_table,
    _scaled_mass,
    as_fraction,
    neutral_region,
    parse_params_text,
)

from conftest import rand_measure, rand_weights

fraction_strategy = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


class TestDownsetMass:
    def test_pairwise_weights_give_the_count(self):
        w = MenuWeights([1, 0, 0, 0])
        assert downset_mass_table(w) == tuple(F(t) for t in range(5))

    def test_small_table(self):
        assert downset_mass_table(MenuWeights([1, 1])) == (F(0), F(1), F(3))

    def test_zero_weights(self):
        assert downset_mass_table(MenuWeights([0, 0, 0])) == (F(0),) * 4

    def test_table_matches_direct_evaluation(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 20)
            w = rand_weights(rng, n, nonneg=False)
            table = downset_mass_table(w)
            for t in range(n):
                assert table[t] == downset_mass(w, t)

    def test_monotone_for_nonnegative_weights(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(2, 20)
            w = rand_weights(rng, n)
            table = downset_mass_table(w)
            assert all(x <= y for x, y in zip(table, table[1:]))
            if w.values[0] > 0:
                assert all(x < y for x, y in zip(table, table[1:]))

    def test_mass_far_beyond_the_recursion_limit(self):
        # the kernel is math.comb, not a recursive Pascal row
        assert downset_mass(MenuWeights([1, 1]), 5000) == 5000 + comb(5000, 2)

    def test_scaled_table_is_the_definition(self):
        # sum_k w_k C(t, k - 1), with k running over the menu sizes 2..n
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 30)
            w = rand_weights(rng, n, nonneg=False)
            if rng.random() < 0.5:
                w = MenuWeights([0 if rng.random() < 0.5 else v for v in w.values])
            scale = w.scaled[1]
            assert [F(v, scale) for v in w.table] == [
                sum((wk * comb(t, k - 1) for k, wk in enumerate(w.values, 2)), F(0))
                for t in range(n)
            ]

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.just(0), st.integers(-(10**30), 10**30),
                      st.fractions(max_denominator=50).filter(lambda v: abs(v) < 10**6)),
            min_size=1, max_size=40,
        ),
        size=st.integers(0, 52),
    )
    def test_forward_differences_give_the_binomial_sums(self, values, size):
        # the table by additions alone against one binomial sum per t, for
        # signed and zero weights; past n the weights read as padded with 0
        w = MenuWeights(values)
        int_weights = w.scaled[0]
        assert list(w.table) == [_scaled_mass(int_weights, t) for t in range(w.n)]
        assert _mass_table(int_weights, size) == [_scaled_mass(int_weights, t) for t in range(size)]

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.one_of(st.just(0), st.integers(-(10**30), 10**30)),
                     min_size=1, max_size=40),
            st.lists(st.one_of(st.just(F(0)), st.fractions(max_denominator=50)),
                     min_size=1, max_size=40),
        ),
        size=st.integers(1, 45),
    )
    def test_differences_invert_the_mass_table(self, values, size):
        # row j of the backward differences read at j is the j-th forward
        # difference at 0: the weights again, behind the table's leading 0
        rows = _differences(_mass_table(values, size), size, size)
        assert [rows[j][j] for j in range(size)] == ([0, *values] + [0] * size)[:size]

    def test_increasing_increments(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 10)
            w = rand_weights(rng, n)
            f = [downset_mass(w, t) for t in range(2 * n + 1)]
            for m in range(n):
                for l in range(m, n):
                    for h in range(n):
                        assert f[l + h] - f[l] >= f[m + h] - f[m]


class TestBijection:
    def test_pairwise_maps_to_flat_prices(self):
        w = MenuWeights([1, 0, 0, 0])
        assert menu_to_position_weights(w).values == (F(1),) * 4

    def test_small_example_both_ways(self):
        w = MenuWeights([1, 1])
        phi = menu_to_position_weights(w)
        assert phi.values == (F(2), F(1))
        assert position_to_menu_weights(phi) == w
        assert position_to_menu_weights(PositionWeights([1, 1, 1, 1])).values == (
            F(1), F(0), F(0), F(0),
        )

    def test_prices_are_mass_increments(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 12)
            w = rand_weights(rng, n, nonneg=False)
            phi = menu_to_position_weights(w)
            table = downset_mass_table(w)
            for a in range(1, n):
                assert phi.values[a - 1] == downset_mass(w, n - a) - table[n - a - 1]

    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.data())
    def test_roundtrip(self, n, data):
        values = data.draw(
            st.lists(fraction_strategy, min_size=n - 1, max_size=n - 1)
        )
        w = MenuWeights(values)
        assert position_to_menu_weights(menu_to_position_weights(w)) == w

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("c", [1, 5])
    def test_exponential_prices_have_exponential_weights(self, alpha, c):
        # prices c * alpha^-k correspond to weights c * alpha^(1-n) (alpha-1)^(k-2)
        for n in range(2, 8):
            phi = PositionWeights([F(c, alpha**k) for k in range(1, n)])
            w = position_to_menu_weights(phi)
            expected = tuple(
                F(c) * F(1, alpha ** (n - 1)) * (alpha - 1) ** (k - 2)
                for k in range(2, n + 1)
            )
            assert w.values == expected
            assert menu_to_position_weights(MenuWeights(expected)) == phi


class TestTotalMonotonicity:
    def test_flat_prices(self):
        assert is_totally_monotone(PositionWeights([1, 1, 1, 1]))

    def test_halving_prices(self):
        assert is_totally_monotone(PositionWeights([F(1, 2**k) for k in range(1, 6)]))

    def test_increasing_fails(self):
        assert not is_totally_monotone(PositionWeights([1, 2]))

    def test_zero_entry_fails_positivity(self):
        assert not is_totally_monotone(PositionWeights([1, 0]))

    def test_nonnegative_weights_give_monotone_prices(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(3, 10)
            values = [rand_weights(rng, n).values[k] for k in range(n - 1)]
            values[0] += 1  # force w_2 > 0
            phi = menu_to_position_weights(MenuWeights(values))
            assert is_totally_monotone(phi)
            assert all(x >= y for x, y in zip(phi.values, phi.values[1:]))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.lists(fraction_strategy, min_size=1, max_size=9).map(PositionWeights),
        st.lists(st.fractions(min_value=0, max_value=5, max_denominator=6),
                 min_size=1, max_size=9).map(
            lambda w: menu_to_position_weights(MenuWeights(w))),
    ))
    def test_agrees_with_forward_differences(self, prices):
        # positive, zero and negative prices, and the prices of nonnegative
        # weights, most of which are totally monotone
        assert is_totally_monotone(prices) == _monotone_by_forward_differences(prices)


def _monotone_by_forward_differences(prices):
    """The referee of ``is_totally_monotone``: positive entries, then each
    forward difference in turn, of alternating sign, taken one list at a time."""
    current = list(prices.values)
    if any(v <= 0 for v in current):
        return False
    sign = 1
    while len(current) > 1:
        current = [b - a for a, b in zip(current, current[1:])]
        sign = -sign
        if any(sign * v < 0 for v in current):
            return False
    return True


def _brute_force_region(params, n):
    """Measure the distance directly: 'metric', 'semimetric', or None."""
    perms = all_rankings(n)
    table = [[distance(params, a, b) for b in perms] for a in perms]
    # clear denominators so the n!^3 triangle scan compares integers
    scale = lcm(*(d.denominator for row in table for d in row))
    table = [[int(d * scale) for d in row] for row in table]
    size = len(perms)
    semimetric = all(v >= 0 for row in table for v in row) and all(
        table[a][b] == table[b][a] for a in range(size) for b in range(size)
    ) and all(
        ac <= ab + bc
        for row_a in table
        for ab, row_b in zip(row_a, table)
        for ac, bc in zip(row_a, row_b)
    )
    if not semimetric:
        return None
    metric = all(
        (table[a][b] == 0) == (a == b) for a in range(size) for b in range(size)
    )
    return "metric" if metric else "semimetric"


def _reference_region(weights):
    """``neutral_region`` for mixed-sign weights by its definition: both
    price screens, then d(id, q) >= 0 and the triangle inequality over all
    (n!)^2 pairs (w, q), with relabelling pinning the third ranking to the
    identity: d(w, q) = d(id, w^-1 q)."""
    phi = menu_to_position_weights(weights).values
    if any(v < 0 for v in phi) or any(v < phi[-1] for v in phi):
        return False, False
    params = make_params(weights)
    perms = all_rankings(weights.n)
    index = {p.order: i for i, p in enumerate(perms)}
    # the counting measure has scale 1, so distance times the weights' scale
    # is an integer
    from_identity = [
        int(distance(params, perms[0], p) * params.weights.scaled[1]) for p in perms
    ]
    if any(v < 0 for v in from_identity):
        return False, False
    for w, base in zip(perms, from_identity):
        for q, direct in zip(perms, from_identity):
            relative = tuple(w._pos[c - 1] for c in q.order)
            if direct > base + from_identity[index[relative]]:
                return False, False
    return True, all(v > 0 for v in from_identity[1:])


def _screened_mixed_signs(rng, n):
    """Weights of both signs that pass both price screens, so the region
    comes from the exact check; zero entries are common."""
    while True:
        w = MenuWeights([F(rng.randint(-3, 4), rng.randint(1, 2)) for _ in range(n - 1)])
        if w.is_nonnegative() or all(v <= 0 for v in w.values):
            continue
        phi = menu_to_position_weights(w).values
        if all(v >= phi[-1] >= 0 for v in phi):
            return w


def _two_candidate_label(weights, mu):
    """The closed form at n = 2, where d is w_2 (mu_1 + mu_2) on a
    disagreeing pair: a metric when the two factors share a strict sign, a
    semimetric only when the measure sums to 0."""
    w2 = weights.values[0]
    s = mu.values[0] + mu.values[1]
    if all(v == 0 for v in weights.values) or all(v == 0 for v in mu.values):
        return ParamLabel.TRIVIAL_ZERO
    if w2 > 0 and s > 0 or w2 < 0 and s < 0:
        return ParamLabel.METRIC
    if s == 0:
        return ParamLabel.SEMIMETRIC_ONLY
    return ParamLabel.NOT_SEMIMETRIC


class TestClassification:
    def test_named_examples(self):
        assert classify(MenuWeights([1, 0, 0]), counting_measure(4)) is ParamLabel.METRIC
        assert classify(MenuWeights([0, 0, 0]), counting_measure(4)) is ParamLabel.TRIVIAL_ZERO
        assert classify(MenuWeights([1, 1, 1]), Measure([0, 0, 0, 0])) is ParamLabel.TRIVIAL_ZERO
        assert (
            classify(MenuWeights([1, 1, 1]), Measure([-1, 1, 1, 1]))
            is ParamLabel.NOT_SEMIMETRIC
        )

    def test_pairwise_weights_allow_signed_measures(self):
        # only the size-2 weight set: pairwise sums decide
        assert (
            classify(MenuWeights([1, 0, 0]), Measure([-1, 2, 3, 4]))
            is ParamLabel.METRIC
        )
        assert (
            classify(MenuWeights([1, 0, 0]), Measure([-2, 2, 3, 4]))
            is ParamLabel.SEMIMETRIC_ONLY
        )

    def test_pairwise_sum_tests_match_every_pair(self):
        # the two smallest values decide; below two candidates there is no
        # pair, so both tests hold
        rng = random.Random(12)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 6)
            mu = Measure([rng.choice((-2, -1, F(-1, 2), 0, F(1, 2), 1, 2)) for _ in range(n)])
            sums = [x + y for x, y in combinations(mu.values, 2)]
            expected = (all(s >= 0 for s in sums), all(s > 0 for s in sums))
            assert (mu.pairwise_sums_nonnegative(), mu.pairwise_sums_positive()) == expected
            seen.add(expected)
        assert seen == {(True, True), (True, False), (False, False)}

    def test_mirrored_pair_is_equivalent(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 6)
            w = rand_weights(rng, n, nonneg=False)
            mu = rand_measure(rng, n, nonneg=False)
            assert classify(w, mu) is classify(w.negate(), mu.negate())

    def test_n2_cases(self):
        assert classify(MenuWeights([1]), Measure([1, 1])) is ParamLabel.METRIC
        assert classify(MenuWeights([1]), Measure([1, -1])) is ParamLabel.SEMIMETRIC_ONLY
        assert classify(MenuWeights([1]), Measure([-1, -1])) is ParamLabel.NOT_SEMIMETRIC
        assert classify(MenuWeights([-1]), Measure([-1, -1])) is ParamLabel.METRIC
        assert classify(MenuWeights([0]), Measure([5, 5])) is ParamLabel.TRIVIAL_ZERO

    def test_two_candidates_match_the_closed_form(self):
        grid = (-2, -1, F(-1, 2), 0, F(1, 3), 1, 3)
        seen = set()
        for w2 in grid:
            for mu1 in grid:
                for mu2 in grid:
                    weights, mu = MenuWeights([w2]), Measure([mu1, mu2])
                    label = classify(weights, mu)
                    assert label is _two_candidate_label(weights, mu), (w2, mu1, mu2)
                    seen.add(label)
        assert seen == set(ParamLabel)

    def test_mixed_sign_weights_can_still_be_metrics(self):
        # a small negative top-size weight keeps every region constraint
        label = classify(
            MenuWeights([1, 1, 1, 1, F(-1, 10)]), counting_measure(6)
        )
        assert label is ParamLabel.METRIC
        region = _brute_force_region(
            make_params(MenuWeights([1, 1, F(-1, 10)]), counting_measure(4)), 4
        )
        assert region == "metric"

    def test_price_screen_rejects_without_enumeration(self):
        # clearly broken mixed signs classify instantly at any size
        label = classify(MenuWeights([1, -5] + [0] * 5), counting_measure(8))
        assert label is ParamLabel.NOT_SEMIMETRIC

    def test_ambiguous_mixed_signs_guarded_beyond_n6(self):
        from menurank import distance, identity

        weights = MenuWeights([1, 1, 1, 1, 1, 1, F(-1, 10)])
        params = make_params(weights, counting_measure(8))
        # evaluation is fine; only the label needs the exact region
        assert distance(params, identity(8), identity(8)) == 0
        with pytest.raises(ValueError, match="n <= 7"):
            params.label

    def test_mixed_sign_region_matches_the_enumeration(self):
        rng = random.Random(17)
        regions = []
        # the enumeration takes about 0.6 s for a vector inside the region at n = 6
        for n, count in ((4, 14), (5, 14), (6, 4)):
            for _ in range(count):
                weights = _screened_mixed_signs(rng, n)
                region = neutral_region.__wrapped__(weights)
                assert region == _reference_region(weights), weights
                regions.append((region, 0 in weights.values))
        inside = [zero for (semimetric, _), zero in regions if semimetric]
        assert len(inside) >= 8 and any(inside)
        assert {region for region, _ in regions} == {
            (True, True), (True, False), (False, False)
        }

    def test_screened_mixed_signs_are_nonnegative_from_the_identity(self):
        # why neutral_region checks no d(id, q) >= 0: the first price screen
        # makes f nondecreasing, so every counting-measure term is >= 0
        rng = random.Random(23)
        for n, count in ((4, 12), (5, 12), (6, 6)):
            for _ in range(count):
                params = make_params(_screened_mixed_signs(rng, n))
                identity, *others = all_rankings(n)
                assert all(distance(params, identity, q) >= 0 for q in others)

    def test_nonpositive_weights_fail_the_first_price_screen(self, monkeypatch):
        from menurank import aggregation

        def refuse(params, profile):
            raise AssertionError("an exact solve ran")

        monkeypatch.setattr(aggregation, "aggregate_exact", refuse)
        rng = random.Random(19)
        past_the_second = 0
        for n in range(2, 8):
            for _ in range(30):
                values = [F(-rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n - 1)]
                if not any(values):
                    values[rng.randrange(n - 1)] = F(-1)
                phi = menu_to_position_weights(MenuWeights(values)).values
                assert any(v < 0 for v in phi), values
                past_the_second += all(v >= phi[-1] for v in phi)
                assert neutral_region.__wrapped__(MenuWeights(values)) == (False, False)
        # some vectors only the sign screen stops
        assert past_the_second > 0

    def test_region_solves_each_ranking_and_its_inverse_once(self, monkeypatch):
        from menurank import aggregation

        real = aggregation.aggregate_exact
        solved = []

        def record(params, profile):
            solved.append(profile.entries[1][1])
            return real(params, profile)

        monkeypatch.setattr(aggregation, "aggregate_exact", record)
        for weights in (MenuWeights([1, 1, F(-1, 10)]), MenuWeights([1, 1, 1, F(-1, 10)])):
            solved.clear()
            # inside the region, so no q ends the scan early
            assert neutral_region.__wrapped__(weights) == (True, True)
            identity, *others = all_rankings(weights.n)
            pairs = {frozenset((q, q.inverse())) for q in others}
            assert len(solved) == len(pairs) == len({frozenset((q, q.inverse())) for q in solved})

    def test_mixed_sign_region_guard_raises_before_any_solve(self, monkeypatch):
        from menurank import aggregation

        def refuse(params, profile):
            raise AssertionError("an exact solve ran")

        monkeypatch.setattr(aggregation, "aggregate_exact", refuse)
        # a vector no other test classifies, so the cache cannot answer
        weights = MenuWeights([1, 1, 1, 1, 1, 1, F(-1, 11)])
        with pytest.raises(ValueError, match="n <= 7"):
            neutral_region(weights)

    def test_mixed_signs_at_n7_classify_by_consensus(self):
        # the (n!)^2 enumeration, run once with its guard lifted, also says
        # metric here (45 s against 2 s)
        label = classify(MenuWeights([1, 1, 1, 1, 1, F(-1, 10)]), counting_measure(7))
        assert label is ParamLabel.METRIC

    def test_labels_match_brute_force(self):
        rng = random.Random(10)
        seen = set()
        cases = [
            make_params(
                rand_weights(rng, n, nonneg=rng.random() < 0.5),
                rand_measure(rng, n, nonneg=rng.random() < 0.5),
            )
            for n in (rng.randint(2, 4) for _ in range(60))
        ]
        # mixed-sign n = 5 weights that pass both price screens, so the
        # label comes from the exact enumeration: a metric, a semimetric
        # only, and a triangle violation
        for beta in ([1, F(5, 2), F(3, 2), F(-5, 2)], [0, 1, 2, -3], [1, 1, -1, F(1, 3)]):
            cases.append(make_params(MenuWeights(beta), counting_measure(5)))
            cases.append(make_params(MenuWeights(beta), Measure([1, 2, F(1, 2), 1, 3])))
        for params in cases:
            n = params.n
            seen.add(params.label)
            region = _brute_force_region(params, n)
            if params.label is ParamLabel.METRIC:
                assert region == "metric"
            elif params.label in (ParamLabel.SEMIMETRIC_ONLY, ParamLabel.TRIVIAL_ZERO):
                assert region == "semimetric"
            else:
                assert region is None
        assert ParamLabel.METRIC in seen and ParamLabel.NOT_SEMIMETRIC in seen


class TestPresets:
    def test_kendall(self):
        w, mu = preset("kendall", 4)
        assert w.values == (1, 0, 0)
        assert mu.values == (1, 1, 1, 1)

    def test_ok_nishimura(self):
        assert preset("ok-nishimura", 3)[0].values == (1, 1)

    def test_gilbert(self):
        assert preset("gilbert", 5, 3)[0].values == (1, 1, 0, 0)
        assert preset("gilbert", 5, "4/1")[0].values == (1, 1, 1, 0)
        with pytest.raises(ValueError):
            preset("gilbert", 5)
        # a cutoff that is not a whole menu size is refused, not truncated
        for cutoff in ("5/2", F(7, 2), "9/4"):
            with pytest.raises(ValueError, match="not a whole menu size"):
                preset("gilbert", 5, cutoff)

    def test_unavailable_candidate(self):
        assert preset("unavailable-candidate", 4, 2)[0].values == (1, 1, 1)
        assert preset("unavailable-candidate", 4, 3)[0].values == (1, 2, 4)
        with pytest.raises(ValueError):
            preset("unavailable-candidate", 4, 1)

    def test_linear(self):
        assert preset("linear", 4)[0].values == (2, 3, 4)

    def test_binomial(self):
        w, _ = preset("binomial", 3, F(1, 2))
        assert w.values == (F(1, 8), F(1, 8))
        with pytest.raises(ValueError):
            preset("binomial", 3, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("borda", 3)

    @pytest.mark.parametrize("name", ["kendall", "ok-nishimura", "linear"])
    def test_parameterless_presets_refuse_a_parameter(self, name):
        for param in (7, F(1, 2), "3"):
            with pytest.raises(ValueError, match=f"{name} takes no parameter"):
                preset(name, 4, param)


class TestApproximationFactor:
    def test_pairwise_weights(self):
        # f(t) = t: the worst position ratio is 1 + (n-2)/(n-1), rising to 2
        for n in range(2, 9):
            w = MenuWeights([1] + [0] * (n - 2))
            assert approximation_factor(w) == 1 + F(n - 2, n - 1) < 2

    def test_all_ones_approaches_three_halves(self):
        # f(t) = 2^t - 1: factor 1 + (2^(n-2)-1)/(2^(n-1)-1), rising to 3/2
        previous = F(0)
        for n in range(2, 11):
            got = approximation_factor(MenuWeights([1] * (n - 1)))
            assert got == 1 + F(2 ** (n - 2) - 1, 2 ** (n - 1) - 1) < F(3, 2)
            assert got > previous
            previous = got

    def test_factor_is_the_worst_pair_ratio(self):
        # the bound is tight: some pair attains it (checked exhaustively)
        from menurank import distance, footrule, make_params

        for name, param in [("kendall", None), ("ok-nishimura", None),
                            ("linear", None), ("binomial", F(1, 3))]:
            for n in (3, 4):
                w, mu = preset(name, n, param)
                params = make_params(w, mu)
                perms = all_rankings(n)
                worst = max(
                    distance(params, a, b) / footrule(w, a, b)
                    for i, a in enumerate(perms)
                    for b in perms[i + 1:]
                )
                assert worst == approximation_factor(w)

    def test_linear_weights_bounded_by_three_halves(self):
        for n in range(2, 9):
            w = preset("linear", n)[0]
            assert approximation_factor(w) <= F(3, 2)

    def test_binomial_bounded_by_one_plus_p(self):
        for p in (F(1, 2), F(1, 3), F(2, 5)):
            for n in range(2, 8):
                w = preset("binomial", n, p)[0]
                assert approximation_factor(w) <= 1 + p

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            approximation_factor(MenuWeights([0, 1]))
        with pytest.raises(ValueError):
            approximation_factor(MenuWeights([1, -1]))


class TestParamsFile:
    def test_explicit_vectors(self):
        w, mu = parse_params_text("beta: 1 0\nmu: 1 1 2\n")
        assert w.values == (1, 0) and mu.values == (1, 1, 2)

    def test_rational_tokens_and_comments(self):
        w, mu = parse_params_text("# c\nbeta: 1/2 3\nmu: 2/3 1 1\n")
        assert w.values == (F(1, 2), 3)
        assert mu.values == (F(2, 3), 1, 1)

    def test_preset_line(self):
        w, mu = parse_params_text("preset: kendall\n", n=4)
        assert w.values == (1, 0, 0) and mu.values == (1, 1, 1, 1)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("mu: 1 1\n", "no menu weights"),
            ("beta: 1\nmu: 1 1 1\n", "mu lists 3"),
            ("beta 1 2\n", "expected 'key"),
            ("gamma: 1\n", "unknown key"),
            ("preset: kendall\n", "candidate count"),
            ("beta: x\n", "bad value"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParamsFormatError, match=fragment):
            parse_params_text(text)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("preset: gilbert 3 junk\n", "more than a name and one parameter"),
            ("preset: kendall 7 junk\n", "more than a name and one parameter"),
            ("preset: kendall 7\n", "kendall takes no parameter"),
        ],
    )
    def test_preset_line_refuses_unused_tokens(self, text, fragment):
        with pytest.raises(ParamsFormatError, match=fragment):
            parse_params_text(text, n=4)


class TestRationalTokens:
    @pytest.mark.parametrize("text, value", [
        ("0", F(0)), ("7", F(7)), ("+3", F(3)), ("-3/4", F(-3, 4)), ("2/6", F(1, 3)),
        ("007/010", F(7, 10)),
    ])
    def test_integers_and_ratios_parse(self, text, value):
        assert as_fraction(text) == value

    @pytest.mark.parametrize("text", [
        "0.5", ".5", "5.", "1e3", "1E3", "1.5e-2", "1_000", "1/2_0", " 1/2", "1/2 ",
        "\u0661", "1 /2", "1/-2", "--1", "/2", "1/", "", "inf", "0x10",
    ])
    def test_other_notations_are_refused(self, text):
        with pytest.raises(ValueError, match="integer or p/q"):
            as_fraction(text)

    def test_zero_denominator_still_raises(self):
        with pytest.raises(ZeroDivisionError):
            as_fraction("1/0")

    def test_huge_exponent_is_refused_at_once(self):
        # an exponent token used to build an exact integer of ~33M bits
        # (13 s); refusing the notation must not look at its value
        start = time.perf_counter()
        with pytest.raises(ParamsFormatError, match="integer or p/q"):
            parse_params_text("beta: 1e9999999 1\n")
        with pytest.raises(ValueError, match="integer or p/q"):
            preset("binomial", 4, "1e-9999999")
        assert time.perf_counter() - start < 1


class TestDistanceParams:
    def test_only_the_pair_is_stored(self):
        assert [f.name for f in fields(DistanceParams)] == ["weights", "mu"]
        w, mu = MenuWeights([F(1, 2), F(-1, 3), 2]), Measure([F(3, 4), 1, F(1, 6), 0])
        params = DistanceParams(w, mu)
        assert params == make_params(w, mu) and hash(params) == hash(make_params(w, mu))
        assert params.weights.scaled == ((3, -2, 12), 6)
        assert params.mu.scaled == ((9, 12, 2, 0), 12) and params.int_mu == mu.scaled[0]
        assert params.scale == params.weights.scaled[1] * params.mu.scaled[1] == 72
        assert [F(v, params.weights.scaled[1]) for v in params.int_table] == list(
            downset_mass_table(w)
        )
        assert not any(
            hasattr(params, view) for view in ("int_weights", "weights_scale", "mu_scale")
        )

    def test_make_params_coerces_and_checks_dimensions(self):
        params = make_params([1, "1/2"])
        assert params == DistanceParams(MenuWeights([1, F(1, 2)]), counting_measure(3))
        assert make_params([1, 0], [1, 2, 3]).mu == Measure([1, 2, 3])
        with pytest.raises(ValueError, match="dimension mismatch"):
            make_params([1, 0], [1, 1])


VECTOR_TYPES = [
    (MenuWeights, "menu weights need at least the size-2 entry"),
    (Measure, "a measure needs at least one candidate"),
    (PositionWeights, "position weights need at least one entry"),
]


class TestVectorTypes:
    @pytest.mark.parametrize("kind, empty", VECTOR_TYPES, ids=lambda v: getattr(v, "__name__", ""))
    def test_each_type_keeps_its_identity(self, kind, empty):
        vector = kind([1, F(1, 2)])
        equal = kind(["1", "1/2"])
        assert vector == equal and hash(vector) == hash(equal)
        assert all(vector != other([1, F(1, 2)]) for other, _ in VECTOR_TYPES if other is not kind)
        negated = vector.negate()
        assert type(negated) is kind and negated.values == (-1, F(-1, 2))
        assert vector.is_nonnegative() and not negated.is_nonnegative()
        assert vector.scaled == ((2, 1), 2)
        assert repr(kind([1])) == f"{kind.__name__}(values=(Fraction(1, 1),))"
        with pytest.raises(ValueError, match=f"^{empty}$"):
            kind([])

    def test_equal_weights_hit_the_region_cache(self):
        neutral_region(MenuWeights([1, F(1, 3), 2]))
        hits = neutral_region.cache_info().hits
        neutral_region(MenuWeights(["1", "1/3", "2"]))
        assert neutral_region.cache_info().hits == hits + 1

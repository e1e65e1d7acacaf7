from __future__ import annotations

import gc
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from menurank import (
    MenuWeights,
    Measure,
    ParamLabel,
    Permutation,
    all_rankings,
    approximation_factor,
    distance,
    distance_naive,
    downset_mass,
    footrule,
    footrule_weighted,
    identity,
    is_between,
    kendall_count,
    make_params,
    menu_to_position_weights,
    preset,
    profile_cost,
    truncated_distance,
)

from conftest import prof, rand_measure, rand_profile, rand_ranking, rand_weights

KENDALL3 = make_params(*preset("kendall", 3))
ONES3 = make_params(*preset("ok-nishimura", 3))


class TestSpecValues:
    def test_zero_on_equal_rankings(self):
        p = Permutation((2, 1, 3))
        assert distance_naive(KENDALL3, p, p) == 0
        assert distance(KENDALL3, p, p) == 0

    def test_single_swap_under_pairwise_weights(self):
        # one disagreeing pair, both candidates of unit measure
        assert distance_naive(KENDALL3, identity(3), Permutation((2, 1, 3))) == 2
        assert distance(KENDALL3, identity(3), Permutation((2, 1, 3))) == 2

    def test_full_reversal_all_menus(self):
        rev = Permutation((3, 2, 1))
        assert distance_naive(ONES3, identity(3), rev) == 8
        assert distance(ONES3, identity(3), rev) == 8

    def test_pairwise_weights_double_the_inversion_count(self):
        rng = random.Random(1)
        for n in range(2, 9):
            params = make_params(*preset("kendall", n))
            for _ in range(20):
                a, b = rand_ranking(rng, n), rand_ranking(rng, n)
                assert distance(params, a, b) == 2 * kendall_count(a, b)

    def test_naive_guard(self):
        params = make_params(*preset("kendall", 21))
        with pytest.raises(ValueError, match="capped"):
            distance_naive(params, identity(21), identity(21))

    def test_naive_scan_branch_beyond_top_tables(self):
        # the oracle past n = 12 agrees with the closed form
        rng = random.Random(99)
        params = make_params(*preset("linear", 13))
        a, b = rand_ranking(rng, 13), rand_ranking(rng, 13)
        assert distance_naive(params, a, b) == distance(params, a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            distance(KENDALL3, identity(3), identity(4))

    def test_naive_keeps_nothing_once_the_rankings_are_dropped(self):
        # the menu-top tables live on the two rankings and nowhere else
        rng = random.Random(16)
        params = make_params(*preset("linear", 16))
        a, b = rand_ranking(rng, 16), rand_ranking(rng, 16)
        tracemalloc.start()
        try:
            assert distance_naive(params, a, b) == distance(params, a, b)
            del a, b
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        rng = random.Random(2)
        for n in (2, 3, 4):
            perms = all_rankings(n)
            for _ in range(4):
                params = make_params(rand_weights(rng, n), rand_measure(rng, n))
                for a in perms:
                    for b in perms:
                        assert distance(params, a, b) == distance_naive(params, a, b)

    def test_signed_parameters_also_agree(self):
        # evaluators accept any sign; only classification gates meaning
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 6)
            params = make_params(
                rand_weights(rng, n, nonneg=False), rand_measure(rng, n, nonneg=False)
            )
            a, b = rand_ranking(rng, n), rand_ranking(rng, n)
            assert distance(params, a, b) == distance_naive(params, a, b)

    def test_random_midsize(self):
        rng = random.Random(4)
        for n in (5, 6, 7):
            for _ in range(30):
                params = make_params(rand_weights(rng, n), rand_measure(rng, n))
                a, b = rand_ranking(rng, n), rand_ranking(rng, n)
                assert distance(params, a, b) == distance_naive(params, a, b)


class TestMetricStructure:
    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(2, 7)
            params = make_params(
                rand_weights(rng, n, nonneg=False), rand_measure(rng, n, nonneg=False)
            )
            a, b = rand_ranking(rng, n), rand_ranking(rng, n)
            assert distance(params, a, b) == distance(params, b, a)

    def test_metric_labels_back_the_axioms(self):
        rng = random.Random(6)
        checked = 0
        while checked < 6:
            n = rng.randint(2, 4)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            if params.label is not ParamLabel.METRIC:
                continue
            checked += 1
            perms = all_rankings(n)
            table = {(a, b): distance(params, a, b) for a in perms for b in perms}
            assert all(v >= 0 for v in table.values())
            assert all(
                (table[(a, b)] == 0) == (a == b) for a in perms for b in perms
            )
            for a in perms:
                for b in perms:
                    for c in perms:
                        assert table[(a, c)] <= table[(a, b)] + table[(b, c)]

    def test_betweenness_additivity(self):
        # any two rankings two or more swaps apart have a strictly
        # intermediate ranking splitting the distance exactly
        rng = random.Random(7)
        for n in (3, 4):
            perms = all_rankings(n)
            for _ in range(3):
                params = make_params(rand_weights(rng, n), rand_measure(rng, n))
                for a in perms:
                    for b in perms:
                        if kendall_count(a, b) < 2:
                            continue
                        assert any(
                            w not in (a, b)
                            and is_between(a, w, b)
                            and distance(params, a, w) + distance(params, w, b)
                            == distance(params, a, b)
                            for w in perms
                        )

    def test_adjacent_swap_prices(self):
        rng = random.Random(8)
        for n in range(2, 7):
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            phi = menu_to_position_weights(params.weights)
            for p in all_rankings(n):
                for a in range(1, n):
                    expected = phi.at(a) * (
                        params.mu.of(p.order[a - 1]) + params.mu.of(p.order[a])
                    )
                    assert distance(params, p, p.swap_adjacent(a)) == expected


class TestNeutrality:
    def test_constant_measure_is_relabelling_invariant(self):
        rng = random.Random(9)
        for n in (3, 4):  # exhaustive over all (tau, a, b)
            perms = all_rankings(n)
            params = make_params(rand_weights(rng, n))
            index = {p: i for i, p in enumerate(perms)}
            table = [[distance(params, a, b) for b in perms] for a in perms]
            composed = [
                [index[tau.compose(p)] for p in perms] for tau in perms
            ]
            for t in range(len(perms)):
                row = composed[t]
                for i in range(len(perms)):
                    for j in range(len(perms)):
                        assert table[row[i]][row[j]] == table[i][j]
        # sampled at n = 5
        params = make_params(rand_weights(rng, 5))
        for _ in range(500):
            tau, a, b = (rand_ranking(rng, 5) for _ in range(3))
            assert distance(params, tau.compose(a), tau.compose(b)) == distance(
                params, a, b
            )

    def test_nonconstant_measure_breaks_invariance(self):
        params = make_params(MenuWeights([1, 0]), Measure([1, 1, 2]))
        perms = all_rankings(3)
        assert any(
            distance(params, tau.compose(a), tau.compose(b))
            != distance(params, a, b)
            for tau in perms
            for a in perms
            for b in perms
        )


class TestFootrule:
    def test_zero_on_equal(self):
        assert footrule(KENDALL3.weights, identity(3), identity(3)) == 0

    def test_single_swap(self):
        assert footrule(KENDALL3.weights, identity(3), Permutation((2, 1, 3))) == 2

    def test_sandwich_on_the_swap(self):
        a, b = identity(3), Permutation((2, 1, 3))
        fr = footrule(KENDALL3.weights, a, b)
        d = distance(KENDALL3, a, b)
        assert fr == 2 and d == 2
        assert fr <= d <= approximation_factor(KENDALL3.weights) * fr

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            footrule(MenuWeights([1, -1]), identity(3), identity(3))

    def test_sandwich_exhaustive_small(self):
        for name, param in [("kendall", None), ("ok-nishimura", None),
                            ("linear", None), ("binomial", F(1, 2)),
                            ("gilbert", 3), ("unavailable-candidate", 3)]:
            for n in (3, 4):
                weights, mu = preset(name, n, param)
                params = make_params(weights, mu)
                gamma = approximation_factor(weights)
                perms = all_rankings(n)
                for i, a in enumerate(perms):
                    for b in perms[i + 1:]:
                        fr = footrule(weights, a, b)
                        d = distance(params, a, b)
                        assert fr <= d <= gamma * fr

    def test_weighted_matches_the_defining_sum(self):
        # repeated calls on the same weight and measure objects reuse their
        # derived integer scaling; each value must still be the Fraction sum
        rng = random.Random(12)
        for _ in range(15):
            n = rng.randint(2, 6)
            weights = rand_weights(rng, n)
            mu = rand_measure(rng, n, nonneg=rng.random() < 0.5)
            f = [downset_mass(weights, t) for t in range(n)]
            for _ in range(10):
                a, b = rand_ranking(rng, n), rand_ranking(rng, n)
                expected = sum(
                    (
                        mu.of(c) * abs(f[n - a.position(c)] - f[n - b.position(c)])
                        for c in range(1, n + 1)
                    ),
                    F(0),
                )
                assert footrule_weighted(weights, mu, a, b) == expected

    def test_derived_scaling_keeps_value_semantics(self):
        weights, mu = MenuWeights([F(1, 2), F(2, 3)]), Measure([1, F(3, 4), 2])
        assert weights.scaled == ((3, 4), 6) and mu.scaled == ((4, 3, 8), 4)
        assert weights.is_nonnegative() and not weights.negate().is_nonnegative()
        twin = MenuWeights([F(1, 2), F(2, 3)])
        assert twin == weights and hash(twin) == hash(weights)
        assert repr(twin) == repr(weights)

    def test_weighted_sandwich_with_measure_spread(self):
        rng = random.Random(10)
        for _ in range(6):
            n = rng.randint(3, 5)
            weights = rand_weights(rng, n)
            if weights.values[0] == 0:
                continue
            mu = Measure([F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)])
            params = make_params(weights, mu)
            gamma = approximation_factor(weights)
            spread = max(mu.values) / min(mu.values)
            for _ in range(150):
                a, b = rand_ranking(rng, n), rand_ranking(rng, n)
                fr = footrule_weighted(weights, mu, a, b)
                d = distance(params, a, b)
                assert fr <= d <= gamma * spread * fr


class TestTruncation:
    def test_full_window_recovers_distance(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 7)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            a, b = rand_ranking(rng, n), rand_ranking(rng, n)
            assert truncated_distance(params, a, b, 1, n) == distance(params, a, b)

    def test_equal_rankings_vanish_on_any_window(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 7)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            a = rand_ranking(rng, n)
            first = rng.randint(1, n)
            last = rng.randint(first, n)
            assert truncated_distance(params, a, a, first, last) == 0

    def test_window_sees_only_the_first_prefix(self):
        # against a fixed second ranking, the window value only reads the
        # first ranking's prefix down to the window's last position
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(3, 7)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            a, b = rand_ranking(rng, n), rand_ranking(rng, n)
            last = rng.randint(1, n - 1)
            first = rng.randint(1, last)
            tail = list(range(last + 1, n + 1))
            rng.shuffle(tail)
            a2 = Permutation(a.order[:last] + tuple(a.order[i - 1] for i in tail))
            assert truncated_distance(params, a, b, first, last) == truncated_distance(
                params, a2, b, first, last
            )

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            truncated_distance(KENDALL3, identity(3), identity(3), 2, 1)
        with pytest.raises(ValueError, match="window"):
            truncated_distance(KENDALL3, identity(3), identity(3), 0, 3)


class TestProfileCost:
    def test_unanimous_profile(self):
        p = Permutation((2, 1, 3))
        V = prof((4, (2, 1, 3)))
        assert profile_cost(KENDALL3, p, V) == 0

    def test_worked_election(self):
        params = make_params(MenuWeights([1, 0]), Measure([1, 1, 2]))
        V = prof((1, (1, 2, 3)), (1, (3, 1, 2)), (1, (2, 3, 1)))
        assert profile_cost(params, Permutation((1, 2, 3)), V) == 11
        assert profile_cost(params, Permutation((2, 3, 1)), V) == 10
        assert profile_cost(params, Permutation((1, 3, 2)), V) == 14
        # cross-check through the enumeration oracle
        naive = sum(
            mult * distance_naive(params, Permutation((1, 3, 2)), v)
            for mult, v in V.entries
        )
        assert naive == 14

    def test_multiplicities_weigh_in(self):
        rng = random.Random(14)
        for _ in range(30):
            n = rng.randint(2, 5)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            V = rand_profile(rng, n)
            p = rand_ranking(rng, n)
            expanded = sum(
                mult * distance(params, p, v) for mult, v in V.entries
            )
            assert profile_cost(params, p, V) == expanded

    def test_integer_sum_equals_summed_distances(self):
        # one division by the scale at the end, against a Fraction per ballot:
        # mixed-sign weights, measures with zero and negative entries, and
        # the oracle on a few of them
        rng = random.Random(15)
        for trial in range(60):
            n = rng.randint(2, 9)
            mu = rand_measure(rng, n, nonneg=rng.random() < 0.5).values
            mu = Measure([0 if rng.random() < 0.3 else v for v in mu])
            params = make_params(rand_weights(rng, n, nonneg=False), mu)
            V = rand_profile(rng, n, max_ballots=6, max_mult=5)
            p = rand_ranking(rng, n)
            cost = profile_cost(params, p, V)
            assert cost == sum((mult * distance(params, p, v) for mult, v in V.entries), F(0))
            if trial < 10:
                assert cost == sum(mult * distance_naive(params, p, v) for mult, v in V.entries)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            profile_cost(KENDALL3, identity(4), prof((1, (1, 2, 3))))
        with pytest.raises(ValueError, match="dimension mismatch"):
            profile_cost(KENDALL3, identity(3), prof((1, (1, 2, 3, 4))))

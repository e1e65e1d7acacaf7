from __future__ import annotations

import copy
import random
from fractions import Fraction as F
from itertools import permutations as it_perms
from math import comb

import pytest

from menurank import (
    MenuWeights,
    Measure,
    Permutation,
    aggregate_exact,
    aggregate_footrule,
    aggregate_myopic,
    approximation_factor,
    footrule,
    make_params,
    preset,
    profile_cost,
    ptas_depth,
    ptas_weights,
    truncated_distance,
    truncation_ratio,
)
from menurank import aggregation
from menurank.aggregation import MYOPIC_SUBSET_LIMIT, _position_terms, _term_table

from conftest import prof, rand_measure, rand_profile, rand_ranking, rand_weights


def brute_consensus(params, profile):
    costs = {
        q: profile_cost(params, Permutation(q), profile)
        for q in it_perms(range(1, profile.n + 1))
    }
    best = min(costs.values())
    return best, {q for q, c in costs.items() if c == best}


class TestExact:
    def test_unanimous_profile(self):
        params = make_params(*preset("kendall", 4))
        target = Permutation((3, 1, 4, 2))
        res = aggregate_exact(params, prof((5, (3, 1, 4, 2))))
        assert res.minimizers == (target,)
        assert res.optimum == 0
        assert res.winners == {3}

    def test_cycle_keeps_all_three_rotations(self):
        params = make_params(*preset("kendall", 3))
        res = aggregate_exact(
            params, prof((1, (1, 2, 3)), (1, (2, 3, 1)), (1, (3, 1, 2)))
        )
        assert {p.order for p in res.minimizers} == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
        assert res.optimum == 8
        assert res.winners == {1, 2, 3}

    def test_matches_brute_force(self):
        rng = random.Random(20)
        for trial in range(44):
            n = rng.randint(2, 5) if trial < 40 else 6
            params = make_params(
                rand_weights(rng, n, nonneg=rng.random() < 0.7),
                rand_measure(rng, n),
            )
            V = rand_profile(rng, n)
            res = aggregate_exact(params, V)
            best, argmin = brute_consensus(params, V)
            assert res.optimum == best
            assert [p.order for p in res.minimizers] == sorted(argmin)
            # built unchecked, they still equal and hash like checked rankings
            public = tuple(Permutation(q) for q in sorted(argmin))
            assert res.minimizers == public
            assert [hash(p) for p in res.minimizers] == [hash(p) for p in public]
            assert res.winners == {q[0] for q in argmin}

    @staticmethod
    def assert_table_matches_terms(params, V):
        term, scale = _position_terms(params, V)
        rows, table_scale = _term_table(params, V)
        assert table_scale == scale
        # masks holding c are never read by the DP; they still follow the
        # same formula, except the full mask, which has no next position
        n = params.n
        full = (1 << n) - 1
        for c in range(1, n + 1):
            for placed in range(full):
                assert rows[c - 1][placed] == term(placed.bit_count() + 1, c, placed)
            assert rows[c - 1][full] == 0
        return rows

    def test_term_table_equals_position_terms(self):
        # the subset-transform table against the per-ballot closure, entry by
        # entry, over mixed-sign weights and measures with zero entries
        rng = random.Random(28)
        for _ in range(60):
            n = rng.randint(2, 8)
            weights = rand_weights(rng, n, nonneg=rng.random() < 0.5)
            mu = rand_measure(rng, n, nonneg=rng.random() < 0.7)
            if rng.random() < 0.5:
                mu = Measure([0 if rng.random() < 0.3 else v for v in mu.values])
            params = make_params(weights, mu)
            V = rand_profile(rng, n, max_ballots=6)
            self.assert_table_matches_terms(params, V)
        # the largest tables the exact solver builds
        for n in (9, 10):
            weights = rand_weights(rng, n, nonneg=False)
            params = make_params(weights, rand_measure(rng, n, nonneg=False))
            self.assert_table_matches_terms(params, rand_profile(rng, n, max_ballots=8))
        # lanes of two and more 64-bit words: a weight numerator near 2^70, a
        # multiplicity near 2^60, and both at once
        for n, big_weight, big_mult in ((5, True, False), (6, False, True), (4, True, True)):
            weights = rand_weights(rng, n, nonneg=False).values
            if big_weight:
                weights = (weights[0] - (1 << 70) - 3,) + weights[1:]
            V = rand_profile(rng, n, max_ballots=5, max_mult=(1 << 60) if big_mult else 3)
            params = make_params(MenuWeights(weights), rand_measure(rng, n, nonneg=False))
            rows = self.assert_table_matches_terms(params, V)
            assert max(abs(v) for row in rows for v in row) >> 64
        # a row value at the far end of its bound, -4 max|mu f| V: 16 V is
        # just over 2^63, so its sign bit needs a second word
        V = prof(((1 << 59) + 1, (2, 1, 3)))
        params = make_params(MenuWeights([1, -3]), Measure([4, 4, 4]))
        assert self.assert_table_matches_terms(params, V)[0][0] == -16 * V.voters
        # w_{k+1} = (-2)^k keeps |f| <= 2, yet the positive and negative
        # overlap parts of the top candidate reach about 3^9 V / 2: over 2^66
        params = make_params(MenuWeights([(-2) ** k for k in range(1, 10)]), Measure([1] * 10))
        self.assert_table_matches_terms(params, prof((1 << 53, tuple(range(1, 11)))))
        # all-zero weights and an all-zero measure
        for n in (2, 5, 7):
            V = rand_profile(rng, n, max_ballots=6)
            zero_weights = MenuWeights([0] * (n - 1))
            self.assert_table_matches_terms(make_params(zero_weights, rand_measure(rng, n)), V)
            zero_mu = Measure([0] * n)
            self.assert_table_matches_terms(make_params(rand_weights(rng, n), zero_mu), V)

    def test_term_table_cold_equals_warm(self):
        # the lane masks are cached per (bits, width): the first call builds
        # them, and later calls must read the same table
        rng = random.Random(31)
        params = make_params(*preset("ok-nishimura", 10))
        V = rand_profile(rng, 10, max_ballots=30)
        aggregation._lane_masks.cache_clear()
        cold = _term_table(params, V)
        assert aggregation._lane_masks.cache_info().currsize > 0
        assert _term_table(params, V) == cold

    def test_result_deep_copies(self):
        params = make_params(*preset("kendall", 3))
        res = aggregate_exact(
            params, prof((1, (1, 2, 3)), (1, (2, 3, 1)), (1, (3, 1, 2)))
        )
        clone = copy.deepcopy(res)
        assert clone == res and clone.minimizers is not res.minimizers
        assert [p.position(1) for p in clone.minimizers] == [1, 3, 2]

    def test_size_guard(self):
        params = make_params(*preset("kendall", 11))
        with pytest.raises(ValueError, match="n <= 10"):
            aggregate_exact(params, prof((1, tuple(range(1, 12)))))


class TestFootruleAggregation:
    def test_unanimous_profile_costs_nothing(self):
        res = aggregate_footrule(preset("kendall", 4)[0], prof((3, (2, 4, 1, 3))))
        assert res.minimizers[0].order == (2, 4, 1, 3)
        assert res.optimum == 0
        assert res.certificate == 0

    def test_assignment_reaches_the_footrule_optimum(self):
        rng = random.Random(22)
        for _ in range(25):
            n = rng.randint(2, 6)
            weights = rand_weights(rng, n)
            V = rand_profile(rng, n)
            res = aggregate_footrule(weights, V)
            brute = min(
                sum(mult * footrule(weights, Permutation(q), v) for mult, v in V.entries)
                for q in it_perms(range(1, n + 1))
            )
            assert res.optimum == brute

    def test_certificate_within_factor_of_optimum(self):
        rng = random.Random(23)
        done = 0
        while done < 30:
            n = rng.randint(2, 6)
            weights = rand_weights(rng, n)
            if weights.values[0] == 0:
                continue
            done += 1
            V = rand_profile(rng, n)
            params = make_params(weights)
            exact = aggregate_exact(params, V)
            res = aggregate_footrule(weights, V)
            assert exact.optimum <= res.certificate
            assert res.certificate <= approximation_factor(weights) * exact.optimum

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="nonnegative"):
            aggregate_footrule(MenuWeights([-1, 0]), prof((1, (1, 2, 3))))
        with pytest.raises(ValueError, match="positive measure"):
            aggregate_footrule(
                MenuWeights([1, 0]), prof((1, (1, 2, 3))), Measure([1, 0, 1])
            )


class TestMyopic:
    def test_hand_traced_majority_run(self):
        # 2 of 3 voters put 1 on top, then all rank 2 above 3:
        # the majority loop alone fixes (1, 2, 3)
        params = make_params(*preset("kendall", 3))
        res = aggregate_myopic(params, prof((2, (1, 2, 3)), (1, (2, 1, 3))), 2)
        assert res.minimizers[0].order == (1, 2, 3)
        assert res.certificate == profile_cost(
            params, res.minimizers[0], prof((2, (1, 2, 3)), (1, (2, 1, 3)))
        )

    def test_unanimous_profile(self):
        params = make_params(*preset("ok-nishimura", 4))
        res = aggregate_myopic(params, prof((3, (4, 2, 3, 1))), 1)
        assert res.minimizers[0].order == (4, 2, 3, 1)
        assert res.certificate == 0

    def test_full_depth_equals_exact(self):
        rng = random.Random(24)
        for _ in range(30):
            n = rng.randint(2, 6)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            V = rand_profile(rng, n)
            assert (
                aggregate_myopic(params, V, n).certificate
                == aggregate_exact(params, V).optimum
            )

    def test_size_guard_counts_window_subsets_first(self, monkeypatch):
        # two opposite ballots leave no majority favourite, so the window
        # spans sum_{s <= depth} C(n, s) subsets; a stub stands in for the DP
        class ReachedTheDp(Exception):
            pass

        def refuse(pool, depth):
            raise ReachedTheDp

        monkeypatch.setattr(aggregation, "_masks_by_size", refuse)
        for n, depth, allowed in [(16, 16, True), (17, 8, True), (17, 9, False), (17, 17, False)]:
            assert (sum(comb(n, s) for s in range(depth + 1)) <= MYOPIC_SUBSET_LIMIT) == allowed
            params = make_params(*preset("kendall", n))
            V = prof((1, tuple(range(1, n + 1))), (1, tuple(range(n, 0, -1))))
            if allowed:
                with pytest.raises(ReachedTheDp):
                    aggregate_myopic(params, V, depth)
            else:
                with pytest.raises(ValueError, match="guard"):
                    aggregate_myopic(params, V, depth)

    def test_window_objective_is_reported(self):
        from menurank.aggregation import _majority_prefix

        rng = random.Random(25)
        for _ in range(25):
            n = rng.randint(3, 6)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            V = rand_profile(rng, n)
            depth = rng.randint(1, n)
            res = aggregate_myopic(params, V, depth)
            ranking = res.minimizers[0]
            prefix, remaining = _majority_prefix(V)
            assert ranking.order[: len(prefix)] == tuple(prefix)
            span = min(depth, len(remaining))
            if span == 0:
                assert res.optimum == 0
                continue
            start = len(prefix) + 1
            window_cost = sum(
                (
                    mult * truncated_distance(params, ranking, v, start, start + span - 1)
                    for mult, v in V.entries
                ),
                F(0),
            )
            assert res.optimum == window_cost
            # no other completion of the prefix beats the reported window
            others = [
                sum(
                    (
                        mult * truncated_distance(
                            params, Permutation(q), v, start, start + span - 1
                        )
                        for mult, v in V.entries
                    ),
                    F(0),
                )
                for q in it_perms(range(1, n + 1))
                if q[: len(prefix)] == tuple(prefix)
            ]
            assert res.optimum == min(others)
            assert res.certificate == profile_cost(params, ranking, V)

    def test_depth_guard(self):
        params = make_params(*preset("kendall", 3))
        with pytest.raises(ValueError, match="at least 1"):
            aggregate_myopic(params, prof((1, (1, 2, 3))), 0)

    def test_ptas_bound_on_random_profiles(self):
        rng = random.Random(26)
        eps = F(1, 2)
        depth = ptas_depth("affine", 1 / eps)
        for _ in range(20):
            n = rng.randint(3, 6)
            weights = MenuWeights([j + 1 for j in range(2, n + 1)])
            params = make_params(weights)
            V = rand_profile(rng, n)
            exact = aggregate_exact(params, V)
            res = aggregate_myopic(params, V, depth)
            assert res.certificate <= (1 + eps) * exact.optimum


class TestPtasDepth:
    def test_affine_closed_form(self):
        # ceil(log2(4/eps)): eps=1/4 -> 4, eps=1/2 -> 3, eps=1 -> 2
        assert ptas_depth("affine", 4) == 4
        assert ptas_depth("affine", 2) == 3
        assert ptas_depth("affine", 1) == 2

    def test_alternating_matches_affine(self):
        for inv_eps in (1, 2, 3, 4, 8):
            assert ptas_depth("alternating", inv_eps) == ptas_depth("affine", inv_eps)

    def test_exponential_closed_form(self):
        # ceil(log_alpha(alpha^2 / ((alpha-1)^2 eps)))
        assert ptas_depth("exponential", 4, alpha=2) == 4
        assert ptas_depth("exponential", 1, alpha=3) == 1  # ceil(log3 9/4)
        with pytest.raises(ValueError, match="alpha"):
            ptas_depth("exponential", 4)
        with pytest.raises(ValueError, match="alpha"):
            ptas_depth("exponential", 4, alpha=1)

    def test_custom_agrees_with_closed_forms_at_finite_horizon(self):
        for inv_eps in (2, 4):
            for rule in ("affine", "alternating"):
                weights = ptas_weights(rule, 12)
                assert ptas_depth(
                    "custom", inv_eps, n=12, weights=weights
                ) <= ptas_depth(rule, inv_eps)

    def test_custom_ratio_really_bounds(self):
        weights = ptas_weights("exponential", 10, alpha=2)
        depth = ptas_depth("custom", 4, n=10, weights=weights)
        eps = F(1, 4)
        for t in range(max(depth, 2), 11):
            assert truncation_ratio(weights, t, depth) <= eps

    def test_truncation_ratio_matches_binomial_sums(self):
        # reference: the ignored menus of sizes up to the pool left after the
        # window, over the binomial expansion of the top swap price
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randint(2, 7)
            w = rand_weights(rng, n)
            for t in range(2, n + 4):
                denominator = sum(
                    w.values[j] * comb(t - 2, j) for j in range(0, min(t - 2, n - 2) + 1)
                )
                for depth in range(1, t + 2):
                    numerator = sum(
                        w.values[j - 2] * comb(t - depth, j)
                        for j in range(2, min(t - depth, n) + 1)
                    )
                    if denominator <= 0:
                        with pytest.raises(ValueError):
                            truncation_ratio(w, t, depth)
                    else:
                        assert truncation_ratio(w, t, depth) == numerator / F(denominator)

    def test_custom_depth_is_the_first_depth_within_epsilon(self):
        # reference: the definition, one truncation_ratio per pool size
        rng = random.Random(34)
        for _ in range(25):
            n = rng.randint(2, 9)
            w = rand_weights(rng, n)
            if w.values[0] == 0:
                w = MenuWeights((F(rng.randint(1, 4), rng.randint(1, 3)),) + w.values[1:])
            for horizon in (n, n + 3):
                for inv_eps in (F(1, 2), 1, 3, 10, F(40, 3)):
                    eps = 1 / F(inv_eps)
                    expected = next(
                        (
                            depth
                            for depth in range(1, horizon + 1)
                            if all(
                                truncation_ratio(w, t, depth) <= eps
                                for t in range(max(depth, 2), horizon + 1)
                            )
                        ),
                        horizon,
                    )
                    assert ptas_depth("custom", inv_eps, n=horizon, weights=w) == expected

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown depth rule"):
            ptas_depth("geometric", 4)


class TestTruncationWindowConsistency:
    def test_window_objective_decomposes_the_distance(self):
        # summing the per-position window over [1, n] recovers the profile cost
        rng = random.Random(27)
        for _ in range(25):
            n = rng.randint(2, 6)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            V = rand_profile(rng, n)
            p = rand_ranking(rng, n)
            total = sum(
                (
                    mult * truncated_distance(params, p, v, 1, n)
                    for mult, v in V.entries
                ),
                F(0),
            )
            assert total == profile_cost(params, p, V)

from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import time
import tracemalloc
from collections.abc import Sequence
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import accumulate, combinations, permutations as it_perms
from math import comb, factorial
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menurank import (
    MenuWeights,
    Measure,
    Permutation,
    Profile,
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
from menurank.aggregation import (
    MYOPIC_SUBSET_LIMIT,
    ConsensusSet,
    _cost_to_go,
    _differences,
    _free_pairs,
    _lane_tops,
    _majority_prefix,
    _position_terms,
    _term_table,
    _tight_dag,
    _unpack_lanes,
    _window_terms,
)
from menurank.weights import _scaled_mass

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
        # the DP never reads the masks holding c, and the table leaves them 0
        n = params.n
        for c in range(1, n + 1):
            for placed in range(1 << n):
                if placed >> (c - 1) & 1:
                    assert rows[c - 1][placed] == 0
                else:
                    assert rows[c - 1][placed] == term(placed.bit_count() + 1, c, placed)
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

    @pytest.mark.parametrize("width", (16, 32, 64, 128, 192))
    def test_lane_codec_round_trips_in_twos_complement(self, width):
        # lane i holds its value in two's complement (v mod 2^width) in bits
        # width i upward, and reads back signed, at both ends of the range
        top = (1 << width - 1) - 1
        rng = random.Random(width)
        values = [top, -top, -top - 1, 0, 1, -1] + [rng.randint(-top - 1, top) for _ in range(9)]
        pack, unpack = aggregation._pack_lanes, aggregation._unpack_lanes
        packed = pack(values, width)
        assert packed == sum((v % (1 << width)) << width * i for i, v in enumerate(values))
        assert unpack(packed, len(values), width) == values

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

    @pytest.mark.parametrize("cut", (16, 32, 64, 128))
    def test_lane_width_cuts_by_row_bound(self, cut):
        # w = (1, -3) and mu = 4 give f = (0, 1, -1), so the row bound is
        # 4 max|mu f| V = 16 V, and rows[0][0] = -16 V reaches it: with the
        # sign bit the lane needs bit_length(32 V), which is the cut just
        # below V = 2^(cut - 5) and one bit more at it
        params = make_params(MenuWeights([1, -3]), Measure([4, 4, 4]))
        above = {16: 32, 32: 64, 64: 128, 128: 192}[cut]
        for voters, width in (((1 << cut - 5) - 1, cut), (1 << cut - 5, above)):
            assert aggregation._lane_width(params, voters) == width
            V = prof((voters, (2, 1, 3)))
            assert self.assert_table_matches_terms(params, V)[0][0] == -16 * voters

    @pytest.mark.parametrize("cut", (16, 32, 64))
    def test_lane_width_cuts_by_overlap_bound(self, cut):
        # w_{k+1} = (-2)^k keeps |f| <= 2 (row bound 8 V), but over the 9
        # candidates below the top one the positive weights sum to
        # f+(9) = 9840 and the negative ones to f-(9) = 9842: the negative
        # transform lane of candidate 1 at the empty placed set is 9842 V,
        # and with the sign bit the lane needs bit_length(19684 V)
        params = make_params(MenuWeights([(-2) ** k for k in range(1, 10)]), Measure([1] * 10))
        below = ((1 << cut) - 1) // 19684
        for voters, width in ((below, cut), (below + 1, 2 * cut if cut < 64 else 128)):
            assert aggregation._lane_width(params, voters) == width
            self.assert_table_matches_terms(params, prof((voters, tuple(range(1, 11)))))

    @pytest.mark.parametrize("mu", ([0, 0, 0, 0], [2, -1, 0, 3]))
    def test_lane_width_holds_counts_under_zero_weights(self, mu):
        # with every weight 0 the overlap bound is 0, yet a lane still holds
        # a raw histogram count: one ballot of 2^16 voters must not fit in
        # 16 bits
        params = make_params(MenuWeights([0, 0, 0]), Measure(mu))
        assert aggregation._lane_width(params, 1 << 16) == 32
        self.assert_table_matches_terms(params, prof((1 << 16, (3, 1, 4, 2))))
        result = aggregate_exact(params, prof((70000, (3, 1, 4, 2))))
        assert len(result.minimizers) == 24

    def test_bench_presets_take_one_word_lanes(self):
        # the perf harness's exact requests: n = 10 and 30 to 50 ballots of
        # one to three voters each
        rng = random.Random(33)
        for token, width in (("kendall", 16), ("ok-nishimura", 32), ("linear", 32),
                             ("binomial:1/3", 32)):
            name, _, p = token.partition(":")
            params = make_params(*preset(name, 10, p or None))
            assert [aggregation._lane_width(params, v) for v in (30, 150)] == [width, width]
            V = prof(*((30, rand_ranking(rng, 10).order) for _ in range(5)))
            assert V.voters == 150
            self.assert_table_matches_terms(params, V)

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

    @staticmethod
    def dp_cases():
        """Seeded (params, profile) pairs at n = 2..9: signed weights and
        measures, a zero measure (all n! rankings tie), and a ballot with its
        reversal under Kendall weights."""
        rng = random.Random(24)
        for n in range(2, 10):
            for _ in range(3):
                signed = make_params(rand_weights(rng, n, nonneg=False),
                                     rand_measure(rng, n, nonneg=False))
                yield "signed", signed, rand_profile(rng, n)
            zero = make_params(rand_weights(rng, n, nonneg=False), Measure([0] * n))
            yield "zero measure", zero, rand_profile(rng, n)
            ballot = tuple(rng.sample(range(1, n + 1), n))
            yield "two blocs", make_params(*preset("kendall", n)), prof(
                (2, ballot), (2, ballot[::-1]))

    def test_dp_and_dag_match_the_bit_loops(self):
        # the free-candidate table against the bit tricks it replaced: the
        # same cost-to-go and the same DAG, masks and edges in the same order
        seen = set()
        for kind, params, V in self.dp_cases():
            rows, _ = _term_table(params, V)
            togo = _cost_to_go(rows)
            assert togo == _cost_to_go_by_bits(rows), kind
            dag = _tight_dag(rows, togo)
            assert list(dag.items()) == list(_tight_dag_by_bits(rows, togo).items()), kind
            if kind != "signed":
                assert len(ConsensusSet(params.n, dag)) == factorial(params.n), kind
            seen.add(kind)
        assert seen == {"signed", "zero measure", "two blocs"}

    def test_free_pairs_list_each_mask_s_missing_candidates(self):
        for n in range(13):
            table = _free_pairs(n)
            pairs = [(c, 1 << c) for c in range(n)]
            # the per-mask definition the doubling build must reproduce
            assert table == tuple(
                tuple(pair for pair in pairs if not mask & pair[1]) for mask in range(1 << n)
            )
            # one object per candidate, shared by every entry that lists it
            shared = {}
            for entry in table:
                for pair in entry:
                    assert shared.setdefault(pair[0], pair) is pair
            assert len(shared) == n

    def test_free_pairs_stay_small_at_n_10(self):
        # every object the cached tables up to n = 10 hold, each counted
        # once: tracemalloc would miss the tuples a rebuilt table takes back
        # from CPython's tuple free lists
        held = {}
        for n in range(11):
            table = _free_pairs(n)
            held[id(table)] = table
            for entry in table:
                held[id(entry)] = entry
                for pair in entry:
                    held.update({id(pair): pair, id(pair[1]): pair[1]})
        assert sum(map(sys.getsizeof, held.values())) < 0.2 * 2**20


class TestConsensusSet:
    """The exact minimizers as a view over the tight-edge DAG, refereed by
    brute force over all n! rankings."""

    @staticmethod
    def cases():
        rng = random.Random(41)
        for trial in range(24):
            n = rng.randint(2, 6) if trial < 22 else 7
            params = make_params(
                rand_weights(rng, n, nonneg=rng.random() < 0.7), rand_measure(rng, n)
            )
            yield params, rand_profile(rng, n, max_ballots=5)
        # two blocs, a ballot and its reversal: under pairwise weights every
        # ranking ties, under other weights many do
        for n, token in ((4, "kendall"), (5, "linear"), (6, "ok-nishimura"), (8, "kendall")):
            ballot = rand_ranking(rng, n).order
            yield make_params(*preset(token, n)), prof((2, ballot), (2, ballot[::-1]))
        # a zero measure prices every ranking at 0
        for n in (3, 5, 7):
            params = make_params(rand_weights(rng, n), Measure([0] * n))
            yield params, rand_profile(rng, n)
        yield make_params(*preset("ok-nishimura", 8)), rand_profile(rng, 8, max_ballots=2)

    def test_view_matches_brute_force(self):
        seen = set()
        rng = random.Random(47)
        for params, V in self.cases():
            res = aggregate_exact(params, V)
            view = res.minimizers
            best, argmin = brute_consensus(params, V)
            public = tuple(Permutation(q) for q in sorted(argmin))
            size = len(public)
            seen.add(size == factorial(V.n))
            assert res.optimum == best
            assert len(view) == size
            assert res.winners == {q[0] for q in argmin}
            assert [p.order for p in view] == sorted(argmin)
            # every index of the sets up to 7!, and both ends and a sample of
            # the 8! set, unranked one at a time
            indices = range(-size, size)
            if size > 5040:
                indices = [-size, -1, 0, size - 1] + rng.sample(indices, 300)
            for i in indices:
                assert view[i] == public[i]
            for cut in (slice(1, 3), slice(None, None, -1), slice(None, None, 3),
                        slice(-2, 1, -2), slice(2, 2)):
                assert view[cut] == public[cut]
            assert tuple(reversed(view)) == public[::-1]
            assert view.index(public[-1]) == size - 1
            assert size < 2 or view[True] == public[1]
            for key, error in ((size, IndexError), (-size - 1, IndexError),
                               (1.0, TypeError), ("0", TypeError)):
                with pytest.raises(error):
                    view[key]
            assert public[-1] in view
            assert view == public and public == view and not view != public
            assert len(public) < 2 or (view != public[::-1] and view != public[:-1])
            assert hash(view) == hash(public)
            for indent in ("", "  "):
                assert view.text(indent).split("\n") == [indent + str(p) for p in public]
            for clone in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
                assert clone == res and clone.minimizers == public
                assert hash(clone.minimizers) == hash(public)
        assert seen == {True, False}

    def test_text_meets_in_the_middle_at_every_depth(self):
        # the printout splits the DAG at depth max((n - 1) // 2, 1) and stops
        # its fold at the first mask smaller than that, so it relies on the
        # DAG's masks coming in order of size
        for n in (1, 2, 3):  # depth 1: the heads are the edges out of the empty set
            for order in it_perms(range(1, n + 1)):
                ranking = Permutation(order)
                for indent in ("", "  "):
                    assert ConsensusSet.of_ranking(ranking).text(indent) == indent + str(ranking)
        rng = random.Random(53)
        for n, token in ((4, "kendall"), (5, "linear"), (6, "ok-nishimura"), (7, "kendall")):
            ballot = rand_ranking(rng, n).order
            params = make_params(*preset(token, n))
            tie = aggregate_exact(params, prof((2, ballot), (2, ballot[::-1]))).minimizers
            assert len(tie) > 1
            for view in (tie.relabel(rand_ranking(rng, n)), pickle.loads(pickle.dumps(tie))):
                for indent in ("", "  "):
                    assert view.text(indent).split("\n") == [indent + str(p) for p in view]
        # a zero measure ties all 9! rankings: depth 4, and 3,024 heads
        n = 9
        params = make_params(MenuWeights([1] * (n - 1)), Measure([0] * n))
        view = aggregate_exact(params, rand_profile(rng, n)).minimizers
        lines = view.text("  ").split("\n")
        assert len(lines) == factorial(n) == len(view)
        for i in [0, len(lines) - 1] + rng.sample(range(len(lines)), 300):
            assert lines[i] == "  " + str(view[i])

    def test_paths_are_counted_on_first_need(self):
        # comparing, relabelling, walking, printing and pickling read the
        # DAG alone; the first len, index or membership test counts the paths
        def counted(view):
            try:
                ConsensusSet._paths.__get__(view)
            except AttributeError:
                return False
            return True

        ballot = (3, 1, 4, 2, 5)
        params = make_params(*preset("kendall", 5))
        view = aggregate_exact(params, prof((1, ballot), (1, ballot[::-1]))).minimizers
        other = aggregate_exact(params, prof((1, ballot))).minimizers
        tau = Permutation((2, 3, 1, 5, 4))
        assert view == view.relabel(tau) and other <= view and not view <= other
        assert view.first(lambda last, placed, c: (last, c) == (0, 2)) == Permutation((2, 1, 3, 4, 5))
        assert (1, 2) in view.adjacent_pairs()
        assert view.text().count("\n") == 119
        assert next(iter(view)) == Permutation((1, 2, 3, 4, 5))
        for clone in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view)):
            assert clone == view and not counted(clone)
        assert not any(map(counted, (view, other)))
        assert len(view) == 120 and counted(view)
        assert view[7] == Permutation(_nth_ranking(5, 7))
        member = Permutation(ballot)
        for read in (lambda v: v[0], lambda v: member in v, lambda v: v.index(member),
                     lambda v: v.count(member)):
            fresh = pickle.loads(pickle.dumps(other))
            read(fresh)
            assert counted(fresh)

    def test_exact_path_leaves_no_cyclic_garbage(self):
        # the text walk's memo holds the blocks of the masks below its middle
        # layer, and the ranking walk a generator per placed label; reference
        # counting must free them, even when a walk is dropped halfway, with
        # no cycle left for the collector (a self-recursive closure or
        # generator is one)
        ballot = (3, 1, 4, 7, 5, 2, 6)
        params = make_params(*preset("kendall", 7))
        gc.collect()
        gc.disable()
        try:
            res = aggregate_exact(params, prof((3, ballot), (3, ballot[::-1])))
            assert res.minimizers.text().count("\n") == 5039
            assert sum(1 for _ in res.minimizers) == 5040
            del res
            assert gc.collect() == 0
            view = aggregate_exact(params, prof((3, ballot), (3, ballot[::-1]))).minimizers
            assert view[2520].order == _nth_ranking(7, 2520)
            assert gc.collect() == 0
            walk = iter(view)
            assert [next(walk).order for _ in range(721)][-1] == _nth_ranking(7, 720)
            del walk, view
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_views_compare_by_their_dags(self, monkeypatch):
        params = make_params(*preset("kendall", 4))
        one = aggregate_exact(params, prof((1, (1, 2, 3, 4)), (1, (4, 3, 2, 1)))).minimizers
        # the same 24 rankings from another electorate
        two = aggregate_exact(params, prof((3, (2, 4, 1, 3)), (3, (3, 1, 4, 2)))).minimizers
        three = aggregate_exact(params, prof((1, (1, 2, 3, 4)))).minimizers
        as_list = list(two)
        monkeypatch.setattr(Permutation, "_trusted", _refuse)
        assert one == two and one != three and len(three) == 1
        assert one != as_list and one != None  # noqa: E711
        with pytest.raises(AssertionError, match="enumerated"):
            three[0]

    def test_dag_queries_match_the_listing(self):
        rng = random.Random(29)
        inclusions = set()
        for _ in range(80):
            n = rng.randint(2, 5)
            params = make_params(rand_weights(rng, n), [rng.choice((0, 0, 1, 2)) for _ in range(n)])
            one = aggregate_exact(params, rand_profile(rng, n)).minimizers
            two = aggregate_exact(params, rand_profile(rng, n)).minimizers
            listed = list(one)
            for other in (one, two):
                assert (one <= other) == set(listed).issubset(other)
                assert (other <= one) == set(other).issubset(listed)
                inclusions.add((one <= other, other <= one))
            assert one.adjacent_pairs() == {
                p.order[k : k + 2] for p in listed for k in range(n - 1)
            }
            a, b = rng.sample(range(1, n + 1), 2)
            k = rng.randint(1, n)
            top = set(rng.sample(range(1, n + 1), k))
            for breaks, holds in (
                (lambda last, placed, c: (last, c) == (a, b), lambda p: (a, b) in zip(p.order, p.order[1:])),
                (
                    lambda last, placed, c: placed.bit_count() == k - 1
                    and placed | 1 << (c - 1) != sum(1 << (t - 1) for t in top),
                    lambda p: set(p.order[:k]) != top,
                ),
            ):
                assert one.first(breaks) == next((p for p in listed if holds(p)), None)
        assert inclusions == {(True, True), (True, False), (False, True), (False, False)}

    def test_counting_never_enumerates(self, monkeypatch):
        # a zero measure ties all 10! rankings; the count and the winners
        # come from the DAG alone
        monkeypatch.setattr(Permutation, "_trusted", _refuse)
        n = 10
        params = make_params(preset("linear", n)[0], Measure([0] * n))
        res = aggregate_exact(params, prof((1, tuple(range(1, n + 1))), (2, tuple(range(n, 0, -1)))))
        assert len(res.minimizers) == factorial(n) == 3628800
        assert res.winners == set(range(1, n + 1))
        assert res.optimum == 0 == res.certificate

    def test_reading_a_tie_of_ten_factorial_lists_none(self):
        # a zero measure ties all 10! rankings; after the solve, reading one
        # by index or the first of an iteration builds that ranking alone
        n = 10
        params = make_params(preset("linear", n)[0], Measure([0] * n))
        view = aggregate_exact(params, prof((1, tuple(range(1, n + 1))))).minimizers
        size = len(view)
        tracemalloc.start()
        try:
            reads = [view[0], view[-1], view[size // 2], next(iter(view))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        identity = tuple(range(1, n + 1))
        middle = _nth_ranking(n, size // 2)
        assert middle == (6, 1, 2, 3, 4, 5, 7, 8, 9, 10)
        assert [p.order for p in reads] == [identity, identity[::-1], middle, identity]

    def test_membership_and_index_match_the_listing(self):
        # every ranking at n <= 7 asked of the tie-heavy cases and of one-path
        # sets, refereed by the listed set; index's start and stop by the
        # Sequence mixin it replaces
        rng = random.Random(53)
        views = [aggregate_exact(params, V).minimizers for params, V in self.cases() if V.n <= 7]
        views += [ConsensusSet.of_ranking(rand_ranking(rng, n)) for n in (1, 2, 3, 5, 7, 7)]
        seen = set()
        for view in views:
            n = view[0].n
            listed = tuple(view)
            where = {p: i for i, p in enumerate(listed)}
            seen.add((n, len(listed) == 1, len(listed) == factorial(n)))
            for q in it_perms(range(1, n + 1)):
                p = Permutation(q)
                assert (p in view) == (p in where) and view.count(p) == (p in where)
                if p in where:
                    assert view.index(p) == where[p]
                else:
                    with pytest.raises(ValueError):
                        view.index(p)
            size = len(listed)
            bounds = [(0, None), (1, None), (-1, None), (-size - 3, None), (0, -1),
                      (2, size + 5), (size, None), (3, 2), (-2, -1)]
            for p in rng.sample(listed, min(size, 4)) + [rand_ranking(rng, n)]:
                for start, stop in bounds:
                    try:
                        expected = Sequence.index(listed, p, start, *[stop] * (stop is not None))
                    except ValueError:
                        expected = None
                    if expected is None:
                        with pytest.raises(ValueError):
                            view.index(p, start, stop)
                    else:
                        assert view.index(p, start, stop) == expected
            # values of another kind, or over other labels, are never members
            others = [listed[0].order, None, str(listed[0]), Permutation(range(1, n + 2))]
            others += [Permutation(range(1, n))] if n > 1 else []
            for other in others:
                assert other not in view and view.count(other) == 0
                with pytest.raises(ValueError):
                    view.index(other)
        assert {(one, full) for _, one, full in seen} >= {(True, False), (False, True), (False, False)}

    def test_membership_in_a_tie_of_ten_factorial_lists_none(self, monkeypatch):
        # in, index and count follow the asked ranking's path through the
        # DAG: neither they nor the refusals build or list any ranking
        n = 10
        params = make_params(preset("linear", n)[0], Measure([0] * n))
        view = aggregate_exact(params, prof((1, tuple(range(1, n + 1))))).minimizers
        size = len(view)
        last, middle = view[-1], view[size // 2]
        short, order = Permutation(range(1, n)), last.order
        monkeypatch.setattr(Permutation, "_trusted", _refuse)
        tracemalloc.start()
        try:
            answers = [
                last in view, view.index(last), view.count(last), view.index(middle),
                view.index(middle, size // 2, size // 2 + 1),
                order in view, short in view, view.count(order), view.count(short),
            ]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert answers == [True, size - 1, 1, size // 2, size // 2, False, False, 0, 0]
        for value, start, stop in ((short, 0, None), (order, 0, None), (last, 0, size - 1),
                                   (middle, size // 2 + 1, None)):
            with pytest.raises(ValueError):
                view.index(value, start, stop)

    def test_relabel_matches_the_listing_and_the_relabelled_solve(self):
        # P_mu(tau V) = tau P_{mu o tau}(V): the renamed DAG must be the one
        # the solver builds, not only list the same rankings
        rng = random.Random(43)
        sizes = set()
        for trial in range(40):
            n = 3 + trial % 5  # 3..7
            mu = [rng.choice((0, 1, 1, 2, F(1, 2))) for _ in range(n)]
            params = make_params(rand_weights(rng, n), mu)
            ballot = rand_ranking(rng, n).order
            V = prof((2, ballot), (2, ballot[::-1]))
            if trial % 2:
                V = V.concat(prof((1, rand_ranking(rng, n).order)))
            while True:  # a relabelling that is not its own inverse
                tau = rand_ranking(rng, n)
                if tau.compose(tau).order != tuple(range(1, n + 1)):
                    break
            permuted = make_params(params.weights, [mu[t - 1] for t in tau.order])
            image = aggregate_exact(permuted, V).minimizers
            moved = image.relabel(tau)
            assert isinstance(moved, aggregation.ConsensusSet)
            assert moved == tuple(sorted(tau.compose(p) for p in image))
            assert len(moved) == len(image)
            direct = aggregate_exact(params, V.relabel(tau)).minimizers
            assert direct == moved and direct.text("  ") == moved.text("  ")
            sizes.add(len(image) > 1)
        assert sizes == {True, False}
        with pytest.raises(ValueError, match="dimension mismatch"):
            image.relabel(Permutation((2, 1)))


def _refuse(order):
    raise AssertionError("enumerated a ranking")


def _nth_ranking(n, k):
    """Ranking k (from 0) of 1..n in lexicographic order, by its digits in
    the factorial number system."""
    labels = list(range(1, n + 1))
    order = []
    for left in range(n - 1, -1, -1):
        digit, k = divmod(k, factorial(left))
        order.append(labels.pop(digit))
    return tuple(order)


def _assert_one_path(view, ranking):
    """A one-ranking result: a ConsensusSet that stands in for (ranking,)."""
    assert isinstance(view, ConsensusSet) and len(view) == 1 and view[0] == ranking
    assert view == (ranking,) and (ranking,) == view and hash(view) == hash((ranking,))
    assert view.text("  ") == "  " + str(ranking) and ranking in view
    order = ranking.order
    assert view.adjacent_pairs() == set(zip(order, order[1:]))
    assert view.first(lambda last, placed, c: (last, c) == (0, order[0])) == ranking
    assert view.first(lambda last, placed, c: (last, c) == order[-2:]) == ranking
    assert view.first(lambda last, placed, c: (last, c) == (order[-1], order[0])) is None
    tau = Permutation(order[1:] + order[:1])
    assert view.relabel(tau) == (tau.compose(ranking),)
    assert view.relabel(tau) == ConsensusSet.of_ranking(tau.compose(ranking))


class TestOnePathResults:
    def test_footrule_and_myopic_return_one_path_sets(self):
        rng = random.Random(57)
        for _ in range(30):
            n = rng.randint(2, 7)
            weights = rand_weights(rng, n)
            V = rand_profile(rng, n)
            for res in (aggregate_footrule(weights, V),
                        aggregate_myopic(make_params(weights), V, rng.randint(1, n))):
                (ranking,) = res.minimizers
                _assert_one_path(res.minimizers, ranking)
                assert res.winners == {ranking.order[0]}
                for clone in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
                    assert clone == res and hash(clone.minimizers) == hash((ranking,))


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

        def refuse(params, profile, pool, span):
            raise ReachedTheDp

        monkeypatch.setattr(aggregation, "_window_terms", refuse)
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

    @staticmethod
    def reference_myopic(params, profile, depth):
        """The window DP priced term by term through ``_position_terms``:
        (order, window optimum, certificate)."""
        prefix, remaining = _majority_prefix(profile)
        pool = sorted(remaining)
        span = min(depth, len(pool))
        start = len(prefix) + 1
        prefix_mask = sum(1 << (c - 1) for c in prefix)
        window, optimum = [], F(0)
        if span:
            term, scale = _position_terms(params, profile)
            completion, choice = {}, {}
            for size in range(span, -1, -1):
                for combo in combinations(pool, size):
                    mask = sum(1 << (c - 1) for c in combo)
                    if size == span:
                        completion[mask] = 0
                        continue
                    best = None
                    for c in pool:  # ascending: the lowest label wins a tie
                        if c in combo:
                            continue
                        cur = (term(start + size, c, prefix_mask | mask)
                               + completion[mask | 1 << (c - 1)])
                        if best is None or cur < best:
                            best, choice[mask] = cur, c
                    completion[mask] = best
            optimum = F(completion[0], scale)
            mask = 0
            while len(window) < span:
                window.append(choice[mask])
                mask |= 1 << (window[-1] - 1)
        order = tuple(prefix + window + sorted(set(pool) - set(window)))
        return order, optimum, profile_cost(params, Permutation(order), profile)

    @staticmethod
    def window_cases():
        rng = random.Random(27)
        presets = (("kendall", None), ("ok-nishimura", None), ("linear", None),
                   ("binomial", F(1, 3)))
        for trial in range(60):
            n = 2 + trial % 15  # 2..16
            if rng.random() < 0.5:
                name, param = rng.choice(presets)
                params = make_params(*preset(name, n, param))
            else:
                mu = rand_measure(rng, n, nonneg=False)
                # zero and negative measure entries
                mu = Measure([0 if rng.random() < 0.3 else v for v in mu.values])
                params = make_params(rand_weights(rng, n), mu)
            V = Profile(tuple((rng.randint(1, 3), rand_ranking(rng, n))
                              for _ in range(rng.randint(3, 9))), n)
            if trial % 3 == 0:  # a duplicate ballot, listed twice
                V = V.concat(Profile(V.entries[:1], n))
            if trial % 4 == 1:  # three blocs, a majority together, share a head
                head = rand_ranking(rng, n).order[: rng.randint(1, n - 1)]
                rest = [c for c in range(1, n + 1) if c not in head]
                blocs = [(V.voters, head + tuple(rng.sample(rest, len(rest)))) for _ in range(3)]
                V = V.concat(prof(*blocs))
            # the deepest window within 2^12 subsets (a 16th of the guard, to
            # keep the reference quick), or a random shallower one
            deepest = max(d for d in range(1, n + 1)
                          if sum(comb(n, s) for s in range(d + 1)) <= 1 << 12)
            yield params, V, rng.choice((deepest, rng.randint(1, deepest)))
        # two blocs, a ballot and its reversal: no majority, many tied windows
        for n, token, depth in ((5, "kendall", 5), (9, "kendall", 4), (12, "linear", 3),
                                (16, "ok-nishimura", 2)):
            ballot = rand_ranking(rng, n).order
            yield make_params(*preset(token, n)), prof((3, ballot), (3, ballot[::-1])), depth
        # a pool of 16, the full window at the subset guard
        ballot = rand_ranking(rng, 16).order
        V = prof((2, ballot), (1, ballot[::-1]), (1, rand_ranking(rng, 16).order))
        yield make_params(*preset("ok-nishimura", 16)), V, 16
        # pairwise-only weights besides the Kendall preset, and all-zero
        # weights, under signed and zero measure entries; each profile has
        # two distinct ballots that differ only in their last two places
        # (equal pool down-sets above them) and puts one candidate first in
        # two ballots and last in two others
        rng = random.Random(29)
        for trial in range(18):
            n = 3 + trial % 12  # 3..14
            weights = (MenuWeights([F(3, 2)] + [0] * (n - 2)), preset("gilbert", n, 2)[0],
                       MenuWeights([0] * (n - 1)))[trial % 3]
            mu = Measure([rng.choice((0, -1, F(-1, 2), 1, F(3, 2), 2)) for _ in range(n)])
            ballot = rand_ranking(rng, n).order
            rows = [(rng.randint(1, 3), rand_ranking(rng, n).order) for _ in range(rng.randint(4, 8))]
            rows += [(1, ballot), (2, ballot[:-2] + ballot[:-3:-1])]
            pinned = rng.randint(1, n)
            for i in range(4):
                mult, order = rows[i]
                rest = tuple(c for c in order if c != pinned)
                rows[i] = mult, (pinned, *rest) if i % 2 else (*rest, pinned)
            if trial % 4 == 1:  # a majority bloc: the pool starts after its head
                head = rand_ranking(rng, n).order[: rng.randint(1, n - 2)]
                rest = [c for c in range(1, n + 1) if c not in head]
                rows.append((sum(m for m, _ in rows) + 1, head + tuple(rng.sample(rest, len(rest)))))
            deepest = max(d for d in range(1, n + 1)
                          if sum(comb(n, s) for s in range(d + 1)) <= 1 << 12)
            yield make_params(weights, mu), prof(*rows), rng.choice((deepest, rng.randint(1, deepest)))
        # lanes of 128 bits and more, read back by int.from_bytes: a weight
        # numerator near 2^70, a multiplicity near 2^60, and both at once
        rng = random.Random(45)
        for trial in range(9):
            n = 3 + trial  # 3..11
            weights = rand_weights(rng, n).values
            if trial % 3 != 1:
                weights = (weights[0] + (1 << 70) + 3,) + weights[1:]
            top = (1 << 60) if trial % 3 else 3
            V = prof(*((rng.randint(top // 2, top), rand_ranking(rng, n).order)
                       for _ in range(rng.randint(3, 7))))
            deepest = max(d for d in range(1, n + 1)
                          if sum(comb(n, s) for s in range(d + 1)) <= 1 << 12)
            yield (make_params(MenuWeights(weights), rand_measure(rng, n)), V,
                   rng.choice((deepest, rng.randint(1, deepest))))

    def test_window_matches_the_per_term_reference(self):
        seen = dict.fromkeys(
            ("prefix", "odd", "even", "wide", "128-bit lanes", "pairwise w2 = 3/2",
             "pairwise prefix", "zero weights", "pairwise signed mu", "first in pool",
             "last in pool", "equal down-sets"), 0)
        for params, V, depth in self.window_cases():
            res = aggregate_myopic(params, V, depth)
            order, optimum, certificate = self.reference_myopic(params, V, depth)
            assert (res.minimizers[0].order, res.optimum, res.certificate) == (
                order, optimum, certificate)
            prefix, remaining = _majority_prefix(V)
            span = min(depth, len(remaining))
            seen["prefix"] += bool(prefix) and span > 1
            seen["odd" if V.voters % 2 else "even"] += 1
            seen["wide"] += len(remaining) > 8 and span > 1
            seen["128-bit lanes"] += aggregation._lane_width(params, V.voters) >= 128 and span > 1
            if span < 2:
                continue
            weights, mu = params.weights.values, params.mu.values
            pairwise = params.weights.is_pairwise_only()
            seen["pairwise w2 = 3/2"] += pairwise and weights[0] == F(3, 2)
            seen["pairwise prefix"] += pairwise and weights[0] != 0 and bool(prefix)
            seen["zero weights"] += not any(weights)
            seen["pairwise signed mu"] += pairwise and weights[0] != 0 and 0 in mu and min(mu) < 0
            # what each distinct ballot ranks below c within the pool
            orders = {v.order for _, v in V.entries}
            downs = [[remaining.intersection(o[o.index(c) + 1:]) for o in orders]
                     for c in remaining]
            full = [remaining - {c} for c in remaining]
            seen["first in pool"] += any(d.count(f) > 1 for d, f in zip(downs, full))
            seen["last in pool"] += any(d.count(set()) > 1 for d in downs)
            seen["equal down-sets"] += any(
                len(inner) > len(set(map(frozenset, inner)))
                for d, f in zip(downs, full) for inner in [[s for s in d if s and s != f]])
        assert min(seen.values()) > 0, seen

    def test_edge_spans_match_the_per_term_reference(self):
        # a one-position window, and a majority prefix that leaves no pool
        rng = random.Random(28)
        seen = {"depth 1": 0, "whole prefix": 0}
        for trial in range(30):
            n = rng.randint(2, 9)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n, nonneg=False))
            if trial % 2:
                # three of five voters share a ballot: it is the prefix
                V = prof((3, rand_ranking(rng, n).order), (2, rand_ranking(rng, n).order))
                depth = rng.randint(1, n)
            else:
                V = rand_profile(rng, n, max_ballots=5)
                depth = 1
            res = aggregate_myopic(params, V, depth)
            assert (res.minimizers[0].order, res.optimum, res.certificate) == (
                self.reference_myopic(params, V, depth))
            remaining = _majority_prefix(V)[1]
            seen["whole prefix"] += not remaining
            seen["depth 1"] += depth == 1 and len(remaining) > 1
        assert min(seen.values()) > 0, seen

    @staticmethod
    def tie_cases():
        """Windows at span 1, span 2 and the full pool, each with lanes of
        16, 32 and at least 128 bits, whose deepest placed window on the
        optimal path ties: (params, profile, span).

        Under pairwise-only weights a ballot and its reversal cancel in every
        term.  So do two ballots that list span - 1 leaders and then the
        other candidates, each group in opposite orders, except on the pairs
        of a leader and another candidate: both put the leader first.  So
        the window places the leaders first; after them every free lane
        holds the layer's constant, a tie, and each placed leader's lane
        lies below it.
        """
        rng = random.Random(44)
        for weight, mult in ((1, 1), (1, 3000), ((1 << 70) + 3, 1 << 60)):
            for n, span in ((5, 1), (7, 2), (6, 6)):
                leaders = rng.sample(range(1, n + 1), span - 1)
                rest = [c for c in rng.sample(range(1, n + 1), n) if c not in leaders]
                mu = Measure([rng.choice((1, 2, F(3, 2))) for _ in range(n)])
                params = make_params(MenuWeights([weight] + [0] * (n - 2)), mu)
                while True:  # no majority favourite
                    ballot = rand_ranking(rng, n).order
                    V = prof((mult, ballot), (mult, ballot[::-1]),
                             (mult, (*leaders, *rest)), (mult, (*leaders[::-1], *rest[::-1])))
                    if not _majority_prefix(V)[0]:
                        break
                yield params, V, span

    def test_deepest_layer_ties_take_the_lowest_free_label(self):
        # the last window place goes to the lowest-labelled free candidate
        # among those tied at the deepest placed window's minimum, and the
        # placed members' lanes, lower still, are never taken
        seen = set()
        for params, V, span in self.tie_cases():
            res = aggregate_myopic(params, V, span)
            order, optimum, certificate = self.reference_myopic(params, V, span)
            assert (res.minimizers[0].order, res.optimum, res.certificate) == (
                order, optimum, certificate)
            pool = tuple(range(1, V.n + 1))
            placed = order[: span - 1]
            terms = self.window_terms(params, V, pool, span)[sum(1 << (c - 1) for c in placed)]
            free = [t for c, t in zip(pool, terms) if c not in placed]
            assert len(set(free)) == 1  # every free lane ties
            assert all(t < min(free) for c, t in zip(pool, terms) if c in placed)
            width = aggregation._lane_width(params, V.voters)
            seen.add(("span 1" if span == 1 else "full" if span == V.n else "span 2",
                      min(width, 128)))
        assert len(seen) == 9, seen

    @staticmethod
    def pricer_cases():
        """Seeded windows at n <= 8: (params, profile, prefix, pool, depth)."""
        rng = random.Random(30)
        for trial in range(160):
            n = rng.randint(3, 8)
            if trial % 3 == 0:  # pairwise-only weights
                weights = MenuWeights([F(rng.randint(1, 4), rng.randint(1, 3))] + [0] * (n - 2))
            else:
                weights = rand_weights(rng, n)
            mu = rand_measure(rng, n, nonneg=trial % 2 == 0)
            mu = Measure([0 if rng.random() < 0.3 else v for v in mu.values])
            rows = [(rng.randint(1, 3), rand_ranking(rng, n).order) for _ in range(rng.randint(3, 7))]
            pinned = rng.randint(1, n)  # first in two ballots, so first in their pool
            for i in range(2):
                mult, order = rows[i]
                rows[i] = mult, (pinned, *(c for c in order if c != pinned))
            if trial % 4 == 1:  # a majority bloc: the pool starts after its head
                head = rand_ranking(rng, n).order[: rng.randint(1, n - 1)]
                rest = [c for c in range(1, n + 1) if c not in head]
                rows.append((sum(m for m, _ in rows) + 1, head + tuple(rng.sample(rest, len(rest)))))
            V = prof(*rows)
            prefix, remaining = _majority_prefix(V)
            pool = tuple(sorted(remaining))
            if pool:
                depth = len(pool) if trial % 2 else rng.randint(1, len(pool))
                yield make_params(weights, mu), V, prefix, pool, depth

    @staticmethod
    def window_terms(params, V, pool, depth):
        """``_window_terms`` read back: each placed window's terms, one per
        pool candidate, in pool order."""
        table, width = _window_terms(params, V, pool, depth)
        bias = _lane_tops(len(pool), width)
        return {mask: _unpack_lanes((packed + bias) ^ bias, len(pool), width)
                for mask, packed in table.items()}

    def test_pricer_matches_the_per_term_reference_edge_by_edge(self):
        # every edge (c, M) of the window, c outside M and |M| < depth,
        # against term(|prefix| + |M| + 1, c, prefix | M)
        seen = dict.fromkeys(("full", "partial", "prefix", "pairwise", "first in pool",
                              "zero mu"), 0)
        edges = 0
        for params, V, prefix, pool, depth in self.pricer_cases():
            term, _ = _position_terms(params, V)
            terms = self.window_terms(params, V, pool, depth)
            assert len(terms) == sum(comb(len(pool), size) for size in range(depth))
            # the myopic recurrence walks the keys backwards, so no mask may
            # come before one with fewer members
            sizes = [mask.bit_count() for mask in terms]
            assert sizes == sorted(sizes), (params, V, pool, depth)
            prefix_mask = sum(1 << (c - 1) for c in prefix)
            for size in range(depth):
                for combo in combinations(pool, size):
                    mask = sum(1 << (c - 1) for c in combo)
                    for c, priced in zip(pool, terms[mask]):
                        if c in combo:
                            continue
                        assert priced == term(len(prefix) + size + 1, c, prefix_mask | mask), (
                            params, V, pool, depth, c, combo)
                        edges += 1
            if len(pool) < 2:
                continue
            seen["full" if depth == len(pool) else "partial"] += 1
            seen["prefix"] += bool(prefix)
            seen["pairwise"] += params.weights.is_pairwise_only() and len(pool) > 2
            mu = params.mu.values
            seen["zero mu"] += any(mu[c - 1] == 0 for c in pool)
            # a pool candidate with a nonzero measure that some ballot ranks
            # above the rest of the pool, in a window of two or more places
            seen["first in pool"] += depth > 1 and any(
                mu[c - 1] and set(pool) - {c} <= set(v.order[v.order.index(c):])
                for c in pool for _, v in V.entries)
        assert min(seen.values()) > 0 and edges > 10_000, (seen, edges)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1),
        st.integers(0, (1 << (n - 1)) - 1), st.integers(0, (1 << (n - 1)) - 1))))
    def test_difference_identity(self, case):
        # f(|D - M|) = sum over S within M & D of (-1)^|S| nabla^|S| f(|D|),
        # over the n - 1 candidates a down-set can hold, for integer weights
        # of any sign, zeros included
        weights, down, placed = case
        n = len(weights) + 1
        f = [_scaled_mass(tuple(weights), t) for t in range(n)]
        rows = _differences(f, n, n)
        shared = [x for x in range(n - 1) if down & placed & 1 << x]
        d = down.bit_count()
        assert f[(down & ~placed).bit_count()] == sum(
            (-1) ** size * rows[size][d] * comb(len(shared), size)
            for size in range(len(shared) + 1)
        ) == sum((-1) ** len(S) * rows[len(S)][d]
                 for size in range(len(shared) + 1) for S in combinations(shared, size))

    def test_wide_pool_windows(self):
        # pools of 260 and 130 candidates: ballot ranks no longer fit in a
        # byte, and the tops of a three-place window take 16-bit lanes
        rng = random.Random(43)
        n = 260
        while True:  # three ballots with distinct tops: no majority prefix
            V = prof(*((1, rand_ranking(rng, n).order) for _ in range(3)))
            if len({v.order[0] for v in V.ballots()}) == 3:
                break
        assert len(_majority_prefix(V)[1]) == n
        for token in ("kendall", "ok-nishimura"):
            params = make_params(*preset(token, n))
            res = aggregate_myopic(params, V, 2)
            assert (res.minimizers[0].order, res.optimum, res.certificate) == (
                self.reference_myopic(params, V, 2))
        # a span of 3 over 130 candidates is over the guard, so the pricer
        # is read directly, at sampled placed windows of every size
        n, depth = 130, 3
        V = prof(*((rng.randint(1, 3), rand_ranking(rng, n).order) for _ in range(4)))
        params = make_params(*preset("ok-nishimura", n))
        term, _ = _position_terms(params, V)
        terms = self.window_terms(params, V, tuple(range(1, n + 1)), depth)
        assert len(terms) == 1 + n + comb(n, 2)
        for mask in [0] + rng.sample(sorted(terms), 60):
            for c, priced in zip(range(1, n + 1), terms[mask]):
                if not mask >> (c - 1) & 1:
                    assert priced == term(mask.bit_count() + 1, c, mask)

    def test_majority_prefix_matches_the_per_candidate_scan(self):
        # planted majorities with shared tops, exact half splits (a tally
        # that placed at 2 count >= voters would place there) and random
        # profiles, refereed by the scan the tally replaced
        rng = random.Random(61)
        seen = {"prefix": 0, "none": 0, "half": 0}
        for trial in range(200):
            n = rng.randint(1, 9)
            V = rand_profile(rng, n, max_ballots=6)
            top = rng.sample(range(1, n + 1), rng.randint(0, n))
            a, b = (tuple(top) + tuple(rng.sample(sorted(set(range(1, n + 1)) - set(top)), n - len(top)))
                    for _ in range(2))
            if trial % 3 == 0:
                V = V.concat(prof((V.voters, a), (1, b)))
            elif trial % 3 == 1 and n > 1:
                a, b = rand_ranking(rng, n).order, rand_ranking(rng, n).order
                while a[0] == b[0]:
                    b = rand_ranking(rng, n).order
                V = prof((2, a), (2, b)) if trial % 2 else prof((3, a), (1, b), (2, b[::-1]))
                seen["half"] += 1
            prefix, remaining = _majority_prefix(V)
            assert (prefix, remaining) == _majority_prefix_by_scan(V)
            seen["prefix" if prefix else "none"] += 1
        assert min(seen.values()) > 0, seen

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

    def test_exponential_depth_settles_the_float_estimate(self):
        loop = _ceil_log_by_powers
        bases = [F(p, q) for q in range(1, 7) for p in range(q + 1, 4 * q + 1)]
        for base in bases:
            # exact powers of the base, and a hair either side of them
            for x in (F(1, 3), F(1), base, base**3, base**3 - F(1, 10**9), base**3 + F(1, 10**9)):
                assert aggregation._ceil_log(base, x) == loop(base, x)
            for inv_eps in (F(1, 2), 1, 2, 3, 4, 10, F(40, 3)):
                eps = 1 / F(inv_eps)
                expected = max(1, loop(base, base**2 / ((base - 1) ** 2 * eps)))
                assert ptas_depth("exponential", inv_eps, alpha=base) == expected
        assert ptas_depth("exponential", 4, alpha=F(10001, 10000)) == 198082

    def test_exponential_depth_trusts_an_estimate_far_from_an_integer(self):
        # settling this depth exactly builds p^k with k = 2,441,229 (over 30 s
        # on a 2-core VM); the estimate, 2441228.735..., is far from an
        # integer, outside its error bound
        start = time.perf_counter()
        assert ptas_depth("exponential", 4, alpha=F(100001, 100000)) == 2441229
        assert time.perf_counter() - start < 0.5
        # within the error bound of an integer the answer is still settled
        # exactly: an exact power, and a hair either side of it
        base, k = F(1001, 1000), 3000
        hair = F(1, 10**40)
        assert aggregation._ceil_log(base, base**k) == k
        assert aggregation._ceil_log(base, base**k - hair) == k
        assert aggregation._ceil_log(base, base**k + hair) == k + 1

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

    def test_custom_depth_matches_the_prefix_sum_search(self):
        # zero weights, horizons below, at and past the weights' own n
        rng = random.Random(62)
        zeros = 0
        for _ in range(60):
            n = rng.randint(2, 9)
            w = rand_weights(rng, n)
            if w.values[0] == 0:
                w = MenuWeights((F(rng.randint(1, 4), rng.randint(1, 3)),) + w.values[1:])
            zeros += 0 in w.values
            for horizon in sorted({2, max(n - 1, 2), n, n + 4}):
                for inv_eps in (F(1, 3), 1, 4, 25, F(100, 7)):
                    assert ptas_depth("custom", inv_eps, n=horizon, weights=w) == (
                        _custom_depth_by_prefix_sums(w, inv_eps, horizon))
        assert zeros

    def test_truncation_ratio_needs_a_pool_of_two(self):
        for t in (-1, 0, 1):
            with pytest.raises(ValueError, match="t >= 2"):
                truncation_ratio(MenuWeights([1, 1]), t, 1)

    def test_exponential_depth_near_one_is_settled(self):
        # within 10^-10 of 1 the depths pass 10^11, too deep to build p^k, and
        # within 10^-400 of 1 the depth has 404 digits; each is checked by
        # bounding the base's powers, not by an estimate of its logarithm
        cases = [
            (F(10**10 + 3, 10**10), dict(zip((1, 2, 3, 4, 5), (
                146181590966, 148492081568, 149843631929, 150802572171, 151546384008)))),
            (F(10**10 + 1, 10**10), dict(zip((*range(1, 11), 100), (
                460517018624, 467448490430, 471503141512, 474379962236, 476611397749,
                478434613318, 479976120116, 481311434042, 482489264399, 483542869555,
                506568720487)))),
            (F(10**400 + 1, 10**400), {4: None}),
        ]
        for alpha, depths in cases:
            for inv_eps, pinned in depths.items():
                start = time.perf_counter()
                depth = ptas_depth("exponential", inv_eps, alpha=alpha)
                assert time.perf_counter() - start < 1
                assert pinned in (None, depth)
                x = alpha**2 * inv_eps / (alpha - 1) ** 2
                assert _power_below(alpha, depth - 1, x) and not _power_below(alpha, depth, x)
        # the last, for alpha = 1 + 10^-400, is 1.8434543687563564378... 10^403
        assert len(str(depth)) == 404 and str(depth).startswith("18434543687563564378")
        # depths clear of an integer, and depths within 10^-1300 of an exact
        # power: one exact comparison settles each of the latter
        assert ptas_depth("exponential", 4, alpha=F(1001, 1000)) == 15212
        assert ptas_depth("exponential", 4, alpha=F(10**9 + 1, 10**9)) == 42832826059
        base, hair = F(10**400 + 1, 10**400), F(1, 10**1300)
        for x, k in ((base**3, 3), (base**3 - hair, 3), (base**3 + hair, 4)):
            assert aggregation._ceil_log(base, x) == k

    def test_exponential_depth_too_close_to_an_integer_is_refused(self):
        # x agrees with (1 + 10^-10)^(10^6) to 2,200 digits but is no power of
        # the base: its numerator is far shorter than the base's millionth
        # power, so no exact comparison is made, and no estimate of up to
        # 2,000 digits separates the depth from 10^6
        base = F(10**10 + 1, 10**10)
        with localcontext() as ctx:
            ctx.prec = 2200
            x = F((Decimal(base.numerator) / base.denominator) ** 10**6)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too close to an integer"):
            aggregation._ceil_log(base, x)
        assert time.perf_counter() - start < 3

    def test_depth_past_the_last_estimate_is_refused_before_any_estimate(self):
        # y s over 2 10^1998 follows from integer bounds on both logarithms
        # (the second x's from its bit length, the first's from (a - b)/a);
        # each refusal used to follow 0.65-0.9 s of 2,000-digit ln
        base = 1 + F(1, 10**1000)
        for x in (F(3, 2), 4 * base**2 / (base - 1) ** 2):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="too large, or too close to an integer"):
                aggregation._ceil_log(base, x)
            assert time.perf_counter() - start < 0.05

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 49).flatmap(lambda q: st.tuples(st.just(q), st.integers(q + 1, 50))),
        st.integers(0, 12),
        st.sampled_from((-1, 0, 1)),
        st.fractions(min_value=F(1, 100), max_value=10**6, max_denominator=10**6),
        st.booleans(),
    )
    def test_ceil_log_matches_the_power_loop(self, qp, k, side, other, at_power):
        # x an exact power of the base, a hair either side of one (inside the
        # first estimate's error bound, so the exact comparison decides), or
        # any rational; the referee multiplies by the base until it reaches x
        q, p = qp
        base = F(p, q)
        x = base**k + side * F(1, 10**80) if at_power else other
        assert aggregation._ceil_log(base, x) == _ceil_log_by_powers(base, x)

    def test_a_window_over_the_whole_horizon_ignores_nothing(self):
        # nor does a window one candidate short of it (f(0) = f(1) = 0), so
        # the custom search ends by depth n - 1, there at a tiny epsilon
        rng = random.Random(63)
        for _ in range(40):
            n = rng.randint(2, 9)
            w = rand_weights(rng, n)
            w = MenuWeights((F(rng.randint(1, 4), rng.randint(1, 3)),) + w.values[1:])
            for t in range(2, n + 1):
                assert truncation_ratio(w, t, n) == truncation_ratio(w, t, n - 1) == 0
            assert ptas_depth("custom", 10**30, n=n, weights=w) == n - 1

    def test_depth_rules_refuse_bad_inputs(self):
        for rule, extra in (("affine", {}), ("custom", {"n": 4, "weights": MenuWeights([1, 1, 1])})):
            for inv_epsilon in (F(-1, 2), F(0)):
                with pytest.raises(ValueError, match="1/epsilon must be positive"):
                    ptas_depth(rule, inv_epsilon, **extra)
        for n, weights in ((4, None), (None, MenuWeights([1, 1, 1])), (None, None)):
            with pytest.raises(ValueError, match="explicit weights and a horizon n"):
                ptas_depth("custom", 4, n=n, weights=weights)
        for values in ([0, 1, 1], [1, -1, 1], [1, 1, F(-1, 2)], [-1, 1, 1]):
            with pytest.raises(ValueError, match="nonnegative weights with w_2 > 0"):
                ptas_depth("custom", 4, n=4, weights=MenuWeights(values))

    def test_custom_needs_a_horizon_of_two(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match="n >= 2"):
                ptas_depth("custom", 4, n=n, weights=MenuWeights([1, 1]))

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


def _majority_prefix_by_scan(profile):
    """The majority prefix by testing, each round, every remaining candidate
    in label order against every ballot: the first that a strict majority
    ranks above all the other remaining candidates is placed."""
    total = profile.voters
    remaining = set(range(1, profile.n + 1))
    prefix = []
    while remaining:
        pool_mask = sum(1 << (c - 1) for c in remaining)
        placed = None
        for c in sorted(remaining):
            rivals = pool_mask & ~(1 << (c - 1))
            count = sum(mult for mult, v in profile.entries if rivals & ~v._below[c - 1] == 0)
            if 2 * count > total:
                placed = c
                break
        if placed is None:
            break
        prefix.append(placed)
        remaining.remove(placed)
    return prefix, remaining


def _ceil_log_by_powers(base, x):
    """The least k with base^k >= x, by k Fraction products: the referee for
    ``_ceil_log``, which would hang for a base near 1."""
    k, power = 0, F(1)
    while power < x:
        power *= base
        k += 1
    return k


def _power_below(base, k, x, bits=1 << 12):
    """Whether base^k < x, from integers lo <= base^k 2^bits <= hi built by
    binary exponentiation, each product rounded down for lo and up for hi;
    asserts that the bounds decide it.  Rounding costs a relative 2^-bits a
    product, amplified by about k, so this needs k far below 2^bits."""
    p, q = base.numerator, base.denominator
    lo = hi = 1 << bits
    step_lo, step_hi = (p << bits) // q, -(-(p << bits) // q)
    while k:
        if k & 1:
            lo, hi = lo * step_lo >> bits, -(-hi * step_hi >> bits)
        step_lo, step_hi = step_lo * step_lo >> bits, -(-step_hi * step_hi >> bits)
        k >>= 1
    target = (x.numerator << bits) / F(x.denominator)
    assert hi < target or lo >= target, "the power bounds straddle x"
    return hi < target


def _custom_depth_by_prefix_sums(weights, inv_epsilon, n):
    """The custom depth from the down-set masses f(t), t < n, over the
    scaled weights: each truncation ratio is a prefix sum of f over
    f(t - 1) - f(t - 2)."""
    eps = 1 / F(inv_epsilon)
    f = [_scaled_mass(weights.scaled[0], t) for t in range(n)]
    prefix = [0, *accumulate(f)]
    for depth in range(1, n + 1):
        if all(
            F(prefix[t - depth], f[t - 1] - f[t - 2]) <= eps
            for t in range(max(depth, 2), n + 1)
        ):
            return depth
    return n


def _cost_to_go_by_bits(rows):
    """The cost-to-go DP finding each free candidate with bit tricks: the
    referee for the ``_free_pairs`` relaxation."""
    full = len(rows[0]) - 1
    togo = [0] * (full + 1)
    for mask in range(full - 1, -1, -1):
        value = None
        rest = full ^ mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            cur = rows[bit.bit_length() - 1][mask] + togo[mask | bit]
            if value is None or cur < value:
                value = cur
        togo[mask] = value
    return togo


def _tight_dag_by_bits(rows, togo):
    """``_tight_dag`` finding each free candidate with bit tricks."""
    full = len(togo) - 1
    dag = {}
    frontier = [0]
    while frontier[0] != full:
        reached = {}
        for mask in frontier:
            tight = []
            rest = full ^ mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                c = bit.bit_length() - 1
                if rows[c][mask] + togo[mask | bit] == togo[mask]:
                    tight.append(c)
                    reached[mask | bit] = None
            dag[mask] = tuple(tight)
        frontier = list(reached)
    return dag

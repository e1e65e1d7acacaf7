from __future__ import annotations

import copy
import pickle
import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from menurank import (
    Permutation,
    adjacent_pairs,
    all_rankings,
    common_down_count,
    down_set_size,
    identity,
    inversion_set,
    is_between,
    kendall_count,
    menu_max,
    transposition,
)

perm_strategy = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(range(1, n + 1))
)


class TestConstruction:
    def test_rejects_non_bijections(self):
        for bad in [(1, 1, 3), (0, 1, 2), (1, 2, 4), (), (1.0, 2), ("2", "1"), (1, 2, 3.0),
                    (True, 2), (2, True)]:
            with pytest.raises(ValueError):
                Permutation(bad)

    def test_immutable(self):
        for p in (Permutation((2, 1)), Permutation._trusted((2, 1))):
            with pytest.raises(AttributeError):
                p.order = (1, 2)
            with pytest.raises(AttributeError):
                p._pos = (2, 1)
            with pytest.raises(AttributeError):
                p.no_such_table

    def test_str_is_space_separated(self):
        assert str(Permutation((3, 1, 2))) == "3 1 2"

    def test_pickle_and_copy_round_trip(self):
        filled = Permutation((2, 3, 1))
        filled.position(1), filled.pair_mask, filled.menu_tops()
        for p in (Permutation((2, 3, 1)), filled):
            for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
                assert clone == p and hash(clone) == hash(p)
                assert clone.order == (2, 3, 1)
                assert clone.position(1) == 3 and clone.below_mask(2) == 0b101


class TestLazyTables:
    def test_trusted_and_public_agree_with_the_definitions(self):
        # tables are derived on first read; read them in a random order so
        # each one is sometimes derived before the tables it builds on
        rng = random.Random(31)
        for n in range(1, 10):
            for _ in range(6):
                order = tuple(rng.sample(range(1, n + 1), n))
                pos = {c: order.index(c) + 1 for c in order}
                below = {c: sum(1 << (d - 1) for d in order[pos[c]:]) for c in order}
                pair_mask = 0
                k = 0
                for i in range(1, n):
                    for j in range(i + 1, n + 1):
                        pair_mask |= (pos[i] < pos[j]) << k
                        k += 1
                tops = [0] + [
                    next(c for c in order if mask >> (c - 1) & 1)
                    for mask in range(1, 1 << n)
                ]
                expected = {
                    "position": [pos[c] for c in range(1, n + 1)],
                    "below_mask": [below[c] for c in range(1, n + 1)],
                    "inverse": tuple(pos[c] for c in range(1, n + 1)),
                    "pair_mask": pair_mask,
                    "menu_tops": tuple(tops),
                }
                for p in (Permutation(order), Permutation._trusted(order)):
                    reads = {
                        "position": lambda: [p.position(c) for c in range(1, n + 1)],
                        "below_mask": lambda: [p.below_mask(c) for c in range(1, n + 1)],
                        "inverse": lambda: p.inverse().order,
                        "pair_mask": lambda: p.pair_mask,
                        "menu_tops": p.menu_tops,
                    }
                    names = list(reads)
                    rng.shuffle(names)
                    for name in names + names:
                        assert reads[name]() == expected[name], (order, name)
                    assert p.order == order and p == Permutation(order)


class TestGroupOps:
    def test_identity_is_self_inverse(self):
        assert identity(3).inverse() == identity(3)

    def test_three_cycle_inverses(self):
        assert Permutation((2, 3, 1)).inverse() == Permutation((3, 1, 2))
        assert Permutation((3, 1, 2)).inverse() == Permutation((2, 3, 1))

    def test_compose_examples(self):
        sigma = Permutation((3, 1, 2))
        assert identity(3).compose(sigma) == sigma
        assert Permutation((2, 1, 3)).compose(sigma) == Permutation((3, 2, 1))
        assert sigma.compose(sigma.inverse()) == identity(3)

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            identity(3).compose(identity(4))

    @given(perm_strategy)
    def test_double_inverse(self, order):
        p = Permutation(order)
        assert p.inverse().inverse() == p

    @given(perm_strategy)
    def test_inverse_composes_to_identity(self, order):
        p = Permutation(order)
        assert p.compose(p.inverse()) == identity(p.n)
        assert p.inverse().compose(p) == identity(p.n)

    def test_left_multiplication_relabels(self):
        # tau relabels candidate c to tau[c]
        tau = Permutation((3, 1, 2))
        p = Permutation((2, 1, 3))
        assert tau.compose(p).order == (1, 3, 2)


class TestInversions:
    def test_identical_rankings(self):
        p = identity(3)
        assert inversion_set(p, p) == frozenset()

    def test_single_swap(self):
        assert inversion_set(identity(3), Permutation((2, 1, 3))) == {(1, 2)}

    def test_full_reversal(self):
        p, q = identity(4), Permutation((4, 3, 2, 1))
        assert len(inversion_set(p, q)) == 6
        assert kendall_count(p, q) == 6

    def test_symmetry_and_shortest_path(self):
        # the inversion count is symmetric and equals the swap-graph distance
        for n in range(2, 6):
            perms = all_rankings(n)
            start = identity(n)
            dist = {start: 0}
            queue = deque([start])
            while queue:
                p = queue.popleft()
                for a in range(1, n):
                    q = p.swap_adjacent(a)
                    if q not in dist:
                        dist[q] = dist[p] + 1
                        queue.append(q)
            for p in perms:
                assert kendall_count(start, p) == kendall_count(p, start) == dist[p]

    def test_menu_max_agrees_with_inversions(self):
        for n in range(2, 7):
            for p in all_rankings(n):
                inv = inversion_set(identity(n), p)
                for i in range(1, n):
                    for j in range(i + 1, n + 1):
                        expected = i if (i, j) not in inv else j
                        assert menu_max({i, j}, p) == expected


class TestDownSets:
    def test_examples(self):
        assert down_set_size(identity(3), 1) == 2
        assert down_set_size(identity(3), 3) == 0
        assert down_set_size(Permutation((2, 3, 1)), 3) == 1

    def test_position_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 8)
            p = Permutation(rng.sample(range(1, n + 1), n))
            for i, c in enumerate(p.order, start=1):
                assert down_set_size(p, c) == n - i
            assert sum(down_set_size(p, c) for c in range(1, n + 1)) == n * (n - 1) // 2

    def test_common_down_count(self):
        p = identity(3)
        assert common_down_count(p, p, 1) == 2
        assert common_down_count(p, Permutation((3, 2, 1)), 2) == 0
        assert common_down_count(p, Permutation((2, 1, 3)), 1) == 1

    def test_candidate_out_of_range(self):
        with pytest.raises(ValueError):
            down_set_size(identity(3), 4)
        with pytest.raises(ValueError):
            common_down_count(identity(3), identity(3), 0)


class TestMenus:
    def test_menu_max_examples(self):
        p = Permutation((2, 3, 1))
        assert menu_max({1, 2, 3}, p) == 2
        assert menu_max({1, 3}, p) == 3
        assert menu_max({1}, p) == 1

    def test_empty_menu(self):
        with pytest.raises(ValueError):
            menu_max(set(), identity(3))

    def test_menu_tops_beyond_twelve_candidates(self):
        # the table covers every n up to the menu oracle's cap of 20
        p = Permutation(random.Random(13).sample(range(1, 14), 13))
        tops = p.menu_tops()
        assert len(tops) == 1 << 13 and tops[0] == 0
        for mask in range(1, 1 << 13):
            menu = [c for c in range(1, 14) if mask >> (c - 1) & 1]
            assert tops[mask] == menu_max(menu, p)

    def test_menu_tops_refused_above_the_oracle_cap(self):
        with pytest.raises(ValueError, match="n <= 20"):
            identity(21).menu_tops()

    def test_menu_tops_table(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 6)
            p = Permutation(rng.sample(range(1, n + 1), n))
            tops = p.menu_tops()
            for mask in range(1, 1 << n):
                menu = {c + 1 for c in range(n) if mask >> c & 1}
                assert tops[mask] == menu_max(menu, p)

    def test_adjacent_pairs(self):
        assert adjacent_pairs(identity(3)) == {(1, 2), (2, 3)}
        assert adjacent_pairs(Permutation((3, 1, 2))) == {(3, 1), (1, 2)}
        assert adjacent_pairs(Permutation((2, 1))) == {(2, 1)}


class TestAllRankings:
    def test_refused_above_eight_candidates(self):
        # the tuple is cached for the life of the process: 70 MB at n = 9
        with pytest.raises(ValueError, match="n <= 8"):
            all_rankings(9)


class TestBetweenness:
    def test_transposition(self):
        assert transposition(4, 1, 3).order == (3, 2, 1, 4)

    def test_swap_is_between_endpoints(self):
        p = identity(4)
        q = Permutation((4, 3, 2, 1))
        w = p.swap_adjacent(2)
        assert is_between(p, w, q)
        assert not is_between(p, q, w)

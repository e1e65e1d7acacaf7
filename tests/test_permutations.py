from __future__ import annotations

import copy
import pickle
import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from menurank import Permutation, all_rankings, identity, is_between, kendall_count

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
                assert clone.position(1) == 3 and clone._below[1] == 0b101


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
                    "_below": [below[c] for c in range(1, n + 1)],
                    "inverse": tuple(pos[c] for c in range(1, n + 1)),
                    "pair_mask": pair_mask,
                    "menu_tops": tuple(tops),
                }
                for p in (Permutation(order), Permutation._trusted(order)):
                    reads = {
                        "position": lambda: [p.position(c) for c in range(1, n + 1)],
                        "_below": lambda: [p._below[c - 1] for c in range(1, n + 1)],
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
    def test_full_reversal(self):
        p, q = identity(4), Permutation((4, 3, 2, 1))
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


class TestMenus:
    def test_menu_tops_beyond_twelve_candidates(self):
        # the table covers every n up to the menu oracle's cap of 20
        p = Permutation(random.Random(13).sample(range(1, 14), 13))
        tops = p.menu_tops()
        assert len(tops) == 1 << 13 and tops[0] == 0
        for mask in range(1, 1 << 13):
            menu = [c for c in range(1, 14) if mask >> (c - 1) & 1]
            assert tops[mask] == min(menu, key=p.position)

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
                assert tops[mask] == min(menu, key=p.position)


class TestAllRankings:
    def test_refused_above_eight_candidates(self):
        # the tuple is cached for the life of the process: 70 MB at n = 9
        with pytest.raises(ValueError, match="n <= 8"):
            all_rankings(9)


class TestBetweenness:
    def test_swap_is_between_endpoints(self):
        p = identity(4)
        q = Permutation((4, 3, 2, 1))
        w = p.swap_adjacent(2)
        assert is_between(p, w, q)
        assert not is_between(p, q, w)

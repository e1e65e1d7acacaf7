from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menurank import (
    MenuWeights,
    Measure,
    Permutation,
    Profile,
    aggregate_exact,
    all_rankings,
    audit_axiom,
    check_axiom,
    check_property,
    condorcet_candidates,
    is_between,
    kendall_count,
    make_params,
    minimal_path_costs,
    net_preference_matrix,
    preset,
    recover_pair_weights,
    top_choice_margins,
)
from menurank.audit import (
    AXIOMS,
    AuditReport,
    _pair_realisations,
    _swap_realisations,
    params_distance,
)
from menurank.cli import _describe_witness

from conftest import prof, rand_measure, rand_profile, rand_ranking, rand_weights

CYCLE = prof((1, (1, 2, 3)), (1, (2, 3, 1)), (1, (3, 1, 2)))
CONDORCET_PROFILE = prof((5, (1, 2, 3, 4)), (4, (3, 2, 1, 4)), (1, (2, 3, 1, 4)))


class TestMargins:
    def test_cycle_margins(self):
        margins = net_preference_matrix(CYCLE)
        assert margins[1][2] == 1
        assert margins[2][3] == 1
        assert margins[3][1] == 1
        assert margins[2][1] == -1

    def test_unanimous_top_margins(self):
        V = prof((4, (2, 1, 3)))
        margins = top_choice_margins(V)
        assert margins[2] == 4
        assert margins[1] == margins[3] == -4

    def test_condorcet_sets(self):
        assert condorcet_candidates(prof((3, (2, 1, 3)))) == {2}
        assert condorcet_candidates(CYCLE) == frozenset()
        assert condorcet_candidates(CONDORCET_PROFILE) == {1, 2}


class TestAxioms:
    def test_pairwise_weights_pass_everything(self):
        params = make_params(*preset("kendall", 4))
        d = params_distance(params)
        for axiom in AXIOMS:
            assert check_axiom(d, 4, axiom).verdict == "Holds", axiom

    def test_weighted_pairwise_passes_a1_a2(self):
        params = make_params(MenuWeights([1, 0, 0]), Measure([1, 2, 3, 4]))
        d = params_distance(params)
        assert check_axiom(d, 4, "A1").verdict == "Holds"
        assert check_axiom(d, 4, "A2").verdict == "Holds"

    @pytest.mark.parametrize("n", [3, 4])
    def test_flat_menu_weights_fail_a1_with_witness(self, n):
        params = make_params(*preset("ok-nishimura", n))
        d = params_distance(params)
        report = check_axiom(d, n, "A1")
        assert report.verdict == "Fails"
        w = report.witness
        # the first failing (p, q, w) in lexicographic order, recorded before
        # the audit ran on rank-index tables
        p, between, q, d_qp, d_qw, d_wp = {
            3: ((1, 2, 3), (2, 1, 3), (3, 2, 1), 8, 6, 4),
            4: ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 3, 2), 8, 6, 4),
        }[n]
        assert w == {"p": Permutation(p), "w": Permutation(between), "q": Permutation(q),
                     "d(q,p)": d_qp, "d(q,w)": d_qw, "d(w,p)": d_wp}
        assert is_between(w["p"], w["w"], w["q"])
        assert d(w["q"], w["p"]) != d(w["q"], w["w"]) + d(w["w"], w["p"])

    def test_flat_menu_weights_pass_a3_through_a6(self):
        params = make_params(*preset("ok-nishimura", 4))
        d = params_distance(params)
        for axiom in ("A3", "A4", "A5", "A6"):
            assert check_axiom(d, 4, axiom).verdict == "Holds", axiom

    def test_flat_menu_weights_fail_a2(self):
        params = make_params(*preset("ok-nishimura", 4))
        report = check_axiom(params_distance(params), 4, "A2")
        assert report.verdict == "Fails"
        xa, xb, ya, yb = report.witness["values"]
        assert xa + xb != ya + yb

    def test_swap_costs_here_always_pass_a4(self):
        # any menu-weighted distance prices an adjacent swap by position and
        # pair mass alone, so A4 holds even for non-constant measures
        params = make_params(MenuWeights([1, 0]), Measure([1, 1, 2]))
        assert check_axiom(params_distance(params), 3, "A4").verdict == "Holds"

    def test_context_dependent_swap_cost_breaks_a4(self):
        # bolt an extra charge onto swaps happening while candidate 1 sits
        # last: the same position and pair then price differently
        def d(a, b):
            bonus = 1 if a.order[-1] == 1 and b.order[-1] == 1 else 0
            return F(kendall_count(a, b) + bonus if a != b else 0)

        report = check_axiom(d, 4, "A4")
        assert report.verdict == "Fails"
        assert report.witness == {
            "position": 1,
            "pair": (2, 3),
            "rankings": (Permutation((2, 3, 1, 4)), Permutation((2, 3, 4, 1))),
            "values": (1, 2),
        }
        a = report.witness["position"]
        p1, p2 = report.witness["rankings"]
        assert {p1.order[a - 1], p1.order[a]} == {p2.order[a - 1], p2.order[a]}
        assert d(p1, p1.swap_adjacent(a)) != d(p2, p2.swap_adjacent(a))

    def test_semimetrics_always_pass_a3(self):
        rng = random.Random(40)
        for _ in range(6):
            n = rng.randint(3, 4)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            assert check_axiom(params_distance(params), n, "A3").verdict == "Holds"

    def test_squared_inversions_fail_a3(self):
        d = lambda a, b: F(kendall_count(a, b)) ** 2
        report = check_axiom(d, 4, "A3")
        assert report.verdict == "Fails"
        assert report.witness == {
            "p": Permutation((1, 2, 3, 4)), "q": Permutation((1, 3, 4, 2)), "d(p,q)": 4,
        }

    def test_guard_and_unknown(self):
        d = params_distance(make_params(*preset("kendall", 6)))
        with pytest.raises(ValueError, match="capped"):
            check_axiom(d, 6, "A1")
        with pytest.raises(ValueError, match="unknown axiom"):
            check_axiom(d, 4, "A9")

    def test_gate_on_bad_parameters(self):
        params = make_params(MenuWeights([1, 1, 1]), Measure([-1, 1, 1, 1]))
        assert audit_axiom(params, "A1").verdict == "Inapplicable"


def _swap_cost_distance(cost):
    """A distance whose adjacent swap at ``position`` of the rankings a, b
    costs ``cost(position, pair, a)``; rankings further apart cost their
    inversion count, which no swap axiom reads."""

    def d(a, b):
        moved = [k for k in range(a.n) if a.order[k] != b.order[k]]
        if len(moved) == 2 and moved[1] == moved[0] + 1:
            return F(cost(moved[1], frozenset(a.order[moved[0] : moved[1] + 1]), a))
        return F(kendall_count(a, b))

    return d


def _inversion_cost_distance(cost):
    """The sum of ``cost(i, j)`` over the pairs i < j two rankings invert."""

    def d(a, b):
        n = a.n
        return F(sum(
            cost(i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if a.prefers(i, j) != b.prefers(i, j)
        ))

    return d


def _swap_cost_cases(rng, count):
    """Swap costs phi_a * w({i, j}) at n = 4 and 5 with w additive
    (mu_i + mu_j), multiplicative (mu_i * mu_j) or additive plus a charge
    while one candidate sits last; phi is constant in a third of the cases."""
    for index in range(count):
        n = 4 + index % 2
        kind = ("additive", "multiplicative", "context")[index // 2 % 3]
        mu = [rng.choice((-1, 0, 1, 2, 3, F(1, 2))) for _ in range(n)]
        phi = [rng.choice((1, 2, 3))] * n if index % 3 == 0 else [rng.randint(1, 3) for _ in range(n)]
        last, extra = rng.randint(1, n), rng.randint(1, 2)

        def cost(a, pair, p, mu=mu, phi=phi, kind=kind, last=last, extra=extra):
            i, j = pair
            w = mu[i - 1] * mu[j - 1] if kind == "multiplicative" else mu[i - 1] + mu[j - 1]
            return phi[a - 1] * w + (extra if kind == "context" and p.order[-1] == last else 0)

        yield kind, _swap_cost_distance(cost), n


def _nested_a2(dist, perms, n):
    """A2 as four nested loops over each pair's realised values."""
    pairs = _pair_realisations(_swap_realisations(dist, perms))
    for i, j, k, l in permutations(range(1, n + 1), 4):
        left_a = pairs.get(frozenset((i, j)), {})
        left_b = pairs.get(frozenset((k, l)), {})
        right_a = pairs.get(frozenset((i, k)), {})
        right_b = pairs.get(frozenset((j, l)), {})
        for xa, wit_xa in left_a.items():
            for xb, wit_xb in left_b.items():
                for ya, wit_ya in right_a.items():
                    for yb, wit_yb in right_b.items():
                        if xa + xb != ya + yb:
                            return AuditReport("A2", "Fails", {
                                "pairs": ((i, j), (k, l), (i, k), (j, l)),
                                "values": (xa, xb, ya, yb),
                                "realisations": (wit_xa, wit_xb, wit_ya, wit_yb),
                            })
    return AuditReport("A2", "Holds")


def _nested_a5(dist, perms, n):
    """A5 as nested loops over positions, pairs and realised values."""
    swaps = _swap_realisations(dist, perms)
    pairs = [frozenset(p) for p in combinations(range(1, n + 1), 2)]
    for a in range(1, n):
        for b in range(1, n):
            if a == b:
                continue
            for pair_one in pairs:
                for pair_two in pairs:
                    lhs_one = swaps.get((a, pair_one), {})
                    lhs_two = swaps.get((b, pair_two), {})
                    rhs_one = swaps.get((b, pair_one), {})
                    rhs_two = swaps.get((a, pair_two), {})
                    for x, wx in lhs_one.items():
                        for y, wy in lhs_two.items():
                            for xx, wxx in rhs_one.items():
                                for yy, wyy in rhs_two.items():
                                    if x * y != xx * yy:
                                        return AuditReport("A5", "Fails", {
                                            "positions": (a, b),
                                            "pairs": (tuple(sorted(pair_one)), tuple(sorted(pair_two))),
                                            "values": (x, y, xx, yy),
                                            "realisations": (wx, wy, wxx, wyy),
                                        })
    return AuditReport("A5", "Holds")


class TestSwapAxioms:
    def test_swap_axioms_match_the_nested_loop_referees(self):
        # only the context charge gives one (position, pair) two costs
        verdicts = Counter()
        for kind, d, n in _swap_cost_cases(random.Random(47), 90):
            perms = all_rankings(n)
            for axiom, referee in (("A2", _nested_a2), ("A5", _nested_a5)):
                report = check_axiom(d, n, axiom)
                assert report == referee(d, perms, n), (kind, axiom)
                verdicts[axiom, report.verdict] += 1
            assert check_axiom(d, n, "A4").holds() == (kind != "context")
        for axiom in ("A2", "A5"):
            assert verdicts[axiom, "Holds"] >= 10 and verdicts[axiom, "Fails"] >= 10, verdicts

    def test_a6_holds_for_additive_swap_costs_alone(self):
        # the context charge moves some pair's cost by a constant, so the
        # scan finds it whenever a quadruple reads that pair once
        verdicts = Counter()
        for kind, d, n in _swap_cost_cases(random.Random(48), 60):
            verdicts[kind, check_axiom(d, n, "A6").verdict] += 1
        assert verdicts["additive", "Fails"] == 0
        assert verdicts["multiplicative", "Fails"] >= 15
        assert verdicts["context", "Holds"] == 0

    def test_pair_product_swap_cost_holds_a4_and_fails_a6(self):
        # cost i * j for the pair {i, j}, wherever it is swapped: one value
        # per pair, but 1*2 + 3*4 != 1*3 + 2*4
        d = _inversion_cost_distance(lambda i, j: i * j)
        assert check_axiom(d, 4, "A4").verdict == "Holds"
        report = check_axiom(d, 4, "A6")
        assert report.verdict == "Fails"
        assert report.witness == {
            "position": 1,
            "pairs": ((1, 2), (3, 4), (1, 3), (2, 4)),
            "values": (2, 12, 3, 8),
            "realisations": tuple(
                Permutation(order) for order in ((1, 2, 3, 4), (3, 4, 1, 2), (1, 3, 2, 4), (2, 4, 1, 3))
            ),
        }

    @pytest.mark.parametrize("n", [4, 5])
    def test_a6_holds_for_signed_parameter_pairs(self, n):
        # every swap at position a costs phi_a * (mu_i + mu_j), whatever the signs
        rng = random.Random(49 + n)
        for _ in range(8):
            params = make_params(rand_weights(rng, n, nonneg=False), rand_measure(rng, n, nonneg=False))
            assert check_axiom(params_distance(params), n, "A6").verdict == "Holds"


def _replay(axiom, d, n, witness):
    """Recompute the relation a witness claims is violated, through ``d``."""

    def swap_cost(p, a, pair):
        assert {p.order[a - 1], p.order[a]} == set(pair)
        return d(p, p.swap_adjacent(a))

    if axiom == "A1":
        p, w, q = witness["p"], witness["w"], witness["q"]
        assert is_between(p, w, q) and w not in (p, q)
        assert (witness["d(q,p)"], witness["d(q,w)"], witness["d(w,p)"]) == (d(q, p), d(q, w), d(w, p))
        return d(q, p) != d(q, w) + d(w, p)
    if axiom == "A3":
        p, q = witness["p"], witness["q"]
        assert kendall_count(p, q) >= 2 and witness["d(p,q)"] == d(p, q)
        return not any(
            is_between(p, w, q) and d(p, w) + d(w, q) == d(p, q)
            for w in all_rankings(n)
            if w not in (p, q)
        )
    if axiom == "A4":
        a, pair = witness["position"], witness["pair"]
        values = tuple(swap_cost(p, a, pair) for p in witness["rankings"])
        assert values == witness["values"]
        return values[0] != values[1]
    if axiom == "A5":
        a, b = witness["positions"]
        one, two = witness["pairs"]
        spots = ((a, one), (b, two), (b, one), (a, two))
        x, y, xx, yy = (
            swap_cost(p, pos, pair) for p, (pos, pair) in zip(witness["realisations"], spots)
        )
        assert (x, y, xx, yy) == witness["values"]
        return a != b and x * y != xx * yy
    (i, j), (k, l), (i2, k2), (j2, l2) = witness["pairs"]
    assert len({i, j, k, l}) == 4 and (i, j, k, l) == (i2, j2, k2, l2)
    if axiom == "A2":
        spots = [(p, a) for p, a in witness["realisations"]]
    else:
        spots = [(p, witness["position"]) for p in witness["realisations"]]
    values = tuple(swap_cost(p, a, pair) for (p, a), pair in zip(spots, witness["pairs"]))
    assert values == witness["values"]
    return values[0] + values[1] != values[2] + values[3]


FAILING_AXIOM_CASES = (
    ("A1", params_distance(make_params(*preset("ok-nishimura", 4))), 4),
    ("A2", params_distance(make_params(*preset("ok-nishimura", 4))), 4),
    ("A3", lambda a, b: F(kendall_count(a, b)) ** 2, 4),
    ("A4", _swap_cost_distance(lambda a, pair, p: 1 + (p.order[-1] == 1)), 4),
    ("A5", _swap_cost_distance(lambda a, pair, p: a + sum(pair)), 4),
    ("A6", _inversion_cost_distance(lambda i, j: i * j), 4),
)


@pytest.mark.parametrize("axiom, d, n", FAILING_AXIOM_CASES, ids=[c[0] for c in FAILING_AXIOM_CASES])
def test_every_witness_replays_through_the_distance(axiom, d, n):
    report = check_axiom(d, n, axiom)
    assert report.verdict == "Fails"
    assert _replay(axiom, d, n, report.witness)


def _oriented_inversions(a, b):
    """Inverting i above j costs 1/2 for (1, 2) and 1 for every other pair:
    A1 and A3 hold for any such oriented costs, the distances from rankings
    with 1 above 2 have denominator 2, and the others are ints."""
    return sum(
        F(1, 2) if (i, j) == (1, 2) else 1
        for i, j in permutations(range(1, a.n + 1), 2)
        if a.prefers(i, j) and b.prefers(j, i)
    )


@pytest.mark.parametrize("axiom", ["A1", "A3"])
def test_rows_of_mixed_types_and_scales_are_compared_exactly(axiom):
    assert check_axiom(_oriented_inversions, 4, axiom).verdict == "Holds"
    for unit in (1, F(1, 3)):
        squared = lambda a, b: kendall_count(a, b) ** 2 * unit
        report = check_axiom(squared, 4, axiom)
        assert report.verdict == "Fails" and _replay(axiom, squared, 4, report.witness)
        values = [v for key, v in report.witness.items() if key.startswith("d(")]
        assert all(type(v) is type(unit) for v in values)


class TestRecovery:
    def test_pairwise_distances_recover(self):
        # inversion-additive distances rebuild from single-swap costs
        for mu_values in [(1, 1, 1, 1), (1, 2, 3, 4), (F(-1, 2), 2, 3, 4)]:
            params = make_params(MenuWeights([1, 0, 0]), Measure(mu_values))
            d = params_distance(params)
            weights = recover_pair_weights(d, 4)
            assert weights is not None
            mu = params.mu
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    assert weights[frozenset((i, j))] == mu.of(i) + mu.of(j)

    def test_non_additive_distance_returns_none(self):
        params = make_params(*preset("ok-nishimura", 4))
        assert recover_pair_weights(params_distance(params), 4) is None

    def test_a1_verdicts_match_recoverability(self):
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(3, 4)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            d = params_distance(params)
            holds = check_axiom(d, n, "A1").verdict == "Holds"
            assert holds == (recover_pair_weights(d, n) is not None)


class TestGraphicDistance:
    def test_a3_verdicts_match_the_path_identity(self):
        rng = random.Random(42)
        cases = []
        for _ in range(5):
            n = rng.randint(3, 4)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            cases.append((params_distance(params), n))
        cases.append((lambda a, b: F(kendall_count(a, b)) ** 2, 4))
        for d, n in cases:
            holds = check_axiom(d, n, "A3").verdict == "Holds"
            paths = minimal_path_costs(d, n)
            identity_holds = all(
                paths[(a, b)] == d(a, b) for a in all_rankings(n) for b in all_rankings(n)
            )
            assert holds == identity_holds

    def test_path_costs_of_squared_inversions(self):
        d = lambda a, b: F(kendall_count(a, b)) ** 2
        paths = minimal_path_costs(d, 3)
        src, dst = Permutation((1, 2, 3)), Permutation((3, 2, 1))
        assert paths[(src, dst)] == 3  # three unit swaps
        assert d(src, dst) == 9

    def test_graphic_identity_at_n5(self):
        params = make_params(*preset("ok-nishimura", 5))
        d = params_distance(params)
        paths = minimal_path_costs(d, 5)
        perms = all_rankings(5)
        assert all(paths[(a, b)] == d(a, b) for a in perms for b in perms)


class TestProperties:
    def test_neutrality_fails_on_the_worked_example(self):
        params = make_params(MenuWeights([1, 0]), Measure([1, 1, 2]))
        V = prof((1, (1, 2, 3)), (1, (3, 1, 2)), (1, (2, 3, 1)))
        report = check_property(params, V, "neutrality_P")
        assert report.verdict == "Fails"
        tau = report.witness["tau"]
        got = aggregate_exact(params, V.relabel(tau)).minimizers
        expected = tuple(
            sorted(tau.compose(p) for p in aggregate_exact(params, V).minimizers)
        )
        assert got != expected

    def test_neutrality_holds_for_counting_measure(self):
        params = make_params(*preset("kendall", 3))
        assert check_property(params, CYCLE, "neutrality_P").verdict == "Holds"

    def test_majority_on_random_profiles(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(2, 5)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            V = rand_profile(rng, n)
            assert check_property(params, V, "majority").verdict == "Holds"

    def test_condorcet_profile_splits_by_weight_support(self):
        pairwise = make_params(*preset("kendall", 4))
        heavy = make_params(MenuWeights([1, 1, 0]))
        assert check_property(pairwise, CONDORCET_PROFILE, "condorcet_P").verdict == "Holds"
        assert check_property(pairwise, CONDORCET_PROFILE, "condorcet_W").verdict == "Holds"
        report = check_property(heavy, CONDORCET_PROFILE, "condorcet_W")
        assert report.verdict == "Fails"
        assert 2 in report.witness["missing"]

    def test_strong_condorcet_fails_on_the_cycle(self):
        # margins 1>2, 2>3, 3>1 but every rotation stays in the consensus:
        # the strong form (winners must order every positive margin) fails
        params = make_params(*preset("kendall", 3))
        res = aggregate_exact(params, CYCLE)
        margins = net_preference_matrix(CYCLE)
        assert margins[1][2] > 0
        assert any(p.prefers(2, 1) for p in res.minimizers)

    def test_reinforcing(self):
        rng = random.Random(44)
        params = make_params(*preset("kendall", 4))
        seen_overlap = False
        for _ in range(40):
            V1 = rand_profile(rng, 4)
            V2 = V1 if rng.random() < 0.3 else rand_profile(rng, 4)
            report = check_property(params, V1, "reinforcing", other=V2)
            assert report.verdict == "Holds"
            if not report.note:
                seen_overlap = True
        assert seen_overlap

    def test_monotonicity_random(self):
        rng = random.Random(45)
        for _ in range(20):
            n = rng.randint(2, 5)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            V = rand_profile(rng, n)
            assert check_property(params, V, "monotonicity").verdict == "Holds"

    def test_blockwise_pareto_with_agreed_blocks(self):
        rng = random.Random(46)
        for _ in range(25):
            n = rng.randint(3, 5)
            weights = rand_weights(rng, n)
            if weights.values[0] == 0:
                weights = MenuWeights((weights.values[0] + 1,) + weights.values[1:])
            params = make_params(weights)
            cut = rng.randint(1, n - 1)
            entries = []
            for _ in range(rng.randint(1, 3)):
                top = rng.sample(range(1, cut + 1), cut)
                rest = rng.sample(range(cut + 1, n + 1), n - cut)
                entries.append((rng.randint(1, 2), Permutation(top + rest)))
            from menurank import Profile

            V = Profile(tuple(entries), n)
            assert check_property(params, V, "blockwise_pareto").verdict == "Holds"
            assert check_property(params, V, "partitionwise_pareto").verdict == "Holds"

    def test_inapplicable_gate(self):
        params = make_params(MenuWeights([1, 1, 1]), Measure([-1, 1, 1, 1]))
        report = check_property(params, CONDORCET_PROFILE, "majority")
        assert report.verdict == "Inapplicable"

    def test_unknown_property(self):
        params = make_params(*preset("kendall", 3))
        with pytest.raises(ValueError, match="unknown property"):
            check_property(params, CYCLE, "borda")

    def test_reinforcing_needs_two_profiles(self):
        params = make_params(*preset("kendall", 3))
        with pytest.raises(ValueError, match="two profiles"):
            check_property(params, CYCLE, "reinforcing")


def _reference_neutrality(params, profile):
    """The neutrality audit by its definition: one exact solve per
    relabelling, each against the sorted relabelled base set."""
    base = aggregate_exact(params, profile).minimizers
    for tau in all_rankings(profile.n):
        relabeled = aggregate_exact(params, profile.relabel(tau)).minimizers
        expected = tuple(sorted(tau.compose(p) for p in base))
        if relabeled != expected:
            return "Fails", {
                "tau": tau,
                "consensus": base,
                "relabeled_consensus": relabeled,
                "expected": expected,
            }
    return "Holds", None


def _orbit_cases(rng, count):
    """Measures with zeros, repeated values, all-distinct values or all ones,
    over random or tie-heavy profiles (a ballot and its reversal)."""
    for i in range(count):
        # a holding case at n = 6 takes 720 solves by the referee, 0.2 s
        n = 6 if i % 40 == 2 else rng.choice((2, 3, 3, 4, 4, 4, 5))
        mu = (
            [rng.choice((0, 0, 1, 5, F(1, 2))) for _ in range(n)],
            [rng.choice((1, 5)) for _ in range(n)],
            rng.sample(range(1, 30), n),
        )[i % 3] if i % 10 != 9 else [1] * n
        if rng.random() < 0.5:
            ballot = rand_ranking(rng, n)
            reversal = Permutation(ballot.order[::-1])
            mult = rng.randint(1, 3)
            entries = [(mult, ballot), (rng.choice((mult, mult + 1)), reversal)]
            if rng.random() < 0.3:
                entries.append((1, rand_ranking(rng, n)))
            profile = Profile(tuple(entries), n)
        else:
            profile = rand_profile(rng, n)
        yield make_params(rand_weights(rng, n), mu), profile


class TestNeutralityOrbits:
    def test_orbit_check_matches_the_per_relabelling_referee(self):
        failures = non_involutions = 0
        for params, V in _orbit_cases(random.Random(61), 240):
            report = check_property(params, V, "neutrality_P")
            verdict, witness = _reference_neutrality(params, V)
            assert report.verdict == verdict
            if witness is None:
                assert report.witness is None
                continue
            failures += 1
            tau = witness["tau"]
            non_involutions += tau.compose(tau) != all_rankings(V.n)[0]
            assert report.witness.keys() == witness.keys()
            assert report.witness["tau"] == tau
            for key in ("consensus", "relabeled_consensus", "expected"):
                assert tuple(report.witness[key]) == tuple(witness[key])
        # enough failures to compare witnesses, some first failing at a
        # relabelling that is not its own inverse
        assert failures >= 40 and non_involutions >= 5

    def test_witness_relabels_the_sets_already_solved(self, monkeypatch):
        from menurank import audit
        from menurank.aggregation import ConsensusSet

        ballot = (7, 6, 4, 2, 3, 5, 1)
        V = prof((1, ballot), (1, ballot[::-1]))
        params = make_params([1, 0, 0, 2, 1, 0], [1, 0, 0, 0, 0, 1, 0])
        real = audit.aggregate_exact
        profiles = []

        def record(params, profile):
            profiles.append(profile)
            return real(params, profile)

        def refuse(self, *key):
            raise AssertionError("listed a consensus set")

        monkeypatch.setattr(audit, "aggregate_exact", record)
        # every ranking a set yields comes through one of these two
        monkeypatch.setattr(ConsensusSet, "__getitem__", refuse)
        monkeypatch.setattr(ConsensusSet, "__iter__", refuse)
        report = check_property(params, V, "neutrality_P")
        assert report.verdict == "Fails"
        assert all(profile is V for profile in profiles)
        monkeypatch.undo()
        verdict, witness = _reference_neutrality(params, V)
        assert verdict == "Fails" and report.witness["tau"] == witness["tau"]
        for key in ("consensus", "relabeled_consensus", "expected"):
            assert report.witness[key] == witness[key]
        sizes = {len(report.witness[key]) for key in ("relabeled_consensus", "expected")}
        assert sizes == {3240, 5040}

    @pytest.mark.parametrize(
        "mu, admitted",
        [
            ([1, 2, 3, 4, 5, 6, 7, 8], False),  # 8! measures over 2^8 subsets
            ([1, 1, 2, 3, 4, 5, 6, 7], False),  # 8!/2!
            ([1, 1, 2, 2, 3, 3, 4, 4], True),  # 8!/2!^4 = 2,520: at the limit
            ([1, 2, 3, 4, 5, 6, 7], True),  # 7!, the largest count at n = 7
            ([1] * 8 + [2], True),  # 9 measures over 2^9 subsets
        ],
    )
    def test_guard_counts_the_distinct_measures_before_any_solve(self, monkeypatch, mu, admitted):
        from menurank import audit

        def refuse(params, profile):
            raise AssertionError("an exact solve ran")

        monkeypatch.setattr(audit, "aggregate_exact", refuse)
        n = len(mu)
        V = prof((1, tuple(range(1, n + 1))), (1, tuple(range(n, 0, -1))))
        params = make_params(preset("kendall", n)[0], mu)
        if admitted:
            with pytest.raises(AssertionError, match="an exact solve ran"):
                check_property(params, V, "neutrality_P")
        else:
            with pytest.raises(ValueError, match=r"capped at 7! \* 2\^7 = 645120"):
                check_property(params, V, "neutrality_P")

    @pytest.mark.parametrize("n", [8, 10])
    def test_counting_measure_holds_from_one_solve(self, monkeypatch, n):
        from menurank import audit

        real = audit.aggregate_exact
        solves = []

        def record(params, profile):
            solves.append(params.mu)
            assert len(solves) == 1, "a second solve ran"
            return real(params, profile)

        monkeypatch.setattr(audit, "aggregate_exact", record)
        ballot = (3, 1, 4) + tuple(range(5, n + 1)) + (2,)
        V = prof((2, ballot), (1, ballot[::-1]))
        params = make_params(*preset("kendall", n))
        assert check_property(params, V, "neutrality_P").verdict == "Holds"
        assert solves == [params.mu]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_relabelled_profile_solves_as_the_relabelled_measure(self, data):
        # P_mu(tau V) = tau P_{mu o tau}(V), for weights and measures of any sign
        n = data.draw(st.integers(min_value=2, max_value=5))
        value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        weights = data.draw(st.lists(value, min_size=n - 1, max_size=n - 1))
        mu = data.draw(st.lists(value, min_size=n, max_size=n))
        ranking = st.permutations(range(1, n + 1)).map(Permutation)
        tau = data.draw(ranking)
        entries = data.draw(
            st.lists(st.tuples(st.integers(1, 3), ranking), min_size=1, max_size=4)
        )
        V = Profile(tuple(entries), n)
        moved = aggregate_exact(make_params(weights, mu), V.relabel(tau)).minimizers
        image = aggregate_exact(
            make_params(weights, [mu[t - 1] for t in tau.order]), V
        ).minimizers
        assert moved == tuple(sorted(tau.compose(p) for p in image))


def _reference_condorcet_p(params, profile):
    """The strong Condorcet audit over the listed consensus set."""
    consensus = aggregate_exact(params, profile).minimizers
    margins = net_preference_matrix(profile)
    adjacency = [
        {(p.order[k], p.order[k + 1]) for k in range(profile.n - 1)} for p in consensus
    ]
    for i in range(1, profile.n + 1):
        for j in range(1, profile.n + 1):
            if i == j:
                continue
            if margins[i][j] > 0:
                for p, adj in zip(consensus, adjacency):
                    if (j, i) in adj:
                        return "Fails", "", {"i": i, "j": j, "margin": margins[i][j], "ranking": p}
            elif margins[i][j] == 0:
                has_ij = any((i, j) in adj for adj in adjacency)
                has_ji = any((j, i) in adj for adj in adjacency)
                if has_ij != has_ji:
                    return "Fails", "", {"i": i, "j": j, "margin": 0, "consensus": consensus}
    return "Holds", "", None


def _reference_reinforcing(params, one, two):
    """Reinforcement by intersecting the listed consensus sets."""
    first = set(aggregate_exact(params, one).minimizers)
    second = set(aggregate_exact(params, two).minimizers)
    common = first & second
    if not common:
        return "Holds", "consensus sets are disjoint; nothing to require", None
    merged = set(aggregate_exact(params, one.concat(two)).minimizers)
    if merged != common:
        return "Fails", "", {
            "P(V1)": tuple(sorted(first)),
            "P(V2)": tuple(sorted(second)),
            "P(V1+V2)": tuple(sorted(merged)),
        }
    return "Holds", "", None


def _agreed_prefix_sizes(profile):
    first = profile.entries[0][1]
    return [
        k
        for k in range(1, profile.n + 1)
        if all(set(v.order[:k]) == set(first.order[:k]) for v in profile.ballots())
    ]


def _reference_blockwise(params, profile):
    """Every agreed top-k set, checked on every listed consensus ranking."""
    consensus = aggregate_exact(params, profile).minimizers
    first = profile.entries[0][1]
    for k in _agreed_prefix_sizes(profile):
        top = frozenset(first.order[:k])
        for p in consensus:
            if frozenset(p.order[:k]) != top:
                return "Fails", "", {"k": k, "shared_top_set": sorted(top), "ranking": p}
    return "Holds", "", None


def _reference_partitionwise(params, profile):
    """Every block between agreed cuts, checked on every listed ranking."""
    consensus = aggregate_exact(params, profile).minimizers
    first = profile.entries[0][1]
    cuts = [0] + _agreed_prefix_sizes(profile)
    for lo, hi in zip(cuts, cuts[1:]):
        block = frozenset(first.order[lo:hi])
        for p in consensus:
            if frozenset(p.order[lo:hi]) != block:
                return "Fails", "", {"block": (lo + 1, hi), "shared_set": sorted(block), "ranking": p}
    return "Holds", "", None


def _blocked_profile(rng, n):
    """Ballots that each shuffle the blocks of one ranking cut at random
    places, so they agree on every cut."""
    base = rand_ranking(rng, n).order
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    blocks = [base[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n])]
    entries = []
    for _ in range(rng.randint(1, 3)):
        order = [c for block in blocks for c in rng.sample(block, len(block))]
        entries.append((rng.randint(1, 3), Permutation(order)))
    return Profile(tuple(entries), n)


def _listing_cases(rng, count):
    """Tie-heavy profiles (a ballot and its reversal), profiles agreed on
    blocks and random ones, under measures with zero or repeated entries,
    distinct entries or all ones; each with a second profile that repeats
    it, shares a ballot with it or is drawn afresh."""
    for i in range(count):
        n = rng.choice((2, 3, 4, 4, 5, 5, 6, 7))
        mu = (
            [rng.choice((0, 0, 1, 2, F(1, 2))) for _ in range(n)],
            [1] * n,
            rng.sample(range(1, 20), n),
        )[i % 3]
        kind = i % 4
        if kind in (0, 1):
            ballot = rand_ranking(rng, n)
            entries = [(rng.randint(1, 2), ballot), (rng.randint(1, 2), Permutation(ballot.order[::-1]))]
            if rng.random() < 0.3:
                entries.append((1, rand_ranking(rng, n)))
            one = Profile(tuple(entries), n)
        elif kind == 2:
            one = _blocked_profile(rng, n)
        else:
            one = rand_profile(rng, n)
        two = (
            one,
            Profile((one.entries[0], (1, rand_ranking(rng, n))), n),
            rand_profile(rng, n),
            _blocked_profile(rng, n),
        )[rng.randrange(4)]
        yield make_params(rand_weights(rng, n), mu), one, two


class TestListingReferees:
    def test_dag_audits_match_the_listing_referees(self):
        def shown(verdict, note, witness):
            return verdict, note, _describe_witness(witness)

        fails = margin_zero = disjoint = overlapping = 0
        for params, V, W in _listing_cases(random.Random(71), 420):
            for prop, reference in (
                ("condorcet_P", _reference_condorcet_p),
                ("blockwise_pareto", _reference_blockwise),
                ("partitionwise_pareto", _reference_partitionwise),
            ):
                report = check_property(params, V, prop)
                got = shown(report.verdict, report.note, report.witness)
                assert got == shown(*reference(params, V)), (prop, V)
                fails += report.verdict == "Fails"
                margin_zero += report.verdict == "Fails" and "consensus" in report.witness
            report = check_property(params, V, "reinforcing", other=W)
            got = shown(report.verdict, report.note, report.witness)
            assert got == shown(*_reference_reinforcing(params, V, W)), V
            disjoint += bool(report.note)
            overlapping += not report.note
        assert fails >= 50 and margin_zero >= 5
        assert disjoint >= 20 and overlapping >= 20

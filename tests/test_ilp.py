from __future__ import annotations

import hashlib
import random
from decimal import Decimal
from fractions import Fraction as F
from itertools import permutations as it_perms
from itertools import product
from math import comb, lcm
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menurank import (
    Measure,
    Permutation,
    Profile,
    aggregate_exact,
    build_ilp,
    downset_mass_table,
    load_profile,
    make_params,
    objective_offset,
    objective_value,
    preset,
    profile_cost,
)
from menurank.ilp import (
    _wrap_text,
    comparison_matrix,
    expected_constraint_count,
    expected_variable_count,
    is_linear_order_matrix,
    ranking_from_matrix,
)

from conftest import prof, rand_fraction, rand_measure, rand_profile, rand_ranking, rand_weights


def _wrap(head, terms, suffix=""):
    """The lines ``_wrap_text`` breaks a row of (non-empty) terms into."""
    return _wrap_text(head, "\0".join(terms), suffix).split("\n")


DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


class LpText(NamedTuple):
    scale: int
    objective: list[tuple[int, str]]
    rows: list[tuple[str, list[tuple[int, str]], str, int]]  # name, terms, sense, rhs
    binaries: list[str]


def _terms(tokens: list[str]) -> list[tuple[int, str]]:
    # "3 Q" or "-3 Q" first, then "+ 1 P" / "- 1 P" triples
    terms = [(int(tokens[0]), tokens[1])]
    for k in range(2, len(tokens), 3):
        sign, magnitude, var = tokens[k : k + 3]
        terms.append((int(magnitude) if sign == "+" else -int(magnitude), var))
    return terms


def parse_lp(text: str) -> LpText:
    """Read the exported LP text back: rows joined with their continuation
    lines (indented past the single space of a row start), and the Binary
    block."""
    lines = text.splitlines()
    assert lines[1].startswith("\\ objective scaled by ")
    scale = int(lines[1].rsplit(" ", 1)[1])
    sections: dict[str, list[str]] = {}
    section = None
    for line in lines[2:]:
        if line in ("Minimize", "Subject To", "Binary", "End"):
            section = sections.setdefault(line, [])
        elif line.startswith("    "):
            section[-1] += line[3:]
        else:
            section.append(line)
    (objective,) = sections["Minimize"]
    assert objective.startswith(" obj: ")
    rows = []
    for row in sections["Subject To"]:
        name, body = row.split(":", 1)
        tokens = body.split()
        rows.append((name.strip(), _terms(tokens[:-2]), tokens[-2], int(tokens[-1])))
    binaries = [line.strip() for line in sections["Binary"]]
    return LpText(scale, _terms(objective.split()[1:]), rows, binaries)


class TestOrderMatrices:
    def test_permutation_matrices_satisfy_the_rows(self):
        for order in it_perms(range(1, 5)):
            matrix = comparison_matrix(Permutation(order))
            assert is_linear_order_matrix(matrix)
            assert ranking_from_matrix(matrix) == Permutation(order)

    def test_three_cycle_fails_transitivity(self):
        assert not is_linear_order_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        with pytest.raises(ValueError, match="violates"):
            ranking_from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_feasible_set_is_exactly_the_linear_orders(self):
        n = 3
        feasible = []
        for bits in product((0, 1), repeat=n * (n - 1)):
            matrix = [[0] * n for _ in range(n)]
            k = 0
            for i in range(n):
                for j in range(n):
                    if i != j:
                        matrix[i][j] = bits[k]
                        k += 1
            if is_linear_order_matrix(matrix):
                feasible.append(ranking_from_matrix(matrix))
        assert sorted(feasible) == sorted(Permutation(p) for p in it_perms((1, 2, 3)))


class TestModelShape:
    @pytest.mark.parametrize("n, m", [(3, 2), (4, 3), (5, 4)])
    def test_counts_match_the_cubic_formula(self, n, m):
        rng = random.Random(n * 10 + m)
        params = make_params(*preset("kendall", n))
        V = rand_profile(rng, n, max_ballots=m, max_mult=1)
        while len(V.entries) != m:
            V = rand_profile(rng, n, max_ballots=m, max_mult=1)
        model = build_ilp(params, V)
        assert model.variable_count() == expected_variable_count(n, m) == n * n + m * n**3
        assert model.constraint_count() == expected_constraint_count(n, m)
        lp = parse_lp(model.to_lp_text())
        assert len(lp.binaries) == model.variable_count()
        assert len(lp.rows) == model.constraint_count()

    def test_lp_text_sections_and_names(self):
        params = make_params(*preset("linear", 3))
        model = build_ilp(params, prof((1, (1, 2, 3)), (1, (3, 2, 1))))
        text = model.to_lp_text()
        assert text.splitlines()[0].startswith("\\ consensus ranking program")
        for section in ("Minimize", "Subject To", "Binary", "End"):
            assert section in text
        assert " P_1_2" in text and " Q_2_3_1_0" in text
        # every variable is declared binary, in P then Q order
        assert parse_lp(text).binaries == [
            f"P_{i}_{j}" for i in range(1, 4) for j in range(1, 4)
        ] + [
            f"Q_{v}_{i}_{r}_{s}"
            for v in (1, 2)
            for i in range(1, 4)
            for r in range(3)
            for s in range(3)
        ]

    def test_objective_scale_clears_denominators(self):
        # the cell prices as Fractions, mass(t) = sum_k w_k C(t, k - 1)
        # written out here; the header scale must be the lcm of their
        # denominators and every written coefficient the price times it
        rng = random.Random(41)
        for trial in range(40):
            n = rng.randint(2, 5)
            weights = rand_weights(rng, n, nonneg=False)
            if trial % 10 == 0:
                weights = [0] * (n - 1)
            mu = Measure([rand_fraction(rng, nonneg=False) if rng.random() < 0.7 else 0 for _ in range(n)])
            params = make_params(weights, mu)
            V = rand_profile(rng, n)

            def mass(t):
                return sum(w * comb(t, k - 1) for k, w in enumerate(params.weights.values, start=2))

            assert [mass(t) for t in range(n)] == list(downset_mass_table(params.weights))
            prices = [
                (f"Q_{v}_{i}_{r}_{s}", mult * (mass(r + s) - 2 * mass(s)) * mu_i)
                for v, (mult, _) in enumerate(V.entries, start=1)
                for i, mu_i in enumerate(params.mu.values, start=1)
                for r in range(n)
                for s in range(n)
            ]
            scale = lcm(*(price.denominator for _, price in prices))
            lp = parse_lp(build_ilp(params, V).to_lp_text())
            assert lp.scale == scale
            written = [(price * scale, name) for name, price in prices if price]
            assert lp.objective == (written or [(0, "P_1_1")])

    def test_coefficients_past_the_str_digit_limit_are_written_exactly(self):
        # 3,000-digit parameters give a 6,000-digit scale and coefficients
        # of up to 9,000 digits, past the 4,300 digits CPython's str() writes
        big = 10**3000 - 1
        params = make_params([big, 1], Measure([big, 1, F(1, big**2)]))
        V = prof((1, (1, 2, 3)), (big, (3, 2, 1)))
        model = build_ilp(params, V)
        lines = model.to_lp_text().splitlines()
        assert int(Decimal(lines[1].rsplit(" ", 1)[1])) == model.scale
        assert model.scale.bit_length() > 15_000  # over 4,300 digits
        tokens = " ".join(lines[3 : lines.index("Subject To")]).split()[1:]
        # Decimal reads a token exactly; arithmetic on it would round
        written = [int(Decimal(tokens[0]))] + [
            int(Decimal(magnitude)) * (1 if sign == "+" else -1)
            for sign, magnitude in zip(tokens[2::3], tokens[3::3])
        ]
        expected = [factor * cell for factor in model.factors for cell in model.cells]
        assert written == [c for c in expected if c]

    def test_rows_break_only_past_241_columns(self):
        # a term starts a new, indented line when the line so far plus the
        # term would pass 240 characters, so a whole row may end at column 241
        assert _wrap(" r:", ["a" * 237], " = 1") == [" r: " + "a" * 237 + " = 1"]
        assert _wrap(" r:", ["a" * 238], " = 1") == [" r:", "    " + "a" * 238 + " = 1"]
        assert _wrap(" r:", ["a" * 100, "b" * 136]) == [" r: " + "a" * 100 + " " + "b" * 136]
        assert _wrap(" r:", ["a" * 100, "b" * 137]) == [" r: " + "a" * 100, "    " + "b" * 137]

    def test_rows_break_on_continuation_lines_at_the_same_column(self):
        # a continuation line ("    " and its terms) may end at column 240 or
        # 241, and breaks before a term that would end at 242
        first = " r: " + "a" * 237
        assert _wrap(" r:", ["a" * 237, "b" * 234, "c"]) == [first, "    " + "b" * 234 + " c"]
        assert _wrap(" r:", ["a" * 237, "b" * 234, "cc"]) == [first, "    " + "b" * 234 + " cc"]
        assert _wrap(" r:", ["a" * 237, "b" * 234, "ccc"]) == [first, "    " + "b" * 234, "    ccc"]
        # the head alone when its first term does not fit beside it; an
        # oversized term takes a continuation line to itself, past the width
        assert _wrap(" r:", ["a" * 300, "b"], " = 1") == [" r:", "    " + "a" * 300, "    b = 1"]
        assert _wrap(" r:", ["a", "b" * 300, "c"]) == [" r: a", "    " + "b" * 300, "    c"]

    def test_row_count_in_text_matches_model(self):
        params = make_params(*preset("kendall", 4))
        V = prof((1, (1, 2, 3, 4)), (2, (4, 3, 2, 1)))
        model = build_ilp(params, V)
        text = model.to_lp_text()
        body = text.split("Subject To", 1)[1].split("Binary", 1)[0]
        names = [l.split(":")[0].strip() for l in body.splitlines() if ":" in l]
        assert len(names) == model.constraint_count()
        assert len(set(names)) == len(names)


def objective_by_ballot(params, profile, ranking):
    """The program objective summed ballot by ballot and candidate by
    candidate from the integer down-set masses: the referee for
    ``objective_value``, which reads ``profile_cost``."""
    table, mu = params.int_table, params.int_mu
    total = 0
    for mult, v in profile.entries:
        for i in range(1, params.n + 1):
            mine = ranking.below_mask(i)
            shared = (mine & v.below_mask(i)).bit_count()
            total += mult * (table[mine.bit_count()] - 2 * table[shared]) * mu[i - 1]
    return F(total, params.scale)


def offset_by_ballot(params, profile):
    """``sum_v mult_v sum_c f(|B_v(c)|) mu_c``, ballot by ballot: the referee
    for ``objective_offset``, which reads the position constants."""
    table, mu = params.int_table, params.int_mu
    total = sum(
        mult * table[v.below_mask(i).bit_count()] * mu[i - 1]
        for mult, v in profile.entries
        for i in range(1, params.n + 1)
    )
    return F(total, params.scale)


class TestObjective:
    def test_identity_against_profile_cost(self):
        # signed and zero weights and measure entries
        rng = random.Random(31)
        for trial in range(25):
            n = rng.randint(2, 6)
            nonneg = trial % 2 == 0
            mu = rand_measure(rng, n, nonneg=nonneg)
            mu = Measure([0 if rng.random() < 0.3 else x for x in mu.values])
            params = make_params(rand_weights(rng, n, nonneg=nonneg), mu)
            V = rand_profile(rng, n)
            offset = objective_offset(params, V)
            assert offset == offset_by_ballot(params, V)
            for q in it_perms(range(1, n + 1)):
                p = Permutation(q)
                value = objective_value(params, V, p)
                assert value == objective_by_ballot(params, V, p)
                assert value + offset == profile_cost(params, p, V)

    def test_unanimous_value_is_minus_the_offset(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.randint(2, 5)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            p = Permutation(rng.sample(range(1, n + 1), n))
            V = prof((3, p.order))
            assert objective_value(params, V, p) == -objective_offset(params, V)

    def test_argmin_matches_the_exact_consensus(self):
        rng = random.Random(33)
        for _ in range(15):
            n = rng.randint(2, 5)
            params = make_params(rand_weights(rng, n), rand_measure(rng, n))
            V = rand_profile(rng, n)
            values = {
                q: objective_value(params, V, Permutation(q))
                for q in it_perms(range(1, n + 1))
            }
            best = min(values.values())
            argmin = {q for q, v in values.items() if v == best}
            assert argmin == {
                p.order for p in aggregate_exact(params, V).minimizers
            }

    def test_q_grid_selector_coefficients(self):
        # the four selector rows of a cell, scaled through n = 3: candidate 1
        # has 1 and 2 outside its ballot down-set {3}, and (r, s) = (0, 1)
        params = make_params(*preset("kendall", 3))
        text = build_ilp(params, prof((1, (2, 1, 3)))).to_lp_text()
        assert [line for line in text.splitlines() if "_1_1_0_1:" in line] == [
            " sel_rlo_1_1_0_1: 3 Q_1_1_0_1 - 1 P_1_1 - 1 P_1_2 <= 3",
            " sel_rhi_1_1_0_1: 3 Q_1_1_0_1 + 1 P_1_1 + 1 P_1_2 <= 3",
            " sel_slo_1_1_0_1: 3 Q_1_1_0_1 - 1 P_1_3 <= 2",
            " sel_shi_1_1_0_1: 3 Q_1_1_0_1 + 1 P_1_3 <= 4",
        ]


def _digest_cases():
    for stem in ("ex_condorcet", "ex_cyclic", "ex_neutrality"):
        V = load_profile(DATA / f"{stem}.prof")
        for name, param in (("kendall", None), ("ok-nishimura", None), ("binomial", F(1, 3))):
            yield f"{stem}/{name}", make_params(*preset(name, V.n, param)), V
    yield (
        "mixed-sign",
        make_params([F(3, 2), F(-2, 3), F(1, 4)], [F(1, 2), 0, 2, F(5, 3)]),
        prof((2, (1, 2, 3, 4)), (1, (4, 1, 3, 2)), (3, (2, 4, 1, 3))),
    )
    yield "zero-weights", make_params([0, 0]), prof((1, (1, 2, 3)), (1, (2, 3, 1)))
    yield "n2", make_params(*preset("kendall", 2)), prof((1, (1, 2)), (2, (2, 1)))
    rng = random.Random(5)
    ballots = [(rng.randint(1, 3), tuple(rng.sample(range(1, 6), 5))) for _ in range(10)]
    yield "n5m10", make_params(*preset("ok-nishimura", 5)), prof(*ballots)
    # candidate 18 is last on the ballot, so its selector rows pass the width
    yield "n18-wide-selectors", make_params(*preset("kendall", 18)), prof((1, tuple(range(1, 19))))
    # two-digit candidate names and cells, every selector row narrow
    rng = random.Random(12)
    ballots = [(rng.randint(1, 3), tuple(rng.sample(range(1, 13), 12))) for _ in range(3)]
    yield "n12m3", make_params(*preset("linear", 12)), prof(*ballots)
    # the widest n whose rows all stay narrow: candidate 16 is last, so its
    # rows carry all 16 P terms in one fragment
    yield "n16-narrow-selectors", make_params(*preset("kendall", 16)), prof((1, tuple(range(1, 17))))
    # ballots 10 to 12 have two-digit stems, which move the pick rows' breaks;
    # mixed signs and a zero in the measure give negative and zero prices
    rng = random.Random(13)
    ballots = [(rng.randint(1, 3), tuple(rng.sample(range(1, 6), 5))) for _ in range(12)]
    yield (
        "n5m12-mixed-sign",
        make_params([F(5, 2), F(-4, 3), F(1, 6), -1], [1, F(-3, 2), 0, F(2, 7), 4]),
        prof(*ballots),
    )
    # a weight with a 224-digit numerator: the objective's terms run 236 to
    # 238 characters, so their lines end at columns 240, 241 and 242 (an
    # oversized term alone), the first term, which is negative, leaves the
    # head alone, and the cells with r = s, where the big weight cancels,
    # stay narrow
    yield (
        "oversized-terms",
        make_params([F(10**223 + 7, 3), F(-2, 3), F(1, 5)], [1, F(-5, 2), 0, 2]),
        prof((2, (1, 2, 3, 4)), (1, (4, 1, 3, 2)), (3, (2, 4, 1, 3))),
    )
    # multiplicities 1..10 times a measure of ±11^k for distinct k: no two
    # (ballot, candidate) blocks share their coefficients
    rng = random.Random(16)
    ballots = [(mult, tuple(rng.sample(range(1, 6), 5))) for mult in range(1, 11)]
    yield (
        "all-blocks-distinct",
        make_params([1, F(1, 2), 2, F(1, 3)], [1, 11, F(1, 121), 1331, F(-1, 14641)]),
        prof(*ballots),
    )


def _coefficients(model) -> tuple[int, ...]:
    """Every written objective coefficient, ``factor * cell``, in (v, i, r, s)
    order: block (v, i)'s factor times each cell (r, s)'s price."""
    return tuple(factor * cell for factor in model.factors for cell in model.cells)


def _objective_lines(text: str) -> list[str]:
    lines = text.splitlines()
    return lines[lines.index("Minimize") + 1 : lines.index("Subject To")]


# SHA-256 of to_lp_text per case, recorded from the Fraction-based export
# the integer one replaced: any change to the written bytes fails here
LP_DIGESTS = {
    "ex_condorcet/kendall": "4afd82662b9ff2f2e428cd0b354fc72734825d0e40440145a43f3403bd5f09cb",
    "ex_condorcet/ok-nishimura": "c8366bbb97f50a84ca58d26f167dd7dab7a2f10d74e47e8f2ea034e1b7a402ee",
    "ex_condorcet/binomial": "1634045225ad6487460a37febe73db024db57f701b9e7234e1c947e3c85cf1d1",
    "ex_cyclic/kendall": "e0b98822168139450a3788e457db123ca98b5a4e9552625d040ada9062c961c3",
    "ex_cyclic/ok-nishimura": "b7e6a068b2e91268741edc2d2e29467357a8a51af2f262df27a12078d9dae08f",
    "ex_cyclic/binomial": "fc88cd06a8d16f8bc3da033d118c3335dc29fb3271d94b54ff894fda782ae834",
    "ex_neutrality/kendall": "75394861fb07ca404354f50e7d962394dfafea79c4ca40f4ee135e5345379bfd",
    "ex_neutrality/ok-nishimura": "4e6620226ffba7efb4e9d9dcae41d313e0a72c6258e0ba9fc9bcd24f48514b73",
    "ex_neutrality/binomial": "0e4332b2ca3f9ae9d8d3d793af724bdb980b81126920039d88fd5726d4066db2",
    "mixed-sign": "ecd1c5b9514f15afb25e442988041d9a640065bd7d05aa2fb455fabf658d8302",
    "zero-weights": "e807812f3da1d7152d61137541fd3483e7b51eabeef74040093c0bba01d4023b",
    "n2": "4de9e29d7c56f5f5a1a6978bba3c4fb1121bffacec73a3c4f3ce4e4c2a98a35b",
    "n5m10": "834892ad633fcb291f52aad7cdacfcb9ec7e682fcbbceee27005cf88b91debfe",
    "n18-wide-selectors": "eac9869356432b9b49f05425aed7359adcfa97ec77481995059f744a9b025cbb",
    # recorded from the row-by-row writer the segment layout replaced
    "n12m3": "ff32c32d2105a4b7ce69fcbd3532c2556fa7ae0586938d83ae3e7a58db899e03",
    "n16-narrow-selectors": "346203bce45041398e0eabacb971b913b95ba4bb5a8a7b35a97ec5402fe382f5",
    "n5m12-mixed-sign": "d1e632c6b21167756d7812fb98bea0a4f3df70ec3b9b85193578b5b33e3f451b",
    # recorded from the term-by-term objective the per-block templates replaced
    "oversized-terms": "cdf02d927c371e3cd6a99b255dbbb4604db3c11c50ab5898d6a347f9568bb096",
    "all-blocks-distinct": "db50f28ffd2e4013979fb48051a3a264d36891e46424f287e5c4ebaf2f42e691",
}


def _wrapped_row_kinds(text: str) -> set[str]:
    """The name prefixes (obj, sel, pick, ...) of rows with continuation lines."""
    lines = text.splitlines()
    return {
        row.split(":", 1)[0].strip().split("_", 1)[0]
        for row, after in zip(lines, lines[1:])
        if after.startswith("    ") and not row.startswith("    ")
    }


def test_lp_text_is_byte_identical_to_the_recorded_digests():
    seen = {}
    for name, params, V in _digest_cases():
        text = build_ilp(params, V).to_lp_text()
        seen[name] = hashlib.sha256(text.encode()).hexdigest()
        if name == "zero-weights":
            assert text.splitlines()[1:4] == ["\\ objective scaled by 1", "Minimize", " obj: 0 P_1_1"]
        if name in ("n5m10", "n16-narrow-selectors"):
            assert _wrapped_row_kinds(text) == {"obj", "pick"}
        if name == "n18-wide-selectors":
            assert _wrapped_row_kinds(text) == {"obj", "pick", "sel"}
        if name == "oversized-terms":
            widths = {len(line) for line in _objective_lines(text)}
            assert {5, 240, 241, 242} <= widths and max(widths) == 242
            head, first = _objective_lines(text)[:2]
            assert head == " obj:" and first.startswith("    -2") and first.endswith("0 Q_1_1_0_1")
        if name == "all-blocks-distinct":
            model = build_ilp(params, V)
            size, coefficients = model.n**2, _coefficients(model)
            blocks = {coefficients[k : k + size] for k in range(0, len(coefficients), size)}
            assert len(blocks) == model.m * model.n
    assert seen == LP_DIGESTS


def _reference_wrap(head, terms, suffix=""):
    lines = []
    current = head
    for term in terms:
        if len(current) + len(term) > 240:
            lines.append(current)
            current = "   "
        current += " " + term
    lines.append(current + suffix)
    return lines


# term widths clustered where a line fills up: a term alone near the 237
# columns a continuation line has room for, and short terms that top a line
# up to column 240 or 241
_term_widths = st.one_of(st.integers(1, 300), st.integers(228, 245), st.integers(1, 8))


@settings(max_examples=400, deadline=None)
@given(
    head=st.sampled_from([" obj:", " r:", " pick_12_3:", " " + "h" * 200, " " + "h" * 236,
                          " " + "h" * 239, " " + "h" * 240, " " + "h" * 250]),
    widths=st.lists(_term_widths, min_size=1, max_size=12),
    suffix=st.sampled_from(["", " = 1", " <= 17"]),
)
def test_wrap_matches_the_term_by_term_reference(head, widths, suffix):
    # each term its own letter, so a term moved across a break shows
    terms = [chr(97 + k % 26) * width for k, width in enumerate(widths)]
    assert _wrap(head, terms, suffix) == _reference_wrap(head, terms, suffix)


def _reference_lp_text(model) -> str:
    """The row-by-row writer the segment layout replaced, each row an
    f-string of its own and every wrapped row through ``_reference_wrap``."""
    n, m = model.n, model.m
    targets = [(f"{r}_{s}", n - r, n + r, n - s, n + s) for r in range(n) for s in range(n)]
    cells = [cell for cell, *_ in targets]
    lines = [
        f"\\ consensus ranking program: n={n}, m={m}",
        f"\\ objective scaled by {model.scale}",
        "Minimize",
    ]
    terms = []
    coefficients = iter(_coefficients(model))
    for v in range(1, m + 1):
        for i in range(1, n + 1):
            for cell, c in zip(cells, coefficients):
                if c > 0:
                    terms.append(f"+ {c} Q_{v}_{i}_{cell}")
                elif c < 0:
                    terms.append(f"- {-c} Q_{v}_{i}_{cell}")
    if terms:
        first = terms[0]
        terms[0] = first[2:] if first[0] == "+" else "-" + first[2:]
    else:
        terms = ["0 P_1_1"]
    lines.extend(_reference_wrap(" obj:", terms))
    lines.append("Subject To")
    lines.extend(f" diag_{i}: 1 P_{i}_{i} = 0" for i in range(1, n + 1))
    lines.extend(
        f" complete_{i}_{j}: 1 P_{i}_{j} + 1 P_{j}_{i} = 1"
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    lines.extend(
        f" transitive_{i}_{j}_{k}: 1 P_{i}_{j} + 1 P_{j}_{k} - 1 P_{i}_{k} <= 1"
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
        if i != j != k != i
    )
    for v, masks in enumerate(model.below, start=1):
        for i, mask in enumerate(masks, start=1):
            outside = [f"P_{i}_{j}" for j in range(1, n + 1) if not mask >> (j - 1) & 1]
            inside = [f"P_{i}_{j}" for j in range(1, n + 1) if mask >> (j - 1) & 1]
            out_minus = "".join(f" - 1 {p}" for p in outside)
            out_plus = "".join(f" + 1 {p}" for p in outside)
            in_minus = "".join(f" - 1 {p}" for p in inside)
            in_plus = "".join(f" + 1 {p}" for p in inside)
            vi = f"{v}_{i}_"
            q = f" {n} Q_{vi}"
            longest = max(len(out_minus), len(in_minus))
            if len(f" sel_rlo_{vi}{cells[-1]}:{q}{cells[-1]}") + longest > 241:
                for cell, r_lo, r_hi, s_lo, s_hi in targets:
                    q_term = q[1:] + cell
                    for tag, count, lo, hi in (("r", outside, r_lo, r_hi), ("s", inside, s_lo, s_hi)):
                        lines += _reference_wrap(
                            f" sel_{tag}lo_{vi}{cell}:", [q_term, *(f"- 1 {p}" for p in count)], f" <= {lo}"
                        )
                        lines += _reference_wrap(
                            f" sel_{tag}hi_{vi}{cell}:", [q_term, *(f"+ 1 {p}" for p in count)], f" <= {hi}"
                        )
            else:
                lines += [
                    f" sel_rlo_{vi}{cell}:{q}{cell}{out_minus} <= {r_lo}\n"
                    f" sel_rhi_{vi}{cell}:{q}{cell}{out_plus} <= {r_hi}\n"
                    f" sel_slo_{vi}{cell}:{q}{cell}{in_minus} <= {s_lo}\n"
                    f" sel_shi_{vi}{cell}:{q}{cell}{in_plus} <= {s_hi}"
                    for cell, r_lo, r_hi, s_lo, s_hi in targets
                ]
            picks = [f"+ 1 Q_{vi}{cell}" for cell in cells]
            picks[0] = picks[0][2:]
            lines.extend(_reference_wrap(f" pick_{v}_{i}:", picks, " = 1"))
    lines.append("Binary")
    lines.extend(f" P_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    lines.extend(
        f" Q_{v}_{i}_{cell}" for v in range(1, m + 1) for i in range(1, n + 1) for cell in cells
    )
    lines.append("End")
    return "\n".join(lines) + "\n"


def test_segment_writer_matches_the_row_by_row_writer():
    # seeded programs over n = 2..18 and m = 1..12 (m capped so that m n^3
    # stays near 3000 cells), mixed-sign weights and measures with zeros
    rng = random.Random(1515)
    seen = set()
    for n in range(2, 19):
        cap = max(1, min(12, 3000 // n**3))
        for trial in range(3):
            m = cap if trial == 0 else rng.randint(1, cap)
            weights = rand_weights(rng, n, nonneg=trial == 2)
            if (n + trial) % 5 == 0:
                weights = [0] * (n - 1)
            mu = Measure([0 if rng.random() < 0.2 else rand_fraction(rng, nonneg=False) for _ in range(n)])
            V = Profile(tuple((rng.randint(1, 3), rand_ranking(rng, n)) for _ in range(m)), n)
            model = build_ilp(make_params(weights, mu), V)
            text = model.to_lp_text()
            assert text == _reference_lp_text(model), (n, m, trial)
            prices = [c for c in _coefficients(model) if c]
            seen |= {
                *(f"wrapped {kind}" for kind in _wrapped_row_kinds(text)),
                f"{len(str(m))}-digit ballots",
                f"{len(str(n))}-digit candidates",
                "first price negative" if prices and prices[0] < 0 else "first price positive",
                "negative price" if any(c < 0 for c in prices) else "no negative price",
                "no objective" if not prices else "objective",
            }
    assert seen == {
        "wrapped obj", "wrapped pick", "wrapped sel",
        "1-digit ballots", "2-digit ballots", "1-digit candidates", "2-digit candidates",
        "first price negative", "first price positive", "negative price", "no negative price",
        "no objective", "objective",
    }


@pytest.mark.parametrize("name", ["kendall", "ok-nishimura"])
@pytest.mark.parametrize("n, m", [(3, 3), (4, 3), (4, 5)])
def test_milp_solves_the_export_to_the_exact_consensus(name, n, m):
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    rng = random.Random(100 * n + m)
    params = make_params(*preset(name, n))
    V = Profile(tuple((rng.randint(1, 3), rand_ranking(rng, n)) for _ in range(m)), n)
    lp = parse_lp(build_ilp(params, V).to_lp_text())
    column = {var: k for k, var in enumerate(lp.binaries)}
    cost = np.zeros(len(column))
    for coeff, var in lp.objective:
        cost[column[var]] += coeff
    matrix = np.zeros((len(lp.rows), len(column)))
    lower = np.full(len(lp.rows), -np.inf)
    upper = np.zeros(len(lp.rows))
    for k, (_, terms, sense, rhs) in enumerate(lp.rows):
        for coeff, var in terms:
            matrix[k, column[var]] += coeff
        assert sense in ("<=", "=")
        upper[k] = rhs
        if sense == "=":
            lower[k] = rhs
    solution = milp(
        cost,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(len(column)),
        bounds=Bounds(0, 1),
    )
    assert solution.success
    value = round(solution.fun)
    assert abs(solution.fun - value) < 1e-6
    exact = aggregate_exact(params, V)
    assert F(value, lp.scale) + objective_offset(params, V) == exact.optimum
    order_matrix = [
        [round(solution.x[column[f"P_{i}_{j}"]]) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    assert ranking_from_matrix(order_matrix) in exact.minimizers

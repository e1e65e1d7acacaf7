"""Seeded request generators and output checks for the menurank benchmark.

Each workload turns a seed into a fixed, ordered pool of requests: an argv
for ``menurank.cli.main`` plus a check of the text it produces.  Profile
files are written here, so the program only ever sees generated files.
Request sizes are stratified (the ballot counts cycle through their range)
rather than drawn, which keeps the per-run cost nearly independent of the
seed; the seed picks ballots, multiplicities and ranking pairs.

Checks recompute each answer through a different route than the request
took, and test that the answer cannot be improved by one swap: exact
minimizers are re-costed with ``profile_cost`` (the distance kernel, not the
DP's term table), myopic windows and true costs are re-summed position by
position with ``truncated_distance``, footrule objectives are summed from
``downset_mass_table`` directly, pair queries are recomputed by those two
separate formulas, and LP files are counted against the closed-form model
sizes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial
from pathlib import Path
from typing import Callable

from menurank.distances import profile_cost, truncated_distance
from menurank.ilp import expected_constraint_count, expected_variable_count
from menurank.permutations import Permutation
from menurank.profiles import Profile
from menurank.weights import downset_mass_table, make_params, preset

PRESETS = ("kendall", "ok-nishimura", "linear", "binomial:1/3")


class CheckFailed(Exception):
    """A request's output disagrees with the independent recomputation."""


@dataclass(frozen=True)
class Request:
    index: int
    config: str  # requests sharing a config share the program's caches
    argv: tuple[str, ...]
    check: Callable[[str], None]
    out_path: Path | None = None  # where the output goes when not stdout


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@lru_cache(maxsize=None)
def _params(token: str, n: int):
    name, _, param = token.partition(":")
    return make_params(*preset(name, n, Fraction(param) if param else None))


@lru_cache(maxsize=None)
def _table(token: str, n: int) -> tuple[Fraction, ...]:
    return downset_mass_table(_params(token, n).weights)


def _ballots(rng: random.Random, n: int, count: int) -> list[tuple[int, list[int]]]:
    return [(rng.randint(1, 3), rng.sample(range(1, n + 1), n)) for _ in range(count)]


def _write_profile(path: Path, n: int, entries) -> list[tuple[int, list[int]]]:
    voters = sum(mult for mult, _ in entries)
    lines = [f"{n} {voters}"]
    lines.extend(f"{mult}: {' '.join(map(str, order))}" for mult, order in entries)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return entries


def _profile(n: int, entries) -> Profile:
    return Profile(tuple((mult, Permutation(order)) for mult, order in entries), n)


def _parse_aggregate(text: str) -> dict:
    lines = text.splitlines()
    _require(lines[0].startswith("method: "), "no method line")
    _require(lines[1].startswith("minimizers (") and lines[1].endswith("):"), "no minimizer header")
    count = int(lines[1][len("minimizers ("):-2])
    _require(len(lines) == count + 5, f"expected {count} minimizer lines")
    tail = dict(line.split(": ", 1) for line in lines[count + 2:])
    return {
        "method": lines[0][len("method: "):],
        # plain tuples: the check must not outgrow the program's own peak memory
        "minimizers": [tuple(map(int, line.split())) for line in lines[2:count + 2]],
        "objective": Fraction(tail["objective"]),
        "cost": Fraction(tail["cost"]),
        "winners": tail["winners"],
    }


def _check_common(out: dict, method: str) -> None:
    _require(out["method"] == method, f"method {out['method']!r}, expected {method!r}")
    ranks = out["minimizers"]
    _require(bool(ranks), "no minimizers printed")
    _require(all(a < b for a, b in zip(ranks, ranks[1:])), "minimizers not strictly sorted")
    winners = "{" + " ".join(str(c) for c in sorted({order[0] for order in ranks})) + "}"
    _require(out["winners"] == winners, f"winners {out['winners']} but minimizers give {winners}")


def _true_cost(params, ranking: Permutation, profile: Profile) -> Fraction:
    """Aggregate distance summed position by position, not by the kernel."""
    return sum(
        (mult * truncated_distance(params, ranking, ballot, 1, params.n)
         for mult, ballot in profile.entries),
        Fraction(0),
    )


def _footrule_direct(token: str, a, b) -> Fraction:
    """Footrule of two orders, summed straight from the down-set mass table."""
    n = len(a)
    f, mu = _table(token, n), _params(token, n).mu.values
    at_b = {c: p for p, c in enumerate(b, start=1)}
    return sum((abs(f[n - p] - f[n - at_b[c]]) * mu[c - 1] for p, c in enumerate(a, start=1)),
               Fraction(0))


def _majority_prefix(n: int, entries) -> list[int]:
    """Candidates a strict majority ranks first among those not yet placed."""
    remaining, prefix = set(range(1, n + 1)), []
    voters = sum(mult for mult, _ in entries)
    while remaining:
        firsts = Counter()
        for mult, order in entries:
            firsts[next(c for c in order if c in remaining)] += mult
        top, count = firsts.most_common(1)[0]
        if 2 * count <= voters:
            break
        prefix.append(top)
        remaining.remove(top)
    return prefix


def _swap(order: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    out = list(order)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _check_exact(token: str, n: int, entries, expect_all: bool = False):
    def check(text: str) -> None:
        out = _parse_aggregate(text)
        _check_common(out, "exact")
        ranks, optimum = out["minimizers"], out["objective"]
        params, profile = _params(token, n), _profile(n, entries)
        for order in ranks:
            _require(profile_cost(params, Permutation(order), profile) == optimum,
                     f"profile_cost of {order} differs from the printed objective")
        if expect_all:
            _require(ranks == list(permutations(range(1, n + 1))),
                     f"{len(ranks)} tied rankings printed, expected all {factorial(n)} orders")
            return
        tied = set(ranks)
        for order in ranks:  # no adjacent swap beats a minimizer, or ties with an unprinted one
            for i in range(n - 1):
                swapped = _swap(order, i, i + 1)
                cost = profile_cost(params, Permutation(swapped), profile)
                _require(cost > optimum or (cost == optimum and swapped in tied),
                         f"adjacent swap {swapped} of a minimizer costs {cost}")

    return check


def _check_myopic(token: str, n: int, depth: int, entries):
    def check(text: str) -> None:
        out = _parse_aggregate(text)
        _check_common(out, "myopic")
        (order,) = out["minimizers"]
        params, profile = _params(token, n), _profile(n, entries)
        prefix = _majority_prefix(n, entries)
        first = len(prefix) + 1
        last = first - 1 + min(depth, n - len(prefix))
        _require(list(order[:len(prefix)]) == prefix, "ranking does not open with the majority prefix")
        _require(list(order[last:]) == sorted(order[last:]), "candidates after the window not ascending")

        def window(candidate: tuple[int, ...]) -> Fraction:
            ranking = Permutation(candidate)
            return sum((mult * truncated_distance(params, ranking, ballot, first, last)
                        for mult, ballot in profile.entries), Fraction(0))

        objective = window(order)
        _require(out["objective"] == objective, "objective differs from the summed window terms")
        cost = _true_cost(params, Permutation(order), profile)
        _require(out["cost"] == cost, "cost differs from the summed position terms")
        _require(cost >= objective, "cost below the window objective")
        for i in range(first - 1, last):  # swaps inside the window or with a later candidate
            for j in range(i + 1, n):
                _require(window(_swap(order, i, j)) >= objective,
                         f"swapping positions {i + 1} and {j + 1} improves the window")

    return check


def _check_footrule_aggregate(token: str, n: int, entries):
    def check(text: str) -> None:
        out = _parse_aggregate(text)
        _check_common(out, "footrule")
        (order,) = out["minimizers"]
        f, mu = _table(token, n), _params(token, n).mu.values
        at = [[0] * n for _ in range(n)]  # at[c - 1][q - 1]: voters placing c at q
        for mult, ballot in entries:
            for q, c in enumerate(ballot):
                at[c - 1][q] += mult
        # cost[c - 1][p - 1]: footrule contribution of placing candidate c at position p
        cost = [[mu[c] * sum((k * abs(f[n - 1 - p] - f[n - 1 - q]) for q, k in enumerate(at[c]) if k),
                             Fraction(0))
                 for p in range(n)] for c in range(n)]
        _require(out["objective"] == sum(cost[c - 1][p] for p, c in enumerate(order)),
                 "objective differs from the footrule summed over the mass table")
        for p in range(n):  # no exchange of two positions lowers the objective
            for q in range(p + 1, n):
                a, b = order[p] - 1, order[q] - 1
                _require(cost[a][q] + cost[b][p] >= cost[a][p] + cost[b][q],
                         f"exchanging positions {p + 1} and {q + 1} improves the footrule")
        params, profile = _params(token, n), _profile(n, entries)
        _require(out["cost"] == _true_cost(params, Permutation(order), profile),
                 "cost differs from the summed position terms")

    return check


def _check_pair(command: str, token: str, a: list[int], b: list[int]):
    def check(text: str) -> None:
        if command == "dist":
            params = _params(token, len(a))
            expected = truncated_distance(params, Permutation(a), Permutation(b), 1, len(a))
        else:
            expected = _footrule_direct(token, a, b)
        _require(text == f"{_fmt(expected)}\n", f"printed {text.strip()!r}, expected {expected}")

    return check


def _fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _check_lp(n: int, m: int):
    def check(text: str) -> None:
        lines = text.splitlines()
        _require(lines[0] == f"\\ consensus ranking program: n={n}, m={m}", "wrong LP header")
        _require(lines[-1] == "End", "LP file not terminated")
        rows_at, binary_at = lines.index("Subject To"), lines.index("Binary")
        # a row starts " name:"; its wrapped continuation lines are indented further
        rows = sum(1 for line in lines[rows_at + 1:binary_at] if not line.startswith("  "))
        variables = len(lines) - binary_at - 2
        _require(rows == expected_constraint_count(n, m), f"{rows} rows for n={n}, m={m}")
        _require(variables == expected_variable_count(n, m), f"{variables} variables for n={n}, m={m}")

    return check


def _consensus_dp(rng: random.Random, work: Path) -> list[Request]:
    requests = []
    for j in range(64):
        token = PRESETS[(j // 4) % len(PRESETS)]
        path = work / f"dp-{j}.prof"
        if j % 4 == 3:
            n, argv = 14, ("aggregate", "--method", "myopic", "--k", "4")
            entries = _write_profile(path, n, _ballots(rng, n, 38 + (j // 4) % 5))
            check = _check_myopic(token, n, 4, entries)
        else:  # the exact requests' ballot counts cycle through 30..50
            n, argv = 10, ("aggregate", "--method", "exact")
            entries = _write_profile(path, n, _ballots(rng, n, 30 + (j - j // 4) % 21))
            check = _check_exact(token, n, entries)
        argv += ("--params", token, "--profile", str(path))
        requests.append(Request(j, f"{argv[2]}:{token}", argv, check))
    return requests


def _consensus_ties(rng: random.Random, work: Path) -> list[Request]:
    n, requests = 7, []
    for j in range(16):
        order = rng.sample(range(1, n + 1), n)
        mult = rng.randint(1, 3)
        path = work / f"ties-{j}.prof"
        entries = _write_profile(path, n, [(mult, order), (mult, order[::-1])])
        argv = ("aggregate", "--method", "exact", "--params", "kendall", "--profile", str(path))
        check = _check_exact("kendall", n, entries, expect_all=True)
        requests.append(Request(j, "exact:kendall", argv, check))
    return requests


def _footrule_matching(rng: random.Random, work: Path) -> list[Request]:
    requests = []
    for j in range(128):
        if j % 4 == 0:
            n, token = 20, "linear"
            path = work / f"footrule-{j}.prof"
            entries = _write_profile(path, n, _ballots(rng, n, 30))
            argv = ("aggregate", "--method", "footrule", "--params", token, "--profile", str(path))
            requests.append(Request(j, "footrule-aggregate", argv,
                                    _check_footrule_aggregate(token, n, entries)))
            continue
        n, token = 50, PRESETS[(j // 4) % len(PRESETS)]
        command = ("dist", "footrule")[(j + j // 4) % 2]
        a, b = rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n)
        argv = (command, "--params", token, "--a", " ".join(map(str, a)), "--b", " ".join(map(str, b)))
        requests.append(Request(j, f"{command}:{token}", argv, _check_pair(command, token, a, b)))
    return requests


def _ilp_export(rng: random.Random, work: Path) -> list[Request]:
    n, token, requests = 5, "ok-nishimura", []
    out = work / "model.lp"
    for j in range(24):
        m = 5 + j % 6
        path = work / f"ilp-{j}.prof"
        _write_profile(path, n, _ballots(rng, n, m))
        argv = ("ilp-export", "--params", token, "--profile", str(path), "--out", str(out))
        requests.append(Request(j, "ilp-export", argv, _check_lp(n, m), out))
    return requests


WORKLOADS = {
    "consensus-dp": _consensus_dp,
    "consensus-ties": _consensus_ties,
    "footrule-matching": _footrule_matching,
    "ilp-export": _ilp_export,
}


def build(name: str, seed: int, work: Path) -> list[Request]:
    """The request pool of workload ``name`` for ``seed``, files written to ``work``."""
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), work)

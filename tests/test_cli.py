from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menurank import (
    Measure,
    MenuWeights,
    Permutation,
    Profile,
    aggregation,
    audit,
    build_ilp,
    distance,
    footrule_weighted,
    make_params,
)
from menurank.cli import _build_parser, _load_params, main
from menurank.weights import PRESET_NAMES, parse_params_text

CYCLIC = """\
3 3
1: 1 2 3
1: 2 3 1
1: 3 1 2
"""

NEUTRALITY = """\
3 3
1: 1 2 3
1: 3 1 2
1: 2 3 1
"""


@pytest.fixture
def cyclic_prof(tmp_path):
    path = tmp_path / "cyclic.prof"
    path.write_text(CYCLIC)
    return str(path)


@pytest.fixture
def neutrality_files(tmp_path):
    prof_path = tmp_path / "neutrality.prof"
    prof_path.write_text(NEUTRALITY)
    params_path = tmp_path / "neutrality.params"
    params_path.write_text("beta: 1 0\nmu: 1 1 2\n")
    return str(prof_path), str(params_path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestDist:
    def test_kendall_single_swap(self, capsys):
        code, out = run(capsys, "dist", "--params", "kendall", "--a", "1 2 3", "--b", "2 1 3")
        assert code == 0 and out == "2\n"

    def test_naive_flag_agrees(self, capsys):
        base = run(capsys, "dist", "--params", "binomial:1/3", "--a", "3 1 2 4", "--b", "4 2 1 3")
        naive = run(
            capsys, "dist", "--params", "binomial:1/3", "--a", "3 1 2 4", "--b", "4 2 1 3", "--naive"
        )
        assert base == naive and base[0] == 0

    def test_window(self, capsys):
        code, out = run(
            capsys, "dist", "--params", "kendall", "--a", "1 2 3", "--b", "3 2 1",
            "--window", "1", "3",
        )
        full = run(capsys, "dist", "--params", "kendall", "--a", "1 2 3", "--b", "3 2 1")
        assert (code, out) == full

    def test_rational_output(self, capsys):
        code, out = run(capsys, "dist", "--params", "binomial:1/2", "--a", "1 2 3", "--b", "2 1 3")
        assert code == 0
        assert "/" in out and "." not in out

    def test_bad_ranking_exits_2(self, capsys):
        code = main(["dist", "--params", "kendall", "--a", "1 2 2", "--b", "1 2 3"])
        assert code == 2

    def test_a_thousand_candidates_answer_at_once(self, capsys):
        # ok-nishimura charges every menu of two or more, and a ranking and
        # its reversal put different tops on each: 2 (2^n - n - 1)
        n = 1000
        forward, backward = (" ".join(map(str, labels)) for labels in (range(1, n + 1), range(n, 0, -1)))
        start = time.perf_counter()
        code, out = run(capsys, "dist", "--params", "ok-nishimura", "--a", forward, "--b", backward)
        assert time.perf_counter() - start < 2
        assert code == 0 and int(out) == 2 * (2**n - n - 1)


def test_answers_past_the_str_digit_limit_print_exactly(capsys, tmp_path):
    # 3,000-digit tokens parse, but their products pass the 4,300 digits
    # CPython's str() writes; every answer still prints, exactly
    big = 10**3000 - 1
    nines = "9" * 3000
    params_path = tmp_path / "big.params"
    params_path.write_text(f"beta: {nines} 1\nmu: {nines} 1 1\n")
    profile_path = tmp_path / "big.prof"
    profile_path.write_text(f"3 {nines}\n{nines}: 1 2 3\n")
    params = make_params(MenuWeights([big, 1]), Measure([big, 1, 1]))
    a, b = Permutation([1, 2, 3]), Permutation([3, 2, 1])
    for command, value in (("dist", distance(params, a, b)),
                           ("footrule", footrule_weighted(params.weights, params.mu, a, b))):
        code, out = run(capsys, command, "--params", str(params_path), "--a", "1 2 3", "--b", "3 2 1")
        assert code == 0 and value.denominator == 1 and int(Decimal(out)) == value.numerator
        assert value.numerator.bit_length() > 14_300  # over 4,300 digits
    code, out = run(capsys, "ilp-export", "--params", str(params_path), "--profile", str(profile_path))
    assert code == 0
    assert out == build_ilp(params, Profile(((big, a),), 3)).to_lp_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--params", "kendall", "--a", "1 2 3", "--b", "1 2"],
        ["dist", "--params", "kendall", "--a", "1 2 3", "--b", "3 2 1", "--window", "3", "1"],
        ["ptas-depth", "--rule", "affine", "--epsilon", "0"],
        ["verify-oracle", "--n", "1"],
        ["aggregate", "--method", "exact", "--params", "kendall", "--profile", "{eleven}"],
        ["aggregate", "--method", "exact", "--params", "kendall", "--profile", "{dir}"],
        ["dist", "--params", "{dir}", "--a", "1 2", "--b", "2 1"],
        ["dist", "--params", "kendall", "--a", "1 2", "--b", "2 1", "--out", "{missing}"],
        ["aggregate", "--method", "exact", "--params", "kendall", "--profile", "{small}",
         "--out", "{dir}"],
        ["verify-oracle", "--n", "3", "--trials", "-1"],
        ["bench", "--n", "3", "--trials", "-1"],
        ["dist", "--params", "kendall", "--a", "+1 2 3", "--b", "1 2 3"],
        ["dist", "--params", "kendall", "--a", "1 \u0662 3", "--b", "1 2 3"],
        ["aggregate", "--method", "exact", "--params", "kendall", "--profile", "{underscored}"],
        ["dist", "--params", "gilbert:5/2", "--a", "1 2 3 4", "--b", "4 3 2 1"],
        ["gamma", "--params", "kendall", "--n", "1_0"],
        ["gamma", "--params", "kendall", "--n", "\u0665"],
        ["check", "--axiom", "A1", "--params", "kendall", "--n", "+3"],
        ["verify-oracle", "--n", "3", "--trials", "2", "--seed", "-1"],
        ["bench", "--n", "3", "--m", "2 2", "--trials", "1"],
        ["aggregate", "--method", "myopic", "--k", "\uff12", "--params", "kendall",
         "--profile", "{small}"],
        ["dist", "--params", "kendall", "--a", "1 2 3", "--b", "3 2 1", "--window", "1", ""],
        ["ptas-depth", "--rule", "custom", "--epsilon", "1/2", "--params", "kendall",
         "--n", "0"],
    ],
    ids=["unequal-lengths", "reversed-window", "zero-epsilon", "one-candidate", "exact-n11",
         "profile-is-a-directory", "params-is-a-directory", "out-in-a-missing-directory",
         "out-is-a-directory", "negative-trials", "bench-negative-trials", "signed-label",
         "non-ascii-label", "underscored-counts", "fractional-gilbert-cutoff",
         "underscored-n", "arabic-indic-n", "signed-n", "negative-seed", "two-numbers-m",
         "fullwidth-k", "empty-window-end", "custom-rule-zero-n"],
)
def test_library_errors_exit_2(capsys, tmp_path, argv):
    eleven = tmp_path / "eleven.prof"
    eleven.write_text("11 1\n1: " + " ".join(str(c) for c in range(1, 12)) + "\n")
    small = tmp_path / "small.prof"
    small.write_text(CYCLIC)
    underscored = tmp_path / "underscored.prof"  # int() reads 1_0 as 10
    underscored.write_text("3 1_0\n1_0: 1 2 3\n")
    paths = dict(eleven=eleven, small=small, underscored=underscored, dir=tmp_path,
                 missing=tmp_path / "missing" / "x")
    assert main([tok.format(**paths) for tok in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--params", "{params}", "--a", "1 2 3", "--b", "3 1 2"],
        ["dist", "--params", "binomial:1e-9999999", "--a", "1 2 3", "--b", "3 1 2"],
        ["ptas-depth", "--rule", "affine", "--epsilon", "1e-9999999"],
        ["ptas-depth", "--rule", "exponential", "--epsilon", "1/4", "--alpha", "1e9999999"],
        ["bench", "--n", "3", "--trials", "1", "--epsilon", "1e-9999999"],
    ],
    ids=["params-file", "preset-token", "epsilon", "alpha", "bench-epsilon"],
)
def test_exponent_tokens_exit_2_at_once(capsys, tmp_path, argv):
    # each of these used to parse as an exact number of about 33M bits
    params = tmp_path / "huge.params"
    params.write_text("beta: 1e9999999 1\n")
    start = time.perf_counter()
    code = main([tok.format(params=params) for tok in argv])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "integer or p/q" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ptas-depth", "--rule", "affine", "--epsilon", "1/0"],
         "error: zero denominator in '1/0'"),
        (["ptas-depth", "--rule", "exponential", "--epsilon", "1/4", "--alpha", "3/0"],
         "error: zero denominator in '3/0'"),
        (["gamma", "--params", "binomial:1/0", "--n", "4"],
         "error: invalid parameters 'binomial:1/0': zero denominator in '1/0'"),
        (["gamma", "--params", "{params}", "--n", "3"],
         "error: invalid parameters '{params}': bad value on line 'beta: 1/0 1': "
         "zero denominator in '1/0'"),
    ],
    ids=["epsilon", "alpha", "preset-token", "params-file"],
)
def test_zero_denominators_exit_2_naming_the_token(capsys, tmp_path, argv, message):
    # these used to read "error: Fraction(1, 0)"
    params = tmp_path / "zero.params"
    params.write_text("beta: 1/0 1\n")
    code = main([tok.format(params=params) for tok in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == message.format(params=params) + "\n"


@pytest.mark.parametrize(
    "token, fragment",
    [
        ("kendall:7", "kendall takes no parameter"),
        ("ok-nishimura:2", "ok-nishimura takes no parameter"),
        ("linear:1/2", "linear takes no parameter"),
        ("{kendall}", "more than a name and one parameter"),
        ("{gilbert}", "more than a name and one parameter"),
        ("{linear}", "linear takes no parameter"),
    ],
    ids=["kendall-token", "ok-nishimura-token", "linear-token", "kendall-line",
         "gilbert-line", "linear-line"],
)
def test_preset_parameters_are_not_dropped(capsys, tmp_path, token, fragment):
    # a parameter a preset does not take, or a token after the one it does,
    # used to be ignored and the command exited 0
    files = {}
    for name, line in (("kendall", "preset: kendall 7 junk"),
                       ("gilbert", "preset: gilbert 3 junk"), ("linear", "preset: linear 3")):
        files[name] = tmp_path / f"{name}.params"
        files[name].write_text(line + "\n")
    code = main(["gamma", "--params", token.format(**files), "--n", "4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid parameters") and fragment in captured.err


def test_neutrality_over_eight_candidates_exits_2_before_solving(capsys, tmp_path, monkeypatch):
    def refuse(params, profile):
        raise AssertionError("an exact solve ran")

    monkeypatch.setattr(audit, "aggregate_exact", refuse)
    eight = tmp_path / "eight.prof"
    eight.write_text("8 2\n1: 1 2 3 4 5 6 7 8\n1: 8 7 6 5 4 3 2 1\n")
    # eight distinct values: 8! relabelled measures over 2^8 subsets each
    distinct = tmp_path / "distinct.params"
    distinct.write_text("beta: 1 0 0 0 0 0 0\nmu: 1 2 3 4 5 6 7 8\n")
    code = main(["check", "--params", str(distinct), "--property", "neutrality_P",
                 "--profile", str(eight)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "capped at 7! * 2^7" in captured.err
    # the counting measure needs one solve, so the audit does start solving
    with pytest.raises(AssertionError, match="an exact solve ran"):
        main(["check", "--params", "kendall", "--property", "neutrality_P",
              "--profile", str(eight)])


LISTING_AUDITS = ("condorcet_P", "reinforcing", "blockwise_pareto", "partitionwise_pareto")


def _zero_measure_check(tmp_path, prop, n):
    # a zero measure ties all n! rankings; the ballots agree on {1, 2} first
    labels = " ".join(str(c) for c in range(3, n + 1))
    profile = tmp_path / f"zero{n}.prof"
    profile.write_text(f"{n} 3\n1: 1 2 {labels}\n2: 2 1 {labels}\n")
    params = tmp_path / f"zero{n}.params"
    params.write_text(f"beta: 1{' 0' * (n - 2)}\nmu: {' '.join(['0'] * n)}\n")
    argv = ["check", "--property", prop, "--profile", str(profile), "--params", str(params)]
    return argv + ["--profile2", str(profile)] if prop == "reinforcing" else argv


# the n = 8 verdicts below, with the labels after 3 running on to n
PAST_CAP_VERDICTS = {
    "condorcet_P": (1, "condorcet_P: Fails\n  i: 1\n  j: 3\n  margin: 3\n  ranking: 2 3 1 {}\n"),
    "reinforcing": (0, "reinforcing: Holds\n"),
    "blockwise_pareto": (1, "blockwise_pareto: Fails\n  k: 2\n  shared_top_set: [1, 2]\n"
                            "  ranking: 1 3 2 {}\n"),
    "partitionwise_pareto": (1, "partitionwise_pareto: Fails\n  block: (1, 2)\n"
                                "  shared_set: [1, 2]\n  ranking: 1 3 2 {}\n"),
}


@pytest.mark.parametrize("n", (9, 10))
@pytest.mark.parametrize("prop", LISTING_AUDITS)
def test_listing_audits_past_8_factorial_ties_give_verdicts(capsys, tmp_path, monkeypatch, prop, n):
    # all n! rankings tie (3,628,800 at n = 10); the audits read the DAG alone
    def refuse(self, *key):
        raise AssertionError("a consensus set was listed")

    # every ranking a set yields comes through one of these two
    monkeypatch.setattr(aggregation.ConsensusSet, "__getitem__", refuse)
    monkeypatch.setattr(aggregation.ConsensusSet, "__iter__", refuse)
    code, text = PAST_CAP_VERDICTS[prop]
    labels = " ".join(str(c) for c in range(4, n + 1))
    assert run(capsys, *_zero_measure_check(tmp_path, prop, n)) == (code, text.format(labels))


def test_failing_dag_audits_leave_no_cyclic_garbage(tmp_path):
    # the first-ranking search keeps a memo per call; it must be freed by
    # reference counting alone, as the printing walks are
    gc.collect()
    gc.disable()
    try:
        for prop in ("condorcet_P", "blockwise_pareto"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(_zero_measure_check(tmp_path, prop, 8)) == 1
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_reinforcing_witness_prints_the_three_sets(capsys, tmp_path, monkeypatch):
    # unreachable with a correct solver: the merged profile's set is made
    # the first profile's {1 2 3, 2 1 3}, which is not inside {1 2 3}
    real = audit.aggregate_exact
    calls = []

    def merged_as_first(params, profile):
        calls.append(real(params, profile))
        if len(calls) == 3:
            return dataclasses.replace(calls[2], minimizers=calls[0].minimizers)
        return calls[-1]

    monkeypatch.setattr(audit, "aggregate_exact", merged_as_first)
    one, two = tmp_path / "one.prof", tmp_path / "two.prof"
    one.write_text("3 2\n1: 1 2 3\n1: 2 1 3\n")
    two.write_text("3 1\n1: 1 2 3\n")
    assert run(capsys, "check", "--params", "kendall", "--property", "reinforcing",
               "--profile", str(one), "--profile2", str(two)) == (
        1, "reinforcing: Fails\n  P(V1): (1 2 3, 2 1 3)\n  P(V2): (1 2 3)\n"
           "  P(V1+V2): (1 2 3, 2 1 3)\n")


@pytest.mark.parametrize(
    "prop, expected",
    [
        ("condorcet_P", (1, "condorcet_P: Fails\n  i: 1\n  j: 3\n  margin: 3\n"
                           "  ranking: 2 3 1 4 5 6 7 8\n")),
        ("reinforcing", (0, "reinforcing: Holds\n")),
        ("blockwise_pareto", (1, "blockwise_pareto: Fails\n  k: 2\n  shared_top_set: [1, 2]\n"
                                 "  ranking: 1 3 2 4 5 6 7 8\n")),
        ("partitionwise_pareto", (1, "partitionwise_pareto: Fails\n  block: (1, 2)\n"
                                     "  shared_set: [1, 2]\n  ranking: 1 3 2 4 5 6 7 8\n")),
    ],
)
def test_listing_audits_at_8_factorial_ties_keep_their_verdicts(capsys, tmp_path, prop, expected):
    # all 8! = 40,320 rankings tie: the cap itself, so the audit still runs
    assert run(capsys, *_zero_measure_check(tmp_path, prop, 8)) == expected


def test_custom_depth_with_zero_n_reports_the_preset_limit(capsys):
    # --n 0 was given: the error is about its value, not a missing flag
    code = main(["ptas-depth", "--rule", "custom", "--epsilon", "1/2", "--params", "kendall",
                 "--n", "0"])
    assert (code, capsys.readouterr().err) == (
        2, "error: invalid parameters 'kendall': presets need n >= 2\n")


@pytest.mark.parametrize("n", ["0", "1"])
def test_custom_depth_below_two_candidates_exits_2(capsys, tmp_path, n):
    # a parameter file passes any --n through; the depth rule refuses it
    params = tmp_path / "w.params"
    params.write_text("beta: 1 0\nmu: 1 1 2\n")
    code = main(["ptas-depth", "--rule", "custom", "--epsilon", "1/2", "--params", str(params),
                 "--n", n])
    assert (code, capsys.readouterr()) == (
        2, ("", f"error: the custom rule needs a horizon n >= 2, got {n}\n"))


@pytest.mark.parametrize(
    "alpha, digits, leading",
    [("10000000001/10000000000", 12, "474379962236"),
     (f"{10**400 + 1}/{10**400}", 404, "18434543687563564378")],
    ids=["1+1e-10", "1+1e-400"])
def test_exponential_depth_near_one_exits_0(capsys, alpha, digits, leading):
    start = time.perf_counter()
    code = main(["ptas-depth", "--rule", "exponential", "--epsilon", "1/4", "--alpha", alpha])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith(leading) and len(out) == digits + 1
    assert time.perf_counter() - start < 1


def test_custom_depth_pads_the_weights_up_to_the_horizon(capsys, tmp_path):
    # weights over 3 candidates read as over 9 with zeros appended: the same
    # depth as the explicit zeros and as Kendall's pairwise-only weights
    short, padded = tmp_path / "short.params", tmp_path / "padded.params"
    short.write_text("beta: 1 0\n")
    padded.write_text("beta: 1 0 0 0 0 0 0 0\n")
    depths = []
    for params in (str(short), str(padded), "kendall"):
        depths.append((main(["ptas-depth", "--rule", "custom", "--epsilon", "1/4", "--params",
                             params, "--n", "9"]), capsys.readouterr()))
    assert depths == [(0, ("8\n", ""))] * 3


def test_axiom_check_refuses_parameters_over_another_n(capsys, tmp_path):
    # an axiom is checked over the parameters' own n, so --n must match it
    params = tmp_path / "w.params"
    params.write_text("beta: 1 0\nmu: 1 1 2\n")
    code = main(["check", "--axiom", "A1", "--params", str(params), "--n", "4"])
    assert (code, capsys.readouterr()) == (
        2, ("", "error: --n is 4 but the parameters are over 3 candidates\n"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ptas-depth", "--rule", "affine", "--epsilon", "1/4", "--alpha", "3"],
         "--alpha is the exponential rule's base; --rule affine reads no --alpha"),
        (["ptas-depth", "--rule", "custom", "--epsilon", "1/4", "--alpha", "3",
          "--params", "kendall", "--n", "4"],
         "--alpha is the exponential rule's base; --rule custom reads no --alpha"),
        (["ptas-depth", "--rule", "alternating", "--epsilon", "1/4", "--params", "kendall"],
         "--params is for --rule custom; --rule alternating reads no --params"),
        (["ptas-depth", "--rule", "exponential", "--epsilon", "1/4", "--alpha", "3", "--n", "4"],
         "--n is for --rule custom; --rule exponential reads no --n"),
        (["dist", "--params", "kendall", "--a", "1 2 3", "--b", "3 2 1", "--window", "1", "2",
          "--naive"],
         "--naive is the whole distance's oracle; --window reads no --naive"),
        (["check", "--axiom", "A1", "--n", "3", "--params", "kendall", "--profile", "{profile}"],
         "--profile is for property checks; --axiom reads no --profile"),
        (["check", "--axiom", "A1", "--n", "3", "--params", "kendall", "--profile2", "{profile}"],
         "--profile2 is for property checks; --axiom reads no --profile2"),
        (["check", "--property", "condorcet_P", "--params", "kendall", "--profile", "{profile}",
          "--n", "3"],
         "--n is the axiom checks' candidate count; --property reads no --n"),
        (["gamma", "--params", "{params}", "--n", "9"],
         "--n is 9 but the parameters are over 3 candidates"),
    ],
    ids=["alpha-affine", "alpha-custom", "params-alternating", "n-exponential", "naive-window",
         "axiom-profile", "axiom-profile2", "property-n", "gamma-n"],
)
def test_unread_flags_exit_2_naming_the_flag(capsys, tmp_path, argv, message):
    # each of these used to exit 0, the flag silently ignored
    profile = tmp_path / "cyclic.prof"
    profile.write_text(CYCLIC)
    params = tmp_path / "w.params"
    params.write_text("beta: 1 0\n")
    code = main([tok.format(profile=profile, params=params) for tok in argv])
    assert (code, capsys.readouterr()) == (2, ("", f"error: {message}\n"))


def test_gamma_reads_a_parameter_file_over_its_own_n(capsys, tmp_path):
    params = tmp_path / "w.params"
    params.write_text("beta: 1 0\n")
    assert run(capsys, "gamma", "--params", str(params), "--n", "3") == (0, "3/2\n")
    assert run(capsys, "gamma", "--params", str(params)) == (0, "3/2\n")


def test_reinforcing_without_a_second_profile_names_the_flag(capsys, tmp_path):
    profile = tmp_path / "cyclic.prof"
    profile.write_text(CYCLIC)
    code = main(["check", "--params", "kendall", "--property", "reinforcing",
                 "--profile", str(profile)])
    assert (code, capsys.readouterr()) == (
        2, ("", "error: --property reinforcing compares two profiles; give --profile2\n"))


def test_myopic_window_too_large_exits_2_before_building_it(capsys, tmp_path, monkeypatch):
    # a ballot and its reversal: no majority favourite, so --k 40 asks for
    # all 2^40 subsets of the 40 candidates
    def refuse(params, profile, pool, span):
        raise AssertionError("the window's subsets were built")

    monkeypatch.setattr(aggregation, "_window_terms", refuse)
    forty = tmp_path / "forty.prof"
    labels = [str(c) for c in range(1, 41)]
    forty.write_text(f"40 2\n1: {' '.join(labels)}\n1: {' '.join(reversed(labels))}\n")
    code = main(["aggregate", "--method", "myopic", "--k", "40", "--params", "kendall",
                 "--profile", str(forty)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "guard" in captured.err


class TestFootruleGamma:
    def test_footrule(self, capsys):
        code, out = run(capsys, "footrule", "--params", "kendall", "--a", "1 2 3", "--b", "2 1 3")
        assert code == 0 and out == "2\n"

    def test_gamma(self, capsys):
        code, out = run(capsys, "gamma", "--params", "ok-nishimura", "--n", "4")
        assert code == 0 and out == "10/7\n"

    def test_gamma_needs_n_for_presets(self, capsys):
        assert main(["gamma", "--params", "kendall"]) == 2


class TestAggregate:
    def test_exact_on_the_cycle(self, capsys, cyclic_prof):
        code, out = run(
            capsys, "aggregate", "--method", "exact", "--profile", cyclic_prof,
            "--params", "kendall",
        )
        assert code == 0
        assert "minimizers (3):" in out
        assert "  1 2 3\n" in out and "  2 3 1\n" in out and "  3 1 2\n" in out
        assert "winners: {1 2 3}" in out

    def test_methods_report_costs(self, capsys, cyclic_prof):
        for method, extra in [("footrule", []), ("myopic", ["--k", "2"])]:
            code, out = run(
                capsys, "aggregate", "--method", method, "--profile", cyclic_prof,
                "--params", "ok-nishimura", *extra,
            )
            assert code == 0
            assert "cost:" in out and "objective:" in out

    def test_byte_identical_reruns(self, capsys, cyclic_prof):
        args = ("aggregate", "--method", "exact", "--profile", cyclic_prof, "--params", "linear")
        assert run(capsys, *args) == run(capsys, *args)

    def test_missing_profile_exits_2(self, capsys):
        code = main(["aggregate", "--method", "exact", "--profile", "nope.prof", "--params", "kendall"])
        assert code == 2

    def test_malformed_profile_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.prof"
        bad.write_text("3 5\n1: 1 2 3\n")
        assert main(["aggregate", "--method", "exact", "--profile", str(bad), "--params", "kendall"]) == 2

    def test_myopic_needs_k(self, capsys, cyclic_prof):
        assert main(["aggregate", "--method", "myopic", "--profile", cyclic_prof, "--params", "kendall"]) == 2

    @pytest.mark.parametrize("method", ["exact", "footrule"])
    def test_k_without_myopic_exits_2_naming_the_flag(self, capsys, cyclic_prof, method):
        # only the myopic window reads --k; the other methods refuse it
        code = main(["aggregate", "--method", method, "--k", "2", "--profile", cyclic_prof,
                     "--params", "kendall"])
        assert (code, capsys.readouterr()) == (
            2, ("", f"error: --k is the myopic window depth; --method {method} reads no --k\n"))


class TestChecks:
    def test_axiom_holds_exit_0(self, capsys):
        code, out = run(capsys, "check", "--params", "kendall", "--axiom", "A1", "--n", "4")
        assert code == 0 and out.startswith("A1: Holds")

    def test_axiom_fails_exit_1(self, capsys):
        code, out = run(capsys, "check", "--params", "ok-nishimura", "--axiom", "A1", "--n", "3")
        assert code == 1 and out.startswith("A1: Fails")

    def test_property_fails_with_witness(self, capsys, neutrality_files):
        prof_path, params_path = neutrality_files
        code, out = run(
            capsys, "check", "--params", params_path, "--property", "neutrality_P",
            "--profile", prof_path,
        )
        assert code == 1
        assert out.startswith("neutrality_P: Fails")
        assert "tau:" in out

    def test_property_holds_exit_0(self, capsys, cyclic_prof):
        code, out = run(
            capsys, "check", "--params", "kendall", "--property", "majority",
            "--profile", cyclic_prof,
        )
        assert code == 0 and "Holds" in out

    def test_needs_exactly_one_target(self, capsys, cyclic_prof):
        assert main(["check", "--params", "kendall"]) == 2
        assert main([
            "check", "--params", "kendall", "--axiom", "A1", "--property", "majority",
            "--n", "3", "--profile", cyclic_prof,
        ]) == 2


class TestOtherCommands:
    def test_verify_oracle(self, capsys):
        code, out = run(capsys, "verify-oracle", "--n", "5", "--trials", "40", "--seed", "7")
        assert code == 0 and out == "OK 40/40\n"

    def test_verify_oracle_zero_trials(self, capsys):
        assert run(capsys, "verify-oracle", "--n", "3", "--trials", "0") == (0, "OK 0/0\n")

    def test_verify_oracle_deterministic(self, capsys):
        one = run(capsys, "verify-oracle", "--n", "4", "--trials", "25", "--seed", "3")
        two = run(capsys, "verify-oracle", "--n", "4", "--trials", "25", "--seed", "3")
        assert one == two

    def test_verify_oracle_mismatch_exits_1(self, capsys, monkeypatch):
        from menurank import cli

        real = cli.distance
        calls = []

        def drifting(params, a, b):  # off by one on the second and fifth draws
            calls.append((params, a, b))
            return real(params, a, b) + (len(calls) in (2, 5))

        monkeypatch.setattr(cli, "distance", drifting)
        code, out = run(capsys, "verify-oracle", "--n", "4", "--trials", "6", "--seed", "3")
        params, a, b = calls[1]
        assert code == 1 and len(calls) == 6
        assert out.splitlines() == [
            "FAIL 4/6",
            f"  first mismatch: a={a} b={b}",
            f"  beta: {' '.join(cli.fmt(v) for v in params.weights.values)}",
            f"  mu: {' '.join(cli.fmt(v) for v in params.mu.values)}",
        ]

    def test_ptas_depth(self, capsys):
        code, out = run(capsys, "ptas-depth", "--rule", "affine", "--epsilon", "1/4")
        assert code == 0 and out == "4\n"

    @pytest.mark.parametrize("command", [["ptas-depth", "--rule", "affine"], ["bench", "--n", "3"]])
    def test_zero_epsilon_says_why(self, capsys, command):
        assert main([*command, "--epsilon", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: epsilon must be positive, got 0\n")

    def test_ilp_export_to_file(self, capsys, cyclic_prof, tmp_path):
        out_path = tmp_path / "model.lp"
        code = main([
            "ilp-export", "--profile", cyclic_prof, "--params", "kendall",
            "--out", str(out_path),
        ])
        assert code == 0
        text = out_path.read_text()
        assert text.rstrip().endswith("End")
        from menurank import build_ilp, load_profile, make_params, preset

        model = build_ilp(make_params(*preset("kendall", 3)), load_profile(cyclic_prof))
        assert text == model.to_lp_text()
        code, out = run(capsys, "ilp-export", "--profile", cyclic_prof, "--params", "kendall")
        assert code == 0 and out == text

    def test_bench_runs(self, capsys):
        code, out = run(capsys, "bench", "--n", "4", "--m", "3", "--trials", "3", "--seed", "1")
        assert code == 0
        assert "footrule" in out and "myopic" in out
        assert "." not in out.split("\n", 1)[1]  # no floats anywhere in the table

    def test_bench_ratio_without_a_counted_profile_is_one(self, capsys):
        # one ballot: every optimum is 0, no profile counts, and a ratio
        # (certificate over optimum) is never below that of an exact answer
        code, out = run(capsys, "bench", "--n", "3", "--m", "1", "--trials", "3")
        assert code == 0
        rows = out.splitlines()[2:]
        assert len(rows) == 6 and [row.split()[2] for row in rows] == ["1"] * 6


# ---------------------------------------------------------------------------
# main is called many times in one process: the shared parser and the preset
# cache must not let one call change another's answer


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_interleaved_failures_leave_no_state(capsys, cyclic_prof):
    calls = [
        (["dist", "--params", "kendall", "--a", "1 2 3", "--b", "2 1 3"], 0, "2\n", ""),
        (["dist", "--bogus"], "exit 2", "", "required: --params, --a, --b"),
        (["gamma", "--params", "kendall"], 2, "", "error: preset 'kendall' needs"),
        (["gamma", "--params", "ok-nishimura", "--n", "4"], 0, "10/7\n", ""),
        ([], "exit 2", "", "required: command"),
        (["aggregate", "--method", "exact", "--params", "kendall", "--profile", "nope.prof"],
         2, "", "error: no such profile file"),
        (["aggregate", "--method", "exact", "--params", "kendall", "--profile", cyclic_prof], 0,
         "method: exact\nminimizers (3):\n  1 2 3\n  2 3 1\n  3 1 2\n"
         "objective: 8\ncost: 8\nwinners: {1 2 3}\n", ""),
        (["dist", "--params", "gilbert:9", "--a", "1 2 3", "--b", "2 1 3"], 2, "",
         "error: invalid parameters 'gilbert:9'"),
        (["dist", "--params", "gilbert:2", "--a", "1 2 3", "--b", "2 1 3"], 0, "2\n", ""),
        (["ptas-depth", "--rule", "affine", "--epsilon", "1/4"], 0, "4\n", ""),
    ]
    for _ in range(2):
        for argv, code, out, err in calls:
            try:
                got = main(argv)
            except SystemExit as exc:
                got = f"exit {exc.code}"
            captured = capsys.readouterr()
            assert (got, captured.out) == (code, out), argv
            assert err in captured.err if err else captured.err == "", argv


def test_params_file_is_read_on_every_call(capsys, tmp_path):
    path = tmp_path / "weights.params"
    pair = ("--a", "1 2 3", "--b", "2 1 3")
    path.write_text("beta: 1 0\n")
    first = run(capsys, "dist", "--params", str(path), *pair)
    path.write_text("beta: 1 1\n")
    second = run(capsys, "dist", "--params", str(path), *pair)
    assert first == run(capsys, "dist", "--params", "kendall", *pair) == (0, "2\n")
    assert second == run(capsys, "dist", "--params", "ok-nishimura", *pair) == (0, "4\n")


def test_preset_tokens_share_one_params_object():
    from menurank import make_params, preset

    one = _load_params("binomial:1/3", 6)
    assert _load_params("binomial:1/3", 6) is one
    assert _load_params("binomial:2/6", 6) is one  # keyed on the parsed Fraction
    assert _load_params("binomial:1/3", 7) is not one
    assert one == make_params(*preset("binomial", 6, Fraction(1, 3)))
    assert _load_params("kendall", 6) is _load_params("kendall", 6)


def _pin_profiles():
    """Profiles at n = 2..10 (n=10 has two-digit labels) plus a tie-heavy one."""
    rng = random.Random(11)
    for n in range(2, 11):
        ballots = [rng.sample(range(1, n + 1), n) for _ in range(rng.randint(2, 5))]
        yield f"n{n}", n, ballots
    order = list(range(1, 7))
    yield "ties", 6, [order, order[::-1]]  # every one of the 720 rankings ties


@pytest.mark.parametrize("method", ["exact", "footrule", "myopic"])
def test_minimizer_lines_are_the_printed_rankings(capsys, tmp_path, method):
    from menurank import aggregate_exact, aggregate_footrule, aggregate_myopic, load_profile

    extra = ["--k", "3"] if method == "myopic" else []
    for i, (name, n, ballots) in enumerate(_pin_profiles()):
        path = tmp_path / f"{name}.prof"
        path.write_text(f"{n} {len(ballots)}\n" + "".join(
            f"1: {' '.join(map(str, ballot))}\n" for ballot in ballots))
        token = ("kendall", "linear", "binomial:1/3")[i % 3]
        code, out = run(capsys, "aggregate", "--method", method, "--params", token,
                        "--profile", str(path), *extra)
        assert code == 0
        params, profile = _load_params(token, n), load_profile(str(path))
        if method == "exact":
            result = aggregate_exact(params, profile)
        elif method == "footrule":
            result = aggregate_footrule(params.weights, profile, params.mu)
        else:
            result = aggregate_myopic(params, profile, 3)
        count = len(result.minimizers)
        lines = out.splitlines()
        start = lines.index(f"minimizers ({count}):") + 1
        assert lines[start:start + count] == ["  " + str(p) for p in result.minimizers], name
        assert lines[start + count].startswith("objective: ")
        assert name != "ties" or method != "exact" or count == 720


def test_exact_report_builds_no_ranking(capsys, tmp_path, monkeypatch):
    # the header counts the DAG's paths and the lines are walked off it as
    # text: the 720 tied rankings never become Permutations
    from menurank import Permutation

    def refuse(order):
        raise AssertionError("built a ranking")

    path = tmp_path / "ties.prof"
    path.write_text("6 2\n1: 1 2 3 4 5 6\n1: 6 5 4 3 2 1\n")
    monkeypatch.setattr(Permutation, "_trusted", refuse)
    code, out = run(capsys, "aggregate", "--method", "exact", "--params", "kendall",
                    "--profile", str(path))
    lines = out.splitlines()
    assert code == 0 and lines[1] == "minimizers (720):" and lines[2] == "  1 2 3 4 5 6"
    assert lines[721] == "  6 5 4 3 2 1" and lines[722] == "objective: 30"


# argv drawn per subcommand from its own flags, each with values that are
# mostly valid and sometimes not; paths are filled in per run
_FILES = ("{profile}", "{params}", "{dir}", "{missing}")
_NUMBERS = ("-1", "0", "1", "2", "3", "4", "x")
# the last two lie within 10^-10 and 10^-400 of 1: an exponential base there
# has a depth too large to settle exactly
_RATIONALS = ("1/4", "0", "-1", "3/2", "1/0", "x", "10000000001/10000000000",
              f"{10**400 + 1}/{10**400}")
_RANKINGS = ("1 2 3", "3 1 2", "2 1 3 4", "4 3 2 1", "1 2", "2 2 1", "", "a b")
_PRESETS = ("kendall", "ok-nishimura", "linear", "binomial:1/3", "binomial:2", "gilbert:2",
            "gilbert:9", "unavailable-candidate:3", "kendall:x", "binomial:1/0")
_VALUES = {
    "--params": _PRESETS + _FILES,
    "--out": ("{dir}", "{missing}", "{out}"),
    "--profile": _FILES,
    "--profile2": _FILES,
    "--a": _RANKINGS,
    "--b": _RANKINGS,
    "--naive": ("",),
    "--window": ("1 3", "3 1", "0 9", "2 2", "1"),
    "--n": _NUMBERS,
    "--k": _NUMBERS,
    "--m": _NUMBERS,
    "--trials": _NUMBERS,
    "--seed": _NUMBERS,
    "--epsilon": _RATIONALS,
    "--alpha": _RATIONALS,
    "--method": ("exact", "footrule", "myopic", "best"),
    "--rule": aggregation.PTAS_RULES,
    "--axiom": audit.AXIOMS,
    "--property": audit.PROPERTIES,
}
_FLAGS = {
    "dist": ("--params", "--out", "--a", "--b", "--naive", "--window"),
    "footrule": ("--params", "--out", "--a", "--b"),
    "gamma": ("--params", "--out", "--n"),
    "aggregate": ("--params", "--out", "--profile", "--method", "--k"),
    "ptas-depth": ("--rule", "--epsilon", "--alpha", "--params", "--n", "--out"),
    "ilp-export": ("--params", "--out", "--profile"),
    "check": ("--params", "--out", "--axiom", "--property", "--n", "--profile", "--profile2"),
    "verify-oracle": ("--n", "--trials", "--seed", "--out"),
    "bench": ("--n", "--m", "--trials", "--seed", "--epsilon", "--out"),
}


_REQUIRED = {"--params", "--a", "--b", "--profile", "--method", "--rule", "--epsilon"}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS) + ["rank"]))
    argv = [command]
    for flag in draw(st.permutations(_FLAGS.get(command, ("--n",)))):
        # flags a command requires are mostly given, so most runs pass argparse
        if draw(st.integers(0, 9)) < (9 if flag in _REQUIRED or command == "verify-oracle" else 4):
            value = draw(st.sampled_from(_VALUES[flag]))
            argv += [flag] if flag == "--naive" else [flag, *value.split()] \
                if flag == "--window" else [flag, value]
    stray = draw(st.sampled_from([None, None, None, None, "--help", "--bogus", "extra"]))
    if stray:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "fuzz.prof").write_text("4 3\n2: 1 2 3 4\n1: 4 3 2 1\n1: 2 4 1 3\n")
    (root / "fuzz.params").write_text("beta: 1 0\nmu: 1 1 2\n")
    return {"profile": str(root / "fuzz.prof"), "params": str(root / "fuzz.params"),
            "dir": str(root), "missing": str(root / "missing" / "x"),
            "out": str(root / "report.txt")}


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_every_argv_exits_0_1_or_2(fuzz_paths, argv):
    argv = [tok.format(**fuzz_paths) for tok in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            return
    assert code in (0, 1, 2), argv


_NUMBER_TOKENS = st.one_of(
    st.integers(-3, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9)),
)
_ODD_TOKENS = st.one_of(
    st.text(alphabet="0123456789/-+.e _", min_size=1, max_size=6),
    st.sampled_from(PRESET_NAMES),
)


@st.composite
def _params_texts(draw):
    # mostly well-formed beta / mu / preset lines, with odd keys, odd tokens
    # and raw junk mixed in
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        roll = draw(st.integers(0, 9))
        if roll == 0:
            lines.append(draw(st.text(alphabet="betamuprsk:#0123456789/ -\t", max_size=12)))
            continue
        if roll < 3:
            key = draw(st.sampled_from(("preset", "PRESET", "gamma", "")))
            tokens = [draw(st.sampled_from(PRESET_NAMES))] + draw(
                st.lists(_NUMBER_TOKENS, max_size=2)
            )
        else:
            key = draw(st.sampled_from(("beta", "beta", "mu", " Mu ", "BETA")))
            tokens = draw(
                st.lists(st.one_of(_NUMBER_TOKENS, _ODD_TOKENS) if roll == 3 else _NUMBER_TOKENS,
                         min_size=1, max_size=4)
            )
        comment = draw(st.sampled_from(["", "", " # note"]))
        lines.append(f"{key}: {' '.join(tokens)}{comment}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def params_path(tmp_path_factory):
    return tmp_path_factory.mktemp("params") / "fuzz.params"


@settings(max_examples=300, deadline=None)
@given(text=_params_texts(), n=st.one_of(st.none(), st.integers(0, 6)))
def test_params_text_parses_or_is_refused_cleanly(params_path, text, n):
    # the parser either returns weights and a measure of one dimension or
    # raises a ValueError (ParamsFormatError is one); through the CLI the
    # same text exits 0, 1 or 2 without a traceback
    try:
        weights, mu = parse_params_text(text, n)
    except ValueError:
        pass
    else:
        assert weights.n == mu.n
    params_path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["dist", "--params", str(params_path), "--a", "1 2 3", "--b", "3 1 2"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menurank import aggregation, audit
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
    ],
    ids=["unequal-lengths", "reversed-window", "zero-epsilon", "one-candidate", "exact-n11",
         "profile-is-a-directory", "params-is-a-directory", "out-in-a-missing-directory",
         "out-is-a-directory", "negative-trials", "bench-negative-trials"],
)
def test_library_errors_exit_2(capsys, tmp_path, argv):
    eleven = tmp_path / "eleven.prof"
    eleven.write_text("11 1\n1: " + " ".join(str(c) for c in range(1, 12)) + "\n")
    small = tmp_path / "small.prof"
    small.write_text(CYCLIC)
    paths = dict(eleven=eleven, small=small, dir=tmp_path, missing=tmp_path / "missing" / "x")
    assert main([tok.format(**paths) for tok in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_neutrality_over_eight_candidates_exits_2_before_solving(capsys, tmp_path, monkeypatch):
    def refuse(params, profile):
        raise AssertionError("an exact solve ran")

    monkeypatch.setattr(audit, "aggregate_exact", refuse)
    eight = tmp_path / "eight.prof"
    eight.write_text("8 2\n1: 1 2 3 4 5 6 7 8\n1: 8 7 6 5 4 3 2 1\n")
    code = main(["check", "--params", "kendall", "--property", "neutrality_P",
                 "--profile", str(eight)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "capped at 7" in captured.err
    # at the limit the audit does start solving
    seven = tmp_path / "seven.prof"
    seven.write_text("7 1\n1: 1 2 3 4 5 6 7\n")
    with pytest.raises(AssertionError, match="an exact solve ran"):
        main(["check", "--params", "kendall", "--property", "neutrality_P",
              "--profile", str(seven)])


def test_myopic_window_too_large_exits_2_before_building_it(capsys, tmp_path, monkeypatch):
    # a ballot and its reversal: no majority favourite, so --k 40 asks for
    # all 2^40 subsets of the 40 candidates
    def refuse(pool, depth):
        raise AssertionError("the window's subsets were built")

    monkeypatch.setattr(aggregation, "_masks_by_size", refuse)
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


# argv drawn per subcommand from its own flags, each with values that are
# mostly valid and sometimes not; paths are filled in per run
_FILES = ("{profile}", "{params}", "{dir}", "{missing}")
_NUMBERS = ("-1", "0", "1", "2", "3", "4", "x")
_RATIONALS = ("1/4", "0", "-1", "3/2", "1/0", "x")
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
    "--rule": ("affine", "exponential", "alternating", "custom"),
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

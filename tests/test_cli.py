from __future__ import annotations

import pytest

from menurank import aggregation
from menurank.cli import main

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
    ],
    ids=["unequal-lengths", "reversed-window", "zero-epsilon", "one-candidate", "exact-n11"],
)
def test_library_errors_exit_2(capsys, tmp_path, argv):
    eleven = tmp_path / "eleven.prof"
    eleven.write_text("11 1\n1: " + " ".join(str(c) for c in range(1, 12)) + "\n")
    assert main([tok.format(eleven=eleven) for tok in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


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

    def test_verify_oracle_deterministic(self, capsys):
        one = run(capsys, "verify-oracle", "--n", "4", "--trials", "25", "--seed", "3")
        two = run(capsys, "verify-oracle", "--n", "4", "--trials", "25", "--seed", "3")
        assert one == two

    def test_ptas_depth(self, capsys):
        code, out = run(capsys, "ptas-depth", "--rule", "affine", "--epsilon", "1/4")
        assert code == 0 and out == "4\n"

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

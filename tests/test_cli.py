import dataclasses
import json
import pathlib

import numpy as np
import pytest

from lenardlab import chartcore as cc
from lenardlab import cli, wdvv
from lenardlab.cli import _FLOAT_OPTIONS, main
from lenardlab.sampling import default_rng, sample_gapped_box

REPORTS = pathlib.Path(__file__).resolve().parent.parent / "reports"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def test_verify_wdvv_passes(capsys):
    code, doc, _ = run_json(capsys, "verify-wdvv", "--potential", "veselov",
                            "--n", "3", "--m", "2", "--points", "40", "--seed", "42")
    assert code == 0
    assert doc["pass"] is True
    assert doc["version"] == "1"
    assert doc["command"] == "verify-wdvv"
    names = {c["name"] for c in doc["conditions"]}
    assert "wdvv_commutation" in names
    for c in doc["conditions"]:
        assert set(c) == {"name", "points", "max_residual", "tol", "pass"}


def test_verify_wdvv_rejects_zero_m(capsys):
    code, _, err = run(capsys, "verify-wdvv", "--m", "0")
    assert code == 2
    assert "nonzero" in err


@pytest.mark.parametrize("m", ["1e6", "1e-20"])
def test_refused_wdvv_pivot_exits_1_not_2(capsys, m):
    # admissible m whose pivot c[0] is refused: near m = infinity the family
    # approaches A_2, where c[0] is singular; m = 0 is bad input
    code, out, err = run(capsys, "verify-wdvv", "--m", m, "--points", "20")
    assert code == 1
    assert out == ""
    assert "pivot slice c[0]" in err and "condition number" in err
    assert "d(h_1l) must be linearly independent" in err
    assert run(capsys, "verify-wdvv", "--m", "0")[0] == 2


@pytest.mark.parametrize("euler", [(), ("--euler", "quarter-x")], ids=["c0", "euler"])
def test_refused_pivot_names_the_first_refused_point(capsys, euler):
    # every block's c[0] is checked before any g: a refused c[0] is reported
    # first, with or without the Euler-weighted pivot
    code, _, err = run(capsys, "verify-wdvv", "--m", "1e6", *euler)
    assert code == 1
    assert "c[0] at [2.40284925 2.46516076 0.82028408] is singular" in err


def test_a_refused_c0_in_a_later_block_is_reported_before_a_refused_g(monkeypatch, capsys):
    # g is refused in the first block and c[0] only in the second
    residual, generalized = cli.wdvv_residual, cli.generalized_wdvv_residual
    blocks = []

    def c0_refused_in_block_2(c, x):
        blocks.append(len(x))
        if len(blocks) == 2:
            c = np.zeros_like(c)
        return residual(c, x)

    def g_refused(c, g, x):
        return generalized(c, np.zeros_like(g), x)

    monkeypatch.setattr(cli, "wdvv_residual", c0_refused_in_block_2)
    monkeypatch.setattr(cli, "generalized_wdvv_residual", g_refused)
    code, out, err = run(capsys, "verify-wdvv", "--points", "300", "--euler", "quarter-x")
    assert code == 1 and out == ""
    assert "pivot slice c[0]" in err and "Euler-weighted" not in err
    monkeypatch.setattr(cli, "wdvv_residual", residual)
    code, out, err = run(capsys, "verify-wdvv", "--points", "300", "--euler", "quarter-x")
    assert code == 1 and out == ""
    assert "Euler-weighted pivot g" in err


def test_wdvv_fd_checks_are_relative_to_the_checked_derivative(capsys):
    # |F| is large at m = 0.1, and an absolute second-difference gap of 1.6e-6
    # failed this admissible potential on rounding alone
    code, doc, _ = run_json(capsys, "verify-wdvv", "--m", "0.1", "--points", "10",
                            "--seed", "0")
    assert code == 0
    worst = {c["name"]: c["max_residual"] for c in doc["conditions"]}
    assert worst["wdvv_commutation"] < 1e-15
    assert worst["hessian_fd_agreement"] < 1e-7 and worst["third_fd_agreement"] < 1e-7
    # the third-tensor check is the verifiers' FD check of the Hessian's rows
    pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(3, 0.1))
    head = sample_gapped_box(default_rng(0), 10, dim=3, predicates=pre.predicates)
    assert worst["third_fd_agreement"] == cc.fd_check_tensor(pre.hessian, [pre.third_at(head)],
                                                             head)


@pytest.mark.parametrize("field, failing", [("hessian", "hessian_fd_agreement"),
                                            ("third", "third_fd_agreement")])
def test_a_derivative_off_by_1e5_relative_fails_its_fd_check(monkeypatch, capsys, field, failing):
    def spoiled(pot, scale=1.0):
        pre = wdvv.veselov_prepotential(pot, scale)
        exact = getattr(pre, field)
        return dataclasses.replace(pre, **{field: lambda x: (1.0 + 1e-5) * exact(x)})

    monkeypatch.setattr(cli, "veselov_prepotential", spoiled)
    code, doc, _ = run_json(capsys, "verify-wdvv", "--m", "2", "--points", "10", "--seed", "4")
    assert code == 1
    assert not next(c for c in doc["conditions"] if c["name"] == failing)["pass"]
    assert next(c for c in doc["conditions"] if c["name"] == "wdvv_commutation")["pass"]


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    calls = [
        ("verify-wdvv", "--euler", "quarter-x", "--points", "20", "--format", "json"),
        ("verify-wdvv", "--points", "20", "--format", "json"),
        ("verify-wdvv", "--m", "0", "--format", "json"),
        ("verify-wdvv", "--euler", "half", "--format", "json"),
        ("reproduce", "example3", "--segments", "5", "--points", "10", "--format", "json"),
        ("reproduce", "gd", "--points", "10", "--format", "json"),
    ]

    def run_all():
        results = []
        for argv in calls:
            try:
                results.append(run(capsys, *argv))
            except SystemExit as exc:  # argparse rejects the word itself
                results.append((exc.code, *capsys.readouterr()))
        return results

    shared = run_all()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == run_all()
    # the Euler checks of the first call do not leak into the second
    assert [code for code, _, _ in shared] == [0, 0, 2, 2, 0, 0]
    assert "euler_g_matrix" in shared[0][1] and "euler_g_matrix" not in shared[1][1]
    assert "invalid choice: 'half'" in shared[3][2]
    assert '"segments": 5' in shared[4][1]


def test_verify_wdvv_euler_reports_g_matrix(capsys):
    code, doc, _ = run_json(capsys, "verify-wdvv", "--m", "2", "--points", "25",
                            "--seed", "3", "--euler", "quarter-x")
    assert code == 0
    names = {c["name"] for c in doc["conditions"]}
    assert {"generalized_wdvv_commutation", "euler_contraction_constant"} <= names
    g = doc["params"]["euler_g_matrix"]
    assert g[0][0] == pytest.approx(2.5, abs=1e-10)
    assert g[0][1] == pytest.approx(-1.0, abs=1e-10)


def test_example3_reference_potential_selector(capsys):
    code, doc, _ = run_json(capsys, "verify-wdvv", "--potential", "example3-reference",
                            "--points", "25", "--seed", "6")
    assert code == 0
    assert doc["params"]["scale"] == pytest.approx(1.0 / 16.0)


def test_veselov_defaults_and_reference_run(capsys):
    code, doc, _ = run_json(capsys, "verify-wdvv", "--points", "5", "--seed", "6")
    assert code == 0
    assert doc["params"]["n"] == 3 and doc["params"]["m"] == 2.0
    code, doc, _ = run_json(capsys, "verify-wdvv", "--potential", "example3-reference",
                            "--points", "5", "--seed", "6")
    assert code == 0
    assert doc["params"]["n"] == 3 and doc["params"]["m"] == 1.0


@pytest.mark.parametrize("words", [("--n", "5"), ("--m", "7"), ("--n", "3")])
def test_example3_reference_rejects_veselov_flags(capsys, words):
    code, out, err = run(capsys, "verify-wdvv", "--potential", "example3-reference",
                         "--points", "5", *words)
    assert code == 2
    assert out == ""
    assert f"{words[0]} does not apply" in err


def test_build_complex_first_root(capsys):
    code, doc, _ = run_json(capsys, "build-complex", "--alpha", "2", "--beta", "1",
                            "--root", "1", "--points", "20", "--seed", "9")
    assert code == 0
    assert doc["pass"] is True
    assert doc["params"]["sigma2"] == pytest.approx(-0.125)
    assert doc["params"]["sigma1"] == pytest.approx(0.0, abs=1e-15)
    assert doc["params"]["sigma0"] == pytest.approx(0.25)
    assert len(doc["params"]["sampled_points"]) == 20


@pytest.mark.parametrize("scale", [1.0, 1e-5])
@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (2.0, -1.0)],
                         ids=["alpha=beta", "alpha+2beta=0"])
def test_build_complex_rejects_degenerate_invariant(capsys, alpha, beta, scale):
    code, _, err = run(capsys, "build-complex", f"--alpha={alpha * scale!r}",
                       f"--beta={beta * scale!r}", "--root", "1")
    assert code == 2
    assert "nonzero" in err


@pytest.mark.parametrize("root", ["1", "2"])
def test_a_scaled_copy_of_admissible_parameters_is_admissible(capsys, root):
    # (1e-5, 2e-5) is (1, 2) scaled: admissible, though (alpha-beta)^2
    # (2 beta+alpha) = 5e-15; the absolute regularity margin still leaves
    # no regular point to sample (ROADMAP item 1)
    code, out, err = run(capsys, "build-complex", "--alpha", "1e-5", "--beta", "2e-5",
                         "--root", root, "--points", "5")
    assert code == 1 and out == ""
    assert "found 0/5 regular points" in err and "Traceback" not in err


def test_build_complex_explicit_sigma2_reports_failure(capsys):
    code, doc, _ = run_json(capsys, "build-complex", "--alpha", "2", "--beta", "1",
                            "--sigma2", "0.0", "--points", "10", "--seed", "4")
    assert code == 1
    assert doc["pass"] is False
    assert doc["params"]["phi"] == pytest.approx(0.625)
    failing = {c["name"] for c in doc["conditions"] if not c["pass"]}
    assert "symmetry_constraint" in failing
    assert "operator_commutators" in failing
    # the split identity holds regardless of the root condition
    passing = {c["name"] for c in doc["conditions"] if c["pass"]}
    assert "split_form_identity" in passing


@pytest.mark.parametrize("root", ["1", "2"])
@pytest.mark.parametrize("alpha, beta", [("1.0001", "1"), ("1.001", "1"), ("3", "-1.4999"),
                                         ("-2.0000001", "1"), ("1.01", "1")])
def test_near_degenerate_parameters_give_a_verdict_not_a_traceback(capsys, alpha, beta, root):
    # near alpha = beta and alpha + 2 beta = 0, phi is large even at its own
    # roots (it divides by (alpha-beta)^2 (2 beta+alpha)^2); each root is
    # checked against its own linear factor instead
    code, out, err = run(capsys, "build-complex", f"--alpha={alpha}", f"--beta={beta}",
                         "--root", root, "--points", "10", "--format", "json")
    assert code in (0, 1), err
    if alpha == "1.0001":
        # the rows A_i - A_j = (alpha - beta)(a_i - a_j) are shorter than
        # margin / box, so no point of the box is regular
        assert out == "" and "found 0/10 regular points" in err
    else:
        assert json.loads(out)["pass"] is (code == 0)


def test_negative_alpha_complex_passes_its_fd_check(capsys):
    code, doc, _ = run_json(capsys, "build-complex", "--alpha=-3", "--beta", "1",
                            "--root", "1", "--seed", "7")
    assert [c["name"] for c in doc["conditions"] if not c["pass"]] == []
    assert code == 0


@pytest.mark.parametrize("alpha, beta", [("-3", "1"), ("-6", "2"), ("-1.5", "0.5")])
def test_alpha_minus_three_beta_root2_reads_wdvv_against_the_euler_pivot(capsys, alpha, beta):
    # sigma2 = sigma0 = 0 here: the slice c[0] is singular at every point, the
    # constant pivot H^-1/4 is not
    code, doc, _ = run_json(capsys, "build-complex", f"--alpha={alpha}", f"--beta={beta}",
                            "--root", "2", "--seed", "7")
    assert [c["name"] for c in doc["conditions"] if not c["pass"]] == []
    assert _condition(doc, "wdvv_commutation_from_square")["max_residual"] < 1e-14
    assert code == 0


@pytest.mark.parametrize("sigma2", ["0", "0.3"])
def test_off_root_controls_still_fail_the_euler_pivot_commutation(capsys, sigma2):
    code, doc, _ = run_json(capsys, "build-complex", "--alpha", "2", "--beta", "1",
                            "--sigma2", sigma2, "--seed", "7")
    cond = _condition(doc, "wdvv_commutation_from_square")
    assert code == 1 and not cond["pass"] and cond["max_residual"] > 1e-3


def _condition(doc, name):
    return next(c for c in doc["conditions"] if c["name"] == name)


def test_reproduce_example3(capsys):
    code, doc, _ = run_json(capsys, "reproduce", "example3", "--points", "15",
                            "--segments", "3", "--seed", "10")
    assert code == 0
    names = {c["name"] for c in doc["conditions"]}
    assert {"display_coefficients_match", "potential_reconstruction",
            "chain_field_constants", "reference_wdvv_agreement"} <= names
    assert doc["pass"] is True


def test_reproduce_gd(capsys):
    code, doc, _ = run_json(capsys, "reproduce", "gd", "--points", "30", "--seed", "10")
    assert code == 0
    assert doc["pass"] is True
    names = {c["name"] for c in doc["conditions"]}
    assert {"torsion_identity", "nijenhuis_nonvanishing", "power_chain_not_closed"} <= names


def test_reports_are_byte_identical_for_fixed_seed(capsys):
    _, out1, _ = run(capsys, "reproduce", "gd", "--points", "20", "--seed", "5",
                     "--format", "json")
    _, out2, _ = run(capsys, "reproduce", "gd", "--points", "20", "--seed", "5",
                     "--format", "json")
    assert out1 == out2
    _, out3, _ = run(capsys, "reproduce", "example3", "--points", "10", "--segments", "2",
                     "--seed", "5", "--format", "json")
    _, out4, _ = run(capsys, "reproduce", "example3", "--points", "10", "--segments", "2",
                     "--seed", "5", "--format", "json")
    assert out3 == out4


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "reproduce", "gd", "--points", "10", "--seed", "2",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "reproduce gd"


@pytest.mark.parametrize("argv", [
    ("verify-wdvv", "--points", "5"),
    ("build-complex", "--alpha", "2", "--beta", "1", "--root", "1", "--points", "5"),
])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, argv, where):
    target = tmp_path / "missing" / "r.json" if where == "missing_dir" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert f"--out {target}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("reproduce", "gd", "--points", "5"),
    ("build-complex", "--alpha", "2", "--beta", "1", "--root", "1", "--points", "5"),
])
def test_a_value_error_inside_a_kernel_is_a_bug_not_bad_input(monkeypatch, argv):
    # exit 2 is for bad input; a numpy shape error in a kernel keeps its traceback
    def broken(m, j):
        raise ValueError("matmul: Input operand 1 has a mismatch in its core dimension 0")

    monkeypatch.setattr(cc, "_haantjes", broken)
    with pytest.raises(ValueError, match="mismatch"):
        main(list(argv))


@pytest.mark.parametrize("argv, message", [
    (("verify-wdvv", "--n", "1"), "n >= 2"),
    (("build-complex", "--alpha", "1", "--beta", "-0.5", "--sigma2", "0"), "nonzero"),
    # (alpha - beta)^2 (2 beta + alpha) overflows: refused, not an OverflowError
    (("build-complex", "--alpha", "1e308", "--beta", "1", "--root", "1"), "= inf must be finite"),
    (("build-complex", "--alpha", "1e150", "--beta", "2e150", "--root", "1"), "= inf must be"),
    (("build-complex", "--alpha", "1e200", "--beta", "1e-200", "--root", "2"), "= inf must be"),
    (("build-complex", "--alpha", "1e200", "--beta", "1", "--sigma2", "0.1"), "= inf must be"),
    (("build-complex", "--alpha", "-1e200", "--beta", "1", "--root", "1"), "= -inf must be"),
    # sigma weights whose products overflow: refused, not a NaN report with warnings
    (("build-complex", "--alpha", "2", "--beta", "1", "--sigma2", "1e100"), "sigma weights"),
    (("build-complex", "--alpha", "2", "--beta", "1", "--sigma2", "1e300"), "sigma weights"),
])
def test_package_input_errors_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--points", "3")
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("verify-wdvv", "--points", str(10**7 + 1)),
     "--points must be at most 10000000, got 10000001"),
    (("verify-wdvv", "--points", str(10**20)), f"--points must be at most 10000000, got {10**20}"),
    (("reproduce", "example3", "--segments", str(10**20)),
     f"--segments must be at most 10000000, got {10**20}"),
    (("verify-wdvv", "--n", "1000000000"), "--n 1000000000: no point of [0.5, 3]^n"),
    (("verify-wdvv", "--n", "52"), "--n 52: no point"),
])
def test_oversized_counts_exit_2_before_anything_is_built(monkeypatch, capsys, argv, message):
    def unreachable(*_, **__):
        raise AssertionError("sampled or built before the counts were checked")

    for name in ("sample_gapped_box", "sample_segments", "veselov_prepotential"):
        monkeypatch.setattr(cli, name, unreachable)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_tolerance_environment_variables_change_nothing(monkeypatch, capsys):
    # options come from the command line only: a LENARDLAB_<OPTION> variable
    # for any float option, the tolerances included, is not read
    argv = ("verify-wdvv", "--m", "2", "--points", "10", "--seed", "1", "--format", "json")
    plain = run(capsys, *argv)
    for value in ("1e-18", "abc"):
        with monkeypatch.context() as mp:
            for flag in _FLOAT_OPTIONS:
                mp.setenv("LENARDLAB_" + flag[2:].upper().replace("-", "_"), value)
            assert run(capsys, *argv) == plain
    assert plain[0] == 0


def test_invalid_point_count(capsys):
    for argv in (("verify-wdvv", "--points", "0"), ("reproduce", "example3", "--segments", "0")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "positive" in err
    for flag in ("--tol-analytic", "--tol-fd"):
        for value in ("nan", "inf", "-inf"):
            for words in ([f"{flag}={value}"], [flag, value]):
                code, _, err = run(capsys, "verify-wdvv", "--points", "5", *words)
                assert code == 2, words
                assert "finite" in err


@pytest.mark.parametrize("argv, message", [
    (("--points", "-3"), "--points must be positive, got -3"),
    (("--points", "0"), "--points must be positive, got 0"),
    (("--tol-analytic", "0"), "--tol-analytic must be positive, got 0.0"),
    (("--tol-fd", "0"), "--tol-fd must be positive, got 0.0"),
    (("--tol-fd", "-1e-3"), "--tol-fd must be positive, got -0.001"),
])
def test_non_positive_count_or_tolerance_exits_2_naming_the_flag(capsys, argv, message):
    code, out, err = run(capsys, "verify-wdvv", *argv)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("reproduce", "gd", "--segments", "0"), "--segments does not apply"),
    (("reproduce", "gd", "--segments", "7"), "--segments does not apply"),
    (("reproduce", "example3", "--segments", "-2"), "--segments must be positive"),
    (("reproduce", "gd", "--seed", "-1"), "--seed must be non-negative"),
    (("build-complex", "--alpha", "2", "--beta", "1", "--root", "1", "--seed", "-1"),
     "--seed must be non-negative"),
])
def test_inapplicable_or_negative_option_exits_2_naming_the_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--points", "3")
    assert code == 2
    assert out == ""
    assert message in err, err


def test_example3_segments_default_is_reported(capsys):
    code, doc, _ = run_json(capsys, "reproduce", "example3", "--points", "3", "--seed", "1")
    assert code == 0
    assert doc["params"]["segments"] == 10


@pytest.mark.parametrize("flag, argv", [
    ("--alpha", ("build-complex", "--beta", "1", "--root", "1")),
    ("--beta", ("build-complex", "--alpha", "2", "--root", "1")),
    ("--sigma2", ("build-complex", "--alpha", "2", "--beta", "1")),
    ("--m", ("verify-wdvv",)),
])
def test_non_finite_float_option_exits_2_naming_the_flag(capsys, flag, argv):
    for value in ("nan", "inf", "-inf"):
        for words in ([f"{flag}={value}"], [flag, value]):
            code, _, err = run(capsys, *argv, "--points", "3", *words)
            assert code == 2, words
            assert flag in err and "finite" in err, err


def test_negative_float_option_in_exponent_form_as_separate_word(capsys):
    # argparse takes "-1.25e-1" for an option unless it is attached to its flag
    code, doc, _ = run_json(capsys, "build-complex", "--alpha", "2", "--beta", "1",
                            "--sigma2", "-1.25e-1", "--points", "5", "--seed", "2")
    assert code == 0
    assert doc["params"]["sigma2"] == -0.125


def test_text_format_renders_status_lines(capsys):
    code, out, _ = run(capsys, "reproduce", "gd", "--points", "5", "--seed", "1")
    assert code == 0
    assert "overall: PASS" in out
    assert "torsion_identity" in out


def test_text_format_summarizes_list_params_and_json_keeps_them(capsys):
    argv = ("build-complex", "--alpha", "2", "--beta", "1", "--root", "1", "--points", "50",
            "--seed", "7")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert max(len(line) for line in out.splitlines()) <= 200
    assert "  sampled_points = [50 x 3], see --format json" in out.splitlines()
    committed = (REPORTS / "complex_2_1_root1.json").read_text(encoding="utf-8")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and out == committed

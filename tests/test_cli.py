import json

import pytest

from lenardlab.cli import _FLOAT_OPTIONS, main


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


def test_build_complex_rejects_degenerate_invariant(capsys):
    code, _, err = run(capsys, "build-complex", "--alpha", "1", "--beta", "1", "--root", "1")
    assert code == 2
    assert "nonzero" in err


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

import math

import numpy as np
import pytest

from lenardlab import chartcore as cc
from lenardlab import gelfand_dikii as gd
from lenardlab.cli import main
from square_oracle import chain_form, square_form

W0 = np.array([1.0, 2.0, 3.0])


# the torsion identity's probes: the differentials of w0, w1, w2 and w0 w1
DW0, DW1, DW2 = (cc.constant_field(gd.W_CHART, row) for row in np.eye(3))
DW0W1 = cc.Field(
    gd.W_CHART, lambda w: np.stack([w[..., 1], w[..., 0], np.zeros_like(w[..., 0])], axis=-1),
    cc.constant_map([[0.0, 1, 0], [1, 0, 0], [0, 0, 0]]))


def test_operator_rows_at_origin():
    m = gd.gd_operator().coeff_at(np.zeros(3))
    assert np.allclose(m[1], [2.0, 0.0, 0.0])   # K dw1 = 2 dw0 at w2 = 0
    assert np.allclose(m[2], [0.0, 2.0, 0.0])   # K dw2 = 2 dw1


def test_operator_row_reference_value():
    m = gd.gd_operator().coeff_at(W0)
    assert np.allclose(m[0], [0.0, 0.0, -1.0])  # K dw0 = -(1/2) w1 dw2


def test_operator_is_traceless(rng):
    k = gd.gd_operator()
    for w in rng.uniform(-2, 2, (20, 3)):
        assert np.trace(k.coeff_at(w)) == 0.0


@pytest.mark.parametrize("k", gd.gd_complex().operators, ids=["Id", "K", "K3"])
def test_operator_jacobian_fd(rng, k):
    for w in rng.uniform(-2, 2, (5, 3)):
        assert np.max(np.abs(cc.fd_jacobian(k.coeff, w) - k.jac_at(w))) < 1e-9


@pytest.mark.parametrize("n", [1, 3, 500])
def test_derived_chain_and_square_forms_equal_the_form_fields(n):
    # verify_gd_complex derives the forms from the operators at the points;
    # chain_form and square_form are the independent oracle, bit for bit
    w = np.random.default_rng(n).uniform(-2.0, 2.0, (n, 3))
    cx = gd.gd_complex()
    mats = [k.coeff_at(w) for k in cx.operators]
    jacs = [k.jac_at(w) for k in cx.operators]
    da = cx.dA.coeff_at(w)
    forms = gd._chain_and_square(da, mats)
    jforms = gd._chain_and_square_jacs(da, cx.dA.jac_at(w), mats, jacs, forms)
    fields = [chain_form(cx, j) for j in range(3)] + [square_form(cx, j, l)
                                                         for j, l in gd._SQUARE]
    assert forms.shape == (n, 9, 3) and jforms.shape == (n, 9, 3, 3)
    for r, f in enumerate(fields):
        np.testing.assert_array_equal(forms[:, r], f.coeff_at(w))
        np.testing.assert_array_equal(jforms[:, r], f.jac_at(w))


# --- torsion -----------------------------------------------------------------


def test_contracted_torsion_is_wedge_with_dw2():
    t = cc.nijenhuis_contracted(gd.gd_operator(), DW1, W0)
    expected = cc.wedge_matrix([0.0, 0, 1], [0.0, 1, 0])
    assert np.allclose(t, expected, atol=1e-12)
    assert t[2, 1] == pytest.approx(1.0)


def test_contracted_torsion_vanishes_for_w2():
    t = cc.nijenhuis_contracted(gd.gd_operator(), DW2, W0)
    assert np.max(np.abs(t)) < 1e-12


def test_torsion_identity_for_probe_functions(rng):
    for w in rng.uniform(-2, 2, (50, 3)):
        for f in (DW0, DW1, DW2, DW0W1):
            assert gd.gd_torsion_identity_residual([f], w) < 1e-8


def test_haantjes_vanishes_while_nijenhuis_does_not(rng):
    k = gd.gd_operator()
    for w in rng.uniform(-2, 2, (20, 3)):
        assert cc.haantjes_residual(k, w) < 1e-8
    assert np.max(np.abs(cc.nijenhuis_contracted(k, DW1, W0))) > 0.1


# --- the complex ---------------------------------------------------------------


def test_chain_forms_closed_and_frozen_values():
    cx = gd.gd_complex()
    theta2 = chain_form(cx, 1)
    assert np.allclose(theta2.coeff_at(W0), [0.0, 2.0, 0.0])  # 2 dw1, exact
    assert cc.closure_residual(theta2, W0) == 0.0
    theta3 = chain_form(cx, 2)
    assert np.allclose(theta3.coeff_at(W0), [4.0, 0.0, -3.0])  # 4 dw0 - w2 dw2
    assert cc.closure_residual(theta3, W0) < 1e-12


def test_square_forms_closed_on_grid():
    cx = gd.gd_complex()
    grid = [np.array([a, b, c]) for a in (-1.5, 0.4) for b in (-0.8, 1.2) for c in (-2.0, 1.7)]
    for j in range(3):
        for l in range(j, 3):
            form = square_form(cx, j, l)
            for w in grid:
                assert cc.closure_residual(form, w) < 1e-12


def test_corrected_operator_commutes_with_k(rng):
    cx = gd.gd_complex()
    for w in rng.uniform(-2, 2, (20, 3)):
        assert cc.commutator_residual(cx.operators[1], cx.operators[2], w) < 1e-12


def test_operator_matrix_independent_of_w0():
    cx = gd.gd_complex()
    for k in cx.operators:
        assert np.max(np.abs(k.jac_at(W0)[:, :, 0])) == 0.0


def test_naive_power_chain_fails_closure():
    # K^3 dw2 = -4 w2 dw1 - 2 w1 dw2 has antisymmetry defect |−4 + 2| = 2
    form = gd.naive_power_form(3)
    assert np.allclose(form.coeff_at(W0), [0.0, -12.0, -4.0])
    assert cc.closure_residual(form, W0) == pytest.approx(2.0)
    # while the squared operator itself still gives a closed chain form
    assert cc.closure_residual(gd.naive_power_form(2), W0) < 1e-12


def test_verify_gd_complex_passes(rng):
    pts = rng.uniform(-2, 2, (50, 3))
    report = gd.verify_gd_complex(pts)
    assert report.passed, [c.to_dict() for c in report.conditions if not c.passed]
    names = {c.name for c in report.conditions}
    assert {"chain_closure", "square_closure", "operator_commutators",
            "haantjes_torsion", "chain_independence"} <= names


def test_nan_residual_fails_in_either_point_order():
    # Python's max(0.0, nan) is 0.0 and max(1.0, nan) is 1.0
    bad = np.array([W0[0], np.nan, W0[2]])
    for pts in ([W0, bad], [bad, W0]):
        with np.errstate(invalid="ignore"):
            report = gd.verify_gd_complex(pts)
        for name in ("square_closure", "operator_commutators", "haantjes_torsion",
                     "jacobian_fd_agreement"):
            assert math.isnan(report.condition(name).max_residual)
            assert not report.condition(name).passed


def test_nan_point_fails_every_condition_it_feeds_without_a_warning():
    # the suite turns RuntimeWarnings into errors: the chain determinant must
    # read the NaN point as NaN, not raise and not read LAPACK's det of 0
    pts = np.random.default_rng(7).uniform(-2.0, 2.0, (7, 3))
    pts[3, 1] = np.nan
    report = gd.verify_gd_complex(pts)
    assert not report.passed
    for c in report.conditions:
        assert math.isnan(c.max_residual) and not c.passed, c.name
    assert "chain_independence" in {c.name for c in report.conditions}


def test_chain_covectors_have_constant_determinant(rng):
    # the stacked chain forms K_j dw2 have det = -8 everywhere, so the chain
    # coordinates exist globally
    cx = gd.gd_complex()
    chain = [chain_form(cx, j) for j in range(3)]
    for w in rng.uniform(-2, 2, (10, 3)):
        mat = np.stack([f.coeff_at(w) for f in chain])
        assert np.linalg.det(mat) == pytest.approx(-8.0, abs=1e-12)


def test_verify_gd_complex_needs_points():
    with pytest.raises(ValueError):
        gd.verify_gd_complex([])


def test_reproduce_gd_builds_its_fields_once(monkeypatch, capsys):
    # the operator, the complex and its chain, square and power forms depend on
    # no input: a second run builds no covector image
    argv = ["reproduce", "gd", "--points", "5", "--seed", "1", "--format", "json"]
    assert main(argv) == 0
    calls = []
    image = gd.covector_image
    monkeypatch.setattr(gd, "covector_image", lambda *fields: calls.append(1) or image(*fields))
    assert main(argv) == 0
    assert calls == []
    assert gd.gd_complex() is gd.gd_complex() and gd.gd_operator() is gd.gd_operator()

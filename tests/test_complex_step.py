"""The FD oracle is the complex step: chartcore.fd_jacobian reads
J[..., d] = Im f(u + i h e_d) / h, h = 1e-30.  Every checked field keeps a
complex point's dtype, so its complex-step Jacobian equals its analytic one
to rounding and lies within the five-point stencil's error (fd_oracle), an
oracle that takes real differences.  A map that casts its points or values
to float loses the imaginary part (and raises ComplexWarning, which the test
settings turn into an error); one that drops it another way (``np.real``,
``abs``) reads a zero derivative and fails the FD check."""

import numpy as np
import pytest

from fd_oracle import five_point_jacobian
from lenardlab import chartcore as cc
from lenardlab import equivariant as eq
from lenardlab import gelfand_dikii as gd
from lenardlab import wdvv
from lenardlab.sampling import default_rng, sample_gapped_box
from square_oracle import square_form, square_forms


def assert_complex_step_matches(fun, jac, u: np.ndarray) -> None:
    j = cc.fd_jacobian(fun, u)
    exact = jac(u)
    assert j.shape == exact.shape
    scale = max(1.0, float(np.max(np.abs(j))))
    assert np.max(np.abs(j - exact)) <= 1e-13 * scale
    # within the five-point stencil's own error of its estimate, entry by entry
    five = five_point_jacobian(fun, u)
    assert np.all(np.abs(j - five) <= np.abs(five - exact) + 1e-13 * scale)


COMPLEXES = [pytest.param(2.0, 1.0, 1, id="2,1-root1"), pytest.param(5.0, 2.0, 2, id="5,2-root2"),
             pytest.param(-3.0, 1.0, 1, id="-3,1-root1")]


def complex_fields(alpha, beta, root):
    roots = eq.solve_phi_roots(alpha, beta)
    cx = eq.assemble_complex(eq.FamilyParams.solve(alpha, beta, roots[root - 1]))
    fields = {**square_forms(cx), "K1": cx.operators[0], "K2": cx.operators[1],
              "K3": cx.operators[2], "X": cx.X}
    return cx, fields


@pytest.mark.parametrize("alpha, beta, root", COMPLEXES)
@pytest.mark.parametrize("name", ["dA", "dP", "dQ", "dR", "dT", "dS", "dV", "K1", "K2", "K3",
                                  "X"])
def test_complex_fields_keep_complex_points(alpha, beta, root, name):
    cx, fields = complex_fields(alpha, beta, root)
    u = sample_gapped_box(default_rng(3), 20, predicates=cx.sampling_predicates())
    assert_complex_step_matches(fields[name].coeff, fields[name].jac, u)


GD_SQUARE = {f"theta{j}{l}": (j, l) for j, l in gd._SQUARE}


@pytest.mark.parametrize("name", ["K1", "K2", "K3", "dA", "X", *GD_SQUARE])
def test_gd_fields_keep_complex_points(name):
    cx = gd.gd_complex()
    field = dict(zip(("K1", "K2", "K3"), cx.operators), dA=cx.dA, X=cx.X,
                 **{k: square_form(cx, j, l) for k, (j, l) in GD_SQUARE.items()})[name]
    u = default_rng(3).uniform(-2.0, 2.0, (20, 3))
    assert_complex_step_matches(field.coeff, field.jac, u)


@pytest.mark.parametrize("pre", [
    pytest.param(wdvv.veselov_prepotential(wdvv.VeselovPotential(3, 2.0)), id="veselov-m2"),
    pytest.param(wdvv.vee_prepotential(
        np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0], [-2.0, 0.25, 1.0], [1.0, 1.0, 1.0]]),
        np.array([0.7, -1.3, 0.4, 2.0])), id="general-rows"),
])
def test_vee_prepotential_hessian_keeps_complex_points(pre):
    u = sample_gapped_box(default_rng(5), 20, predicates=pre.predicates, gap=0.2)
    assert_complex_step_matches(pre.hessian, pre.third, u)


def test_points_promote_integers_and_keep_float_complex_and_object():
    assert cc.as_points([1, 2, 3]).dtype == np.float64
    assert cc.as_points(np.array([1, 2], dtype=np.int32)).dtype == np.float64
    for dtype in (np.float64, np.complex128, object):
        u = np.array([1.0, 2.0, 3.0], dtype=dtype)
        assert cc.as_points(u) is u
    assert cc.coords_of(np.array([1, 2, 3]), 3).dtype == np.float64
    assert cc.point_batch(np.ones((2, 3), dtype=complex), 3).dtype == np.complex128
    assert eq.SIGMA_12(np.array([1, 2, 3])).dtype == np.float64


@pytest.mark.parametrize("drop", [np.real, np.abs], ids=["real", "abs"])
def test_a_map_that_drops_the_imaginary_part_fails_the_fd_check(drop):
    cx = gd.gd_complex()
    k = cx.operators[2]
    u = default_rng(3).uniform(-2.0, 2.0, (20, 3))
    jac = k.jac(u)
    assert cc.fd_check_tensor(k.coeff, [jac], u) < 1e-13
    assert cc.fd_check_tensor(lambda w: drop(k.coeff(w)), [jac], u) > 0.5
    assert cc.fd_check_tensor(lambda w: k.coeff(drop(w)), [jac], u) > 0.5


@pytest.mark.parametrize("root", [1, 2])
@pytest.mark.parametrize("lam, mu", [(1e3, 1e-3), (1e6, 1e-3), (1e6, 1e-6)])
def test_fd_check_holds_on_the_scaled_family(root, lam, mu):
    # (alpha, beta, sigma2) -> (lam alpha, lam beta, sigma2 / lam) and a -> mu a
    # multiply every operator by 1 / (lam mu); a step that does not shrink
    # with the points (the five-point stencil's 1e-5 max(1, |a|)) failed
    # these cells at 3.5e-3 to 1.2
    roots = eq.solve_phi_roots(1.0, 2.0)
    sigma2 = roots.root1 if root == 1 else roots.root2
    cx = eq.assemble_complex(eq.FamilyParams.solve(1.0, 2.0, sigma2))
    pts = sample_gapped_box(default_rng(7), 50, predicates=cx.sampling_predicates())
    scaled = eq.assemble_complex(eq.FamilyParams.solve(lam, 2.0 * lam, sigma2 / lam))
    report = eq.verify_complex(scaled, mu * pts)
    assert report.condition("jacobian_fd_agreement").max_residual < 1e-14
    assert report.passed

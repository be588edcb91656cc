"""Every checked field keeps a complex point's dtype: its complex-step
derivative J[..., d] = Im f(u + i h e_d) / h, h = 1e-30, equals its analytic
Jacobian to rounding.  A map that casts its points or values to float loses
the imaginary part (and raises ComplexWarning, which the test settings turn
into an error)."""

import numpy as np
import pytest

from lenardlab import chartcore as cc
from lenardlab import equivariant as eq
from lenardlab import gelfand_dikii as gd
from lenardlab import wdvv
from lenardlab.sampling import default_rng, sample_gapped_box
from square_oracle import square_forms

STEP = 1e-30


def complex_step(fun, u: np.ndarray) -> np.ndarray:
    """The complex-step Jacobian of ``fun`` at the real points u (..., dim),
    the derivative axis appended."""
    eye = np.eye(u.shape[-1])
    return np.stack([np.imag(fun(u + 1j * STEP * e)) / STEP for e in eye], axis=-1)


def assert_complex_step_matches(fun, jac, u: np.ndarray) -> None:
    j = complex_step(fun, u)
    exact = jac(u)
    assert j.shape == exact.shape
    assert np.max(np.abs(j - exact)) <= 1e-13 * max(1.0, float(np.max(np.abs(j))))


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


@pytest.mark.parametrize("name", ["K1", "K2", "K3", "dA", "X"])
def test_gd_fields_keep_complex_points(name):
    cx = gd.gd_complex()
    field = dict(zip(("K1", "K2", "K3"), cx.operators), dA=cx.dA, X=cx.X)[name]
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

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenardlab import chartcore as cc
from lenardlab import wdvv
from lenardlab.sampling import default_rng, sample_gapped_box

POT3 = wdvv.VeselovPotential(3, 2.0)
X0 = np.array([1.0, 2.0, 4.0])


def brute_value(x, m):
    """Independent direct summation of the potential, used as the FD oracle."""
    total = 0.0
    n = len(x)
    for i, j in itertools.combinations(range(n), 2):
        u = x[i] - x[j]
        total += u * u * math.log(u * u)
    for i in range(n):
        total += (1.0 / m) * x[i] ** 2 * math.log(x[i] ** 2)
    return total


def sample_points(count=20, n=3, seed=99):
    pot = wdvv.VeselovPotential(n, 1.0)
    return sample_gapped_box(default_rng(seed), count, dim=n, predicates=pot.predicates())


def test_parameter_validation():
    with pytest.raises(ValueError):
        wdvv.VeselovPotential(3, 0.0)
    with pytest.raises(ValueError):
        wdvv.VeselovPotential(1, 1.0)


def test_hessian_frozen_values_against_fd_oracle():
    h = wdvv.veselov_hessian(POT3, X0)
    oracle = cc.fd_hessian(lambda u: brute_value(u, 2.0), X0)
    assert np.max(np.abs(h - oracle)) < 1e-6
    # log 1 = 0 makes the (1,2) entry exactly -6
    assert h[0, 1] == pytest.approx(-6.0, abs=1e-12)
    assert h[0, 0] == pytest.approx(15.0 + 4.0 * math.log(3.0), abs=1e-12)


def test_hessian_rejects_singular_input():
    with pytest.raises(cc.SingularPointError):
        wdvv.veselov_hessian(POT3, np.array([1.0, 1.0, 2.0]))
    with pytest.raises(cc.SingularPointError):
        wdvv.veselov_hessian(POT3, np.array([0.0, 1.0, 2.0]))


def test_hessian_row_sums_leave_single_particle_part():
    # translation-invariant pair terms cancel in row sums
    for x in sample_points(10):
        h = wdvv.veselov_hessian(POT3, x)
        expected = (1.0 / POT3.m) * (2.0 * np.log(x**2) + 6.0)
        assert np.allclose(h.sum(axis=1), expected, atol=1e-10)


def test_third_frozen_value_and_sparsity():
    c = wdvv.veselov_third(POT3, X0)
    assert c[0, 0, 1] == pytest.approx(4.0)  # -4/(1-2)
    assert c[0, 1, 2] == 0.0
    oracle = cc.fd_jacobian(lambda u: wdvv.veselov_hessian(POT3, u), X0)
    assert np.max(np.abs(c - oracle)) < 1e-6


def test_third_total_symmetry():
    for x in sample_points(10):
        c = wdvv.veselov_third(POT3, x)
        for perm in itertools.permutations(range(3)):
            assert np.allclose(c, np.transpose(c, perm), atol=0.0)


def test_derivative_chain_value_gradient_hessian():
    for x in sample_points(8, seed=3):
        g = wdvv.veselov_gradient(POT3, x)
        assert np.max(np.abs(cc.fd_jacobian(lambda u: brute_value(u, 2.0), x) - g)) < 1e-6
        h = wdvv.veselov_hessian(POT3, x)
        assert np.max(np.abs(cc.fd_jacobian(lambda u: wdvv.veselov_gradient(POT3, u), x) - h)) < 1e-6


def test_wdvv_residual_at_reference_point():
    pre = wdvv.veselov_prepotential(POT3)
    assert wdvv.wdvv_residual(pre, X0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(range(3)))
def test_wdvv_residual_is_permutation_equivariant(perm):
    # F is symmetric under coordinate permutations
    pre = wdvv.veselov_prepotential(POT3)
    x = np.array([0.9, 1.7, 2.6])
    assert wdvv.wdvv_residual(pre, x[list(perm)]) == pytest.approx(
        wdvv.wdvv_residual(pre, x), abs=1e-10)


def test_wdvv_residual_small_for_family_members():
    for m in (1.0, 2.0, 3.0, 7.0):
        pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(3, m))
        worst = max(wdvv.wdvv_residual(pre, x) for x in sample_points(25, seed=int(m)))
        assert worst < 1e-8


# --- Euler-weighted contraction ----------------------------------------------


def test_g_matrix_zero_weights():
    pre = wdvv.veselov_prepotential(POT3)
    g = wdvv.g_matrix(pre, wdvv.EulerWeights.constant([0.0, 0.0, 0.0]), X0)
    assert np.all(g == 0.0)


def test_g_matrix_linear_in_weights():
    pre = wdvv.veselov_prepotential(POT3)
    lam = wdvv.EulerWeights.constant([1.0, 2.0, -1.0])
    mu = wdvv.EulerWeights.constant([0.5, 0.0, 3.0])
    both = wdvv.EulerWeights.constant([1.5, 2.0, 2.0])
    total = wdvv.g_matrix(pre, lam, X0) + wdvv.g_matrix(pre, mu, X0)
    assert np.allclose(total, wdvv.g_matrix(pre, both, X0), atol=1e-12)


def test_quarter_euler_contraction_is_constant_gram_matrix():
    """With lambda = x/4 the contraction of the m = 2 third derivatives is the
    constant matrix with diagonal (n-1) + 1/m = 5/2 and off-diagonal -1: each
    covector block of the potential contributes 4 alpha (x) alpha under the
    Euler contraction.  Cross-checked against a finite-difference oracle."""
    pre = wdvv.veselov_prepotential(POT3)
    expected = np.array([[2.5, -1.0, -1.0], [-1.0, 2.5, -1.0], [-1.0, -1.0, 2.5]])
    pts = sample_points(10, seed=21)
    for x in pts:
        g = wdvv.g_matrix(pre, wdvv.QUARTER_X, x)
        assert np.allclose(g, expected, atol=1e-10)
    # oracle at one point: contract an FD third-derivative tensor
    x = pts[0]
    c_fd = cc.fd_jacobian(lambda u: wdvv.veselov_hessian(POT3, u), x)
    g_fd = np.einsum("jlk,k->jl", c_fd, x / 4.0)
    assert np.max(np.abs(g_fd - expected)) < 1e-6


def test_printed_target_matrix_belongs_to_scaled_m1_family():
    """[[3/4,-1/4,-1/4],...] is the Euler contraction of the sixteenth-scaled
    m=1 potential with unit weights (lambda = x), the normalization realized
    by the alpha=2, beta=1 complex; it is NOT the (m=2, lambda=x/4) value."""
    scaled = wdvv.veselov_prepotential(wdvv.VeselovPotential(3, 1.0), scale=1.0 / 16.0)
    unit = wdvv.EulerWeights.proportional(1.0)
    target = np.array([[0.75, -0.25, -0.25], [-0.25, 0.75, -0.25], [-0.25, -0.25, 0.75]])
    for x in sample_points(5, seed=77):
        assert np.allclose(wdvv.g_matrix(scaled, unit, x), target, atol=1e-12)


def test_generalized_residual_quarter_euler():
    pre = wdvv.veselov_prepotential(POT3)
    worst = max(wdvv.generalized_wdvv_residual(pre, wdvv.QUARTER_X, x)
                for x in sample_points(25, seed=31))
    assert worst < 1e-10


def test_generalized_with_first_basis_weight_matches_ordinary():
    pre = wdvv.veselov_prepotential(POT3)
    e1 = wdvv.EulerWeights.constant([1.0, 0.0, 0.0])
    for x in sample_points(5, seed=41):
        assert wdvv.generalized_wdvv_residual(pre, e1, x) == pytest.approx(
            wdvv.wdvv_residual(pre, x), abs=1e-14)


def test_commutation_residual_propagates_nan():
    # slice 1 spoils the first pair (0, 1), slice 2 only the later ones; Python's
    # max would drop the NaN in both cases
    c = wdvv.veselov_prepotential(POT3).third_at(X0)
    pivot_inv = np.linalg.inv(c[0])
    for slot in (1, 2):
        spoiled = c.copy()
        spoiled[slot, 0, 0] = np.nan
        assert math.isnan(wdvv._commutation_residual(spoiled, pivot_inv))


def test_singular_pivot_raises_named_error():
    chart = cc.Chart("x", 3)
    flat = wdvv.Prepotential(chart, lambda u: 0.0,
                             lambda u: np.zeros((3, 3)), lambda u: np.zeros((3, 3, 3)))
    with pytest.raises(wdvv.SingularSliceError, match="linearly independent"):
        wdvv.wdvv_residual(flat, X0)
    pre = wdvv.veselov_prepotential(POT3)
    with pytest.raises(wdvv.SingularSliceError):
        wdvv.generalized_wdvv_residual(pre, wdvv.EulerWeights.constant([0.0, 0, 0]), X0)


def test_scaled_prepotential_scales_derivatives():
    pre = wdvv.veselov_prepotential(POT3, scale=0.25)
    assert pre.hessian_at(X0)[0, 1] == pytest.approx(-1.5)
    assert pre.value_at(X0) == pytest.approx(0.25 * brute_value(X0, 2.0))

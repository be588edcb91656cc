import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenardlab import chartcore as cc
from lenardlab import wdvv
from lenardlab.sampling import default_rng, sample_gapped_box

POT3 = wdvv.VeselovPotential(3, 2.0)
PRE3 = wdvv.veselov_prepotential(POT3)
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
    pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(n, 1.0))
    return sample_gapped_box(default_rng(seed), count, dim=n, predicates=pre.predicates)


def test_parameter_validation():
    with pytest.raises(ValueError):
        wdvv.VeselovPotential(3, 0.0)
    with pytest.raises(ValueError):
        wdvv.VeselovPotential(1, 1.0)


def test_hessian_frozen_values_against_fd_oracle():
    h = PRE3.hessian_at(X0)
    oracle = cc.fd_hessian(lambda u: brute_value(u, 2.0), X0)
    assert np.max(np.abs(h - oracle)) < 1e-6
    # log 1 = 0 makes the (1,2) entry exactly -6
    assert h[0, 1] == pytest.approx(-6.0, abs=1e-12)
    assert h[0, 0] == pytest.approx(15.0 + 4.0 * math.log(3.0), abs=1e-12)


def test_hessian_rejects_singular_input():
    with pytest.raises(cc.SingularPointError):
        PRE3.hessian_at(np.array([1.0, 1.0, 2.0]))
    with pytest.raises(cc.SingularPointError):
        PRE3.hessian_at(np.array([0.0, 1.0, 2.0]))


def test_hessian_row_sums_leave_single_particle_part():
    # translation-invariant pair terms cancel in row sums
    for x in sample_points(10):
        h = PRE3.hessian_at(x)
        expected = (1.0 / POT3.m) * (2.0 * np.log(x**2) + 6.0)
        assert np.allclose(h.sum(axis=1), expected, atol=1e-10)


def test_third_frozen_value_and_sparsity():
    c = PRE3.third_at(X0)
    assert c[0, 0, 1] == pytest.approx(4.0)  # -4/(1-2)
    assert c[0, 1, 2] == 0.0
    oracle = cc.fd_jacobian(PRE3.hessian, X0)
    assert np.max(np.abs(c - oracle)) < 1e-6


def test_third_total_symmetry():
    for x in sample_points(10):
        c = PRE3.third_at(x)
        for perm in itertools.permutations(range(3)):
            assert np.allclose(c, np.transpose(c, perm), atol=0.0)


def test_derivative_chain_value_hessian_third():
    for x in sample_points(8, seed=3):
        h = PRE3.hessian_at(x)
        assert np.max(np.abs(cc.fd_hessian(lambda u: brute_value(u, 2.0), x) - h)) < 1e-6
        c = PRE3.third_at(x)
        assert np.max(np.abs(cc.fd_jacobian(PRE3.hessian, x) - c)) < 1e-6


def test_wdvv_residual_at_reference_point():
    assert wdvv.wdvv_residual(PRE3, X0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(range(3)))
def test_wdvv_residual_is_permutation_equivariant(perm):
    # F is symmetric under coordinate permutations
    x = np.array([0.9, 1.7, 2.6])
    assert wdvv.wdvv_residual(PRE3, x[list(perm)]) == pytest.approx(
        wdvv.wdvv_residual(PRE3, x), abs=1e-10)


def test_wdvv_residual_small_for_family_members():
    for n, m in itertools.product((3, 4, 5, 6), (1.0, 2.0, 3.0, 7.0)):
        pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(n, m))
        worst = max(wdvv.wdvv_residual(pre, x) for x in sample_points(25, n=n, seed=int(m)))
        assert worst < 1e-8, (n, m, worst)


# --- Euler-weighted contraction ----------------------------------------------


def test_g_matrix_zero_weights():
    g = wdvv.g_matrix(PRE3, cc.constant_map([0.0, 0.0, 0.0]), X0)
    assert np.all(g == 0.0)


def test_g_matrix_linear_in_weights():
    lam = cc.constant_map([1.0, 2.0, -1.0])
    mu = cc.constant_map([0.5, 0.0, 3.0])
    both = cc.constant_map([1.5, 2.0, 2.0])
    total = wdvv.g_matrix(PRE3, lam, X0) + wdvv.g_matrix(PRE3, mu, X0)
    assert np.allclose(total, wdvv.g_matrix(PRE3, both, X0), atol=1e-12)


def test_quarter_euler_contraction_is_constant_gram_matrix():
    """With lambda = x/4 the contraction of the m = 2 third derivatives is the
    constant matrix with diagonal (n-1) + 1/m = 5/2 and off-diagonal -1: each
    covector block of the potential contributes 4 alpha (x) alpha under the
    Euler contraction.  Cross-checked against a finite-difference oracle."""
    expected = np.array([[2.5, -1.0, -1.0], [-1.0, 2.5, -1.0], [-1.0, -1.0, 2.5]])
    pts = sample_points(10, seed=21)
    for x in pts:
        g = wdvv.g_matrix(PRE3, wdvv.QUARTER_X, x)
        assert np.allclose(g, expected, atol=1e-10)
    # oracle at one point: contract an FD third-derivative tensor
    x = pts[0]
    c_fd = cc.fd_jacobian(PRE3.hessian, x)
    g_fd = np.einsum("jlk,k->jl", c_fd, x / 4.0)
    assert np.max(np.abs(g_fd - expected)) < 1e-6


def test_printed_target_matrix_belongs_to_scaled_m1_family():
    """[[3/4,-1/4,-1/4],...] is the Euler contraction of the sixteenth-scaled
    m=1 potential with unit weights (lambda = x), the normalization realized
    by the alpha=2, beta=1 complex; it is NOT the (m=2, lambda=x/4) value."""
    scaled = wdvv.veselov_prepotential(wdvv.VeselovPotential(3, 1.0), scale=1.0 / 16.0)
    target = np.array([[0.75, -0.25, -0.25], [-0.25, 0.75, -0.25], [-0.25, -0.25, 0.75]])
    for x in sample_points(5, seed=77):
        assert np.allclose(wdvv.g_matrix(scaled, lambda u: u, x), target, atol=1e-12)


def test_generalized_residual_quarter_euler():
    worst = max(wdvv.generalized_wdvv_residual(PRE3, wdvv.QUARTER_X, x)
                for x in sample_points(25, seed=31))
    assert worst < 1e-10


def test_generalized_with_first_basis_weight_matches_ordinary():
    e1 = cc.constant_map([1.0, 0.0, 0.0])
    for x in sample_points(5, seed=41):
        assert wdvv.generalized_wdvv_residual(PRE3, e1, x) == pytest.approx(
            wdvv.wdvv_residual(PRE3, x), abs=1e-14)


def test_commutation_residual_propagates_nan():
    # slice 1 spoils the first pair (0, 1), slice 2 only the later ones; Python's
    # max would drop the NaN in both cases
    c = PRE3.third_at(X0)
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
    with pytest.raises(wdvv.SingularSliceError):
        wdvv.generalized_wdvv_residual(PRE3, cc.constant_map([0.0, 0, 0]), X0)


def test_scaled_prepotential_scales_derivatives():
    pre = wdvv.veselov_prepotential(POT3, scale=0.25)
    assert pre.hessian_at(X0)[0, 1] == pytest.approx(-1.5)
    assert pre.value_at(X0) == pytest.approx(0.25 * brute_value(X0, 2.0))


# --- batches of points ------------------------------------------------------------


@pytest.mark.parametrize("m", [1.0, 2.0, 7.0])
def test_batched_residuals_agree_with_per_point_calls(m):
    pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(3, m))
    pts = sample_points(24, seed=int(10 * m))
    for residual in (lambda x: wdvv.wdvv_residual(pre, x),
                     lambda x: wdvv.generalized_wdvv_residual(pre, wdvv.QUARTER_X, x)):
        per_point = max(residual(x) for x in pts)
        for batch in (pts, pts.reshape(4, 6, 3)):
            assert residual(batch) == pytest.approx(per_point, rel=1e-15, abs=0.0)


def test_batched_closed_forms_are_stacks_of_points():
    pts = sample_points(7, seed=12)
    for closed_form in (PRE3.value_at, PRE3.hessian_at, PRE3.third_at):
        np.testing.assert_array_equal(closed_form(pts), np.stack([closed_form(x) for x in pts]))
    np.testing.assert_allclose(wdvv.g_matrix(PRE3, wdvv.QUARTER_X, pts),
                               np.stack([wdvv.g_matrix(PRE3, wdvv.QUARTER_X, x) for x in pts]),
                               rtol=1e-15, atol=0.0)


def test_refused_pivot_in_a_batch_raises_naming_its_point():
    pts = sample_points(6, seed=8)
    bad = pts[3]

    def third(u):
        # the whole tensor vanishes at one point, so its pivot c[0] is singular
        c = PRE3.third(u)
        return np.where(np.all(u == bad, axis=-1)[..., None, None, None], 0.0, c)

    pre = dataclasses.replace(PRE3, third=third)
    assert wdvv.wdvv_residual(pre, np.delete(pts, 3, axis=0)) < 1e-10
    with pytest.raises(wdvv.SingularSliceError, match=re.escape(str(bad))):
        wdvv.wdvv_residual(pre, pts)
    residuals, rejected = wdvv.commutation_residuals(third(pts), third(pts)[:, 0])
    assert rejected.tolist() == [False, False, False, True, False, False]
    assert math.isnan(residuals[3]) and np.all(residuals[~rejected] < 1e-10)
    # a non-finite pivot is refused the same way, and fails no other point
    c = PRE3.third_at(pts)
    c[3, 0, 1, 2] = np.nan
    residuals, rejected = wdvv.commutation_residuals(c, c[:, 0])
    assert rejected.tolist() == [False, False, False, True, False, False]
    assert math.isnan(residuals[3]) and np.all(residuals[~rejected] < 1e-10)


def test_vee_prepotential_of_general_rows_against_direct_summation():
    rows = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0], [-2.0, 0.25, 1.0], [1.0, 1.0, 1.0]])
    h = np.array([0.7, -1.3, 0.4, 2.0])
    pre = wdvv.vee_prepotential(rows, h)
    np.testing.assert_array_equal(pre.predicates, rows)

    def direct(x):
        return sum(hp * (c @ x) ** 2 * math.log((c @ x) ** 2) for c, hp in zip(rows, h))

    # |F| reaches a few hundred here, so the FD gaps are relative to the
    # largest entry: second differences carry a roundoff of eps |F| / h^2
    for x in sample_gapped_box(default_rng(5), 6, dim=3, predicates=rows, gap=0.2):
        assert pre.value_at(x) == pytest.approx(direct(x), rel=1e-13)
        hess, c = pre.hessian_at(x), pre.third_at(x)
        assert np.max(np.abs(cc.fd_hessian(direct, x) - hess)) < 1e-7 * np.max(np.abs(hess))
        assert np.max(np.abs(cc.fd_jacobian(pre.hessian, x) - c)) < 1e-7 * np.max(np.abs(c))
    with pytest.raises(cc.SingularPointError):
        pre.third_at([2.0, -1.0, 0.0])  # on the plane of the first row

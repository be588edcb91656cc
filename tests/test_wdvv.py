import dataclasses
import functools
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
from square_oracle import euler_residual_at, g_matrix_at, value_at, wdvv_residual_at

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
    assert wdvv_residual_at(PRE3, X0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(range(3)))
def test_wdvv_residual_is_permutation_equivariant(perm):
    # F is symmetric under coordinate permutations
    x = np.array([0.9, 1.7, 2.6])
    assert wdvv_residual_at(PRE3, x[list(perm)]) == pytest.approx(
        wdvv_residual_at(PRE3, x), abs=1e-10)


def test_wdvv_residual_small_for_family_members():
    for n, m in itertools.product((3, 4, 5, 6), (1.0, 2.0, 3.0, 7.0)):
        pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(n, m))
        worst = max(wdvv_residual_at(pre, x) for x in sample_points(25, n=n, seed=int(m)))
        assert worst < 1e-8, (n, m, worst)


# --- Euler-weighted contraction ----------------------------------------------


def test_g_matrix_zero_weights():
    g = g_matrix_at(PRE3, cc.constant_map([0.0, 0.0, 0.0]), X0)
    assert np.all(g == 0.0)


def test_g_matrix_linear_in_weights():
    lam = cc.constant_map([1.0, 2.0, -1.0])
    mu = cc.constant_map([0.5, 0.0, 3.0])
    both = cc.constant_map([1.5, 2.0, 2.0])
    total = g_matrix_at(PRE3, lam, X0) + g_matrix_at(PRE3, mu, X0)
    assert np.allclose(total, g_matrix_at(PRE3, both, X0), atol=1e-12)


def test_quarter_euler_contraction_is_constant_gram_matrix():
    """With lambda = x/4 the contraction of the m = 2 third derivatives is the
    constant matrix with diagonal (n-1) + 1/m = 5/2 and off-diagonal -1: each
    covector block of the potential contributes 4 alpha (x) alpha under the
    Euler contraction.  Cross-checked against a finite-difference oracle."""
    expected = np.array([[2.5, -1.0, -1.0], [-1.0, 2.5, -1.0], [-1.0, -1.0, 2.5]])
    pts = sample_points(10, seed=21)
    for x in pts:
        g = g_matrix_at(PRE3, wdvv.QUARTER_X, x)
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
        assert np.allclose(g_matrix_at(scaled, lambda u: u, x), target, atol=1e-12)


def test_generalized_residual_quarter_euler():
    worst = max(euler_residual_at(PRE3, wdvv.QUARTER_X, x)
                for x in sample_points(25, seed=31))
    assert worst < 1e-10


def test_generalized_with_first_basis_weight_matches_ordinary():
    e1 = cc.constant_map([1.0, 0.0, 0.0])
    for x in sample_points(5, seed=41):
        assert euler_residual_at(PRE3, e1, x) == pytest.approx(
            wdvv_residual_at(PRE3, x), abs=1e-14)


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
        wdvv_residual_at(flat, X0)
    # the hint on the one-forms d(h_1l) is about c[0] only, not the Euler pivot g
    with pytest.raises(wdvv.SingularSliceError, match="Euler-weighted pivot g") as refused:
        euler_residual_at(PRE3, cc.constant_map([0.0, 0, 0]), X0)
    assert "h_1l" not in str(refused.value)


def test_scaled_prepotential_scales_derivatives():
    pre = wdvv.veselov_prepotential(POT3, scale=0.25)
    assert pre.hessian_at(X0)[0, 1] == pytest.approx(-1.5)
    assert value_at(pre, X0) == pytest.approx(0.25 * brute_value(X0, 2.0))


# --- batches of points ------------------------------------------------------------


@pytest.mark.parametrize("m", [1.0, 2.0, 7.0])
def test_batched_residuals_agree_with_per_point_calls(m):
    pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(3, m))
    pts = sample_points(24, seed=int(10 * m))
    for residual in (lambda x: wdvv_residual_at(pre, x),
                     lambda x: euler_residual_at(pre, wdvv.QUARTER_X, x)):
        per_point = max(residual(x) for x in pts)
        for batch in (pts, pts.reshape(4, 6, 3)):
            assert residual(batch) == pytest.approx(per_point, rel=1e-15, abs=0.0)


def test_batched_closed_forms_are_stacks_of_points():
    pts = sample_points(7, seed=12)
    for closed_form in (functools.partial(value_at, PRE3), PRE3.hessian_at, PRE3.third_at):
        np.testing.assert_array_equal(closed_form(pts), np.stack([closed_form(x) for x in pts]))
    np.testing.assert_allclose(g_matrix_at(PRE3, wdvv.QUARTER_X, pts),
                               np.stack([g_matrix_at(PRE3, wdvv.QUARTER_X, x) for x in pts]),
                               rtol=1e-15, atol=0.0)


def test_refused_pivot_in_a_batch_raises_naming_its_point():
    pts = sample_points(6, seed=8)
    bad = pts[3]

    def third(u):
        # the whole tensor vanishes at one point, so its pivot c[0] is singular
        c = PRE3.third(u)
        return np.where(np.all(u == bad, axis=-1)[..., None, None, None], 0.0, c)

    pre = dataclasses.replace(PRE3, third=third)
    assert wdvv_residual_at(pre, np.delete(pts, 3, axis=0)) < 1e-10
    with pytest.raises(wdvv.SingularSliceError, match=re.escape(str(bad))):
        wdvv_residual_at(pre, pts)
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
        assert value_at(pre, x) == pytest.approx(direct(x), rel=1e-13)
        hess, c = pre.hessian_at(x), pre.third_at(x)
        assert np.max(np.abs(cc.fd_hessian(direct, x) - hess)) < 1e-7 * np.max(np.abs(hess))
        assert np.max(np.abs(cc.fd_jacobian(pre.hessian, x) - c)) < 1e-7 * np.max(np.abs(c))
    with pytest.raises(cc.SingularPointError):
        pre.third_at([2.0, -1.0, 0.0])  # on the plane of the first row


def test_commutation_residual_does_not_scale_with_the_potential():
    # the general rows above are no ∨-system: their residual stays 2.7e-2 at
    # every scale, so a small potential cannot pass for a WDVV solution
    rows = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0], [-2.0, 0.25, 1.0], [1.0, 1.0, 1.0]])
    h = np.array([0.7, -1.3, 0.4, 2.0])
    x = sample_gapped_box(default_rng(5), 6, dim=3, predicates=rows, gap=0.2)
    # beyond about 1e+-154 the Frobenius norms' squares over- or underflow
    scales = (1.0, 1e-3, 1e-9, 1e-100, 1e-156, 1e156, 1e-160, 1e160, 1e-200, 1e200)
    residuals = [wdvv_residual_at(wdvv.vee_prepotential(rows, s * h), x) for s in scales]
    assert residuals[0] > 1e-2
    assert residuals == pytest.approx([residuals[0]] * len(scales), rel=1e-12)
    pre = wdvv.veselov_prepotential(POT3, scale=1e-9)
    pts = sample_points(50, seed=5)
    assert wdvv_residual_at(pre, pts) < 1e-8
    assert euler_residual_at(pre, wdvv.QUARTER_X, pts) < 1e-8


@pytest.mark.parametrize("scale", [1e-250, 1e-160, 1e160, 1e250])
def test_commutation_residual_does_not_scale_with_the_pivot(scale):
    # a pivot of another scale than c: |P^-1| over- or underflows alone
    rows = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0], [-2.0, 0.25, 1.0], [1.0, 1.0, 1.0]])
    pre = wdvv.vee_prepotential(rows, np.array([0.7, -1.3, 0.4, 2.0]))
    x = sample_gapped_box(default_rng(5), 6, dim=3, predicates=rows, gap=0.2)
    c = pre.third_at(x)
    g = wdvv.g_matrix(c, wdvv.QUARTER_X, x)
    residuals, rejected = wdvv.commutation_residuals(c, g)
    assert residuals.min() > 1e-4 and not rejected.any()
    scaled, rejected = wdvv.commutation_residuals(c, scale * g)
    assert not rejected.any()
    np.testing.assert_allclose(scaled, residuals, rtol=1e-12)


def test_commutation_residual_reads_zero_where_its_scale_is_zero():
    # zero slices c_j make |c_j| |P^-1| |c_l| = 0, and the numerator is 0 too
    residuals, rejected = wdvv.commutation_residuals(np.zeros((2, 3, 3, 3)), np.eye(3))
    assert residuals.tolist() == [0.0, 0.0] and not rejected.any()


# --- the pivot guard --------------------------------------------------------------


def stress_pivots(n, count=1500, seed=0):
    """Pivots of 2-norm condition number 10^6 to 10^10 at scales 10^+-200, with
    zero, rank-one, NaN and inf members."""
    rng = np.random.default_rng(seed + n)
    q1 = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    sv = 10.0 ** -np.sort(rng.uniform(0.0, 1.0, (count, n)), axis=-1)
    sv[:, 0], sv[:, -1] = 1.0, 10.0 ** -rng.uniform(6.0, 10.0, count)
    scale = 10.0 ** rng.uniform(-200.0, 200.0, count)
    pivots = scale[:, None, None] * (q1 * sv[:, None, :]) @ q2
    pivots[::97] = 0.0
    pivots[1::89, 0, 0] = np.nan
    pivots[2::83, -1, 0] = -np.inf
    pivots[3::79] = pivots[3::79, :1, :]
    return pivots


def veselov_pivots(n, m, count=200):
    """The pivots c[0] and the Euler-weighted g = sum_k (x_k/4) c_k at sampled
    points of the Veselov potential, with the third tensors."""
    pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(n, m))
    x = sample_gapped_box(default_rng(n), count, dim=n, predicates=pre.predicates)
    c = pre.third_at(x)
    return c, np.concatenate([c[:, 0], wdvv.g_matrix(c, wdvv.QUARTER_X, x)])


def svd_refusals(pivots):
    """The refusal rule by an SVD of every pivot."""
    eye = np.eye(pivots.shape[-1])
    finite = np.isfinite(pivots).all(axis=(-2, -1))
    return ~finite | ~(np.linalg.cond(np.where(finite[..., None, None], pivots, eye))
                       <= wdvv.MAX_PIVOT_COND)


def pairwise_residual(c, pivot_inv):
    """The commutation residual pair by pair, (c_j P^-1) c_l, as a reference."""
    pinv_norm = np.linalg.norm(pivot_inv, axis=(-2, -1))
    worst = None
    for j, l in itertools.combinations(range(c.shape[-1]), 2):
        cj, cl = c[..., j, :, :], c[..., l, :, :]
        a = cj @ pivot_inv @ cl
        num = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1))
        den = np.maximum(1.0, np.linalg.norm(cj, axis=(-2, -1)) * pinv_norm
                         * np.linalg.norm(cl, axis=(-2, -1)))
        worst = num / den if worst is None else np.maximum(worst, num / den)
    return worst


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_guard_refuses_exactly_what_an_svd_refuses(n):
    pivots = stress_pivots(n)
    inverses, refused = wdvv._guarded_inverse(pivots)
    np.testing.assert_array_equal(refused, svd_refusals(pivots))
    assert 0 < refused.sum() < len(pivots)
    np.testing.assert_array_equal(inverses[refused], np.broadcast_to(np.eye(n), (refused.sum(), n, n)))
    kept = pivots[~refused]
    np.testing.assert_array_equal(inverses[~refused], np.stack([np.linalg.inv(p) for p in kept]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_guard_refuses_exactly_what_an_svd_refuses_on_veselov_pivots(n):
    # 1/m -> 0 takes the family to A_{n-1}, where c[0] is singular: the
    # condition numbers cross the threshold within these m
    for m in (1.0, 7.0, 0.5, -3.0, 1e2, 1e4, 1e5, 1e6, 1e7, 1e8):
        pivots = veselov_pivots(n, m)[1]
        np.testing.assert_array_equal(wdvv._guarded_inverse(pivots)[1], svd_refusals(pivots))


def test_guard_sends_only_the_band_to_the_svd(monkeypatch):
    svd_cond = np.linalg.cond
    seen = []

    def spy(x, *args, **kwargs):
        seen.append(np.array(x))
        return svd_cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", spy)
    pivots = veselov_pivots(3, 2.0)[1]
    assert not wdvv._guarded_inverse(pivots)[1].any()
    assert seen == []
    pivots = stress_pivots(3)
    wdvv._guarded_inverse(pivots)
    band = np.concatenate(seen)
    # k_2 <= k_F <= n k_2: the bound leaves only 1e8/n < k_2 <= n 1e8 undecided
    kappa = svd_cond(band)
    assert 0 < len(band) < len(pivots) / 4
    assert np.all((kappa > wdvv.MAX_PIVOT_COND / 3 * (1 - 1e-5))
                  & (kappa <= 3 * wdvv.MAX_PIVOT_COND * (1 + 1e-5)))


def spy_on_linalg(monkeypatch, names):
    """Record the arguments of the named ``np.linalg`` functions, by name."""
    seen = {name: [] for name in names}
    for name in names:
        def spy(x, *args, original=getattr(np.linalg, name), name=name, **kwargs):
            seen[name].append(np.array(x))
            return original(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return seen


@pytest.mark.parametrize("n", [2, 4])
def test_guard_factors_each_pivot_once_unless_one_is_exactly_singular(monkeypatch, n):
    # inv raises on a batch with an exactly singular member; only then does
    # slogdet find those members, and the batch is inverted again without them
    seen = spy_on_linalg(monkeypatch, ("inv", "slogdet"))
    counts = lambda: {name: len(args) for name, args in seen.items()}
    assert not wdvv._guarded_inverse(veselov_pivots(n, 2.0)[1])[1].any()
    assert counts() == {"inv": 1, "slogdet": 0}
    wdvv._guarded_inverse(stress_pivots(n))
    assert counts() == {"inv": 3, "slogdet": 1}


def test_closed_form_leaves_lapack_only_the_pivots_it_cannot_vouch_for(monkeypatch):
    seen = spy_on_linalg(monkeypatch, ("inv", "slogdet", "cond"))
    easy = veselov_pivots(3, 2.0)[1]
    assert not wdvv._guarded_inverse(easy)[1].any()
    assert seen == {"inv": [], "slogdet": [], "cond": []}
    # every stress pivot has k_2 >= 1e6: the first inv call sees exactly
    # those, with the non-finite ones replaced by the identity
    hard = stress_pivots(3)
    wdvv._guarded_inverse(np.concatenate([easy[:100], hard, easy[100:]]))
    finite = np.isfinite(hard).all(axis=(-2, -1))
    np.testing.assert_array_equal(seen["inv"][0],
                                  np.where(finite[:, None, None], hard, np.eye(3)))
    assert len(seen["slogdet"]) == 1 and len(seen["inv"]) == 2


# --- the closed-form tier of 3 x 3 pivots --------------------------------------------


def two_small_singular_values(count=3000, seed=0, scaled=True):
    """3 x 3 pivots with singular values (1, s_2, s_3): 2-norm condition number
    1/s_3 from 1e3 to 1e10 with s_2 between, a sixth near (1, 1e-5, 1e-8) and
    a sixth near (1, 1e-2, 1e-4); at scales 10^+-200 unless ``scaled`` is
    False."""
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.standard_normal((count, 3, 3)))[0]
    q2 = np.linalg.qr(rng.standard_normal((count, 3, 3)))[0]
    log_k = rng.uniform(3.0, 10.0, count)
    sv = np.stack([np.ones(count), 10.0 ** -(rng.uniform(0.0, 1.0, count) * log_k),
                   10.0 ** -log_k], axis=-1)
    k = count // 6
    sv[:k, 1], sv[:k, 2] = 10.0 ** -rng.uniform(4.9, 5.1, k), 10.0 ** -rng.uniform(7.8, 8.1, k)
    sv[k:2 * k, 1] = 10.0 ** -rng.uniform(1.9, 2.1, k)
    sv[k:2 * k, 2] = 10.0 ** -rng.uniform(3.9, 4.1, k)
    scale = 10.0 ** rng.uniform(-200.0, 200.0, count) if scaled else np.ones(count)
    return scale[:, None, None] * (q1 * sv[:, None, :]) @ q2


def singular_in_rounding(count=600, seed=1):
    """3 x 3 pivots singular but for rounding, at scales 10^+-200: rank-one
    products u v^T, and singular values (1, s_2, s_3) with s_2 from 1e-16 to
    1e-12 and s_3 below 1e-16.  Their adjugates and cofactor-expanded dets
    are rounding noise of order eps, whose ratio reads k_F near 1."""
    rng = np.random.default_rng(seed)
    half = count // 2
    u, v = rng.standard_normal((2, half, 3))
    q1 = np.linalg.qr(rng.standard_normal((half, 3, 3)))[0]
    q2 = np.linalg.qr(rng.standard_normal((half, 3, 3)))[0]
    sv = np.stack([np.ones(half), 10.0 ** -rng.uniform(12.0, 16.0, half),
                   10.0 ** -rng.uniform(16.0, 20.0, half)], axis=-1)
    pivots = np.concatenate([u[:, :, None] * v[:, None, :], (q1 * sv[:, None, :]) @ q2])
    return 10.0 ** rng.uniform(-200.0, 200.0, count)[:, None, None] * pivots


def closed_form_errors(pivots):
    """For the pivots the closed form accepts: their k_F, and the relative
    Frobenius distance of the guard's inverse from ``np.linalg.inv``'s, as it
    stands and after the best scalar fit."""
    kappa_f = wdvv._closed_form_inverse(pivots)[1]
    kept = kappa_f <= wdvv._CLOSED_FORM_COND
    # both inverses are brought near 1 exactly, by a power of two, so the
    # products below overflow at no scale
    shift = np.frexp(np.abs(pivots[kept]).max(axis=(-2, -1)))[1][:, None, None]
    inv = np.ldexp(wdvv._guarded_inverse(pivots[kept])[0], shift)
    lu = np.ldexp(np.linalg.inv(pivots[kept]), shift)
    fit = (np.einsum("kij,kij->k", inv, lu) / np.einsum("kij,kij->k", inv, inv))[:, None, None]
    size = np.linalg.norm(lu, axis=(-2, -1))
    return (kappa_f[kept], np.linalg.norm(inv - lu, axis=(-2, -1)) / size,
            np.linalg.norm(fit * inv - lu, axis=(-2, -1)) / size)


EPS = np.finfo(float).eps


def closed_form_within_bounds(pivots):
    # the scale error the LAPACK path accepts at its threshold, and the
    # direction error of an LU inverse
    kappa_f, relative, fitted = closed_form_errors(pivots)
    return (np.all(relative <= EPS * wdvv.MAX_PIVOT_COND)
            and np.all(fitted <= 4 * kappa_f * EPS))


def test_closed_form_refuses_exactly_what_an_svd_refuses_on_two_small_singular_values():
    pivots = two_small_singular_values()
    refused = wdvv._guarded_inverse(pivots)[1]
    np.testing.assert_array_equal(refused, svd_refusals(pivots))
    kappa_f = wdvv._closed_form_inverse(pivots)[1]
    # both tiers and both verdicts of the LAPACK path are exercised
    assert 200 < np.sum(kappa_f <= wdvv._CLOSED_FORM_COND) < len(pivots) / 2
    assert 200 < refused.sum() < len(pivots) / 2


def test_closed_form_inverse_is_within_the_lapack_paths_error():
    pivots = two_small_singular_values()
    kappa_f = closed_form_errors(pivots)[0]
    assert len(kappa_f) > 200 and kappa_f.max() > wdvv._CLOSED_FORM_COND / 2
    assert closed_form_within_bounds(pivots)


def test_closed_form_bound_below_the_threshold_is_what_keeps_its_error_small(monkeypatch):
    # Cramer's rule is not forward stable: accepted up to the threshold
    # itself, the pivots near s = (1, 1e-5, 1e-8) are far outside both bounds
    monkeypatch.setattr(wdvv, "_CLOSED_FORM_COND", wdvv.MAX_PIVOT_COND)
    pivots = two_small_singular_values()
    np.testing.assert_array_equal(wdvv._guarded_inverse(pivots)[1], svd_refusals(pivots))
    assert not closed_form_within_bounds(pivots)
    assert closed_form_errors(pivots)[1].max() > 1e3 * EPS * wdvv.MAX_PIVOT_COND


def test_closed_form_leaves_pivots_singular_but_for_rounding_to_lapack():
    pivots = singular_in_rounding()
    assert np.all(wdvv._closed_form_inverse(pivots)[1] == np.inf)
    refused = wdvv._guarded_inverse(pivots)[1]
    np.testing.assert_array_equal(refused, svd_refusals(pivots))
    assert refused.all()


@pytest.mark.parametrize("k", [300, -300])
def test_guard_and_residual_scale_exactly_by_a_power_of_two(k):
    c, easy = veselov_pivots(3, 2.0)
    hard = two_small_singular_values(count=600, scaled=False)
    third = np.concatenate([c, c, np.random.default_rng(1).standard_normal((600, 3, 3, 3))])
    pivots = np.concatenate([easy, hard])
    inv, refused = wdvv._guarded_inverse(pivots)
    scaled_inv, scaled_refused = wdvv._guarded_inverse(2.0 ** k * pivots)
    np.testing.assert_array_equal(scaled_refused, refused)
    np.testing.assert_array_equal(scaled_inv[~refused], 2.0 ** -k * inv[~refused])
    for got, want in zip(wdvv.commutation_residuals(third, 2.0 ** k * pivots),
                         wdvv.commutation_residuals(third, pivots)):
        np.testing.assert_array_equal(got, want)


def test_each_pivot_of_a_mixed_block_gets_the_bits_it_gets_alone():
    pivots = np.concatenate([veselov_pivots(3, 2.0)[1][:200], stress_pivots(3),
                             two_small_singular_values(count=300), singular_in_rounding(100)])
    pivots = pivots[np.random.default_rng(5).permutation(len(pivots))]
    inv, refused = wdvv._guarded_inverse(pivots)
    alone = [wdvv._guarded_inverse(p) for p in pivots]
    np.testing.assert_array_equal(inv, np.stack([a[0] for a in alone]))
    np.testing.assert_array_equal(refused, np.array([a[1] for a in alone]))
    # k_F decides the tier: a lone pivot's must be its k_F in the block
    np.testing.assert_array_equal(wdvv._closed_form_inverse(pivots)[1],
                                  [wdvv._closed_form_inverse(p)[1] for p in pivots])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_commutation_residuals_of_a_block_are_the_stack_of_its_points(n):
    # matmul may choose its kernel by the strides of P^-1, so both tiers must
    # lay their inverses out alike for a point's residual to keep its bits
    c, pivots = veselov_pivots(n, 2.0, count=150)
    c = np.concatenate([c, c])
    blocks = [pivots]
    if n == 3:
        blocks.append(np.concatenate([pivots[:150], two_small_singular_values(100, scaled=False),
                                      singular_in_rounding(50)]))
    for block in blocks:
        residuals, refused = wdvv.commutation_residuals(c, block)
        alone = [wdvv.commutation_residuals(ck, pk) for ck, pk in zip(c, block)]
        np.testing.assert_array_equal(residuals, [a[0] for a in alone])
        np.testing.assert_array_equal(refused, [a[1] for a in alone])


def test_one_pivot_against_a_batch_gives_a_scalar_mask():
    c, _ = veselov_pivots(3, 2.0, count=5)
    # the diagonal pivots lie in the band the SVD decides: k_F = sqrt(2) k_2
    for pivot, is_refused in ((c[0, 0], False), (np.zeros((3, 3)), True),
                              (np.diag([1.0, 1.0, 1 / 0.9e8]), False),
                              (np.diag([1.0, 1.0, 1 / 1.1e8]), True)):
        residuals, refused = wdvv.commutation_residuals(c, pivot)
        assert np.shape(refused) == () and bool(refused) is is_refused
        assert residuals.shape == (5,)
        assert np.isnan(residuals).all() == is_refused


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stacked_residual_is_bit_equal_to_the_pairwise_products(n):
    c, pivots = veselov_pivots(n, 3.0)
    pivot_inv = np.linalg.inv(pivots[:len(c)])
    np.testing.assert_array_equal(wdvv._commutation_residual(c, pivot_inv),
                                  pairwise_residual(c, pivot_inv))
    rng = np.random.default_rng(n)
    c = rng.standard_normal((50, n, n, n))
    pivot_inv = np.linalg.inv(rng.standard_normal((50, n, n)))
    np.testing.assert_array_equal(wdvv._commutation_residual(c, pivot_inv),
                                  pairwise_residual(c, pivot_inv))
    np.testing.assert_array_equal(wdvv._commutation_residual(c, pivot_inv[0]),
                                  pairwise_residual(c, pivot_inv[0]))

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenardlab import chartcore as cc
from lenardlab.sampling import default_rng, sample_segments

CH3 = cc.Chart("u", 3)


def affine_form(mat, const=(0.0, 0.0, 0.0)) -> cc.OneFormField:
    mat = np.array(mat, dtype=float)
    const = np.array(const, dtype=float)
    return cc.OneFormField(CH3, lambda u: mat @ u + const, lambda u: mat)


def affine_field(mat, const=(0.0, 0.0, 0.0)) -> cc.VectorFieldSpec:
    mat = np.array(mat, dtype=float)
    const = np.array(const, dtype=float)
    return cc.VectorFieldSpec(CH3, lambda u: mat @ u + const, lambda u: mat)


coords = st.floats(-3.0, 3.0).map(lambda v: round(v, 3))
points3 = st.tuples(coords, coords, coords).map(np.array)
entries = st.integers(-4, 4)
mat3 = st.tuples(*[st.tuples(entries, entries, entries)] * 3).map(np.array)
perm3 = st.permutations(range(3)).map(lambda p: cc.Permutation(tuple(p)))


def test_chart_rejects_dimension_one():
    with pytest.raises(ValueError):
        cc.Chart("bad", 1)


# --- closure ---------------------------------------------------------------


def test_closure_of_coordinate_form_is_exactly_zero():
    da1 = cc.constant_form(CH3, np.eye(3)[0])
    assert cc.closure_residual(da1, np.array([0.3, -1.2, 5.0])) == 0.0


def test_closure_unit_antisymmetric_entry():
    # u2 du1 has a single antisymmetric Jacobian pair
    omega = affine_form([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert cc.closure_residual(omega, np.array([2.0, 1.0, 3.0])) == pytest.approx(1.0)


def test_closure_of_exact_log_form():
    # -(1/4) d(u1-u2)/(u1-u2) is exact, so its Jacobian is symmetric
    def coeff(u):
        return np.array([-0.25, 0.25, 0.0]) / (u[0] - u[1])

    def jac(u):
        v = np.array([-0.25, 0.25, 0.0]) / (u[0] - u[1]) ** 2
        return np.outer(v, [-1.0, 1.0, 0.0])

    omega = cc.OneFormField(CH3, coeff, jac, [[1.0, -1.0, 0.0]])
    assert cc.closure_residual(omega, np.array([2.0, 1.0, 3.0])) < 1e-12
    assert cc.fd_check_one_form(omega, np.array([2.0, 1.0, 3.0])) < 1e-8


# --- permutation action ----------------------------------------------------


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        cc.Permutation((0, 0, 2))


def test_transposition_is_involution():
    s = cc.Permutation.transposition(3, 0, 2)
    assert s.inverse() == s


def test_pullback_swaps_coordinate_forms():
    s12 = cc.Permutation.transposition(3, 0, 1)
    da1 = cc.constant_form(CH3, np.eye(3)[0])
    da3 = cc.constant_form(CH3, np.eye(3)[2])
    u = np.array([0.7, -1.1, 2.0])
    assert np.allclose(cc.pullback(s12, da1).coeff_at(u), [0, 1, 0])
    assert np.allclose(cc.pullback(s12, da3).coeff_at(u), [0, 0, 1])


def test_pullback_identity_is_identity():
    ident = cc.Permutation((0, 1, 2))
    omega = affine_form([[1, 2, 0], [0, 1, 3], [2, 0, 1]], (0.5, 0, -1))
    u = np.array([0.3, 1.4, -0.8])
    assert np.allclose(cc.pullback(ident, omega).coeff_at(u), omega.coeff_at(u))


@settings(max_examples=50)
@given(sig=perm3, tau=perm3, m=mat3, u=points3)
def test_pullback_respects_group_law(sig, tau, m, u):
    omega = affine_form(m, (1.0, -2.0, 0.5))
    # sig o tau (apply tau first): (sig o tau)(u)_i = u[tau.mapping[sig.mapping[i]]]
    composite = cc.pullback(cc.Permutation(tuple(tau.mapping[k] for k in sig.mapping)), omega)
    sequential = cc.pullback(tau, cc.pullback(sig, omega))
    assert np.allclose(composite.coeff_at(u), sequential.coeff_at(u), atol=1e-12)


@settings(max_examples=30)
@given(sig=perm3, m=mat3, u=points3)
def test_pullback_preserves_closure(sig, m, u):
    omega = affine_form(m + m.T)  # symmetric Jacobian: closed
    assert cc.closure_residual(cc.pullback(sig, omega), u) < 1e-12


@settings(max_examples=30)
@given(sig=perm3, m=mat3, u=points3)
def test_predicate_rows_follow_the_point_map(sig, m, u):
    # a pulled-back form is singular at u where the original is at sigma(u);
    # a transformed tensor where the original is at sigma^-1(u)
    omega = cc.OneFormField(CH3, lambda v: v, cc.constant_map(np.eye(3)), m)
    k = cc.TensorField11(CH3, cc.constant_map(np.eye(3)), cc.constant_map(np.zeros((3, 3, 3))), m)
    assert np.allclose(cc.pullback(sig, omega).predicates @ u, m @ sig(u), rtol=0, atol=1e-12)
    assert np.allclose(cc.transform_tensor(sig, k).predicates @ u, m @ sig.inverse()(u),
                       rtol=0, atol=1e-12)


# --- tensor actions ---------------------------------------------------------


@settings(max_examples=50)
@given(m=mat3, theta=points3, x=points3, u=points3)
def test_vector_and_covector_actions_are_adjoint(m, theta, x, u):
    k = cc.constant_tensor(CH3, m)
    lhs = float(theta @ cc.apply(k.mat_at(u), x))
    rhs = float(cc.covector_image(k, cc.constant_form(CH3, theta)).coeff_at(u) @ x)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_commutator_trivial_cases():
    m = np.array([[1.0, 2, 0], [0, 1, 1], [3, 0, 2]])
    k = cc.constant_tensor(CH3, m)
    u = np.zeros(3)
    assert cc.commutator_residual(k, k, u) == 0.0
    assert cc.commutator_residual(k, cc.identity_tensor(CH3), u) == 0.0


def test_covector_image_product_rule():
    # K with one linear entry, omega with one linear coefficient
    def kjac(u):
        j = np.zeros((3, 3, 3))
        j[0, 1, 0] = 1.0
        return j

    k = cc.TensorField11(CH3, lambda u: np.array([[0.0, u[0], 0], [1, 0, 0], [0, 0, 2]]), kjac)
    omega = affine_form([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # u1 du2
    image = cc.covector_image(k, omega)
    u = np.array([1.5, 2.0, -0.7])
    assert cc.fd_check_one_form(image, u) < 1e-9


def test_chain_field_brackets_match_finite_differences():
    # lenard_residuals differentiates K X by the product rule; compare
    # [K_0 X, K_1 X] with the bracket of the FD Jacobians of u -> K(u) X(u)
    rng = np.random.default_rng(5)

    def affine_tensor():
        a, b = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, (3, 3, 3))
        return cc.TensorField11(CH3, lambda u: a + np.einsum("...d,dij->...ij", u, b),
                                cc.constant_map(np.moveaxis(b, 0, -1)))

    ks = [affine_tensor(), affine_tensor()]
    m, c = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, 3)
    x = cc.VectorFieldSpec(CH3, lambda u: u @ m.T + c, cc.constant_map(m))
    u = rng.uniform(-1.0, 1.0, (4, 3))
    worst = cc.lenard_residuals(ks, x, [], u, lambda *_: ())
    kx = [lambda v, k=k: cc.apply(k.mat(v), x.comp(v)) for k in ks]
    fd = (cc.apply(cc.fd_jacobian(kx[1], u), kx[0](u))
          - cc.apply(cc.fd_jacobian(kx[0], u), kx[1](u)))
    assert np.max(np.abs(fd)) > 0.1
    assert worst["vector_field_commutators"] == pytest.approx(np.max(np.abs(fd)), rel=1e-8)


# --- brackets ---------------------------------------------------------------


def test_lie_bracket_vanishing_cases():
    x = affine_field([[0, 1, 0], [0, 0, 2], [0, 0, 0]], (1, 0, 0))
    u = np.array([0.4, 1.2, -0.5])
    assert cc.lie_bracket_residual(x, x, u) == 0.0
    c1 = affine_field(np.zeros((3, 3)), (1, 2, 3))
    c2 = affine_field(np.zeros((3, 3)), (0, -1, 5))
    assert cc.lie_bracket_residual(c1, c2, u) == 0.0


def test_lie_bracket_hand_computed():
    # X = u1 d/du2, Y = d/du1:  [X, Y] = -d/du2
    x = cc.VectorFieldSpec(
        CH3, lambda u: np.array([0.0, u[0], 0.0]),
        lambda u: np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    y = cc.coordinate_vector_field(CH3, 0)
    u = np.array([2.0, 0.3, 1.1])
    bracket = cc._bracket(x.comp_at(u), x.jac_at(u), y.comp_at(u), y.jac_at(u))
    assert np.allclose(bracket, [0.0, -1.0, 0.0])
    assert cc.lie_bracket_residual(x, y, u) == pytest.approx(1.0)


# --- torsion -----------------------------------------------------------------


def test_identity_tensor_has_no_torsion():
    u = np.array([0.9, -1.4, 2.2])
    assert np.max(np.abs(cc.nijenhuis_tensor(cc.identity_tensor(CH3), u))) == 0.0
    assert cc.haantjes_residual(cc.identity_tensor(CH3), u) == 0.0


@settings(max_examples=30)
@given(m=mat3, u=points3)
def test_constant_tensor_has_no_torsion(m, u):
    k = cc.constant_tensor(CH3, m)
    assert np.max(np.abs(cc.nijenhuis_tensor(k, u))) == 0.0
    assert cc.haantjes_residual(k, u) == 0.0


@pytest.mark.parametrize("seed", range(3))
def test_haantjes_residual_of_a_generic_affine_tensor_is_of_order_one(seed):
    # M(u) = A + sum_d u_d B_d: the residual is relative to |M|^3 |dM|, and a
    # field with torsion still reads above 1
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, (3, 3, 3))
    k = cc.TensorField11(CH3, lambda u: a + np.einsum("...d,dij->...ij", u, b),
                         cc.constant_map(np.moveaxis(b, 0, -1)))
    assert cc.haantjes_residual(k, rng.uniform(-1.0, 1.0, (10, 3))) > 1.0


def test_union_keeps_one_row_per_direction():
    c = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(cc.union_predicates(np.array([2 * c, c, -c])), [c])
    e = np.eye(3)
    rows = cc.union_predicates(e, -3 * e, np.zeros((1, 3)), np.zeros((2, 3)))
    assert np.array_equal(rows, np.concatenate([np.zeros((1, 3)), e]))


@settings(max_examples=30)
@given(u=points3)
def test_zero_row_rejects_every_point(u):
    with pytest.raises(cc.SingularPointError):
        cc.check_regular(np.zeros((1, 3)), u)
    with pytest.raises(cc.SingularSegmentError):
        cc.assert_segment_regular(np.zeros((1, 3)), u, u + 1.0)


def test_wedge_matrix_antisymmetry():
    w = cc.wedge_matrix([1.0, 0, 0], [0, 2.0, 0])
    assert np.allclose(w, -w.T)
    assert w[0, 1] == pytest.approx(2.0)


# --- finite differences ------------------------------------------------------


def test_fd_hessian_on_polynomial():
    f = lambda u: u[0] ** 3 * u[1] + u[2] ** 2
    u = np.array([1.2, -0.7, 0.4])
    expected = np.array([
        [6 * u[0] * u[1], 3 * u[0] ** 2, 0.0],
        [3 * u[0] ** 2, 0.0, 0.0],
        [0.0, 0.0, 2.0],
    ])
    assert np.max(np.abs(cc.fd_hessian(f, u) - expected)) < 1e-8


def test_fd_hessian_batch_is_stack_of_points_with_one_call_per_shift():
    calls = []

    def f(u):
        calls.append(1)
        return u[..., 0] ** 3 * u[..., 1] + u[..., 2] ** 2

    pts = np.array([[1.2, -0.7, 0.4], [0.3, 2.0, -1.1], [-1.5, 0.8, 2.2]])
    batch = cc.fd_hessian(f, pts)
    shifts = len(calls)
    assert shifts == 1 + 4 * 3 + 16 * 3  # centre, diagonal and mixed stencils
    np.testing.assert_array_equal(batch, np.stack([cc.fd_hessian(f, u) for u in pts]))
    calls.clear()
    assert cc.fd_hessian(f, pts.reshape(3, 1, 3)).shape == (3, 1, 3, 3)
    assert len(calls) == shifts


def test_fd_checks_catch_wrong_jacobian():
    omega = cc.OneFormField(CH3, lambda u: u**2, lambda u: np.zeros((3, 3)))
    assert cc.fd_check_one_form(omega, np.array([1.0, 2.0, 3.0])) > 1.0


# --- line integrals ----------------------------------------------------------


def components(*comps):
    """Components stacked on a trailing axis, broadcast over the point axes."""
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def exact_form():
    # d(u0^2 u1): closed by construction
    def coeff(u):
        u0, u1 = u[..., 0], u[..., 1]
        return components(2 * u0 * u1, u0**2, 0.0)

    def jac(u):
        u0, u1, zero = u[..., 0], u[..., 1], 0.0 * u[..., 0]
        return np.stack([components(2 * u1, 2 * u0, zero), components(2 * u0, zero, zero),
                         components(zero, zero, zero)], axis=-2)

    return cc.OneFormField(CH3, coeff, jac)


def jump_form():
    # a jump at u0 = 1/3 never lands on a bisection point of [0, 1]
    return cc.OneFormField(CH3, lambda u: components(np.where(u[..., 0] > 1.0 / 3.0, 1.0, 0.0),
                                                     0.0, 0.0),
                           cc.constant_map(np.zeros((3, 3))))


def guard_form():
    # du0 / u0, singular on u0 = 0
    def jac(u):
        j = np.zeros(u.shape[:-1] + (3, 3))
        j[..., 0, 0] = -1.0 / u[..., 0] ** 2
        return j

    return cc.OneFormField(CH3, lambda u: components(1.0 / u[..., 0], 0.0, 0.0), jac,
                           [[1.0, 0.0, 0.0]])


def log_potential(u):
    return np.log(u[..., 0]) + 0.5 * np.log(u[..., 0] - u[..., 1]) + u[..., 1] * u[..., 2] ** 2


def log_form():
    """d(log_potential): poles on u0 = 0 and u0 = u1 make the rule refine near them."""
    def coeff(u):
        u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
        return components(1.0 / u0 + 0.5 / (u0 - u1), -0.5 / (u0 - u1) + u2**2, 2 * u1 * u2)

    return cc.OneFormField(CH3, coeff, lambda u: cc.fd_jacobian(coeff, u),
                           [[1.0, 0.0, 0.0], [1.0, -1.0, 0.0]])


def log_segments(count=40, seed=5):
    """Sampled segments clear of the poles of :func:`log_form`, some close to them."""
    return sample_segments(default_rng(seed), count, predicates=log_form().predicates,
                           low=0.05, high=3.0)


def scalar_recursion(omega, u0, u1, tol=1e-10, max_depth=24):
    """Independent oracle: the depth-first adaptive rule, one node per coeff call."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    direction = u1 - u0

    def f(t):
        return float(np.asarray(omega.coeff(u0 + t * direction), dtype=float) @ direction)

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(sum(w * f(mid + half * t) for t, w in zip(nodes, weights)))

    def adapt(a, b, whole, depth):
        mid = 0.5 * (a + b)
        left, right = panel(a, mid), panel(mid, b)
        err = abs(left + right - whole)
        if err <= tol:
            return left + right
        if depth >= max_depth or err != err:
            return math.nan
        return adapt(a, mid, left, depth + 1) + adapt(mid, b, right, depth + 1)

    return adapt(0.0, 1.0, panel(0.0, 1.0), 0)


def test_integral_of_exact_form_is_potential_difference():
    omega = exact_form()
    u0 = np.array([1.0, 1.0, 0.0])
    u1 = np.array([2.0, 3.0, 1.0])
    val = cc.integrate_one_form(omega, u0, u1)
    assert val == pytest.approx(2.0**2 * 3.0 - 1.0, abs=1e-10)


def test_closed_loop_integral_vanishes():
    omega = exact_form()
    a = np.array([1.0, 1.0, 0.0])
    b = np.array([2.5, 0.5, 1.0])
    total = cc.integrate_one_form(omega, a, b) + cc.integrate_one_form(omega, b, a)
    assert abs(total) < 1e-10


def test_path_independence_over_polygonal_paths():
    omega = exact_form()
    a = np.array([1.0, 1.0, 0.0])
    b = np.array([2.0, 2.0, 0.5])
    via = np.array([1.5, 0.2, -1.0])
    direct = cc.integrate_one_form(omega, a, b)
    detour = cc.integrate_one_form(omega, a, via) + cc.integrate_one_form(omega, via, b)
    assert direct == pytest.approx(detour, abs=1e-9)


def test_batch_equals_each_segment_alone_in_either_order():
    omega = log_form()
    u0, u1 = log_segments()
    batch = cc.integrate_one_form(omega, u0, u1)
    assert batch.shape == (40,)
    alone = [cc.integrate_one_form(omega, a, b) for a, b in zip(u0, u1)]
    np.testing.assert_array_equal(batch, alone)
    np.testing.assert_array_equal(cc.integrate_one_form(omega, u0[::-1], u1[::-1]), batch[::-1])
    np.testing.assert_array_equal(
        cc.integrate_one_form(omega, u0.reshape(5, 8, 3), u1.reshape(5, 8, 3)),
        batch.reshape(5, 8))
    assert np.max(np.abs(batch - (log_potential(u1) - log_potential(u0)))) < 1e-9
    assert cc.integrate_one_form(omega, u0[:0], u1[:0]).shape == (0,)


def test_batch_agrees_with_the_scalar_recursion():
    omega = log_form()
    u0, u1 = log_segments(seed=17)
    batch = cc.integrate_one_form(omega, u0, u1)
    oracle = np.array([scalar_recursion(omega, a, b) for a, b in zip(u0, u1)])
    assert np.all(np.abs(batch - oracle) <= 2e-15 * np.abs(oracle))


def test_one_coeff_call_per_refinement_level():
    omega = log_form()
    calls = []

    def counted(u):
        calls.append(1)
        return omega.coeff(u)

    counting = cc.OneFormField(CH3, counted, omega.jac, omega.predicates)
    u0, u1 = log_segments()
    cc.integrate_one_form(counting, u0, u1)
    batch_calls = len(calls)
    alone_calls = []
    for a, b in zip(u0, u1):
        calls.clear()
        cc.integrate_one_form(counting, a, b)
        alone_calls.append(len(calls))
    # the first level evaluates the whole segment and both halves
    assert batch_calls == max(alone_calls) > 1


def dense_segment_verdict(rows, u0, u1, samples=1025) -> bool:
    """Reference: the rows on ``samples`` points of the segment, rejected on a
    value inside the margin or a sign change."""
    vals = (u0 + np.linspace(0.0, 1.0, samples)[:, None] * (u1 - u0)) @ rows.T
    return not np.any((np.min(np.abs(vals), axis=0) < cc.REGULARITY_MARGIN)
                      | (np.min(vals, axis=0) * np.max(vals, axis=0) < 0.0))


# Multiples of 2^-12 with integer rows keep every sample value exact, so the
# two tests see the same numbers; 0 and +-2^-12 ... +-4 * 2^-12 lie inside the
# margin.
grid = st.integers(-4 * 4096, 4 * 4096).map(lambda k: k / 4096)
grid_points = st.tuples(grid, grid, grid).map(np.array)
int_rows = st.lists(st.tuples(entries, entries, entries), min_size=1, max_size=4).map(
    lambda r: np.array(r, dtype=float))


@settings(max_examples=200)
@given(rows=int_rows, u0=grid_points, u1=grid_points)
@example(rows=np.array([[1.0, -1.0, 0.0]]), u0=np.array([2.0, 1.0, 0.0]),
         u1=np.array([1.0, 2.0, 0.0]))  # a sign change inside the segment
@example(rows=np.array([[1.0, 0.0, 0.0]]), u0=np.array([3 / 4096, 1.0, 0.0]),
         u1=np.array([2.0, 1.0, 0.0]))  # an endpoint inside the margin
@example(rows=np.array([[1.0, 0.0, 0.0]]), u0=np.array([5 / 4096, 1.0, 0.0]),
         u1=np.array([2.0, 1.0, 0.0]))  # an endpoint just outside it
def test_exact_segment_check_agrees_with_dense_sampling(rows, u0, u1):
    try:
        cc.assert_segment_regular(rows, u0, u1)
        regular = True
    except cc.SingularSegmentError:
        regular = False
    assert regular == dense_segment_verdict(rows, u0, u1)


AT_MARGIN = cc.REGULARITY_MARGIN
INSIDE_MARGIN = np.nextafter(cc.REGULARITY_MARGIN, 0.0)


@settings(max_examples=200)
@given(rows=int_rows, u=st.lists(grid_points, min_size=1, max_size=4).map(np.array))
@example(rows=np.array([[1.0, 0.0, 0.0]]), u=np.array([[AT_MARGIN, 1.0, 2.0]]))
@example(rows=np.array([[1.0, 0.0, 0.0]]), u=np.array([[-INSIDE_MARGIN, 1.0, 2.0]]))
def test_check_regular_raises_exactly_where_a_point_is_a_singular_segment(rows, u):
    try:
        cc.check_regular(rows, u)
        regular = True
    except cc.SingularPointError:
        regular = False
    assert regular == (not cc.singular_segments(rows, u, u).any())


@pytest.mark.parametrize("value, singular", [(AT_MARGIN, False), (-AT_MARGIN, False),
                                             (INSIDE_MARGIN, True), (-INSIDE_MARGIN, True)])
def test_a_point_at_the_margin_is_regular_and_just_inside_it_singular(value, singular):
    rows = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.0]])
    u = np.array([value, 2.0, 1.0])
    assert cc.singular_segments(rows, u, u).tolist() == [False, singular]
    if singular:
        with pytest.raises(cc.SingularPointError, match="predicate #1"):
            cc.check_regular(rows, u)
    else:
        cc.check_regular(rows, u)


def test_segment_crossing_singular_locus_raises():
    rows = np.array([[1.0, -1.0, 0.0]])  # u0 - u1
    with pytest.raises(cc.SingularSegmentError):
        cc.assert_segment_regular(rows, np.array([2.0, 1.0, 0.0]), np.array([1.0, 2.0, 0.0]))
    # same ordering at both ends is fine
    cc.assert_segment_regular(rows, np.array([2.0, 1.0, 0.0]), np.array([3.0, 1.5, 0.0]))


def test_unconverged_integral_is_nan():
    # the jump cannot meet the tolerance within four levels
    u0, u1 = np.zeros(3), np.array([1.0, 0.0, 0.0])
    assert np.isnan(cc.integrate_one_form(jump_form(), u0, u1, max_depth=4))
    smooth = cc.integrate_one_form(exact_form(), u0 + 1.0, u1 + 1.0, max_depth=4)
    assert smooth == pytest.approx(2.0**2 - 1.0, abs=1e-10)


def test_unconverged_segment_is_nan_only_in_its_own_slot():
    # the jump at u0 = 1/3 lies inside the middle segment only
    u0 = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
    u1 = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.4, 1.0, 0.0]])
    values = cc.integrate_one_form(jump_form(), u0, u1, max_depth=4)
    assert np.isnan(values[1])
    assert values[[0, 2]] == pytest.approx([0.5, -1.6], abs=1e-12)


def test_integration_guard_rejects_singular_path():
    with pytest.raises(cc.SingularSegmentError):
        cc.integrate_one_form(guard_form(), np.array([-1.0, 0, 0]), np.array([1.0, 0, 0]))


def test_integration_guard_names_the_crossing_segment_of_a_batch():
    u0 = np.array([[1.0, 0, 0], [2.0, 0, 0], [-1.0, 0, 0], [0.5, 1, 0]])
    u1 = np.array([[2.0, 0, 0], [3.0, 1, 0], [1.0, 0, 0], [-0.5, 0, 0]])
    with pytest.raises(cc.SingularSegmentError, match=r"segment #2, \[-1\. +0\. +0\.\] ->"):
        cc.integrate_one_form(guard_form(), u0, u1)
    values = cc.integrate_one_form(guard_form(), u0[:2], u1[:2])
    assert values == pytest.approx([np.log(2.0), np.log(1.5)], abs=1e-10)


def test_pairwise_indices_covers_upper_triangle():
    assert list(cc.pairwise_indices(3)) == [(0, 1), (0, 2), (1, 2)]
    assert list(cc.pairwise_indices(4)) == list(itertools.combinations(range(4), 2))

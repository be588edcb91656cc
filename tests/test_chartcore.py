import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenardlab import chartcore as cc
from lenardlab import equivariant as eq
from lenardlab.sampling import default_rng, sample_segments
from square_oracle import inverse, pullback, transform_tensor

CH3 = cc.Chart("u", 3)


def affine_form(mat, const=(0.0, 0.0, 0.0)) -> cc.Field:
    mat = np.array(mat, dtype=float)
    const = np.array(const, dtype=float)
    return cc.Field(CH3, lambda u: mat @ u + const, lambda u: mat)


def affine_field(mat, const=(0.0, 0.0, 0.0)) -> cc.Field:
    mat = np.array(mat, dtype=float)
    const = np.array(const, dtype=float)
    return cc.Field(CH3, lambda u: mat @ u + const, lambda u: mat)


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
    da1 = cc.constant_field(CH3, np.eye(3)[0])
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

    omega = cc.Field(CH3, coeff, jac, [[1.0, -1.0, 0.0]])
    u = np.array([2.0, 1.0, 3.0])
    assert cc.closure_residual(omega, u) < 1e-12
    assert form_fd_gap(omega, u) < 1e-8


# --- permutation action ----------------------------------------------------


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        cc.Permutation((0, 0, 2))


def test_transposition_is_involution():
    s = cc.Permutation.transposition(3, 0, 2)
    assert inverse(s) == s


def test_pullback_swaps_coordinate_forms():
    s12 = cc.Permutation.transposition(3, 0, 1)
    da1 = cc.constant_field(CH3, np.eye(3)[0])
    da3 = cc.constant_field(CH3, np.eye(3)[2])
    u = np.array([0.7, -1.1, 2.0])
    assert np.allclose(pullback(s12, da1).coeff_at(u), [0, 1, 0])
    assert np.allclose(pullback(s12, da3).coeff_at(u), [0, 0, 1])


def test_pullback_identity_is_identity():
    ident = cc.Permutation((0, 1, 2))
    omega = affine_form([[1, 2, 0], [0, 1, 3], [2, 0, 1]], (0.5, 0, -1))
    u = np.array([0.3, 1.4, -0.8])
    assert np.allclose(pullback(ident, omega).coeff_at(u), omega.coeff_at(u))


@settings(max_examples=50)
@given(sig=perm3, tau=perm3, m=mat3, u=points3)
def test_pullback_respects_group_law(sig, tau, m, u):
    omega = affine_form(m, (1.0, -2.0, 0.5))
    # sig o tau (apply tau first): (sig o tau)(u)_i = u[tau.mapping[sig.mapping[i]]]
    composite = pullback(cc.Permutation(tuple(tau.mapping[k] for k in sig.mapping)), omega)
    sequential = pullback(tau, pullback(sig, omega))
    assert np.allclose(composite.coeff_at(u), sequential.coeff_at(u), atol=1e-12)


@settings(max_examples=30)
@given(sig=perm3, m=mat3, u=points3)
def test_pullback_preserves_closure(sig, m, u):
    omega = affine_form(m + m.T)  # symmetric Jacobian: closed
    assert cc.closure_residual(pullback(sig, omega), u) < 1e-12


@settings(max_examples=30)
@given(sig=perm3, m=mat3, u=points3)
def test_predicate_rows_follow_the_point_map(sig, m, u):
    # a pulled-back form is singular at u where the original is at sigma(u);
    # a transformed tensor where the original is at sigma^-1(u)
    omega = cc.Field(CH3, lambda v: v, cc.constant_map(np.eye(3)), m)
    k = cc.Field(CH3, cc.constant_map(np.eye(3)), cc.constant_map(np.zeros((3, 3, 3))), m)
    assert np.allclose(pullback(sig, omega).predicates @ u, m @ sig(u), rtol=0, atol=1e-12)
    assert np.allclose(transform_tensor(sig, k).predicates @ u, m @ inverse(sig)(u),
                       rtol=0, atol=1e-12)


# --- tensor actions ---------------------------------------------------------


@settings(max_examples=50)
@given(m=mat3, theta=points3, x=points3, u=points3)
def test_vector_and_covector_actions_are_adjoint(m, theta, x, u):
    k = cc.constant_field(CH3, m)
    lhs = float(theta @ cc.apply(k.coeff_at(u), x))
    rhs = float(cc.covector_image(k, cc.constant_field(CH3, theta)).coeff_at(u) @ x)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_commutator_trivial_cases():
    m = np.array([[1.0, 2, 0], [0, 1, 1], [3, 0, 2]])
    k = cc.constant_field(CH3, m)
    u = np.zeros(3)
    assert cc.commutator_residual(k, k, u) == 0.0
    assert cc.commutator_residual(k, cc.constant_field(CH3, np.eye(3)), u) == 0.0


def test_covector_image_product_rule():
    # K with one linear entry, omega with one linear coefficient
    def kjac(u):
        j = np.zeros((3, 3, 3))
        j[0, 1, 0] = 1.0
        return j

    k = cc.Field(CH3, lambda u: np.array([[0.0, u[0], 0], [1, 0, 0], [0, 0, 2]]), kjac)
    omega = affine_form([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # u1 du2
    image = cc.covector_image(k, omega)
    u = np.array([1.5, 2.0, -0.7])
    assert form_fd_gap(image, u) < 1e-9


def test_chain_field_brackets_match_finite_differences():
    # lenard_residuals differentiates K X by the product rule; compare
    # [K_0 X, K_1 X] with the bracket of the FD Jacobians of u -> K(u) X(u)
    rng = np.random.default_rng(5)

    def affine_tensor():
        a, b = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, (3, 3, 3))
        return cc.Field(CH3, lambda u: a + np.einsum("...d,dij->...ij", u, b),
                                cc.constant_map(np.moveaxis(b, 0, -1)))

    ks = [affine_tensor(), affine_tensor()]
    m, c = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, 3)
    x = cc.Field(CH3, lambda u: u @ m.T + c, cc.constant_map(m))
    u = rng.uniform(-1.0, 1.0, (4, 3))
    worst = cc.worst_by_name(cc.lenard_residuals([k.coeff_at(u) for k in ks],
                                                 [k.jac_at(u) for k in ks],
                                                 x.coeff_at(u), x.jac_at(u)))
    kx = [lambda v, k=k: cc.apply(k.coeff(v), x.coeff(v)) for k in ks]
    fd = (cc.apply(cc.fd_jacobian(kx[1], u), kx[0](u))
          - cc.apply(cc.fd_jacobian(kx[0], u), kx[1](u)))
    assert np.max(np.abs(fd)) > 0.1
    assert worst["vector_field_commutators"] == pytest.approx(np.max(np.abs(fd)), rel=1e-8)


# --- the one reduction ------------------------------------------------------


def test_worst_reads_the_largest_magnitude_and_any_nan_in_any_order():
    parts = [np.array([[1.0, -3.0], [0.5, 2.0]]), -2.5, np.float64(0.25)]
    for order in itertools.permutations(parts):
        assert cc.worst(*order) == 3.0
        for k in range(len(order)):
            assert math.isnan(cc.worst(*order[:k], np.nan, *order[k + 1:]))
    with pytest.raises(TypeError):  # no residual reads no value, not 0
        cc.worst()


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
    x = cc.Field(
        CH3, lambda u: np.array([0.0, u[0], 0.0]),
        lambda u: np.array([[0.0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    y = cc.constant_field(CH3, np.eye(3)[0])
    u = np.array([2.0, 0.3, 1.1])
    bracket = cc._bracket(x.coeff_at(u), x.jac_at(u), y.coeff_at(u), y.jac_at(u))
    assert np.allclose(bracket, [0.0, -1.0, 0.0])
    assert cc.lie_bracket_residual(x, y, u) == pytest.approx(1.0)


# --- torsion -----------------------------------------------------------------


def test_identity_operator_has_no_torsion():
    u = np.array([0.9, -1.4, 2.2])
    assert np.max(np.abs(cc.nijenhuis_tensor(cc.constant_field(CH3, np.eye(3)), u))) == 0.0
    assert cc.haantjes_residual(cc.constant_field(CH3, np.eye(3)), u) == 0.0


@settings(max_examples=30)
@given(m=mat3, u=points3)
def test_constant_operator_has_no_torsion(m, u):
    k = cc.constant_field(CH3, m)
    assert np.max(np.abs(cc.nijenhuis_tensor(k, u))) == 0.0
    assert cc.haantjes_residual(k, u) == 0.0


@pytest.mark.parametrize("seed", range(3))
def test_haantjes_residual_of_a_generic_affine_tensor_is_of_order_one(seed):
    # M(u) = A + sum_d u_d B_d: the residual is relative to |M|^3 |dM|, and a
    # field with torsion still reads above 1
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, (3, 3)), rng.uniform(-1.0, 1.0, (3, 3, 3))
    k = cc.Field(CH3, lambda u: a + np.einsum("...d,dij->...ij", u, b),
                         cc.constant_map(np.moveaxis(b, 0, -1)))
    assert cc.haantjes_residual(k, rng.uniform(-1.0, 1.0, (10, 3))) > 1.0


# --- batched kernels against their einsum definitions ---------------------------
#
# The einsum strings below are the kernels' definitions; the kernels compute
# the same contractions as gemm calls on reshaped operands.


def nijenhuis_oracle(m, j):
    t1 = np.einsum("...bi,...ajb->...aij", m, j)
    t2 = np.einsum("...bj,...aib->...aij", m, j)
    t3 = np.einsum("...ab,...bji->...aij", m, j)
    t4 = np.einsum("...ab,...bij->...aij", m, j)
    return t1 - t2 - t3 + t4


def haantjes_oracle(m, j):
    n = nijenhuis_oracle(m, j)
    m2 = m @ m
    return (np.einsum("...ab,...bij->...aij", m2, n)
            + np.einsum("...abc,...bi,...cj->...aij", n, m, m)
            - np.einsum("...ab,...bcj,...ci->...aij", m, n, m)
            - np.einsum("...ab,...bic,...cj->...aij", m, n, m))


def compose_jac_oracle(mk, ml, jk, jl):
    return np.einsum("...ibd,...bj->...ijd", jk, ml) + np.einsum("...ib,...bjd->...ijd", mk, jl)


def covector_image_jac_oracle(th, jth, m, jm):
    return np.einsum("...id,...im->...md", jth, m) + np.einsum("...i,...imd->...md", th, jm)


def vector_image_jac_oracle(m, jm, x, dx):
    return np.einsum("...ibd,...b->...id", jm, x) + m @ dx


def third_tensor_oracle(ops, big_a, x):
    kx = np.einsum("...mcd,...d->...mc", ops, x)
    kkx = np.einsum("...lbc,...mc->...lmb", ops, kx)
    kkkx = np.einsum("...jab,...lmb->...jlma", ops, kkx)
    return np.einsum("...a,...jlma->...jlm", big_a, kkkx)


# operand kinds: v vector, m matrix, dm / dt the Jacobian of a vector / matrix
# field (the kinds a constant_map may broadcast), t a stack of matrices
RANK = {"v": 1, "m": 2, "dm": 2, "t": 3, "dt": 3}
KERNELS = {
    "nijenhuis": (cc._nijenhuis, nijenhuis_oracle, ("m", "dt")),
    "haantjes": (cc._haantjes, haantjes_oracle, ("m", "dt")),
    "compose_jac": (cc.compose_jac, compose_jac_oracle, ("m", "m", "dt", "dt")),
    "covector_image_jac": (cc.covector_image_jac, covector_image_jac_oracle,
                           ("v", "dm", "m", "dt")),
    "vector_image_jac": (cc._vector_image_jac, vector_image_jac_oracle, ("m", "dt", "v", "dm")),
    "third_tensor_from_chain": (eq.third_tensor_from_chain, third_tensor_oracle,
                                ("t", "v", "v")),
}


def kernel_operands(kinds, d, n, constant, seed=0):
    """Random non-symmetric operands at n points (a single point for n None);
    with ``constant`` every Jacobian is one value broadcast by constant_map
    over the points, with zero stride, as the GD operator's is."""
    rng = np.random.default_rng(seed)
    u = np.zeros((d,) if n is None else (n, d))
    out = []
    for kind in kinds:
        shape = (d,) * RANK[kind]
        if constant and kind.startswith("d"):
            out.append(cc.constant_map(rng.standard_normal(shape))(u))
        else:
            out.append(rng.standard_normal(u.shape[:-1] + shape))
    return out


@pytest.mark.parametrize("constant", [False, True])
@pytest.mark.parametrize("n", [None, 50])
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("name", KERNELS)
def test_kernel_matches_its_einsum_definition(name, d, n, constant):
    kernel, oracle, kinds = KERNELS[name]
    args = kernel_operands(kinds, d, n, constant)
    got, want = kernel(*args), oracle(*args)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("constant", [False, True])
@pytest.mark.parametrize("n", [1, 3, 50, 500])
@pytest.mark.parametrize("name", KERNELS)
def test_kernel_batch_is_the_stack_of_its_points_bit_for_bit(name, n, constant):
    kernel, _, kinds = KERNELS[name]
    args = kernel_operands(kinds, 3, n, constant, seed=n)
    batch = kernel(*args)
    alone = [kernel(*(a[k] for a in args)) for k in range(n)]
    assert np.array_equal(batch, np.stack(alone))


@settings(max_examples=50)
@given(c=st.tuples(entries, entries, entries).filter(any).map(np.array), u0=points3,
       u1=points3, scales=st.lists(st.sampled_from([-3.0, -2.0, -1.0, 1.5, 2.0, 4.0]),
                                   max_size=4))
@example(c=np.array([1, 0, 0]), u0=np.array([0.001, 0.0, 0.0]), u1=np.array([0.001, 0.0, 0.0]),
         scales=[-1.0, 2.0])
def test_parallel_rows_leave_the_verdict_of_the_shortest(c, u0, u1, scales):
    # fields and samplers stack predicate rows without removing parallel ones
    c = c.astype(float)
    rows = np.array([k * c for k in scales] + [c])
    for end in (u0, u1):
        assert (cc.singular_segments(rows, u0, end).any(axis=-1)
                == cc.singular_segments(c[None], u0, end)[..., 0])


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


# --- derivative oracles: second differences and the complex step -----------


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


def test_fd_jacobian_is_the_complex_step_with_one_call_per_coordinate():
    dtypes = []

    def f(u):
        dtypes.append(u.dtype)
        return np.stack([u[..., 0] ** 3 * u[..., 1], np.log(u[..., 2] ** 2)], axis=-1)

    pts = np.array([[1.2, -0.7, 0.4], [0.3, 2.0, -1.1], [-1.5, 0.8, 2.2]])
    jac = cc.fd_jacobian(f, pts)
    assert dtypes == [np.complex128] * 3 and jac.dtype == np.float64
    u0, u1, u2 = pts.T
    expected = np.zeros((3, 2, 3))
    expected[:, 0, 0], expected[:, 0, 1], expected[:, 1, 2] = 3 * u0**2 * u1, u0**3, 2 / u2
    np.testing.assert_allclose(jac, expected, rtol=1e-15)
    np.testing.assert_array_equal(jac, np.stack([cc.fd_jacobian(f, u) for u in pts]))
    # the identity map returns its (shifted) points themselves
    np.testing.assert_array_equal(cc.fd_jacobian(lambda u: u, pts), np.broadcast_to(np.eye(3),
                                                                                  (3, 3, 3)))


def test_fd_jacobian_reads_nan_wherever_a_value_is_not_finite():
    pts = np.array([[1.2, -0.7, 0.4], [0.3, 2.0, -1.1], [-1.5, 0.8, 2.2]])

    def spoiled(u):
        # nan written into a complex value is nan+0j: its imaginary part is 0
        v = u * u
        v[1, 0], v[2, 1] = np.nan, np.inf
        return v

    jac = cc.fd_jacobian(spoiled, pts)
    bad = np.zeros((3, 3), dtype=bool)
    bad[1, 0] = bad[2, 1] = True
    assert np.isnan(jac[bad]).all() and np.isfinite(jac[~bad]).all()
    # complex division by a NaN coordinate raises no warning, and leaves its value's row NaN
    pts[0, 2] = np.nan
    jac = cc.fd_jacobian(lambda u: 1.0 / u, pts)
    bad[:] = False
    bad[0, 2] = True
    assert np.isnan(jac[bad]).all() and np.isfinite(jac[~bad]).all()


def form_fd_gap(omega, u):
    """Worst absolute gap between a one-form's analytic and FD Jacobians."""
    return float(np.max(np.abs(cc.fd_jacobian(omega.coeff, u) - omega.jac_at(u))))


def test_fd_checks_catch_wrong_jacobian():
    omega = cc.Field(CH3, lambda u: u**2, lambda u: np.zeros((3, 3)))
    u = np.array([1.0, 2.0, 3.0])
    assert form_fd_gap(omega, u) > 1.0


def test_fd_check_measures_each_stacked_row_against_its_own_scale():
    # row 0 is 1e6 u0^2 / 2, row 1 is u1^2 / 2 with a 1 % error in its Jacobian:
    # against the stack's scale the error would read 1e-8, against its row's 1e-2
    def rows(u):
        return np.stack([np.array([1e6, 0.0, 0.0]) * u[..., 0, None] ** 2 / 2,
                         np.array([0.0, 1.0, 0.0]) * u[..., 1, None] ** 2 / 2], axis=-2)

    u = np.array([[1.0, 2.0, 3.0], [-1.5, 0.5, 2.0]])
    jac = np.zeros((2, 2, 3, 3))
    jac[:, 0, 0, 0] = 1e6 * u[:, 0]
    jac[:, 1, 1, 1] = u[:, 1]
    assert cc.fd_check_tensor(rows, [jac], u) < 1e-9
    jac[:, 1, 1, 1] *= 1.01
    assert cc.fd_check_tensor(rows, [jac], u) == pytest.approx(0.01 / 1.01, rel=1e-6)
    # the same rows in two blocks, and blocks that miss a row
    assert cc.fd_check_tensor(rows, [jac[:, :1], jac[:, 1:]], u) == cc.fd_check_tensor(
        rows, [jac], u)
    with pytest.raises(ValueError, match="1 Jacobian rows for 2 value rows"):
        cc.fd_check_tensor(rows, [jac[:, 1:]], u)


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

    return cc.Field(CH3, coeff, jac)


def jump_form():
    # a jump at u0 = 1/3 never lands on a bisection point of [0, 1]
    return cc.Field(CH3, lambda u: components(np.where(u[..., 0] > 1.0 / 3.0, 1.0, 0.0),
                                                     0.0, 0.0),
                           cc.constant_map(np.zeros((3, 3))))


def guard_form():
    # du0 / u0, singular on u0 = 0
    def jac(u):
        j = np.zeros(u.shape[:-1] + (3, 3))
        j[..., 0, 0] = -1.0 / u[..., 0] ** 2
        return j

    return cc.Field(CH3, lambda u: components(1.0 / u[..., 0], 0.0, 0.0), jac,
                           [[1.0, 0.0, 0.0]])


def log_potential(u):
    return np.log(u[..., 0]) + 0.5 * np.log(u[..., 0] - u[..., 1]) + u[..., 1] * u[..., 2] ** 2


def log_form():
    """d(log_potential): poles on u0 = 0 and u0 = u1 make the rule refine near them."""
    def coeff(u):
        u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
        return components(1.0 / u0 + 0.5 / (u0 - u1), -0.5 / (u0 - u1) + u2**2, 2 * u1 * u2)

    return cc.Field(CH3, coeff, lambda u: cc.fd_jacobian(coeff, u),
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

    counting = cc.Field(CH3, counted, omega.jac, omega.predicates)
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


def test_singular_segments_is_the_rule_of_its_docstring_nan_included():
    # the rule written out: min(|v0|, |v1|) < margin, or a sign change
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((6, 3))
    u0, u1 = rng.standard_normal((2, 400, 3))
    u0[:50] = u1[:50]  # points as segments to themselves
    u0[50:60, 1] = np.nan
    u1[60:70, 2] = np.inf
    u1[70:80] = -u0[70:80]
    u0[80:90] = 0.0
    with np.errstate(invalid="ignore"):
        v0, v1 = u0 @ rows.T, u1 @ rows.T
        rule = (np.minimum(np.abs(v0), np.abs(v1)) < cc.REGULARITY_MARGIN) | (v0 * v1 < 0.0)
        np.testing.assert_array_equal(cc.singular_segments(rows, u0, u1), rule)


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

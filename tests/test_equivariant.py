import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lenardlab import chartcore as cc
from lenardlab import equivariant as eq
from lenardlab.sampling import (
    SamplingExhaustedError,
    default_rng,
    sample_gapped_box,
    sample_segments,
)
from lenardlab import wdvv
from lenardlab.wdvv import wdvv_residual


# --- quadratic invariant and charts -----------------------------------------


def test_chart_map_example_values():
    quad = eq.QuadraticInvariant(2.0, 1.0)
    assert np.allclose(quad.a_to_A([1.0, 0.0, 0.0]), [2.0, 1.0, 1.0])
    assert np.allclose(quad.a_to_A(np.zeros(3)), np.zeros(3))


@settings(max_examples=40)
@given(a=st.tuples(*[st.floats(-5, 5).map(lambda v: round(v, 4))] * 3).map(np.array),
       alpha=st.floats(0.5, 5), beta=st.floats(0.1, 2))
def test_chart_round_trip(a, alpha, beta):
    if abs((alpha - beta) ** 2 * (2 * beta + alpha)) < 1e-3:
        return
    quad = eq.QuadraticInvariant(alpha, beta)
    assert np.allclose(quad.A_to_a(quad.a_to_A(a)), a, atol=1e-12)


def test_degenerate_invariants_rejected():
    with pytest.raises(eq.DegenerateParametersError):
        eq.QuadraticInvariant(1.0, 1.0)
    with pytest.raises(eq.DegenerateParametersError):
        eq.QuadraticInvariant(2.0, -1.0)  # 2*beta + alpha = 0


def test_gradient_form_matches_quadratic():
    quad = eq.QuadraticInvariant(2.0, 1.0)
    dA = quad.gradient_form()
    assert np.allclose(dA.coeff_at([1.0, 0.0, 0.0]), [2.0, 1.0, 1.0])
    a = np.array([0.8, 1.7, 2.5])
    assert cc.fd_check_one_form(dA, a) < 1e-9
    assert cc.closure_residual(dA, a) == 0.0
    assert np.allclose(cc.fd_jacobian(quad.value, a), quad.a_to_A(a), atol=1e-8)


# --- parameter constraints ----------------------------------------------------


def test_sigma_constraints_reference_solution():
    sigma1, sigma0 = eq.solve_sigma_constraints(2.0, 1.0, -0.125)
    assert sigma1 == pytest.approx(0.0, abs=1e-15)
    assert sigma0 == pytest.approx(0.25, abs=1e-15)


def test_sigma_constraints_shift_linearity():
    # resolving after sigma2 -> sigma2 + delta shifts sigma1 by -delta and
    # sigma0 by +8*delta (the sigma0 rule carries -4*sigma1 + 4*sigma2)
    base1, base0 = eq.solve_sigma_constraints(2.0, 1.0, -0.125)
    delta = 0.01
    new1, new0 = eq.solve_sigma_constraints(2.0, 1.0, -0.125 + delta)
    assert new1 - base1 == pytest.approx(-delta, abs=1e-14)
    assert new0 - base0 == pytest.approx(8 * delta, abs=1e-14)


def test_sigma_constraints_beta_zero():
    sigma1, _ = eq.solve_sigma_constraints(1.0, 0.0, 0.3)
    assert sigma1 == pytest.approx(-0.3)


@settings(max_examples=200)
@given(alpha=st.floats(-10, 10), beta=st.floats(-10, 10), sigma2=st.floats(-10, 10))
@example(alpha=-2.0000001, beta=1.0, sigma2=0.0)  # 2 beta + alpha = -1e-7
@example(alpha=-2.0000001, beta=1.0, sigma2=-3.5)
def test_family_params_derive_sigmas_that_satisfy_both_sum_rules(alpha, beta, sigma2):
    try:
        params = eq.FamilyParams.solve(alpha, beta, sigma2)
    except eq.DegenerateParametersError:
        assume(False)
    s0, s1, s2 = params.sigma0, params.sigma1, params.sigma2
    tol = 1e-12 * max(1.0, abs(s0), abs(s1), abs(s2))
    # the sum rules of the family's two terms, eta = +1 (sigma1) and -1 (sigma2)
    assert abs(2 * (s1 + s2) - beta / ((beta - alpha) * (2 * beta + alpha))) <= tol
    assert abs(s0 + 4 * s1 - 4 * s2
               - (alpha + beta) / ((alpha - beta) * (2 * beta + alpha))) <= tol


def test_phi_and_psi_reference_values():
    assert eq.phi(2.0, 1.0, -0.125) == pytest.approx(0.0, abs=1e-15)
    assert eq.phi(2.0, 1.0, 0.0) == pytest.approx(5.0 / 8.0)
    assert eq.psi([1.0, 1.0, 1.0]) == pytest.approx(3.0 / 8.0)
    with pytest.raises(cc.SingularPointError):
        eq.psi([1.0, -1.0, 2.0])


def test_phi_roots_reference_values():
    roots = eq.solve_phi_roots(2.0, 1.0)
    assert roots.root1 == pytest.approx(-1.0 / 8.0)
    assert roots.root2 == pytest.approx(-5.0 / 32.0)
    assert eq.solve_phi_roots(5.0, 2.0).root1 == pytest.approx(-1.0 / 27.0)


def test_phi_roots_beta_zero_flagged():
    with pytest.raises(eq.DegenerateParametersError, match="identically"):
        eq.solve_phi_roots(1.0, 0.0)


@settings(max_examples=40)
@given(alpha=st.floats(0.5, 4), beta=st.floats(0.1, 2), c=st.floats(0.5, 3))
def test_phi_roots_scale_inversely(alpha, beta, c):
    if abs((alpha - beta) ** 2 * (2 * beta + alpha)) < 1e-3:
        return
    base = eq.solve_phi_roots(alpha, beta)
    scaled = eq.solve_phi_roots(c * alpha, c * beta)
    assert scaled.root1 == pytest.approx(base.root1 / c, rel=1e-9)
    assert scaled.root2 == pytest.approx(base.root2 / c, rel=1e-9)


# --- one-form family -----------------------------------------------------------


@pytest.fixture(scope="module")
def sample_a(example3):
    _, _, cx = example3
    return sample_gapped_box(default_rng(5150), 20, predicates=cx.sampling_predicates())


def test_dQ_reference_family_closed_form(example3, sample_a):
    params, _, _ = example3
    dQ = eq.build_dQ(params)
    for a in sample_a:
        expected = np.array([-0.25, 0.25, 0.0]) / (a[0] - a[1])
        assert np.allclose(dQ.coeff_at(a), expected, atol=1e-12)
        assert cc.closure_residual(dQ, a) < 1e-12


def test_dQ_vanishes_for_zero_sigmas():
    params = eq.FamilyParams.solve(1.0, 0.0, 0.0)
    assert (params.sigma0, params.sigma1, params.sigma2) == (1.0, 0.0, 0.0)
    dQ = eq.build_dQ(params)
    assert np.allclose(dQ.coeff_at([0.5, 1.5, 2.5]), 0.0)


def test_family_forms_have_required_symmetries(example3, sample_a):
    params, _, _ = example3
    dQ, dP = eq.build_dQ(params), eq.build_dP(params)
    for a in sample_a[:10]:
        assert np.allclose(cc.pullback(eq.SIGMA_12, dQ).coeff_at(a), dQ.coeff_at(a), atol=1e-12)
        assert np.allclose(cc.pullback(eq.SIGMA_23, dP).coeff_at(a), dP.coeff_at(a), atol=1e-12)


def test_family_forms_fd_jacobians(example3, sample_a):
    params, _, _ = example3
    for form in (eq.build_dQ(params), eq.build_dP(params)):
        for a in sample_a[:5]:
            assert cc.fd_check_one_form(form, a) < 1e-6


# --- square completion ----------------------------------------------------------


def test_complete_square_trivial_relabeling():
    quad = eq.QuadraticInvariant(1.0, 0.0)
    dA = quad.gradient_form()
    dP = cc.constant_form(eq.A_CHART, np.eye(3)[0])
    dQ = cc.constant_form(eq.A_CHART, [0.0, 0.0, 0.0])
    square = eq.complete_square(dA, dP, dQ)
    a = np.array([0.3, 0.9, 2.1])
    assert np.allclose(square.dS.coeff_at(a), [0, 1, 0])
    assert np.allclose(square.dV.coeff_at(a), [0, 0, 1])


def test_asymmetric_square_fails_its_report(example3, sample_a):
    # completion checks nothing; a dQ that is not sigma12-symmetric (here dP)
    # fails the two report conditions that check the square's symmetries
    _, _, cx = example3
    square = eq.complete_square(cx.dA, cx.square.dP, cx.square.dP)
    k1 = eq._tensor_from_rows([square.dP, square.dQ, square.dR])
    k2 = eq._tensor_from_rows([square.dQ, square.dS, square.dT])
    k3 = eq._tensor_from_rows([square.dR, square.dT, square.dV])
    broken = eq.LenardComplex(cx.params, square, (k1, k2, k3), cx.dA, cx.X)
    report = eq.verify_complex(broken, sample_a)
    for name in ("square_equivariance", "symmetry_constraint"):
        assert report.condition(name).max_residual > 0.1, name
        assert not report.condition(name).passed, name
    # no x-chart: the report names the cause and reads the WDVV residual as
    # 1.0 instead of raising
    assert not report.condition("chain_of_vector_fields").passed
    assert report.condition("wdvv_commutation_from_square").max_residual == 1.0


def test_wrong_scaling_field_has_no_x_chart(example3, sample_a):
    # with X = 2a the chain K_j X misses d/dA_j: the pivots are fine, but the
    # WDVV residual of the square has no chart to live on
    _, _, cx = example3
    x2 = cc.VectorFieldSpec(eq.A_CHART, lambda a: 2.0 * a, cc.constant_map(2.0 * np.eye(3)))
    wrong = eq.LenardComplex(cx.params, cx.square, cx.operators, cx.dA, x2)
    report = eq.verify_complex(wrong, sample_a)
    assert report.condition("chain_of_vector_fields").max_residual > 0.1
    assert report.condition("wdvv_commutation_from_square").max_residual == 1.0
    assert report.condition("operator_commutators").passed
    with pytest.raises(ValueError, match="no x-chart"):
        eq.square_wdvv_residuals(wrong, sample_a)


def test_square_frozen_coefficients_at_reference_point(example3):
    _, _, cx = example3
    a = np.array([2.0, 1.0, 3.0])
    assert np.allclose(cx.square.dT.coeff_at(a), [0.0, 0.125, -0.125])  # -(1/4)/(a2-a3) = 1/8
    assert np.allclose(cx.square.dP.coeff_at(a), [1.0 / 16.0, -7.0 / 32.0, 9.0 / 32.0],
                       atol=1e-14)
    assert np.allclose(cx.square.dS.coeff_at(a), [2.0 / 7.0, -17.0 / 56.0, 9.0 / 56.0],
                       atol=1e-14)


def test_display_forms_match_construction(example3, sample_a):
    _, _, cx = example3
    displays = eq.example3_display_forms()
    built = cx.square.named_forms()
    for a in sample_a:
        for name, disp in displays.items():
            assert np.allclose(built[name].coeff_at(a), disp(a), atol=1e-12), name


def test_dP_display_numerator_variant_is_not_closed():
    """The dP display's first numerator must carry -2*a1*a3; the variant with
    -2*a2*a3 instead fails exactness, so it cannot be a square entry."""
    def variant(a):
        a1, a2, a3 = a
        x1 = 2 * a1 + a2 + a3
        return np.array([
            (6 * a1**2 - 2 * a1 * a2 - 2 * a2 * a3 - a2**2 - a3**2)
            / (4 * x1 * (a1 - a2) * (a1 - a3)),
            -(2 * a2 + a1 + a3) / (4 * x1 * (a1 - a2)),
            -(2 * a3 + a1 + a2) / (4 * x1 * (a1 - a3)),
        ])

    correct = eq.example3_display_forms()["dP"]
    a = np.array([2.0, 1.0, 3.0])
    j_variant = cc.fd_jacobian(variant, a)
    j_correct = cc.fd_jacobian(correct, a)
    assert np.max(np.abs(j_variant - j_variant.T)) > 0.01
    assert np.max(np.abs(j_correct - j_correct.T)) < 1e-8


# --- the assembled complex -------------------------------------------------------


def test_chain_fields_are_inverse_hessian_rows(example3, sample_a):
    _, _, cx = example3
    for a in sample_a:
        for j, k in enumerate(cx.operators):
            assert np.allclose(k.mat_at(a) @ a, eq.EXAMPLE3_CHAIN_FIELDS[j], atol=1e-12)


def test_partition_of_identity(example3, sample_a):
    _, _, cx = example3
    for a in sample_a:
        big_a = cx.dA.coeff_at(a)
        total = sum(big_a[i] * cx.operators[i].mat_at(a) for i in range(3))
        assert np.max(np.abs(total - np.eye(3))) < 1e-10


def test_operator_exchange_under_transpositions(example3, sample_a):
    _, _, cx = example3
    for sig, j, l in eq.TRANSPOSITIONS:
        moved = cc.transform_tensor(sig, cx.operators[j])
        for a in sample_a[:10]:
            assert np.allclose(moved.mat_at(a), cx.operators[l].mat_at(a), atol=1e-10)


def test_k2dR_matches_k3dQ(example3, sample_a):
    _, _, cx = example3
    for a in sample_a:
        lhs = cx.square.dR.coeff_at(a) @ cx.operators[1].mat_at(a)
        rhs = cx.square.dQ.coeff_at(a) @ cx.operators[2].mat_at(a)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


@pytest.mark.parametrize("alpha,beta,root", [(2.0, 1.0, 1), (2.0, 1.0, 2), (5.0, 2.0, 1),
                                             (5.0, 2.0, 2)])
def test_sampling_predicates_are_the_nine_hyperplanes(alpha, beta, root):
    # A_i = 0, A_i + A_j = 0 and A_i - A_j = 0, the last parallel to a_i = a_j
    sigma2 = eq.solve_phi_roots(alpha, beta)[root - 1]
    cx = eq.assemble_complex(eq.FamilyParams.solve(alpha, beta, sigma2))
    rows = cx.sampling_predicates()
    assert rows.shape == (9, 3)

    def direction(c):  # scaled to max-norm 1, first nonzero entry positive
        d = np.round(c / np.max(np.abs(c)), 12)
        return tuple(d * np.sign(d[np.flatnonzero(d)[0]]))

    assert {direction(c) for c in rows @ cx.quad.hessian_inverse()} == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
        (1, -1, 0), (1, 0, -1), (0, 1, -1)}


def test_verify_complex_reference_family(example3, example3_points):
    _, _, cx = example3
    report = eq.verify_complex(cx, example3_points)
    assert report.passed, [c.to_dict() for c in report.conditions if not c.passed]


def test_operator_commutator_at_reference_point(example3):
    _, _, cx = example3
    a = np.array([2.0, 1.0, 3.0])
    assert cc.commutator_residual(cx.operators[1], cx.operators[2], a) < 1e-10


def test_verification_is_order_independent(example3, example3_points):
    # max-reduction aggregation: shuffling the point set changes nothing
    _, _, cx = example3
    pts = list(example3_points[:15])
    forward = eq.verify_complex(cx, pts)
    backward = eq.verify_complex(cx, pts[::-1])
    for a, b in zip(forward.conditions, backward.conditions):
        assert a.to_dict() == b.to_dict()


def test_nan_residual_fails_in_either_point_order(example3, example3_points):
    # Python's max(0.0, nan) is 0.0 and max(1.0, nan) is 1.0: a NaN point must
    # fail every condition whether it comes first or last
    _, _, cx = example3
    good = example3_points[0]
    bad = good.copy()
    bad[1] = np.nan
    for pts in ([good, bad], [bad, good]):
        report = eq.verify_complex(cx, pts)
        assert all(math.isnan(c.max_residual) and not c.passed for c in report.conditions)


@pytest.mark.parametrize("alpha,beta,root", [(2.0, 1.0, 2), (5.0, 2.0, 1), (5.0, 2.0, 2)])
def test_verify_complex_other_roots(alpha, beta, root):
    roots = eq.solve_phi_roots(alpha, beta)
    sigma2 = roots.root1 if root == 1 else roots.root2
    cx = eq.assemble_complex(eq.FamilyParams.solve(alpha, beta, sigma2))
    pts = sample_gapped_box(default_rng(7 + root), 25, predicates=cx.sampling_predicates())
    report = eq.verify_complex(cx, pts)
    assert report.passed, [c.to_dict() for c in report.conditions if not c.passed]


def test_haantjes_torsion_of_an_admissible_complex_with_large_operators():
    # at |K| ~ 16, |dK| ~ 226 rounding alone leaves an absolute Haantjes
    # tensor of about 3e-9, above tol 1e-9; relative to |K|^3 |dK| it is 3e-15
    roots = eq.solve_phi_roots(1.5, 1.125)
    cx = eq.assemble_complex(eq.FamilyParams.solve(1.5, 1.125, roots.root2))
    pts = sample_gapped_box(default_rng(107), 3, predicates=cx.sampling_predicates())
    cond = eq.verify_complex(cx, pts).condition("haantjes_torsion")
    assert cond.passed, cond.max_residual


def test_perturbed_root_breaks_commutativity(example3_points):
    cx = eq.assemble_complex(eq.FamilyParams.solve(2.0, 1.0, -0.125 + 1e-2))
    report = eq.verify_complex(cx, example3_points[:20])
    assert report.condition("operator_commutators").max_residual > 1e-4
    assert report.condition("symmetry_constraint").max_residual > 1e-4
    assert report.condition("chain_of_forms").passed  # sum rules still hold
    assert report.condition("chain_of_vector_fields").passed


def symmetry_constraint(cx, points) -> float:
    return eq.verify_complex(cx, points).condition("symmetry_constraint").max_residual


def test_symmetry_constraint_residual_vanishes_at_root(example3, sample_a):
    _, _, cx = example3
    assert symmetry_constraint(cx, sample_a) < 1e-10


@pytest.mark.parametrize("sigma2", [0.0, -0.0625, -0.25, 0.1, -0.115])
def test_split_form_identity_off_root(sigma2, sample_a):
    params = eq.FamilyParams.solve(2.0, 1.0, sigma2)
    cx = eq.assemble_complex(params)
    for a in sample_a:
        assert eq.split_form_residual(cx, a) < 1e-9
    # off the roots the constraint defect has the predicted magnitude
    a = sample_a[0]
    big_a = params.quad.a_to_A(a)
    scale = abs(eq.phi(2.0, 1.0, sigma2) * eq.psi(big_a))
    assert symmetry_constraint(cx, [a]) > 0.1 * scale


def test_split_form_scalar_magnitude(example3_points):
    # the defect is exactly Phi*Psi*(dA3/A3 - dA2/A2): check the size relation
    params = eq.FamilyParams.solve(2.0, 1.0, 0.0)
    cx = eq.assemble_complex(params)
    a = example3_points[0]
    big_a = params.quad.a_to_A(a)
    comparison = abs(eq.phi(2.0, 1.0, 0.0) * eq.psi(big_a)) * np.max(np.abs(
        params.quad.hessian() @ np.array([0.0, -1.0 / big_a[1], 1.0 / big_a[2]])))
    assert symmetry_constraint(cx, [a]) == pytest.approx(comparison, rel=1e-9)


# --- WDVV from the square ---------------------------------------------------------


def test_wdvv_residual_of_complex_small(example3, sample_a):
    _, _, cx = example3
    assert max(eq.wdvv_residual_of_complex(cx, a) for a in sample_a) < 1e-9


def operator_stack(cx, a):
    return np.stack([k.mat_at(a) for k in cx.operators], axis=-3)


def chain_tensor(cx, a):
    return eq.third_tensor_from_chain(operator_stack(cx, a), cx.dA.coeff_at(a), cx.X.comp_at(a))


def test_third_tensor_routes_agree(example3, sample_a):
    _, _, cx = example3
    for a in sample_a[:10]:
        c_forms = eq.third_tensor_from_square(operator_stack(cx, a), cx.quad.hessian_inverse())
        c_chain = chain_tensor(cx, a)
        assert np.max(np.abs(c_forms - c_chain)) < 1e-10


def test_third_tensor_totally_symmetric(example3, sample_a):
    _, _, cx = example3
    for a in sample_a[:10]:
        c = chain_tensor(cx, a)
        assert eq._symmetry_defect(c) < 1e-10


def test_complex_residual_matches_reference_potential(example3, sample_a):
    params, reference, cx = example3
    h = params.quad.hessian()
    for a in sample_a[:10]:
        assert abs(eq.wdvv_residual_of_complex(cx, a)
                   - wdvv_residual(reference, h @ a)) < 1e-8


def b3_vee_system(params):
    """The ∨-system of the family in x = A coordinates: rows e_i - e_j,
    e_i + e_j and e_i with h = (-sigma2/2, sigma1/2, sigma0/4); rows whose h
    is zero to rounding are dropped, so their planes are no predicates."""
    d = cc.difference_rows(3)
    rows = np.concatenate([d, np.abs(d), np.eye(3)])
    h = np.repeat([-params.sigma2 / 2, params.sigma1 / 2, params.sigma0 / 4], 3)
    keep = np.abs(h) > 1e-12 * np.max(np.abs(h))
    return wdvv.vee_prepotential(rows[keep], h[keep])


def square_against_b3(alpha, beta, sigma2):
    """The worst relative gap between the square's third tensor and the B3
    ∨-system's, over 20 points, with that system and the points x = H a."""
    params = eq.FamilyParams.solve(alpha, beta, sigma2)
    cx = eq.assemble_complex(params)
    a = sample_gapped_box(default_rng(17), 20, predicates=cx.sampling_predicates())
    c = eq.third_tensor_from_square(operator_stack(cx, a), cx.quad.hessian_inverse())
    vee, x = b3_vee_system(params), a @ cx.quad.hessian()
    gap = np.max(np.abs(c - vee.third_at(x)), axis=(-3, -2, -1))
    return float(np.max(gap / np.max(np.abs(c), axis=(-3, -2, -1)))), vee, x


B3_CELLS = [(2.0, 1.0), (5.0, 2.0), (-3.0, 1.0), (4.0, -1.0), (1.5, 1.125)]


@pytest.mark.parametrize("root", [1, 2])
@pytest.mark.parametrize("alpha,beta", B3_CELLS)
def test_square_is_the_b3_vee_system_and_satisfies_wdvv(alpha, beta, root):
    roots = eq.solve_phi_roots(alpha, beta)
    rel, vee, x = square_against_b3(alpha, beta, roots.root1 if root == 1 else roots.root2)
    assert rel <= 1e-12
    euler = wdvv.generalized_wdvv_residual(vee, wdvv.QUARTER_X, x)
    assert euler <= 1e-12
    if (alpha, beta, root) == (-3.0, 1.0, 2):
        # sigma2 = sigma0 = 0 leaves the rows e_i + e_j alone, and e_2 + e_3
        # adds nothing to the pivot c[0]: only the Euler pivot is invertible
        with pytest.raises(wdvv.SingularSliceError):
            wdvv.wdvv_residual(vee, x)
    else:
        assert wdvv.wdvv_residual(vee, x) <= 1e-12


@pytest.mark.parametrize("alpha,beta,sigma2", [(2.0, 1.0, 0.0), (2.0, 1.0, 0.3),
                                               (5.0, 2.0, 0.0)])
def test_off_root_square_is_a_b3_vee_system_that_fails_wdvv(alpha, beta, sigma2):
    rel, vee, x = square_against_b3(alpha, beta, sigma2)
    assert rel <= 1e-12
    assert wdvv.wdvv_residual(vee, x) > 1e-4
    assert wdvv.generalized_wdvv_residual(vee, wdvv.QUARTER_X, x) > 1e-4


def test_square_in_x_equals_reference_third_slice(example3, sample_a):
    params, reference, cx = example3
    h = params.quad.hessian()
    dQ_x = eq.square_form_in_x(cx, 0, 1)
    for a in sample_a[:10]:
        x = h @ a
        assert np.allclose(dQ_x.coeff_at(x), reference.third_at(x)[0, 1], atol=1e-10)


# --- reconstruction ----------------------------------------------------------------


def _segments(example3, count=5, seed=333):
    params, _, cx = example3
    h = params.quad.hessian()
    preds = [p for j in range(3) for l in range(j, 3)
             for p in eq.square_form_in_x(cx, j, l).predicates]
    return sample_segments(default_rng(seed), count, predicates=preds,
                           to_ambient=lambda a: a @ h)


def test_segment_sampler_propagates_predicate_errors():
    # a zero row is singular everywhere, so every draw is rejected
    with pytest.raises(SamplingExhaustedError):
        sample_segments(default_rng(3), 1, predicates=[[0.0, 0.0, 0.0]], max_tries=50)


def test_reconstruction_matches_reference_hessian(example3):
    params, reference, cx = example3
    for x0, x1 in zip(*_segments(example3)):
        dh = reference.hessian_at(x1) - reference.hessian_at(x0)
        for j in range(3):
            for l in range(j, 3):
                val = eq.reconstruct_potential_entry(cx, j, l, x0, x1)
                assert val == pytest.approx(dh[j, l], abs=1e-8)


def test_reconstruction_batch_equals_each_segment_alone(example3):
    _, _, cx = example3
    x0, x1 = _segments(example3, count=40, seed=7)
    for j in range(3):
        for l in range(j, 3):
            batch = eq.reconstruct_potential_entry(cx, j, l, x0, x1)
            alone = [eq.reconstruct_potential_entry(cx, j, l, a, b) for a, b in zip(x0, x1)]
            np.testing.assert_array_equal(batch, alone)
            np.testing.assert_array_equal(
                eq.reconstruct_potential_entry(cx, j, l, x0[::-1], x1[::-1]), batch[::-1])


def test_reconstruction_loop_and_path_independence(example3):
    _, _, cx = example3
    (x0, x2), (x1, _) = _segments(example3, count=2, seed=41)
    loop = (eq.reconstruct_potential_entry(cx, 0, 1, x0, x1)
            + eq.reconstruct_potential_entry(cx, 0, 1, x1, x0))
    assert abs(loop) < 1e-9
    direct = eq.reconstruct_potential_entry(cx, 1, 2, x0, x1)
    detour = (eq.reconstruct_potential_entry(cx, 1, 2, x0, x2)
              + eq.reconstruct_potential_entry(cx, 1, 2, x2, x1))
    assert direct == pytest.approx(detour, abs=1e-8)


def test_reconstruction_rejects_singular_path(example3):
    _, _, cx = example3
    x0 = np.array([8.0, 7.0, 9.0])     # ordering x1 > x2 is flipped at the far end
    x1 = np.array([7.0, 8.0, 9.5])
    with pytest.raises(cc.SingularSegmentError):
        eq.reconstruct_potential_entry(cx, 0, 1, x0, x1)


# --- fixture ------------------------------------------------------------------------


def test_fixture_sigma2_is_first_root(example3):
    params, _, _ = example3
    assert params.sigma2 == pytest.approx(eq.solve_phi_roots(2.0, 1.0).root1)
    assert params.sigma1 == pytest.approx(0.0, abs=1e-15)
    assert params.sigma0 == pytest.approx(0.25)


def test_fixture_reference_scale(example3):
    _, reference, _ = example3
    # d^2F/dx1 dx2 = -(1/16)(2 log(x1-x2)^2 + 6)
    x = np.array([3.0, 1.0, 6.0])
    expected = -(2.0 * np.log(4.0) + 6.0) / 16.0
    assert reference.hessian_at(x)[0, 1] == pytest.approx(expected, abs=1e-12)

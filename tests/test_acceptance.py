"""Acceptance suite: every exit criterion at its pinned tolerance.

One test per criterion; each prints one machine-readable pass/fail line per
check (visible with ``pytest -s``).  Tolerances are fixed here and are not
read from configuration.  All sampling is seeded, so reruns are identical.
"""

import itertools
import math

import numpy as np
import pytest

from lenardlab import chartcore as cc
from lenardlab import equivariant as eq
from lenardlab import gelfand_dikii as gd
from lenardlab import wdvv
from lenardlab.sampling import default_rng, sample_gapped_box, sample_segments
from square_oracle import euler_residual_at, g_matrix_at, square_forms, wdvv_residual_at

SEED = 424242


def _line(tag: str, value: float, tol: float, ok: bool | None = None) -> bool:
    ok = (value < tol) if ok is None else ok
    print(f"[acceptance] {tag}: residual={value:.3e} tol={tol:.1e} -> "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


def _veselov_points(pre: wdvv.Prepotential, count: int, seed: int) -> np.ndarray:
    return sample_gapped_box(default_rng(seed), count, dim=pre.chart.dim,
                             predicates=pre.predicates)


def test_criterion_1_veselov_wdvv_family():
    """wdvv residual of the n=3 logarithmic family < 1e-8 at 100 seeded
    points for m in {1, 2, 3, 7}, reported per m."""
    ok = True
    for k, m in enumerate((1.0, 2.0, 3.0, 7.0)):
        pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(3, m))
        pts = _veselov_points(pre, 100, SEED + k)
        worst = max(wdvv_residual_at(pre, x) for x in pts)
        ok &= _line(f"criterion 1 (wdvv, m={m:g})", worst, 1e-8)
    assert ok


def test_criterion_2_generalized_wdvv_residual():
    """generalized residual with lambda = x/4, n=3, m=2 < 1e-8 at 100 points."""
    pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(3, 2.0))
    pts = _veselov_points(pre, 100, SEED + 10)
    worst = max(euler_residual_at(pre, wdvv.QUARTER_X, x) for x in pts)
    drift = max(float(np.max(np.abs(
        g_matrix_at(pre, wdvv.QUARTER_X, x)
        - g_matrix_at(pre, wdvv.QUARTER_X, pts[0])))) for x in pts)
    ok = _line("criterion 2 (generalized wdvv residual)", worst, 1e-8)
    ok &= _line("criterion 2 (euler contraction point-independent)", drift, 1e-10)
    assert ok


def test_criterion_2_euler_contraction_printed_constant():
    """The printed constant [[3/4,-1/4,-1/4],[-1/4,3/4,-1/4],[-1/4,-1/4,3/4]]
    is the Euler contraction g = sum_k lambda_k c_k of the sixteenth-scaled
    m=1 potential with lambda = x; the (m=2, lambda=x/4) contraction is the
    closed form below.  Both hold to 1e-10 at 100 seeded points.

    For f(t) = t^2 log t^2, f'''(t) = 4/t.  Each block f(alpha.x) of F
    contributes f'''(alpha.x) (alpha.lambda) alpha alpha^T to g, so for
    lambda = c x and F scaled by s

        g = 4 c s [ sum_{i<j} (e_i-e_j)(e_i-e_j)^T + (1/m) I ],

    independent of x, with diagonal/off-diagonal ratio -(2 + 1/m) at n = 3.
    The printed constant has ratio -3, so it needs 1/m = 1; with s = 1/16 and
    c = 1 it is the reference potential of the (alpha, beta) = (2, 1) complex
    (cli ``example3-reference``), and equals that complex's inverse
    quadratic-invariant Hessian.  The m = 2 of the equivariant one-form family
    counts its one-form terms, not Veselov's 1/m.  For the m=2 Veselov
    potential with lambda = x/4 the closed form gives [[5/2,-1,-1],...]
    instead, which is checked here against the formula built from n and m.
    """
    n, m = 3, 2.0
    # the regularity predicates do not depend on m: one point set serves both
    pre2 = wdvv.veselov_prepotential(wdvv.VeselovPotential(n, m))
    pts = _veselov_points(pre2, 100, SEED + 10)
    printed = np.array([[0.75, -0.25, -0.25], [-0.25, 0.75, -0.25], [-0.25, -0.25, 0.75]])

    # printed constant: sixteenth-scaled m=1 potential, lambda = x
    ref = wdvv.veselov_prepotential(wdvv.VeselovPotential(n, 1.0), scale=1.0 / 16.0)
    worst_printed = max(float(np.max(np.abs(g_matrix_at(ref, lambda u: u, x) - printed)))
                        for x in pts)
    hess = float(np.max(np.abs(eq.QuadraticInvariant(2.0, 1.0).hessian_inverse() - printed)))
    ok_printed = _line("criterion 2 (euler contraction printed constant, "
                       "m=1 scaled 1/16, lambda=x)",
                       max(worst_printed, hess), 1e-10)

    # m=2, lambda = x/4: closed form 4 c s [sum (e_i-e_j)(e_i-e_j)^T + (1/m) I]
    c, s = 0.25, 1.0
    eye = np.eye(n)
    gram = sum(np.outer(eye[i] - eye[j], eye[i] - eye[j])
               for i in range(n) for j in range(i + 1, n))
    closed = 4.0 * c * s * (gram + eye / m)
    worst_closed = max(float(np.max(np.abs(g_matrix_at(pre2, wdvv.QUARTER_X, x) - closed)))
                       for x in pts)
    ok_closed = _line("criterion 2 (euler contraction closed form, m=2, lambda=x/4)",
                      worst_closed, 1e-10)

    assert ok_printed and ok_closed, (
        "printed [[3/4,-1/4,-1/4],...] vs g of (m=1, scale 1/16, lambda=x): "
        f"max deviation {worst_printed:.3e}; vs (2,1) inverse Hessian {hess:.3e}; "
        "closed form 4cs[sum (e_i-e_j)(e_i-e_j)^T + I/m] vs g of (m=2, lambda=x/4): "
        f"max deviation {worst_closed:.3e}"
    )


@pytest.fixture(scope="module")
def reference_complex():
    params, reference = eq.example3_fixture()
    cx = eq.assemble_complex(params)
    pts = sample_gapped_box(default_rng(SEED + 20), 50,
                            predicates=cx.sampling_predicates())
    return params, reference, cx, pts


def test_criterion_3_reference_family_end_to_end(reference_complex):
    """(alpha,beta)=(2,1) at sigma2=-1/8: closed-form displays reproduced to
    1e-10 at 20 points, constant chain fields exact, and all complex
    conditions pass at 1e-9 over 50 points."""
    params, _, cx, pts = reference_complex
    displays = eq.example3_display_forms()
    built = square_forms(cx)
    disp_worst = max(
        float(np.max(np.abs(built[name].coeff_at(a) - fn(a))))
        for a in pts[:20] for name, fn in displays.items())
    ok = _line("criterion 3 (display coefficients, 20 pts)", disp_worst, 1e-10)

    chain_worst = max(
        float(np.max(np.abs(k.coeff_at(a) @ a - eq.EXAMPLE3_CHAIN_FIELDS[j])))
        for a in pts for j, k in enumerate(cx.operators))
    ok &= _line("criterion 3 (constant chain fields)", chain_worst, 1e-12)

    report = eq.verify_complex(cx, pts, tol_analytic=1e-9)
    for name in ("chain_of_forms", "chain_of_vector_fields", "square_closure",
                 "operator_commutators"):
        cond = report.condition(name)
        ok &= _line(f"criterion 3 ({name}, 50 pts)", cond.max_residual, 1e-9)
    ok &= report.passed
    assert ok, [c.to_dict() for c in report.conditions if not c.passed]


def test_criterion_4_potential_reconstruction(reference_complex):
    """Line integrals of all six square forms match second-derivative
    differences of the sixteenth-scaled reference potential to 1e-6 over 10
    seeded segments."""
    params, reference, cx, _ = reference_complex
    h = params.quad.hessian()
    preds = [p for j in range(3) for l in range(j, 3)
             for p in eq.square_form_in_x(cx, j, l).predicates]
    segs = sample_segments(default_rng(SEED + 30), 10, predicates=preds,
                           to_ambient=lambda a: a @ h)
    worst = 0.0
    for x0, x1 in zip(*segs):
        dh = reference.hessian_at(x1) - reference.hessian_at(x0)
        for j in range(3):
            for l in range(j, 3):
                val = eq.reconstruct_potential_entry(cx, j, l, x0, x1)
                worst = max(worst, abs(val - dh[j, l]))
    assert _line("criterion 4 (potential reconstruction, 10 segments)", worst, 1e-6)


@pytest.mark.parametrize("alpha,beta,root", [
    (2.0, 1.0, 2),
    (5.0, 2.0, 1),
    (5.0, 2.0, 2),
])
def test_criterion_5_other_roots_and_parameters(alpha, beta, root):
    """Second root at (2,1) and both roots at (5,2): every analytic condition
    of the verification suite holds at 1e-9, the FD agreement at its own 1e-6,
    and the square's wdvv residual stays below 1e-8."""
    roots = eq.solve_phi_roots(alpha, beta)
    sigma2 = roots.root1 if root == 1 else roots.root2
    cx = eq.assemble_complex(eq.FamilyParams.solve(alpha, beta, sigma2))
    pts = sample_gapped_box(default_rng(SEED + 40 + root), 50,
                            predicates=cx.sampling_predicates())
    report = eq.verify_complex(cx, pts, tol_analytic=1e-9)
    worst = max(c.max_residual for c in report.conditions if c.name != "jacobian_fd_agreement")
    ok = _line(f"criterion 5 (verify ({alpha:g},{beta:g}) root{root})", worst, 1e-9)
    wd = max(eq.wdvv_residual_of_complex(cx, a) for a in pts)
    ok &= _line(f"criterion 5 (wdvv ({alpha:g},{beta:g}) root{root})", wd, 1e-8)
    assert ok and report.passed


OFF_ROOT_SIGMA2 = (0.0, -0.0625, -0.25, 0.1, -0.125 + 1e-2)


def test_criterion_6_split_form_and_negative_control():
    """Off the roots, the symmetry defect factors exactly through
    Phi * Psi * (dA3/A3 - dA2/A2) (1e-9 at 20 points per sigma2), while the
    operator commutativity condition fails by more than 1e-4."""
    ok = True
    for sigma2 in OFF_ROOT_SIGMA2:
        params = eq.FamilyParams.solve(2.0, 1.0, sigma2)
        cx = eq.assemble_complex(params)
        pts = sample_gapped_box(default_rng(SEED + 50), 20,
                                predicates=cx.sampling_predicates())
        split = max(eq.split_form_residual(cx, a) for a in pts)
        ok &= _line(f"criterion 6 (split form, sigma2={sigma2:g})", split, 1e-9)
        comm = eq.verify_complex(cx, pts).condition("operator_commutators").max_residual
        ok &= _line(f"criterion 6 (commutator control, sigma2={sigma2:g})",
                    comm, 1e-4, ok=comm > 1e-4)
    assert ok


def test_criterion_7_gelfand_dikii():
    """Torsion identity < 1e-8 for four probe functions at 50 points in
    [-2,2]^3; the full complex passes at 1e-8; the operator has vanishing
    Haantjes torsion while its Nijenhuis contraction is macroscopic."""
    rng = default_rng(SEED + 60)
    pts = rng.uniform(-2.0, 2.0, (50, 3))
    chart = gd.W_CHART
    # the differentials of w0, w1, w2 and w0 w1
    probes = [
        cc.constant_field(chart, [1.0, 0, 0]),
        cc.constant_field(chart, [0.0, 1, 0]),
        cc.constant_field(chart, [0.0, 0, 1]),
        cc.Field(chart, lambda w: np.array([w[1], w[0], 0.0]),
                        cc.constant_map([[0.0, 1, 0], [1, 0, 0], [0, 0, 0]])),
    ]
    worst = max(gd.gd_torsion_identity_residual(probes, w) for w in pts)
    ok = _line("criterion 7 (torsion identity, 4 probes x 50 pts)", worst, 1e-8)

    report = gd.verify_gd_complex(pts, tol_analytic=1e-8)
    ok &= _line("criterion 7 (complex verification)",
                max(c.max_residual for c in report.conditions), 1e-8)

    k = gd.gd_operator()
    haantjes = max(cc.haantjes_residual(k, w) for w in pts)
    ok &= _line("criterion 7 (haantjes residual)", haantjes, 1e-8)
    w0 = np.array([1.0, 2.0, 3.0])
    torsion_norm = float(np.max(np.abs(cc.nijenhuis_contracted(k, probes[1], w0))))
    ok &= _line("criterion 7 (nonzero torsion norm > 0.1)", torsion_norm, 0.1,
                ok=torsion_norm > 0.1)
    assert ok and report.passed


def test_criterion_8_cross_validation(reference_complex):
    """Every analytic Jacobian agrees with the finite-difference cross-check
    to 1e-6 at the sampled points, and the structural identities (partition
    of identity, total symmetry of the third tensor) hold to 1e-10."""
    params, reference, cx, pts = reference_complex
    report = eq.verify_complex(cx, pts)
    fd_eq = report.condition("jacobian_fd_agreement").max_residual
    ok = _line("criterion 8 (fd agreement, complex)", fd_eq, 1e-6)

    rng = default_rng(SEED + 70)
    wpts = rng.uniform(-2.0, 2.0, (50, 3))
    fd_gd = gd.verify_gd_complex(wpts).condition(
        "jacobian_fd_agreement").max_residual
    ok &= _line("criterion 8 (fd agreement, hydrodynamic operator)", fd_gd, 1e-6)

    pre = wdvv.veselov_prepotential(wdvv.VeselovPotential(3, 2.0))
    xpts = _veselov_points(pre, 100, SEED + 71)

    def direct_value(x):
        # the m = 2 potential summed term by term, independent of wdvv
        return (sum((x[i] - x[j]) ** 2 * math.log((x[i] - x[j]) ** 2)
                    for i, j in itertools.combinations(range(3), 2))
                + 0.5 * sum(x[i] ** 2 * math.log(x[i] ** 2) for i in range(3)))

    fd_pot = max(
        max(float(np.max(np.abs(cc.fd_hessian(direct_value, x) - pre.hessian_at(x)))),
            float(np.max(np.abs(cc.fd_jacobian(pre.hessian, x) - pre.third_at(x)))))
        for x in xpts)
    ok &= _line("criterion 8 (fd agreement, potential chain)", fd_pot, 1e-6)

    partition = report.condition("partition_of_identity").max_residual
    ok &= _line("criterion 8 (partition of identity)", partition, 1e-10)
    ops = np.stack([k.coeff_at(pts) for k in cx.operators], axis=-3)
    symmetry = float(np.max(eq._symmetry_defect(
        eq.third_tensor_from_chain(ops, cx.dA.coeff_at(pts), cx.X.coeff_at(pts)))))
    ok &= _line("criterion 8 (third tensor symmetry)", symmetry, 1e-10)
    assert ok

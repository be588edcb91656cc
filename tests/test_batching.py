"""Fields over a point axis: a batch of N points gives the stacked values of
N single-point evaluations, and the verifiers cost the same number of
passes whatever N is."""

import argparse
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lenardlab import chartcore as cc
from lenardlab import cli
from lenardlab import equivariant as eq
from lenardlab import gelfand_dikii as gd
from lenardlab import wdvv
from lenardlab.sampling import default_rng, sample_gapped_box

# N = 3 = dim is where a matrix product silently stands in for a batch of
# matrix-vector products
BATCH_SIZES = st.sampled_from((1, 3, 7))
SEEDS = st.integers(0, 2**16)


def assert_batch_is_stack(fn, points):
    """fn(points) equals the stacked fn(u) at rtol 1e-13; entries that cancel
    far below the array's scale are compared at 1e-13 of that scale."""
    stacked = np.stack([np.asarray(fn(u), dtype=float) for u in points])
    batch = np.broadcast_to(np.asarray(fn(points), dtype=float), stacked.shape)
    np.testing.assert_allclose(batch, stacked, rtol=1e-13,
                               atol=1e-13 * float(np.max(np.abs(stacked))))


def assert_fields_batch(forms, operators, vector_fields, points):
    for f in forms:
        assert_batch_is_stack(f.coeff, points)
        assert_batch_is_stack(f.jac, points)
    for k in operators:
        assert_batch_is_stack(k.mat, points)
        assert_batch_is_stack(k.jac, points)
    for x in vector_fields:
        assert_batch_is_stack(x.comp, points)
        assert_batch_is_stack(x.jac, points)


def assert_report_is_max_of_points(verify, points):
    batch = verify(points).conditions
    single = [verify(u[None]).conditions for u in points]
    for k, cond in enumerate(batch):
        worst = max(run[k].max_residual for run in single)
        assert [run[k].name for run in single] == [cond.name] * len(points)
        assert abs(cond.max_residual - worst) <= 0.05 * cond.tol, cond.name


@st.composite
def lenard_complexes(draw):
    alpha = draw(st.floats(1.0, 6.0))
    beta = draw(st.floats(0.2, 3.0))
    assume(abs(alpha - beta) > 0.3)
    roots = eq.solve_phi_roots(alpha, beta)
    sigma2 = roots.root1 if draw(st.booleans()) else roots.root2
    return eq.assemble_complex(eq.FamilyParams.solve(alpha, beta, sigma2))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cx=lenard_complexes(), seed=SEEDS, n=BATCH_SIZES)
def test_equivariant_fields_and_verifier_batch(cx, seed, n):
    pts = sample_gapped_box(default_rng(seed), n, predicates=cx.sampling_predicates())
    theta = eq.k3_dq_form(cx)
    forms = [*cx.square.named_forms().values(), theta, cc.pullback(eq.SIGMA_23, theta)]
    operators = [*cx.operators, *(cc.transform_tensor(sig, cx.operators[j])
                                  for sig, j, _ in eq.TRANSPOSITIONS)]
    assert_fields_batch(forms, operators, [cx.X], pts)
    assert_report_is_max_of_points(lambda u: eq.verify_complex(cx, u), pts)


@settings(max_examples=12, deadline=None)
@given(seed=SEEDS, n=BATCH_SIZES)
def test_gelfand_dikii_fields_and_verifier_batch(seed, n):
    pts = default_rng(seed).uniform(-2.0, 2.0, (n, 3))
    cx = gd.gd_complex()
    forms = [cx.dA, *(gd.chain_form(cx, j) for j in range(3)),
             *(gd.square_form(cx, j, l) for j in range(3) for l in range(j, 3))]
    assert_fields_batch(forms, cx.operators, [cx.X], pts)
    assert_batch_is_stack(cx.scalar.value, pts)
    assert_batch_is_stack(cx.scalar.grad, pts)
    assert_report_is_max_of_points(lambda u: gd.verify_gd_complex(u), pts)


# --- one pass per batch ----------------------------------------------------------


def count_calls(monkeypatch, run, *targets) -> int:
    """Calls made by ``run()`` to the functions named by the (module,
    attribute) ``targets``."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    run()
    monkeypatch.undo()
    return len(calls)


def count_regularity_checks(monkeypatch, run) -> int:
    return count_calls(monkeypatch, run, (cc, "check_regular"), (wdvv, "check_regular"))


@pytest.mark.parametrize("verify", ["equivariant", "gelfand_dikii"])
def test_verifiers_check_regularity_once_per_batch_not_per_point(monkeypatch, example3, verify):
    _, _, cx = example3
    if verify == "equivariant":
        def run(n):
            pts = sample_gapped_box(default_rng(9), n, predicates=cx.sampling_predicates())
            return lambda: eq.verify_complex(cx, pts)
    else:
        def run(n):
            pts = default_rng(9).uniform(-2.0, 2.0, (n, 3))
            return lambda: gd.verify_gd_complex(pts)

    few = count_regularity_checks(monkeypatch, run(3))
    assert few > 0
    assert count_regularity_checks(monkeypatch, run(30)) == few


def test_assembly_evaluates_no_field_and_verification_fd_checks_one_form(monkeypatch,
                                                                        example3):
    # the square is checked once, in the report; its forms are the operators'
    # rows, so the FD check covers dA, the operators and X
    params, _, cx = example3
    assert count_calls(monkeypatch, lambda: eq.assemble_complex(params),
                       (cc.OneFormField, "coeff_at")) == 0
    for n in (1, 3, 30):
        pts = sample_gapped_box(default_rng(9), n, predicates=cx.sampling_predicates())
        assert count_calls(monkeypatch, lambda: eq.verify_complex(cx, pts),
                           (eq, "fd_check_one_form")) == 1


CFG = argparse.Namespace(tol_analytic=1e-9, tol_fd=1e-6)


def test_wdvv_pipelines_cost_the_same_calls_for_50_and_200_points(monkeypatch, example3,
                                                                  tmp_path):
    _, _, cx = example3
    entry_points = ((cli, "wdvv_residual"), (cli, "generalized_wdvv_residual"),
                    (cli, "g_matrix"), (eq, "square_wdvv_residuals"),
                    (eq, "commutation_residuals"))

    def verify_wdvv(n):
        return lambda: cli.main(["verify-wdvv", "--points", str(n), "--euler", "quarter-x",
                                 "--format", "json", "--out", str(tmp_path / "r.json")])

    def complex_report(n):
        pts = sample_gapped_box(default_rng(9), n, predicates=cx.sampling_predicates())
        return lambda: cli._complex_report(cx, pts, CFG)

    for run in (verify_wdvv, complex_report):
        checks = count_regularity_checks(monkeypatch, run(50))
        calls = count_calls(monkeypatch, run(50), *entry_points)
        assert checks > 0 and calls > 0
        assert count_regularity_checks(monkeypatch, run(200)) == checks
        assert count_calls(monkeypatch, run(200), *entry_points) == calls


def test_complex_report_masks_a_refused_pivot_as_one(monkeypatch, example3):
    _, _, cx = example3
    pts = sample_gapped_box(default_rng(21), 6, predicates=cx.sampling_predicates())
    name = "wdvv_commutation_from_square"
    assert cli._complex_report(cx, pts, CFG).condition(name).max_residual < 1e-8

    square = eq.third_tensor_from_square

    def singular_at_point_2(cx_, p):
        c = square(cx_, p).copy()
        c[2] = 0.0
        return c

    monkeypatch.setattr(eq, "third_tensor_from_square", singular_at_point_2)
    cond = cli._complex_report(cx, pts, CFG).condition(name)
    assert cond.max_residual == 1.0 and not cond.passed
    with pytest.raises(wdvv.SingularSliceError, match=re.escape(str(pts[2]))):
        eq.wdvv_residual_of_complex(cx, pts)


# --- regularity over a batch ----------------------------------------------------


def test_check_regular_names_the_first_offending_point():
    rows = np.array([[1.0, -1.0, 0.0]])  # u0 - u1
    pts = np.array([[2.0, 1.0, 0.0], [1.5, 1.5, 0.0], [3.0, 3.0, 1.0]])
    cc.check_regular(rows, pts[:1])
    with pytest.raises(cc.SingularPointError, match=r"\[1\.5 1\.5 0\. ?\]"):
        cc.check_regular(rows, pts)

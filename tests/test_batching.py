"""Fields over a point axis: a batch of N points gives the stacked values of
N single-point evaluations, and the verifiers cost the same number of
passes whatever N is."""

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
    theta = cc.covector_image(cx.operators[2], cx.square.dQ)
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
    assert_batch_is_stack(gd.gd_scalar().value, pts)
    assert_batch_is_stack(gd.gd_scalar().grad, pts)
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
    return count_calls(monkeypatch, run, (cc, "check_regular"))


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
        return lambda: eq.verify_complex(cx, pts)

    for run in (verify_wdvv, complex_report):
        checks = count_regularity_checks(monkeypatch, run(50))
        calls = count_calls(monkeypatch, run(50), *entry_points)
        assert checks > 0 and calls > 0
        assert count_regularity_checks(monkeypatch, run(200)) == checks
        assert count_calls(monkeypatch, run(200), *entry_points) == calls


def test_build_complex_evaluates_the_operators_on_four_batches_for_any_n(monkeypatch,
                                                                        tmp_path):
    # M_j at a and at sigma(a) for the three transpositions, J_j at a: 9 log
    # forms (the operators' rows) times 4 coefficient batches, and their 9
    # Jacobians, which the closure check reads too; the FD check is excluded
    build = eq._log_form
    evals = {"coeff": 0, "jac": 0}

    def counted_log_form(quad, terms):
        form = build(quad, terms)

        def counted(name):
            def fn(a):
                evals[name] += 1
                return getattr(form, name)(a)
            return fn

        return cc.OneFormField(form.chart, counted("coeff"), counted("jac"), form.predicates)

    batches = {"mat_at": [], "jac_at": []}
    for method in batches:
        def record(self, p, method=method, original=getattr(cc.TensorField11, method)):
            batches[method].append(self)
            return original(self, p)
        monkeypatch.setattr(cc.TensorField11, method, record)
    monkeypatch.setattr(eq, "_log_form", counted_log_form)
    for fd in ("fd_check_one_form", "fd_check_tensor", "fd_check_vector_field"):
        monkeypatch.setattr(eq, fd, lambda *_: 0.0)

    seen = []
    for n in (3, 300):
        evals.update(coeff=0, jac=0)
        for calls in batches.values():
            calls.clear()
        assert cli.main(["build-complex", "--alpha", "2", "--beta", "1", "--root", "1",
                         "--points", str(n), "--out", str(tmp_path / "r.txt")]) == 0
        ops = set(batches["mat_at"])
        assert len(ops) == 3
        assert all(batches["mat_at"].count(k) == 4 for k in ops)
        assert sorted(map(id, batches["jac_at"])) == sorted(map(id, ops))
        seen.append(dict(evals))
    assert seen[0] == seen[1]
    assert seen[0] == {"coeff": 36, "jac": 9}


def test_complex_report_masks_a_refused_pivot_as_one(monkeypatch, example3):
    _, _, cx = example3
    pts = sample_gapped_box(default_rng(21), 6, predicates=cx.sampling_predicates())
    name = "wdvv_commutation_from_square"
    assert eq.verify_complex(cx, pts).condition(name).max_residual < 1e-8

    square = eq.third_tensor_from_square

    def singular_at_point_2(ops, hinv):
        c = square(ops, hinv).copy()
        c[2] = 0.0
        return c

    monkeypatch.setattr(eq, "third_tensor_from_square", singular_at_point_2)
    cond = eq.verify_complex(cx, pts).condition(name)
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


# --- line integrals over a segment axis ------------------------------------------


@pytest.mark.parametrize("segments,calls", [(1, 6), (40, 6), (300, 12)])
def test_example3_integrates_each_square_entry_once_per_block_of_segments(
        monkeypatch, tmp_path, segments, calls):
    def run():
        cli.main(["reproduce", "example3", "--points", "5", "--segments", str(segments),
                  "--format", "json", "--out", str(tmp_path / "r.json")])

    assert count_calls(monkeypatch, run, (eq, "integrate_one_form")) == calls

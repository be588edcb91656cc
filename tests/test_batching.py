"""Fields over a point axis: a batch of N points gives the stacked values of
N single-point evaluations, and the verifiers cost the same number of
passes whatever N is."""

import dataclasses
import re
from collections import Counter

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
from square_oracle import chain_form, pullback, square_form, square_forms, transform_tensor

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
        assert_batch_is_stack(k.coeff, points)
        assert_batch_is_stack(k.jac, points)
    for x in vector_fields:
        assert_batch_is_stack(x.coeff, points)
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
    forms = square_forms(cx)
    theta = cc.covector_image(cx.operators[2], forms["dQ"])
    forms = [*forms.values(), theta, pullback(eq.SIGMA_23, theta)]
    operators = [*cx.operators, *(transform_tensor(sig, cx.operators[j])
                                  for sig, j, _ in eq.TRANSPOSITIONS)]
    assert_fields_batch(forms, operators, [cx.X], pts)
    assert_report_is_max_of_points(lambda u: eq.verify_complex(cx, u), pts)


@settings(max_examples=12, deadline=None)
@given(seed=SEEDS, n=BATCH_SIZES)
def test_gelfand_dikii_fields_and_verifier_batch(seed, n):
    pts = default_rng(seed).uniform(-2.0, 2.0, (n, 3))
    cx = gd.gd_complex()
    forms = [cx.dA, *(chain_form(cx, j) for j in range(3)),
             *(square_form(cx, j, l) for j in range(3) for l in range(j, 3))]
    assert_fields_batch(forms, cx.operators, [cx.X], pts)
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


def test_assembly_evaluates_no_field_and_verification_makes_one_fd_check(monkeypatch,
                                                                        example3):
    # the square is checked once, in the report; its forms are the operators'
    # rows, so one FD check covers dA, the operators and X
    params, _, cx = example3
    assert count_calls(monkeypatch, lambda: eq.assemble_complex(params),
                       (cc.Field, "coeff_at")) == 0
    for n in (1, 3, 30):
        pts = sample_gapped_box(default_rng(9), n, predicates=cx.sampling_predicates())
        assert count_calls(monkeypatch, lambda: eq.verify_complex(cx, pts),
                           (eq, "fd_check_tensor")) == 1
        assert count_calls(monkeypatch, lambda: eq.verify_complex(cx, pts),
                           (cc, "fd_jacobian")) == 1


@pytest.mark.parametrize("n", [1, 30, 500])
def test_gd_verification_makes_one_fd_call_and_few_operator_evaluations(monkeypatch, n):
    # the FD value map evaluates the three operators once per shifted batch
    # and derives the six square forms from them: K's matrix is read by K2
    # and K3 at each of the 3 complex-step shifts, by their coeff_at and by
    # K3's jac_at
    pts = default_rng(9).uniform(-2.0, 2.0, (n, 3))
    assert count_calls(monkeypatch, lambda: gd.verify_gd_complex(pts),
                       (cc, "fd_jacobian")) == 1
    k = gd.gd_operator()
    mat, calls = k.coeff, []

    def counted(w):
        calls.append(1)
        return mat(w)

    object.__setattr__(k, "coeff", counted)
    try:
        gd.verify_gd_complex(pts)
    finally:
        object.__setattr__(k, "coeff", mat)
    assert len(calls) == 3 * 2 + 2 + 1


def test_complex_fd_check_evaluates_each_field_once_per_shifted_batch(monkeypatch, example3):
    # the value map stacks dA, the operators' rows l >= j and X
    _, _, cx = example3
    inside_fd = [False]
    fields = {"dA": cx.dA, "K1": cx.operators[0], "K2": cx.operators[1],
              "K3": cx.operators[2], "X": cx.X}
    evals = dict.fromkeys(fields, 0)

    def counted(name, fn):
        def wrapper(a):
            evals[name] += inside_fd[0]
            return fn(a)
        return wrapper

    fields = {name: dataclasses.replace(f, coeff=counted(name, f.coeff))
              for name, f in fields.items()}
    counting = dataclasses.replace(cx, operators=(fields["K1"], fields["K2"], fields["K3"]),
                                   dA=fields["dA"], X=fields["X"])
    fd_jacobian = cc.fd_jacobian

    def flagged(fun, u):
        inside_fd[0] = True
        try:
            return fd_jacobian(fun, u)
        finally:
            inside_fd[0] = False

    monkeypatch.setattr(cc, "fd_jacobian", flagged)
    pts = sample_gapped_box(default_rng(9), 30, predicates=cx.sampling_predicates())
    assert count_calls(monkeypatch, lambda: eq.verify_complex(counting, pts),
                       (cc, "fd_jacobian")) == 1
    # the complex step shifts the points once per coordinate
    assert evals == dict.fromkeys(evals, 3)
    assert eq.verify_complex(cx, pts).passed


# --- one FD check over stacked rows: no row hides another -----------------------


def spoil_fd_check(monkeypatch, module, values=None, jac=None):
    """Pass the stacked FD check of ``module`` its value map's rows (N, R, 3)
    through ``values`` and its Jacobians, stacked to (N, R, 3, 3), through
    ``jac``."""
    check = module.fd_check_tensor

    def spoiled(value, blocks, p):
        v = value if values is None else (lambda u: values(np.array(value(u))))
        return check(v, blocks if jac is None else [jac(np.concatenate(blocks, axis=-3))], p)

    monkeypatch.setattr(module, "fd_check_tensor", spoiled)


def gd_report():
    pts = default_rng(9).uniform(-2.0, 2.0, (30, 3))
    return gd.verify_gd_complex(pts)


# the complex stacks dA, dP, dQ, dR, dS, dT, dV, X; GD the square forms
# theta_jl in gd._SQUARE order, then the operators' rows
STACKED_ROWS = (pytest.param(eq, 4, id="complex-dS"),
                pytest.param(gd, gd._SQUARE.index((2, 2)), id="gd-theta22"))


@pytest.mark.parametrize("module, row", STACKED_ROWS)
def test_one_percent_error_in_one_stacked_row_fails_the_fd_check(monkeypatch, example3,
                                                                 module, row):
    _, _, cx = example3
    pts = sample_gapped_box(default_rng(9), 30, predicates=cx.sampling_predicates())

    def report():
        return (eq.verify_complex(cx, pts) if module is eq else gd_report()).condition(
            "jacobian_fd_agreement")

    def one_percent_off(j):
        # the row's largest entry at each point, at least a tenth of the row's scale
        block = j[:, row].reshape(len(j), -1)
        block[np.arange(len(j)), np.argmax(np.abs(block), axis=-1)] *= 1.01
        j[:, row] = block.reshape(j[:, row].shape)
        return j

    assert report().passed
    spoil_fd_check(monkeypatch, module, jac=one_percent_off)
    assert not report().passed


@pytest.mark.parametrize("module, row", STACKED_ROWS)
def test_nan_in_one_stacked_row_fails_the_fd_check(monkeypatch, example3, module, row):
    _, _, cx = example3
    pts = sample_gapped_box(default_rng(9), 30, predicates=cx.sampling_predicates())

    def nan_at_point_3(values):
        values[3, row, 0] = np.nan
        return values

    spoil_fd_check(monkeypatch, module, values=nan_at_point_3)
    report = eq.verify_complex(cx, pts) if module is eq else gd_report()
    cond = report.condition("jacobian_fd_agreement")
    assert np.isnan(cond.max_residual) and not cond.passed and not report.passed


@pytest.mark.parametrize("drop", [np.real, np.abs], ids=["real", "abs"])
@pytest.mark.parametrize("module, row", STACKED_ROWS)
def test_a_stacked_row_that_drops_the_imaginary_part_fails_the_fd_check(monkeypatch, example3,
                                                                        module, row, drop):
    # the complex step reads a zero derivative for such a row, where the
    # five-point stencil read the true one
    _, _, cx = example3
    pts = sample_gapped_box(default_rng(9), 30, predicates=cx.sampling_predicates())

    def dropped(values):
        values[:, row] = drop(values[:, row])
        return values

    spoil_fd_check(monkeypatch, module, values=dropped)
    report = eq.verify_complex(cx, pts) if module is eq else gd_report()
    cond = report.condition("jacobian_fd_agreement")
    assert cond.max_residual > 0.5 and not cond.passed


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


@pytest.mark.parametrize("euler", [(), ("--euler", "quarter-x")], ids=["c0", "euler"])
def test_verify_wdvv_evaluates_the_third_tensor_once_per_block(monkeypatch, tmp_path, euler):
    # c[0], g, both residuals and the drift of g all read the block's one c
    potential, batches = cli._potential, []

    def counted_potential(*args):
        pre, params = potential(*args)

        def third(x):
            batches.append(len(x))
            return pre.third(x)

        return dataclasses.replace(pre, third=third), params

    monkeypatch.setattr(cli, "_potential", counted_potential)
    argv = ["verify-wdvv", "--points", "2000", *euler, "--format", "json",
            "--out", str(tmp_path / "r.json")]
    checks = count_regularity_checks(monkeypatch, lambda: cli.main(argv))
    # 2000 points are 8 blocks; the FD checks read the first 10 points
    assert batches == 7 * [256] + [208] + [10]
    # the blocks' third tensors, and the Hessian and third tensor the FD checks read
    assert checks == 8 + 2


def test_build_complex_evaluates_the_operators_on_four_batches_for_any_n(monkeypatch,
                                                                        tmp_path):
    # M_j at a and at sigma(a) for the three transpositions, J_j at a, each
    # one gemm over the nine directions: 4 coefficient batches and 1
    # Jacobian batch per operator, which the closure check reads too; the FD
    # check is excluded
    build = eq.log_field
    evals = Counter()

    def counted_log_field(chart, rows, weights):
        field = build(chart, rows, weights)

        def counted(name):
            def fn(a):
                evals[name] += 1
                return getattr(field, name)(a)
            return fn

        return cc.Field(field.chart, counted("coeff"), counted("jac"), field.predicates)

    # every Field evaluated through coeff_at / jac_at, and the complex they belong to
    batches = {"coeff_at": [], "jac_at": []}
    for method in batches:
        def record(self, p, method=method, original=getattr(cc.Field, method)):
            batches[method].append(self)
            return original(self, p)
        monkeypatch.setattr(cc.Field, method, record)
    built, assemble = [], eq.assemble_complex

    def recorded_assembly(params):
        built.append(assemble(params))
        return built[-1]

    monkeypatch.setattr(eq, "assemble_complex", recorded_assembly)
    monkeypatch.setattr(eq, "log_field", counted_log_field)
    monkeypatch.setattr(eq, "fd_check_tensor", lambda *_: 0.0)

    seen = []
    for n in (3, 300):
        evals.clear()
        for calls in batches.values():
            calls.clear()
        assert cli.main(["build-complex", "--alpha", "2", "--beta", "1", "--root", "1",
                         "--points", str(n), "--out", str(tmp_path / "r.txt")]) == 0
        cx = built[-1]
        ops = set(cx.operators)
        assert len(ops) == 3
        # the operators on a and on sigma(a) for three sigma, dA and X once
        assert Counter(batches["coeff_at"]) == {**dict.fromkeys(ops, 4), cx.dA: 1, cx.X: 1}
        assert Counter(batches["jac_at"]) == dict.fromkeys([*ops, cx.dA, cx.X], 1)
        seen.append(dict(evals))
    assert seen[0] == seen[1]
    assert seen[0] == {"coeff": 3 * 4, "jac": 3 * 1}


def test_complex_report_masks_a_refused_pivot_as_one(monkeypatch, example3):
    _, _, cx = example3
    pts = sample_gapped_box(default_rng(21), 6, predicates=cx.sampling_predicates())
    name = "wdvv_commutation_from_square"
    assert eq.verify_complex(cx, pts).condition(name).max_residual < 1e-8

    residuals_of = eq.commutation_residuals

    def singular_at_point_2(c, pivot):
        pivot = np.array(np.broadcast_to(pivot, c.shape[:-1]))
        pivot[2] = 0.0
        return residuals_of(c, pivot)

    monkeypatch.setattr(eq, "commutation_residuals", singular_at_point_2)
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

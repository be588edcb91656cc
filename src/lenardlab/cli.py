"""Command-line front end: build complexes, run verification suites, emit reports.

Subcommands
-----------
verify-wdvv     commutation residuals of a logarithmic potential
build-complex   solve the parameter constraints, build and verify a complex
reproduce       canned end-to-end pipelines: ``example3`` (the alpha=2, beta=1
                family with its closed-form reference potential) and ``gd``
                (the quadratic hydrodynamic operator)

Reports are deterministic for a fixed seed; sampling uses numpy's PCG64
generator.  Tolerances can be overridden per run with --tol-analytic/--tol-fd.
Exit status is 0 exactly when every report condition passes, 1 when one
fails and 2 on bad input.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import equivariant as eq
from . import gelfand_dikii as gd
from .chartcore import (
    ScalarField,
    apply,
    closure_residual,
    constant_map,
    fd_hessian,
    fd_jacobian,
    nan_max,
    union_predicates,
)
from .report import VerificationReport, render_json, render_text
from .sampling import SamplingExhaustedError, default_rng, sample_box, sample_gapped_box, sample_segments
from .wdvv import (
    QUARTER_X,
    Prepotential,
    VeselovPotential,
    commutation_residuals,
    g_matrix,
    generalized_wdvv_residual,
    veselov_prepotential,
    wdvv_residual,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(doc: dict, args: argparse.Namespace) -> None:
    text = render_json(doc) if args.fmt == "json" else render_text(doc)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _potential(name: str, n: int | None,
               m: float | None) -> tuple[Prepotential, VeselovPotential, dict]:
    if name == "veselov":
        n, m = 3 if n is None else n, 2.0 if m is None else m
        pot = VeselovPotential(n, m)
        return veselov_prepotential(pot), pot, {"potential": name, "n": n, "m": m}
    for flag, value in (("--n", n), ("--m", m)):
        if value is not None:
            raise ValueError(f"{flag} does not apply to --potential {name}")
    pot = VeselovPotential(3, 1.0)
    return veselov_prepotential(pot, scale=1.0 / 16.0), pot, \
        {"potential": name, "n": 3, "m": 1.0, "scale": 1.0 / 16.0}


# Points per batched WDVV call: bounds the (block, n, n, n) temporaries, so a
# run's peak memory does not grow with --points.
_BLOCK = 256


def cmd_verify_wdvv(args: argparse.Namespace) -> int:
    pre, pot, params = _potential(args.potential, args.n, args.m)
    rng = default_rng(args.seed)
    pts = sample_gapped_box(rng, args.points, dim=pot.n, predicates=pot.predicates())
    params.update({"points": args.points, "seed": args.seed, "euler": args.euler})
    blocks = [pts[k:k + _BLOCK] for k in range(0, len(pts), _BLOCK)]

    report = VerificationReport()
    worst = nan_max(wdvv_residual(pre, b) for b in blocks)
    report.add("wdvv_commutation", len(pts), worst, args.tol_analytic)

    head = pts[:10]
    fd_h = float(np.max(np.abs(fd_hessian(pre.value, head) - pre.hessian(head))))
    fd_c = float(np.max(np.abs(fd_jacobian(pre.hessian, head) - pre.third(head))))
    report.add("hessian_fd_agreement", len(head), fd_h, args.tol_fd)
    report.add("third_fd_agreement", len(head), fd_c, args.tol_fd)

    if args.euler == "quarter-x":
        worst_g = nan_max(generalized_wdvv_residual(pre, QUARTER_X, b) for b in blocks)
        report.add("generalized_wdvv_commutation", len(pts), worst_g, args.tol_analytic)
        g0 = g_matrix(pre, QUARTER_X, pts[0])
        drift = nan_max(float(np.max(np.abs(g_matrix(pre, QUARTER_X, b) - g0)))
                        for b in blocks)
        report.add("euler_contraction_constant", len(pts), drift, 1e-10)
        params["euler_g_matrix"] = [[float(v) for v in row] for row in g0]

    _emit(report.to_dict("verify-wdvv", params), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _complex_report(cx: eq.LenardComplex, pts, args: argparse.Namespace) -> VerificationReport:
    report = eq.verify_complex(cx, pts, tol_analytic=args.tol_analytic, tol_fd=args.tol_fd)
    # symmetry of the square coefficients is reported by its own condition;
    # a refused pivot leaves no residual, and fails the condition as 1.0
    residuals, refused = eq.square_wdvv_residuals(cx, pts, require_symmetric=False)
    report.add("wdvv_commutation_from_square", len(pts),
               float(np.max(np.where(refused, 1.0, residuals))), 1e-8)
    split = eq.split_form_residual(cx, pts)
    report.add("split_form_identity", len(pts), split, args.tol_analytic)
    return report


def cmd_build_complex(args: argparse.Namespace) -> int:
    if args.sigma2 is not None:
        sigma2 = args.sigma2
        root = "explicit"
    else:
        roots = eq.solve_phi_roots(args.alpha, args.beta)
        sigma2 = roots.root1 if args.root == 1 else roots.root2
        root = args.root
    params = eq.FamilyParams.solve(args.alpha, args.beta, sigma2)
    cx = eq.assemble_complex(params)

    rng = default_rng(args.seed)
    pts = sample_gapped_box(rng, args.points, predicates=cx.sampling_predicates())
    report = _complex_report(cx, pts, args)

    doc_params = {
        "alpha": args.alpha, "beta": args.beta, "root": root,
        "sigma0": params.sigma0, "sigma1": params.sigma1, "sigma2": params.sigma2,
        "phi": eq.phi(args.alpha, args.beta, params.sigma2),
        "points": args.points, "seed": args.seed,
        "sampled_points": [[float(v) for v in p] for p in pts],
    }
    _emit(report.to_dict("build-complex", doc_params), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _reproduce_example3(args: argparse.Namespace) -> int:
    segments = 10 if args.segments is None else args.segments
    if segments <= 0:
        raise ValueError(f"--segments must be positive, got {segments}")
    params, reference = eq.example3_fixture()
    cx = eq.assemble_complex(params)
    rng = default_rng(args.seed)
    pts = sample_gapped_box(rng, args.points, predicates=cx.sampling_predicates())
    report = _complex_report(cx, pts, args)

    displays = eq.example3_display_forms()
    built = dict(cx.square.named_forms())
    worst = nan_max(float(np.max(np.abs(built[name].coeff_at(pts[:20]) - disp(pts[:20]))))
                    for name, disp in displays.items())
    report.add("display_coefficients_match", min(len(pts), 20), worst, 1e-10)

    worst = nan_max(
        float(np.max(np.abs(apply(k.mat_at(pts), pts) - eq.EXAMPLE3_CHAIN_FIELDS[j])))
        for j, k in enumerate(cx.operators)
    )
    report.add("chain_field_constants", len(pts), worst, 1e-12)

    h = params.quad.hessian()
    x_preds = union_predicates(*(eq.square_form_in_x(cx, j, l).predicates
                                 for j in range(3) for l in range(j, 3)))
    segs = sample_segments(rng, segments, predicates=x_preds,
                           to_ambient=lambda a: h @ a)

    def reconstruction_errors():
        for x0, x1 in segs:
            dh = reference.hessian_at(x1) - reference.hessian_at(x0)
            for j in range(3):
                for l in range(j, 3):
                    yield abs(eq.reconstruct_potential_entry(cx, j, l, x0, x1) - dh[j, l])

    worst = nan_max(reconstruction_errors())
    report.add("potential_reconstruction", len(segs), worst, 1e-6)

    head = pts[:20]
    from_square, _ = eq.square_wdvv_residuals(cx, head, require_symmetric=True)
    c = reference.third_at(head @ h.T)
    from_reference, _ = commutation_residuals(c, c[..., 0, :, :])
    agree = float(np.max(np.abs(from_square - from_reference)))
    report.add("reference_wdvv_agreement", len(head), agree, 1e-8)

    doc_params = {"alpha": 2.0, "beta": 1.0, "sigma2": params.sigma2,
                  "points": args.points, "segments": segments, "seed": args.seed}
    _emit(report.to_dict("reproduce example3", doc_params), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _reproduce_gd(args: argparse.Namespace) -> int:
    if args.segments is not None:
        raise ValueError("--segments does not apply to reproduce gd")
    rng = default_rng(args.seed)
    pts = sample_box(rng, args.points, 3, -2.0, 2.0)
    report = gd.verify_gd_complex(pts, tol=args.tol_analytic, tol_fd=args.tol_fd)

    chart = gd.W_CHART
    probes = [ScalarField(chart, lambda w, i=i: w[..., i], constant_map(np.eye(3)[i]))
              for i in range(3)]
    probes.append(ScalarField(
        chart, lambda w: w[..., 0] * w[..., 1],
        lambda w: np.stack([w[..., 1], w[..., 0], np.zeros_like(w[..., 0])], axis=-1)))
    worst = nan_max(gd.gd_torsion_identity_residual(f, pts) for f in probes)
    report.add("torsion_identity", len(pts), worst, args.tol_analytic)

    # lower-bound checks are encoded as shortfalls: residual = max(0, bound - value)
    w0 = np.array([1.0, 2.0, 3.0])
    torsion_norm = float(np.max(np.abs(
        gd.nijenhuis_contracted(gd.gd_operator(), probes[1], w0))))
    report.add("nijenhuis_nonvanishing", 1, nan_max((0.0, 0.1 - torsion_norm)), 1e-12)
    naive = closure_residual(gd.naive_power_form(3), pts[:10])
    report.add("power_chain_not_closed", min(len(pts), 10), nan_max((0.0, 0.1 - naive)), 1e-12)

    _emit(report.to_dict("reproduce gd", {"points": args.points, "seed": args.seed}), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lenardlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, points: int, tol_analytic: float) -> None:
        p.add_argument("--points", type=int, default=points)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tol-analytic", type=float, default=tol_analytic)
        p.add_argument("--tol-fd", type=float, default=1e-6)
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None)

    p = sub.add_parser("verify-wdvv", help="WDVV commutation residuals of a potential")
    p.add_argument("--potential", choices=("veselov", "example3-reference"), default="veselov")
    p.add_argument("--n", type=int, default=None, help="veselov only (default 3)")
    p.add_argument("--m", type=float, default=None, help="veselov only (default 2)")
    p.add_argument("--euler", choices=("quarter-x",), default=None,
                   help="also run the Euler-weighted commutation checks")
    common(p, points=100, tol_analytic=1e-8)

    p = sub.add_parser("build-complex", help="solve constraints, build and verify")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--root", type=int, choices=(1, 2),
                       help="which root of the obstruction scalar to use")
    group.add_argument("--sigma2", type=float, help="explicit sigma2 (checked, not solved)")
    common(p, points=50, tol_analytic=1e-9)

    p = sub.add_parser("reproduce", help="canned end-to-end pipelines")
    p.add_argument("target", choices=("example3", "gd"))
    p.add_argument("--segments", type=int, default=None, help="example3 only (default 10)")
    common(p, points=50, tol_analytic=1e-9)

    return parser


# every option that takes a float
_FLOAT_OPTIONS = ("--tol-analytic", "--tol-fd", "--alpha", "--beta", "--sigma2", "--m")


def _attach_float_values(argv: list[str]) -> list[str]:
    """``--sigma2 -inf`` as ``--sigma2=-inf``: argparse reads a separate word
    that starts with '-' and is not a plain decimal as an option."""
    out, words = [], iter(argv)
    for w in words:
        value = next(words, None) if w in _FLOAT_OPTIONS else None
        out.append(w if value is None else f"{w}={value}")
    return out


def _check_finite(args: argparse.Namespace) -> None:
    for flag in _FLOAT_OPTIONS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number, got {value}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(
            _attach_float_values(sys.argv[1:] if argv is None else argv))
        _check_finite(args)
        if args.points <= 0 or not (args.tol_analytic > 0 and args.tol_fd > 0):
            raise ValueError("point count and tolerances must be positive")
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        if args.command == "verify-wdvv":
            return cmd_verify_wdvv(args)
        if args.command == "build-complex":
            return cmd_build_complex(args)
        if args.target == "example3":
            return _reproduce_example3(args)
        return _reproduce_gd(args)
    except SamplingExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

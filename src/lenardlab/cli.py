"""Command-line front end: build complexes, run verification suites, emit reports.

Subcommands
-----------
verify-wdvv     commutation residuals of a logarithmic potential
build-complex   solve the parameter constraints, build and verify a complex
reproduce       canned end-to-end pipelines: ``example3`` (the alpha=2, beta=1
                family with its closed-form reference potential) and ``gd``
                (the quadratic hydrodynamic operator)

Reports are deterministic for a fixed seed; sampling uses numpy's PCG64
generator.  Tolerances can be overridden per run with --tol-analytic/--tol-fd
or the environment variables LENARDLAB_TOL_ANALYTIC / LENARDLAB_TOL_FD.
Exit status is 0 exactly when every report condition passes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

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
    EulerWeights,
    Prepotential,
    SingularSliceError,
    VeselovPotential,
    g_matrix,
    generalized_wdvv_residual,
    veselov_prepotential,
    wdvv_residual,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    command: str
    points: int
    seed: int
    tol_analytic: float
    tol_fd: float
    fmt: str
    out: str | None


def _tol_default(env: str, fallback: float) -> float:
    raw = os.environ.get(env)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{env} must be a number, got {raw!r}") from None


def _emit(doc: dict, cfg: RunConfig) -> None:
    text = render_json(doc) if cfg.fmt == "json" else render_text(doc)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _potential(name: str, n: int, m: float) -> tuple[Prepotential, VeselovPotential, dict]:
    if name == "veselov":
        pot = VeselovPotential(n, m)
        return veselov_prepotential(pot), pot, {"potential": name, "n": n, "m": m}
    if name == "example3-reference":
        pot = VeselovPotential(3, 1.0)
        return veselov_prepotential(pot, scale=1.0 / 16.0), pot, \
            {"potential": name, "n": 3, "m": 1.0, "scale": 1.0 / 16.0}
    raise ValueError(f"unknown potential {name!r}")


def cmd_verify_wdvv(args: argparse.Namespace, cfg: RunConfig) -> int:
    pre, pot, params = _potential(args.potential, args.n, args.m)
    rng = default_rng(cfg.seed)
    pts = sample_gapped_box(rng, cfg.points, dim=pot.n, predicates=pot.predicates())
    params.update({"points": cfg.points, "seed": cfg.seed, "euler": args.euler})

    report = VerificationReport()
    worst = nan_max(wdvv_residual(pre, x) for x in pts)
    report.add("wdvv_commutation", len(pts), worst, cfg.tol_analytic)

    fd_h = nan_max(float(np.max(np.abs(fd_hessian(pre.value, x) - pre.hessian(x))))
                   for x in pts[:10])
    fd_c = nan_max(float(np.max(np.abs(fd_jacobian(pre.hessian, x) - pre.third(x))))
                   for x in pts[:10])
    report.add("hessian_fd_agreement", min(len(pts), 10), fd_h, cfg.tol_fd)
    report.add("third_fd_agreement", min(len(pts), 10), fd_c, cfg.tol_fd)

    if args.euler == "quarter-x":
        w = EulerWeights.proportional(0.25)
        worst_g = nan_max(generalized_wdvv_residual(pre, w, x) for x in pts)
        report.add("generalized_wdvv_commutation", len(pts), worst_g, cfg.tol_analytic)
        g0 = g_matrix(pre, w, pts[0])
        drift = nan_max(float(np.max(np.abs(g_matrix(pre, w, x) - g0))) for x in pts)
        report.add("euler_contraction_constant", len(pts), drift, 1e-10)
        params["euler_g_matrix"] = [[float(v) for v in row] for row in g0]

    _emit(report.to_dict("verify-wdvv", params), cfg)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _complex_report(cx: eq.LenardComplex, pts, cfg: RunConfig) -> VerificationReport:
    report = eq.verify_complex(cx, pts, tol_analytic=cfg.tol_analytic,
                               tol_fd=cfg.tol_fd, with_fd=True)

    def square_wdvv(a) -> float:
        # symmetry of the square coefficients is reported by its own condition
        try:
            return eq.wdvv_residual_of_complex(cx, a, require_symmetric=False)
        except SingularSliceError:
            return 1.0

    report.add("wdvv_commutation_from_square", len(pts), nan_max(map(square_wdvv, pts)), 1e-8)
    split = eq.split_form_residual(cx.params, pts, cx=cx)
    report.add("split_form_identity", len(pts), split, cfg.tol_analytic)
    return report


def cmd_build_complex(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.sigma2 is not None:
        sigma2 = args.sigma2
        root = "explicit"
    else:
        roots = eq.solve_phi_roots(args.alpha, args.beta)
        sigma2 = roots.root1 if args.root == 1 else roots.root2
        root = args.root
    params = eq.FamilyParams.solve(args.alpha, args.beta, sigma2)
    cx = eq.assemble_complex(params)

    rng = default_rng(cfg.seed)
    pts = sample_gapped_box(rng, cfg.points, predicates=cx.sampling_predicates())
    report = _complex_report(cx, pts, cfg)

    doc_params = {
        "alpha": args.alpha, "beta": args.beta, "root": root,
        "sigma0": params.sigma0, "sigma1": params.sigma1, "sigma2": params.sigma2,
        "phi": eq.phi(args.alpha, args.beta, params.sigma2),
        "points": cfg.points, "seed": cfg.seed,
        "sampled_points": [[float(v) for v in p] for p in pts],
    }
    _emit(report.to_dict("build-complex", doc_params), cfg)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _reproduce_example3(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.segments <= 0:
        raise ValueError("segment count must be positive")
    params, reference = eq.example3_fixture()
    cx = eq.assemble_complex(params)
    rng = default_rng(cfg.seed)
    pts = sample_gapped_box(rng, cfg.points, predicates=cx.sampling_predicates())
    report = _complex_report(cx, pts, cfg)

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
    x_preds = union_predicates(*(eq.square_form_in_x(cx.square, j, l).predicates
                                 for j in range(3) for l in range(j, 3)))
    segs = sample_segments(rng, args.segments, predicates=x_preds,
                           to_ambient=lambda a: h @ a)

    def reconstruction_errors():
        for x0, x1 in segs:
            dh = reference.hessian_at(x1) - reference.hessian_at(x0)
            for j in range(3):
                for l in range(j, 3):
                    yield abs(eq.reconstruct_potential_entry(cx.square, j, l, x0, x1) - dh[j, l])

    worst = nan_max(reconstruction_errors())
    report.add("potential_reconstruction", len(segs), worst, 1e-6)

    agree = nan_max(
        abs(eq.wdvv_residual_of_complex(cx, a) - wdvv_residual(reference, h @ a))
        for a in pts[:20]
    )
    report.add("reference_wdvv_agreement", min(len(pts), 20), agree, 1e-8)

    doc_params = {"alpha": 2.0, "beta": 1.0, "sigma2": params.sigma2,
                  "points": cfg.points, "segments": args.segments, "seed": cfg.seed}
    _emit(report.to_dict("reproduce example3", doc_params), cfg)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _reproduce_gd(args: argparse.Namespace, cfg: RunConfig) -> int:
    rng = default_rng(cfg.seed)
    pts = sample_box(rng, cfg.points, 3, -2.0, 2.0)
    report = gd.verify_gd_complex(pts, tol=cfg.tol_analytic, tol_fd=cfg.tol_fd, with_fd=True)

    chart = gd.W_CHART
    probes = [ScalarField(chart, lambda w, i=i: w[..., i], constant_map(np.eye(3)[i]))
              for i in range(3)]
    probes.append(ScalarField(
        chart, lambda w: w[..., 0] * w[..., 1],
        lambda w: np.stack([w[..., 1], w[..., 0], np.zeros_like(w[..., 0])], axis=-1)))
    worst = nan_max(gd.gd_torsion_identity_residual(f, pts) for f in probes)
    report.add("torsion_identity", len(pts), worst, cfg.tol_analytic)

    # lower-bound checks are encoded as shortfalls: residual = max(0, bound - value)
    w0 = np.array([1.0, 2.0, 3.0])
    torsion_norm = float(np.max(np.abs(
        gd.nijenhuis_contracted(gd.gd_operator(), probes[1], w0))))
    report.add("nijenhuis_nonvanishing", 1, nan_max((0.0, 0.1 - torsion_norm)), 1e-12)
    naive = closure_residual(gd.naive_power_form(3), pts[:10])
    report.add("power_chain_not_closed", min(len(pts), 10), nan_max((0.0, 0.1 - naive)), 1e-12)

    _emit(report.to_dict("reproduce gd", {"points": cfg.points, "seed": cfg.seed}), cfg)
    return EXIT_PASS if report.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lenardlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, points: int, tol_analytic: float) -> None:
        p.add_argument("--points", type=int, default=points)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--tol-analytic", type=float,
                       default=_tol_default("LENARDLAB_TOL_ANALYTIC", tol_analytic))
        p.add_argument("--tol-fd", type=float,
                       default=_tol_default("LENARDLAB_TOL_FD", 1e-6))
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None)

    p = sub.add_parser("verify-wdvv", help="WDVV commutation residuals of a potential")
    p.add_argument("--potential", choices=("veselov", "example3-reference"), default="veselov")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=float, default=2.0)
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
    p.add_argument("--segments", type=int, default=10)
    common(p, points=50, tol_analytic=1e-9)

    return parser


def _attach_tolerance_values(argv: list[str]) -> list[str]:
    """``--tol-fd -inf`` as ``--tol-fd=-inf``: argparse reads a separate word
    that starts with '-' and is not a plain decimal as an option."""
    flags = ("--tol-analytic", "--tol-fd")
    return [f"{w}={argv[i + 1]}" if w in flags and i + 1 < len(argv) else w
            for i, w in enumerate(argv) if not (i and argv[i - 1] in flags)]


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(
            _attach_tolerance_values(sys.argv[1:] if argv is None else argv))
        cfg = RunConfig(command=args.command, points=args.points, seed=args.seed,
                        tol_analytic=args.tol_analytic, tol_fd=args.tol_fd,
                        fmt=args.fmt, out=args.out)
        if cfg.points <= 0 or not all(math.isfinite(t) and t > 0
                                      for t in (cfg.tol_analytic, cfg.tol_fd)):
            raise ValueError("point count and tolerances must be positive and finite")
        if args.command == "verify-wdvv":
            return cmd_verify_wdvv(args, cfg)
        if args.command == "build-complex":
            return cmd_build_complex(args, cfg)
        if args.target == "example3":
            return _reproduce_example3(args, cfg)
        return _reproduce_gd(args, cfg)
    except SamplingExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

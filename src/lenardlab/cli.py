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
fails or an admissible input cannot be checked (the sampler runs out of
draws, or a WDVV pivot is refused), and 2 on bad input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import equivariant as eq
from . import gelfand_dikii as gd
from .chartcore import (
    Field,
    apply,
    closure_residual,
    constant_field,
    constant_map,
    fd_hessian,
    fd_jacobian,
    nijenhuis_contracted,
    relative_gap,
    worst,
)
from .report import VerificationReport, render_json, render_text
from .sampling import (
    DEFAULT_BOX,
    DEFAULT_GAP,
    SamplingExhaustedError,
    default_rng,
    sample_box,
    sample_gapped_box,
    sample_segments,
)
from .wdvv import (
    QUARTER_X,
    InvalidPotentialError,
    Prepotential,
    SingularSliceError,
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


class UsageError(ValueError):
    """A command line the CLI rejects: an option that is out of range or does
    not apply, or an unwritable --out."""


def _emit(doc: dict, args: argparse.Namespace) -> None:
    text = render_json(doc) if args.fmt == "json" else render_text(doc)
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _potential(name: str, n: int | None, m: float | None) -> tuple[Prepotential, dict]:
    if name == "veselov":
        n, m = 3 if n is None else n, 2.0 if m is None else m
        return veselov_prepotential(VeselovPotential(n, m)), {"potential": name, "n": n, "m": m}
    for flag, value in (("--n", n), ("--m", m)):
        if value is not None:
            raise UsageError(f"{flag} does not apply to --potential {name}")
    return eq.example3_fixture()[1], {"potential": name, "n": 3, "m": 1.0, "scale": 1.0 / 16.0}


# The most points or segments a run may ask for; numpy cannot even allocate
# the draws for far larger counts.
MAX_COUNT = 10**7

# Points per batched WDVV call, and segments per batched line-integral call:
# bounds the temporaries, so a run's peak memory does not grow with --points
# or --segments.
_BLOCK = 256


def cmd_verify_wdvv(args: argparse.Namespace) -> int:
    pre, params = _potential(args.potential, args.n, args.m)
    rng = default_rng(args.seed)
    pts = sample_gapped_box(rng, args.points, dim=pre.chart.dim, predicates=pre.predicates)
    params.update({"points": args.points, "seed": args.seed, "euler": args.euler})
    blocks = [pts[k:k + _BLOCK] for k in range(0, len(pts), _BLOCK)]

    # one third tensor per block feeds every residual; all c[0] blocks are
    # checked before any g, so a refused g is raised after the last c[0]
    euler = args.euler == "quarter-x"
    residuals, residuals_g, drift, g0, refused_g = [], [], [], None, None
    for b in blocks:
        c = pre.third_at(b)
        residuals.append(wdvv_residual(c, b))
        if euler:
            g = g_matrix(c, QUARTER_X, b)
            g0 = g[0] if g0 is None else g0
            drift.append(worst(g - g0))
            try:
                residuals_g.append(generalized_wdvv_residual(c, g, b))
            except SingularSliceError as exc:
                refused_g = refused_g or exc
    report = VerificationReport()
    report.add("wdvv_commutation", len(pts), worst(*residuals), args.tol_analytic)

    # second differences sit on a rounding floor of eps |F| / h^2, so each
    # gap is relative to the size of the derivative it checks
    head = pts[:10]
    hess, third = pre.hessian_at(head), pre.third_at(head)
    report.add("hessian_fd_agreement", len(head),
               relative_gap(fd_hessian(pre.value, head) - hess, hess), args.tol_fd)
    report.add("third_fd_agreement", len(head),
               relative_gap(fd_jacobian(pre.hessian, head) - third, third), args.tol_fd)

    if euler:
        if refused_g is not None:
            raise refused_g
        report.add("generalized_wdvv_commutation", len(pts), worst(*residuals_g),
                   args.tol_analytic)
        report.add("euler_contraction_constant", len(pts), worst(*drift), 1e-10)
        params["euler_g_matrix"] = [[float(v) for v in row] for row in g0]

    _emit(report.to_dict("verify-wdvv", params), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


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
    report = eq.verify_complex(cx, pts, tol_analytic=args.tol_analytic, tol_fd=args.tol_fd)

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
        raise UsageError(f"--segments must be positive, got {segments}")
    params, reference = eq.example3_fixture()
    cx = eq.assemble_complex(params)
    rng = default_rng(args.seed)
    pts = sample_gapped_box(rng, args.points, predicates=cx.sampling_predicates())
    report = eq.verify_complex(cx, pts, tol_analytic=args.tol_analytic, tol_fd=args.tol_fd)

    head = pts[:20]
    mats = [k.coeff_at(head) for k in cx.operators]
    built = {"dA": cx.dA.coeff_at(head),
             **{name: mats[j][..., l, :] for name, (j, l) in eq.SQUARE_FORMS.items()}}
    report.add("display_coefficients_match", len(head),
               worst(*(built[name] - disp(head)
                       for name, disp in eq.example3_display_forms().items())), 1e-10)
    report.add("chain_field_constants", len(pts),
               worst(*(apply(k.coeff_at(pts), pts) - eq.EXAMPLE3_CHAIN_FIELDS[j]
                       for j, k in enumerate(cx.operators))), 1e-12)

    h = params.quad.hessian()
    # the square forms in x are singular on the planes of the nine directions;
    # H is symmetric, so a @ h maps every point of a (..., 3) batch by H
    x0, x1 = sample_segments(rng, segments, predicates=eq.DIRECTIONS, to_ambient=lambda a: a @ h)

    def reconstruction_errors():
        for k in range(0, segments, _BLOCK):
            a, b = x0[k:k + _BLOCK], x1[k:k + _BLOCK]
            dh = reference.hessian_at(b) - reference.hessian_at(a)
            for j in range(3):
                for l in range(j, 3):
                    values = eq.reconstruct_potential_entry(cx, j, l, a, b)
                    yield worst(values - dh[:, j, l])

    report.add("potential_reconstruction", segments, worst(*reconstruction_errors()), 1e-6)

    head = pts[:20]
    from_square, _ = eq.square_wdvv_residuals(cx, head)
    c = reference.third_at(head @ h.T)
    from_reference, _ = commutation_residuals(c, c[..., 0, :, :])
    report.add("reference_wdvv_agreement", len(head), worst(from_square - from_reference), 1e-8)

    doc_params = {"alpha": 2.0, "beta": 1.0, "sigma2": params.sigma2,
                  "points": args.points, "segments": segments, "seed": args.seed}
    _emit(report.to_dict("reproduce example3", doc_params), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _reproduce_gd(args: argparse.Namespace) -> int:
    if args.segments is not None:
        raise UsageError("--segments does not apply to reproduce gd")
    rng = default_rng(args.seed)
    pts = sample_box(rng, args.points, 3, -2.0, 2.0)
    report = gd.verify_gd_complex(pts, tol_analytic=args.tol_analytic, tol_fd=args.tol_fd)

    # the differentials of w0, w1, w2 and w0 w1
    chart = gd.W_CHART
    probes = [constant_field(chart, row) for row in np.eye(3)]
    probes.append(Field(
        chart, lambda w: np.stack([w[..., 1], w[..., 0], np.zeros_like(w[..., 0])], axis=-1),
        constant_map([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])))
    report.add("torsion_identity", len(pts), gd.gd_torsion_identity_residual(probes, pts),
               args.tol_analytic)

    # lower-bound checks are encoded as shortfalls, np.maximum(0, bound - value):
    # it keeps NaN, where Python's max(0.0, nan) is 0.0
    w0 = np.array([1.0, 2.0, 3.0])
    torsion_norm = worst(nijenhuis_contracted(gd.gd_operator(), probes[1], w0))
    report.add("nijenhuis_nonvanishing", 1, worst(np.maximum(0.0, 0.1 - torsion_norm)), 1e-12)
    naive = closure_residual(gd.naive_power_form(3), pts[:10])
    report.add("power_chain_not_closed", min(len(pts), 10),
               worst(np.maximum(0.0, 0.1 - naive)), 1e-12)

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
            raise UsageError(f"{flag} must be a finite number, got {value}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call of a process shares: building it
    costs about as much as a small report."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(
            _attach_float_values(sys.argv[1:] if argv is None else argv))
        _check_finite(args)
        for flag, value in (("--points", args.points), ("--tol-analytic", args.tol_analytic),
                            ("--tol-fd", args.tol_fd)):
            if not value > 0:
                raise UsageError(f"{flag} must be positive, got {value}")
        if args.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        for flag, value in (("--points", args.points),
                            ("--segments", getattr(args, "segments", None))):
            if value is not None and value > MAX_COUNT:
                raise UsageError(f"{flag} must be at most {MAX_COUNT}, got {value}")
        low, high = DEFAULT_BOX
        # n points in [low, high] with pairwise gaps >= DEFAULT_GAP need
        # (n - 1) gaps; compared as n - 1 against a float, no int overflows
        if getattr(args, "n", None) is not None and args.n - 1 > (high - low) / DEFAULT_GAP:
            raise UsageError(f"--n {args.n}: no point of [{low:g}, {high:g}]^n has all "
                             f"coordinates {DEFAULT_GAP:g} apart")
        if args.command == "verify-wdvv":
            return cmd_verify_wdvv(args)
        if args.command == "build-complex":
            return cmd_build_complex(args)
        if args.target == "example3":
            return _reproduce_example3(args)
        return _reproduce_gd(args)
    except (SamplingExhaustedError, SingularSliceError) as exc:
        # admissible input that the checker cannot verify: a failure, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (UsageError, eq.DegenerateParametersError, InvalidPotentialError) as exc:
        # bad input only: any other ValueError is a bug and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

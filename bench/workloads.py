"""The four benchmark workloads: CLI invocations derived from a workload seed.

A workload is a fixed list of ``lenardlab`` command lines (one *pass*).  Every
invocation gets its own ``--seed``, drawn from the workload seed, so the same
workload seed always gives the same inputs.  ``tiny`` sizes exist only for the
benchmark's own tests.

This module imports neither numpy nor lenardlab at import time:
``build_fixed_objects`` is what a fresh interpreter times as ``setup_s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (alpha, beta) x root for build-complex, plus the off-root negative control
COMPLEX_CONFIGS = (("2", "1", "1"), ("2", "1", "2"), ("5", "2", "1"), ("5", "2", "2"))
OFF_ROOT = ("2", "1", "0.0")

# (potential, m, euler) for verify-wdvv; half of the runs are Euler-weighted
WDVV_RUNS = (
    ("veselov", "1", False), ("veselov", "2", True), ("veselov", "3", False),
    ("veselov", "7", True), ("example3-reference", None, False),
    ("example3-reference", None, True),
)

SIZES = {
    False: {"complex": 50, "wdvv": 2000, "reconstruct": (10, 40), "gd": 500},
    True: {"complex": 3, "wdvv": 20, "reconstruct": (2, 2), "gd": 5},
}

WORKLOADS = ("complex", "wdvv", "reconstruct", "gd")


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``kind`` selects the verdict the oracle expects."""

    kind: str
    argv: tuple[str, ...]
    seed: int
    points: int
    segments: int = 0

    @property
    def items(self) -> int:
        """Sampled points plus sampled segments that the report verifies."""
        return self.points + self.segments

    def command(self, out: str) -> list[str]:
        return [*self.argv, "--points", str(self.points), "--seed", str(self.seed),
                "--format", "json", "--out", out]


def _specs(name: str, tiny: bool) -> list[tuple[str, tuple[str, ...], int, int]]:
    size = SIZES[tiny][name]
    if name == "complex":
        specs = [("complex", ("build-complex", "--alpha", a, "--beta", b, "--root", r), size, 0)
                 for a, b, r in COMPLEX_CONFIGS]
        a, b, s2 = OFF_ROOT
        specs.append(("complex_off_root",
                      ("build-complex", "--alpha", a, "--beta", b, "--sigma2", s2), size, 0))
        return specs
    if name == "wdvv":
        specs = []
        for potential, m, euler in WDVV_RUNS:
            argv = ("verify-wdvv", "--potential", potential) + (("--m", m) if m else ())
            argv += ("--euler", "quarter-x") if euler else ()
            specs.append(("wdvv_euler" if euler else "wdvv", argv, size, 0))
        return specs
    if name == "reconstruct":
        # two samplings per pass, so the seed-dependent segment rejections
        # and quadrature depths average out
        points, segments = size
        return 2 * [("example3", ("reproduce", "example3", "--segments", str(segments)),
                     points, segments)]
    if name == "gd":
        return [("gd", ("reproduce", "gd"), size, 0)]
    raise ValueError(f"unknown workload {name!r}")


def invocations(name: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """The pass of workload ``name``; every ``--seed`` is drawn from ``seed``."""
    rng = random.Random(seed)
    return [Invocation(kind, argv, rng.randrange(2**31), points, segments)
            for kind, argv, points, segments in _specs(name, tiny)]


def build_fixed_objects(name: str) -> None:
    """Import lenardlab and build what the workload's invocations rebuild per
    call: one complex per configuration, one prepotential per potential, the
    example3 fixture with its complex, or the GD complex."""
    from lenardlab import equivariant as eq
    from lenardlab import gelfand_dikii, wdvv

    if name == "complex":
        for a, b, r in COMPLEX_CONFIGS:
            roots = eq.solve_phi_roots(float(a), float(b))
            sigma2 = roots.root1 if r == "1" else roots.root2
            eq.assemble_complex(eq.FamilyParams.solve(float(a), float(b), sigma2))
        a, b, s2 = OFF_ROOT
        eq.assemble_complex(eq.FamilyParams.solve(float(a), float(b), float(s2)))
    elif name == "wdvv":
        for m in (1.0, 2.0, 3.0, 7.0):
            wdvv.veselov_prepotential(wdvv.VeselovPotential(3, m))
        wdvv.veselov_prepotential(wdvv.VeselovPotential(3, 1.0), scale=1.0 / 16.0)
    elif name == "reconstruct":
        params, _ = eq.example3_fixture()
        eq.assemble_complex(params)
    elif name == "gd":
        gelfand_dikii.gd_complex()
    else:
        raise ValueError(f"unknown workload {name!r}")

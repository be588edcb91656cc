"""One reduction of residuals to report values, ``chartcore.worst``.

The verifiers yield each condition's residual array with the point axis
first, and ``worst_by_name`` reduces them: a NaN at any point of one
condition's residual fails exactly that condition, also where it is a
shortfall below a lower bound.  A static scan keeps
every other module of the package from reducing a residual by hand.
"""

import ast
import json
import math
import pathlib

import numpy as np
import pytest

from lenardlab import cli
from lenardlab import equivariant as eq
from lenardlab import gelfand_dikii as gd
from lenardlab.sampling import default_rng, sample_box, sample_gapped_box

N = 7

# the complex at (5, 2) root 1, not a family the other tests fix
CX = eq.assemble_complex(eq.FamilyParams.solve(5.0, 2.0, eq.solve_phi_roots(5.0, 2.0).root1))
VERIFIERS = {
    "complex": (eq, lambda: eq.verify_complex(
        CX, sample_gapped_box(default_rng(3), N, predicates=CX.sampling_predicates()))),
    "gd": (gd, lambda: gd.verify_gd_complex(sample_box(default_rng(3), N, 3, -2.0, 2.0))),
}
# jacobian_fd_agreement is one relative gap over every point: a float, not an array
FD_CHECK = "jacobian_fd_agreement"
CASES = [(verifier, name) for verifier, (module, _) in VERIFIERS.items()
         for name in module._CONDITIONS] + [("gd", "chain_independence")]


def values(report):
    return {c.name: c.max_residual for c in report.conditions}


BASELINE = {verifier: values(verify()) for verifier, (_, verify) in VERIFIERS.items()}


def residual_pairs(monkeypatch, module, edit=lambda name, residual: residual):
    """Wrap ``module.worst_by_name`` so that each (name, residual) pair passes
    through ``edit``; returns the list the pairs are recorded in."""
    real, seen = module.worst_by_name, []

    def edited(pairs):
        for name, residual in pairs:
            seen.append((name, np.shape(residual)))
            yield name, edit(name, residual)

    monkeypatch.setattr(module, "worst_by_name", lambda pairs: real(edited(pairs)))
    return seen


@pytest.mark.parametrize("verifier", VERIFIERS)
def test_every_residual_but_the_fd_check_has_the_point_axis_first(monkeypatch, verifier):
    module, verify = VERIFIERS[verifier]
    seen = residual_pairs(monkeypatch, module)
    verify()
    assert {name for name, _ in seen} == set(BASELINE[verifier])
    for name, shape in seen:
        assert shape == () if name == FD_CHECK else shape[:1] == (N,), (name, shape)


@pytest.mark.parametrize("at", [0, N // 2, N - 1])
@pytest.mark.parametrize("verifier, target", CASES)
def test_a_nan_at_one_point_fails_exactly_its_condition(monkeypatch, verifier, target, at):
    module, verify = VERIFIERS[verifier]
    hit = []

    def poison(name, residual):
        if name != target or hit:
            return residual
        hit.append(name)
        # a copy: a residual may be a read-only broadcast or a view another
        # condition reads too
        residual = np.array(residual, dtype=float)
        if name == FD_CHECK:
            return np.float64(np.nan)
        residual.reshape(N, -1)[at, 0] = np.nan
        return residual

    residual_pairs(monkeypatch, module, poison)
    report = verify()
    assert hit == [target]
    got = values(report)
    assert math.isnan(got[target]) and not report.condition(target).passed
    assert {k: v for k, v in got.items() if k != target} == {
        k: v for k, v in BASELINE[verifier].items() if k != target}


def nan_first(fn):
    """``fn`` with the first entry of its result replaced by NaN."""
    def wrapped(*args):
        out = np.array(fn(*args), dtype=float)
        out.flat[0] = np.nan
        return out
    return wrapped


@pytest.mark.parametrize("target, owner, attr", [
    ("chain_independence", np.linalg, "det"),
    ("nijenhuis_nonvanishing", cli, "nijenhuis_contracted"),
    ("power_chain_not_closed", cli, "closure_residual"),
])
def test_a_nan_below_a_lower_bound_is_not_clipped_away(monkeypatch, capsys, target, owner, attr):
    # a shortfall is clipped to np.maximum(0, bound - value) before its
    # reduction; Python's max(0.0, nan) would read 0.0 and pass
    monkeypatch.setattr(owner, attr, nan_first(getattr(owner, attr)))
    code = cli.main(["reproduce", "gd", "--points", str(N), "--seed", "3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    failed = {c["name"]: c["max_residual"] for c in doc["conditions"] if not c["pass"]}
    assert code == 1 and math.isnan(failed[target])


# --- the static guard ---------------------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lenardlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "chartcore.py")


def hand_reductions(source: str) -> list[str]:
    """Calls ``float(np.max(...))`` and mentions of ``nan_max`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float" and node.args \
                and isinstance(node.args[0], ast.Call) \
                and isinstance(node.args[0].func, ast.Attribute) \
                and node.args[0].func.attr in ("max", "amax"):
            found.append((node.lineno, f"float({ast.unparse(node.args[0].func)}(...))"))
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name == "nan_max":
            found.append((node.lineno, "nan_max"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_scan_sees_a_hand_reduction():
    assert hand_reductions(
        "from .chartcore import nan_max\n"
        "a = float(np.max(np.abs(d)))\n"
        "b = nan_max(x)\n"
        "c = float(numpy.amax(d, axis=0))\n"
        "d = cc.nan_max(x)\n"
        "e = worst(d)\n"
        "f = float(np.sum(d))\n") == [
        "line 1: nan_max", "line 2: float(np.max(...))", "line 3: nan_max",
        "line 4: float(numpy.amax(...))", "line 5: nan_max"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_chartcore_reduces_a_residual(path):
    assert hand_reductions(path.read_text()) == []

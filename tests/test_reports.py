"""Golden reports: every command line of ``scripts/reproduce_all.py``, rerun,
gives the committed ``reports/*.json`` in everything but rounding.

Structure, parameters, tolerances and verdicts are compared exactly; the
Euler contraction matrix at 1e-12; each residual within 5 % of its
tolerance, never byte for byte, so another numpy/BLAS build still passes.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reproduce_all():
    spec = importlib.util.spec_from_file_location("reproduce_all",
                                                  ROOT / "scripts" / "reproduce_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNS = _reproduce_all().RUNS


@pytest.mark.parametrize("name, argv", RUNS, ids=[name for name, _ in RUNS])
def test_report_matches_committed_golden(tmp_path, name, argv):
    from lenardlab.cli import main

    out = tmp_path / f"{name}.json"
    code = main(argv + ["--format", "json", "--out", str(out)])
    got = json.loads(out.read_text())
    want = json.loads((ROOT / "reports" / f"{name}.json").read_text())

    assert code == (0 if want["pass"] else 1)

    assert set(got) == set(want)
    for key in ("version", "command", "pass"):
        assert got[key] == want[key], key
    g_got = got["params"].pop("euler_g_matrix", None)
    g_want = want["params"].pop("euler_g_matrix", None)
    assert got["params"] == want["params"]
    assert (g_got is None) == (g_want is None)
    if g_want is not None:
        np.testing.assert_allclose(g_got, g_want, rtol=0.0, atol=1e-12)

    exact = ("name", "points", "tol", "pass")
    assert [{k: c[k] for k in exact} for c in got["conditions"]] == \
        [{k: c[k] for k in exact} for c in want["conditions"]]
    for c, w in zip(got["conditions"], want["conditions"]):
        assert abs(c["max_residual"] - w["max_residual"]) <= 0.05 * w["tol"], c["name"]


def test_script_runs_from_a_checkout_without_an_install(tmp_path):
    # a fresh interpreter, no PYTHONPATH, outside the checkout: importing the
    # script finds this checkout's src/ (and writes nothing under reports/)
    script = ROOT / "scripts" / "reproduce_all.py"
    code = ("import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('reproduce_all', {str(script)!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "print(module.main.__code__.co_filename, len(module.RUNS))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    path, runs = run.stdout.split()
    assert pathlib.Path(path) == ROOT / "src" / "lenardlab" / "cli.py"
    assert int(runs) == len(RUNS)

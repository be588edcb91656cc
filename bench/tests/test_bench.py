"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(workload: str, trace: bool) -> tuple[dict, str]:
    out = io.StringIO()
    result = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True,
                     setup_repeats=1, out=out)
    return result, out.getvalue()


def test_benchmark_json_names_the_workloads_and_metrics_the_code_measures():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    result, text = tiny_run(workload, trace)
    assert result["correct"], text
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in declared:
        line = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
        assert re.search(line, text, re.M), m["name"]
    assert re.search(r"^\s+fail_frac\s+0 \(0/\d+\)$", text, re.M)
    assert '"numpy"' in text and '"OPENBLAS_NUM_THREADS": "1"' in text
    assert tracer.leftover_wrappers() == []


def test_traced_run_reaches_the_layers_each_workload_is_for():
    reached = {w: tiny_run(w, True)[0]["metrics"] for w in workloads.WORKLOADS}

    def calls(workload, metric):
        return reached[workload][metric]["value"]

    assert calls("reconstruct", "chartcore.quad.node_evals") > 0
    assert all(calls(w, "chartcore.quad.calls") == 0 for w in ("complex", "wdvv", "gd"))
    assert calls("complex", "chartcore.field.calls") > 0
    assert calls("wdvv", "wdvv.residual.calls") > 0
    assert calls("wdvv", "chartcore.torsion.calls") == 0
    assert calls("gd", "gelfand_dikii.verify.busy_s") > 0
    assert 0 < calls("complex", "sampling.accept_ratio") <= 1


def test_tracer_wraps_every_namespace_and_restores_them():
    run.import_cli()
    from lenardlab import chartcore, cli, equivariant

    def bound():
        return (chartcore.fd_jacobian, cli.fd_jacobian, chartcore.fd_check_tensor,
                equivariant.fd_check_tensor, chartcore.OneFormField.coeff_at)

    originals = bound()
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = bound()
        assert traced[0] is traced[1] and traced[2] is traced[3]
        assert not any(t is o for t, o in zip(traced, originals))
        assert len(tracer.leftover_wrappers()) > 10
    finally:
        tr.uninstall()
    assert bound() == originals
    assert tracer.leftover_wrappers() == [] and tr.missing == []


# -- the verdict oracle --------------------------------------------------------


@pytest.fixture(scope="module")
def complex_reports(tmp_path_factory):
    """(invocation, exit status, report text) of one on-root and the off-root run."""
    cli = run.import_cli()
    tmp = tmp_path_factory.mktemp("reports")
    passes = workloads.invocations("complex", 5, tiny=True)
    out = []
    for inv in (passes[0], passes[-1]):
        path = tmp / f"{inv.kind}.json"
        code = cli.main(inv.command(str(path)))
        out.append((inv, code, path.read_text(encoding="utf-8")))
    return out


def _edit(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def _condition(doc: dict, name: str) -> dict:
    return next(c for c in doc["conditions"] if c["name"] == name)


def test_oracle_accepts_the_seed_reports(complex_reports):
    for inv, code, text in complex_reports:
        assert oracle.check(inv, code, text) is None


def test_oracle_flags_a_corrupted_report(complex_reports):
    inv, code, text = complex_reports[0]

    def drop_check(doc):
        del doc["conditions"][3]

    def flip_flag(doc):
        doc["conditions"][0]["pass"] = False

    def loosen(doc):
        _condition(doc, "jacobian_fd_agreement")["tol"] = 1e-3

    def nan_residual(doc):
        doc["conditions"][0]["max_residual"] = float("nan")

    def other_seed(doc):
        doc["params"]["seed"] += 1

    corrupted = [text[: len(text) // 2], "", *(_edit(text, change) for change in (
        drop_check, flip_flag, loosen, nan_residual, other_seed))]
    for bad in corrupted:
        assert oracle.check(inv, code, bad) is not None
    assert oracle.check(inv, 2, text) is not None


def test_oracle_flags_an_off_root_run_that_passes(complex_reports):
    (_, _, on_root_text), (off_inv, off_code, off_text) = complex_reports
    assert off_code == oracle.EXIT_FAIL

    def constraint_holds(doc):
        cond = _condition(doc, "symmetry_constraint")
        cond["max_residual"], cond["pass"] = 0.0, True

    def everything_holds(doc):
        for cond in doc["conditions"]:
            cond["max_residual"], cond["pass"] = 0.0, True
        doc["pass"] = True

    assert oracle.check(off_inv, oracle.EXIT_PASS, on_root_text) is not None
    assert oracle.check(off_inv, off_code, _edit(off_text, constraint_holds)) is not None
    assert oracle.check(off_inv, oracle.EXIT_PASS, _edit(off_text, everything_holds)) is not None


# -- what a run leaves behind ----------------------------------------------------


def _snapshot(*dirs: Path) -> dict:
    return {p: p.read_bytes() for d in dirs if d.is_dir() for p in sorted(d.rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def _git_status() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "status", "--porcelain", "--", "reports", "src"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout


def test_a_run_leaves_reports_and_sources_untouched():
    dirs = (ROOT / "reports", ROOT / "src")
    before, status = _snapshot(*dirs), _git_status()
    for workload in workloads.WORKLOADS:
        tiny_run(workload, False)
    assert _snapshot(*dirs) == before
    assert _git_status() == status
    assert not run.SCRATCH.exists() or not any(run.SCRATCH.iterdir())


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

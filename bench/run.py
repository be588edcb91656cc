#!/usr/bin/env python3
"""lenardlab benchmark: verified CLI reports per second, end to end and per layer.

    python3 bench/run.py --workload complex --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process each

Drives ``lenardlab.cli.main(argv)`` in process: closed loop, one client, one
thread, BLAS pinned to one thread.  A *pass* is the workload's fixed list of
invocations (see ``workloads.py``); after one warm-up invocation the benchmark
runs passes until ``--seconds`` have elapsed (at least ``MIN_PASSES``).  Every
report is written to a scratch directory via ``--out`` and checked by the
verdict oracle (``oracle.py``); a wrong verdict is a failed operation.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time to import lenardlab
  and build the workload's fixed objects;
* ``items_per_s``: verified points plus segments per second of invocation
  wall time, over the whole timed passes;
* ``report_s.p50``: median wall time of one invocation;
* ``peak_rss_mb``: peak resident set of this process.

``fail_frac`` (failed / attempted invocations) is printed with them; it is 0
on a correct build, so the result line carries it as ``failed``/``attempted``.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``tracer.py`` as medians over traced passes (values per pass),
plus ``trace.overhead_ratio``.  It also checks that the layer self times add
up to the traced invocation wall time within ``ACCOUNTING_SHARE``, and that
no tracing wrapper is left behind.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
only when every report is right and every check holds.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# pinned before anything imports numpy; child interpreters inherit them
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# tolerance overrides would change the reports the oracle checks
for _var in ("LENARDLAB_TOL_ANALYTIC", "LENARDLAB_TOL_FD"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_scratch"

MIN_PASSES = 2
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
# traced self times must add up to the traced wall time within this share
ACCOUNTING_SHARE = 0.01

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("report_s.p50", "s"),
              ("peak_rss_mb", "MiB"))
PER_LAYER = (
    ("cli.self_s", "s"), ("sampling.busy_s", "s"), ("sampling.accept_ratio", "ratio"),
    *((f"chartcore.{layer}.{kind}", unit)
      for layer in ("field", "regularity", "residual", "torsion", "fd", "segment_check", "quad")
      for kind, unit in (("calls", "count"), ("busy_s", "s"))),
    ("chartcore.quad.node_evals", "count"),
    ("equivariant.assemble.calls", "count"), ("equivariant.assemble.busy_s", "s"),
    ("equivariant.verify.busy_s", "s"), ("equivariant.wdvv_square.busy_s", "s"),
    ("equivariant.split.busy_s", "s"), ("equivariant.reconstruct.busy_s", "s"),
    ("wdvv.residual.calls", "count"), ("wdvv.residual.busy_s", "s"),
    ("wdvv.pivot_rejects", "count"),
    ("gelfand_dikii.verify.busy_s", "s"), ("gelfand_dikii.torsion_identity.busy_s", "s"),
    ("report.busy_s", "s"), ("report.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.build_fixed_objects(sys.argv[3])\n"
    "print(time.perf_counter() - t0)\n"
)


def import_cli():
    """lenardlab.cli from this checkout's src/, never an installed copy."""
    package = SRC / "lenardlab"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no lenardlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from lenardlab import cli

    if Path(cli.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported lenardlab from {cli.__file__}, not {package}")
    return cli


def env_stamp() -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        **{lib: " ".join(str(deps.get(lib, {}).get(key, "?")) for key in ("name", "version"))
           for lib in ("blas", "lapack")},
        "blas_config": deps.get("blas", {}).get("openblas configuration"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(workload: str, repeats: int) -> float:
    """Median seconds, over fresh interpreters, to import and build."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs passes of one workload and checks every report it gets back."""

    def __init__(self, cli, invocations: list, scratch: Path, log) -> None:
        self.cli = cli
        self.invocations = invocations  # one pass
        self.scratch = scratch
        self.log = log
        self.attempted = 0
        self.failed = 0

    def invoke(self, inv: workloads.Invocation) -> tuple[float, bool]:
        out = self.scratch / "report.json"
        crash = None
        t0 = time.perf_counter()
        try:
            code = self.cli.main(inv.command(str(out)))  # looked up now: may be traced
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:  # a crash is a failed operation, not the end of the run
            code, crash = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if crash is None:
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            reason = oracle.check(inv, code, text)
        else:
            reason = f"raised:\n{crash}"
        out.unlink(missing_ok=True)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"FAILED {' '.join(inv.argv)} --seed {inv.seed}: {reason}", file=self.log)
        return elapsed, reason is None

    def warm_up(self) -> None:
        """One untimed invocation, so first-call costs stay out of the passes."""
        self.invoke(self.invocations[0])

    def run_pass(self) -> tuple[float, int, list[float]]:
        """(wall seconds, verified items, per-invocation seconds)."""
        times, items = [], 0
        for inv in self.invocations:
            elapsed, ok = self.invoke(inv)
            times.append(elapsed)
            items += inv.items if ok else 0
        return sum(times), items, times


def timed_passes(seconds: float, one_pass) -> list:
    """Call ``one_pass`` until ``seconds`` have elapsed and MIN_PASSES ran."""
    results, t0 = [], time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        results.append(one_pass())
    return results


def run_untraced(runner: Runner, workload: str, seconds: float, setup_repeats: int):
    setup_s = measure_setup(workload, setup_repeats)
    runner.warm_up()
    passes = timed_passes(seconds, runner.run_pass)
    metrics = {
        "setup_s": setup_s,
        # totals over whole passes: on a shared machine the speed can switch
        # between fast and slow stretches lasting tens of seconds, and a mean
        # follows their mix more smoothly than a median, which snaps to either
        "items_per_s": sum(items for _, items, _ in passes) / sum(wall for wall, _, _ in passes),
        "report_s.p50": statistics.median(t for _, _, times in passes for t in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, [], f"{len(passes)} timed passes"


def run_traced(runner: Runner, seconds: float):
    tr = tracer.Tracer()
    problems: list[str] = []

    def pair():
        plain_wall, plain_items, _ = runner.run_pass()
        tr.install()
        try:
            wall, items, _ = runner.run_pass()
        finally:
            tr.uninstall()
        leftovers = tracer.leftover_wrappers()
        if leftovers:
            problems.append(f"tracing wrappers left installed: {leftovers}")
        layers, self_total = tr.take()
        if abs(self_total - wall) > ACCOUNTING_SHARE * wall:
            problems.append(f"layer self times sum to {self_total:.6f} s, "
                            f"traced wall time is {wall:.6f} s")
        return plain_items / plain_wall, items / wall, layers, abs(self_total - wall) / wall

    runner.warm_up()
    pairs = timed_passes(seconds, pair)
    metrics = {name: statistics.median(layers[name] for _, _, layers, _ in pairs)
               for name, _ in PER_LAYER if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = (statistics.median(p[1] for p in pairs)
                                       / statistics.median(p[0] for p in pairs))
    note = (f"{len(pairs)} untraced/traced pass pairs, accounting error "
            f"{max(p[3] for p in pairs):.2e} (limit {ACCOUNTING_SHARE:g})")
    if tr.missing:
        note += f", nothing to trace for {sorted(set(tr.missing))}"
    return metrics, problems, note


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        setup_repeats: int = SETUP_REPEATS, out=sys.stdout) -> dict:
    """Measure one workload; print the report lines and return the result."""
    cli = import_cli()
    print(f"env: {json.dumps(env_stamp(), sort_keys=True)}", file=out)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        runner = Runner(cli, workloads.invocations(workload, seed, tiny), scratch, out)
        if trace:
            metrics, problems, note = run_traced(runner, seconds)
            table = PER_LAYER
        else:
            metrics, problems, note = run_untraced(runner, workload, seconds, setup_repeats)
            table = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass
    print(f"workload {workload} seed {seed}: {note}, {runner.attempted} invocations", file=out)
    for name, unit in table:
        print(f"  {name:<40} {metrics[name]:.6g} {unit}", file=out)
    fail_frac = runner.failed / runner.attempted
    print(f"  {'fail_frac':<40} {fail_frac:.6g} ({runner.failed}/{runner.attempted})", file=out)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=out)
    return {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in a fresh process of its own, then a summary table."""
    results = {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[workload] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    table = PER_LAYER if trace else END_TO_END
    print(f"{'metric':<40}" + "".join(f"{w:>14}" for w in results) + "  unit")
    for name, unit in (*table, ("fail_frac", "1")):
        cells = []
        for result in results.values():
            value = (result["failed"] / result["attempted"] if name == "fail_frac"
                     else result["metrics"].get(name, {}).get("value", float("nan")))
            cells.append(f"{value:>14.6g}")
        print(f"{name:<40}" + "".join(cells) + f"  {unit}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_cli()  # fail before printing anything when the sources are missing
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

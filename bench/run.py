"""Benchmark: time to a verified identity, per workload.

    python3 bench/run.py --workload {modular,fock,cyclic,classical,all}
                         [--seed N] [--seconds S] [--trace 0|1]

The package is imported from the checkout's ``src/``.  One run measures
``setup_s`` (median import time of the harness in fresh interpreters),
then repeats passes over the workload's suite calls until ``--seconds`` is
spent, with BLAS pinned to one thread.  A pass's wall time is also given
in units of a reference kernel timed during the pass (``speed.py``), as
``wall_ref``, which follows the program's work and not the shared host's
drifting speed.  With ``--trace 0`` the result line carries the end-to-end
metrics ``wall_ref``, ``setup_s`` and ``peak_rss_mb``, and the output and
results file add the raw ``wall_s`` and ``fail_frac``; with ``--trace 1``
the run spends half the time on untraced passes and half on traced ones,
and reports the per-layer metrics.  Every run writes
``bench/results/<workload>-seed<N>-trace<T>.json`` with the machine it ran
on, and prints one JSON object as its last line.

``attempted`` counts the workload's suite runs, which depend on the seed
only, and ``failed`` those that fail their tolerance, their schema or
raise.  Later passes repeat the same runs for timing; ``correct`` is false
when one of them, traced or not, does not repeat the first pass's
residuals and verdicts bit for bit.
"""

import os

# BLAS threads must be fixed before numpy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
if not os.path.isdir(os.path.join(SRC, "qlattice")):
    sys.exit("error: no package at %s; run from the root of a full checkout" % SRC)
sys.path[:0] = [BENCH_DIR, SRC]

import mpmath  # noqa: E402,F401  (setup_s covers this import; keep it out of the first pass)
import numpy as np  # noqa: E402

import workloads  # noqa: E402

WORKLOAD_NAMES = ("modular", "fock", "cyclic", "classical")
DEFAULT_SEED = 20240501

SPAN_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "points": "count",
              "params": "count", "flops": "flop-computed"}
SETUP_SAMPLES = 7
SETUP_CODE = """\
import time
start = time.perf_counter()
import numpy, mpmath, jsonschema
import qlattice.harness.cli, qlattice.harness.suites
print(time.perf_counter() - start)
"""


def measure_setup():
    """Import times of the harness in fresh interpreters, after one untimed
    start that writes bytecode caches."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(out.stdout))
    return times


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout, read from ``.git``; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_info():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "env": {var: os.environ[var] for var in BLAS_ENV}},
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def check_consistency(reference, passes):
    """Every pass must repeat the reference residuals bit for bit."""
    problems = []
    for k, p in enumerate(passes, 1):
        kind = "traced" if p.stats is not None else "untraced"
        for ref, out in zip(reference, p.outcomes):
            if not _same(ref.max_residual, out.max_residual) or ref.passed != out.passed:
                problems.append("%s pass %d: %s residual %r differs from %r"
                                % (kind, k, out.label, out.max_residual, ref.max_residual))
    return problems


def layer_metrics(traced, untraced_walls, reference):
    """Per-layer metrics: medians over traced passes of each span field,
    per-suite max residuals of the positive runs, and tracing overhead."""
    metrics = {}
    stats = [p.stats for p in traced]
    for name, fields in stats[0].items():
        for field in fields:
            metrics["%s.%s" % (name, field)] = (
                statistics.median(s[name][field] for s in stats), SPAN_UNITS[field])
    metrics["harness.cases"] = (sum(o.cases for o in reference if o.suite in
                                    workloads.suites.SUITES), "count")
    for suite in workloads.SUITE_NAMES:
        res = [o.max_residual for o in reference if o.suite == suite
               and not o.negative_control and math.isfinite(o.max_residual)]
        metrics["harness.%s.max_residual" % suite] = (max(res) if res else 0.0, "1")
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_frac"] = (traced_wall / statistics.median(untraced_walls) - 1.0,
                                      "ratio")
    return metrics


def run_workload(args):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    machine = machine_info()
    setup_times = measure_setup()
    steps = workloads.build(args.workload, RESULTS_DIR)

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = workloads.run_passes(steps, args.seed, budget)
    traced = workloads.run_passes(steps, args.seed, budget, trace=True) if args.trace else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = untraced[0].outcomes
    problems = check_consistency(reference, untraced[1:] + traced)
    attempted = len(reference)
    failed = sum(not o.passed for o in reference)
    walls = [p.wall_s for p in untraced]
    passes = "median of %d passes" % len(untraced)

    e2e = {
        "wall_ref": (statistics.median(p.wall_ref for p in untraced), "ref", passes),
        "setup_s": (statistics.median(setup_times), "s",
                    "median of %d interpreters" % len(setup_times)),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
        "wall_s": (statistics.median(walls), "s", passes),
        "ref_s": (statistics.median(p.ref_s for p in untraced), "s", passes),
        "fail_frac": (failed / attempted, "ratio", "%d of %d suite runs" % (failed, attempted)),
    }
    reported = ("wall_ref", "setup_s", "peak_rss_mb")
    layers = layer_metrics(traced, walls, reference) if args.trace else {}

    print("workload %s  seed %d  %d untraced / %d traced passes  (BLAS threads %s)"
          % (args.workload, args.seed, len(untraced), len(traced),
             machine["blas"]["threads"]))
    for o in reference:
        print("  %-48s %s  residual %.3e  tol %.0e%s%s"
              % (o.label, "PASS" if o.passed else "FAIL", o.max_residual, o.tolerance,
                 "  [negative control]" if o.negative_control else "",
                 "  " + o.error if o.error else ""))
    for name, (value, unit, note) in e2e.items():
        print("  %-12s %12.6g %-5s (%s)" % (name, value, unit, note))
    for problem in problems:
        print("  INCONSISTENT", problem)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_s_samples": setup_times,
        "untraced_walls_s": walls,
        "untraced_ref_s": [p.ref_s for p in untraced],
        "traced_walls_s": [p.wall_s for p in traced],
        "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "outcomes": [vars(o) for o in reference],
        "attempted": attempted,
        "failed": failed,
        "inconsistencies": problems,
    }
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")

    shown = layers if args.trace else {k: e2e[k][:2] for k in reported}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        print(out.stdout, end="")
        last = json.loads(out.stdout.strip().splitlines()[-1])
        rows.append((name, last))
    print("%-10s %8s %9s %10s" % ("workload", "correct", "attempted", "fail_frac"))
    for name, last in rows:
        print("%-10s %8s %9d %10.4f" % (name, last["correct"], last["attempted"],
                                        last["failed"] / last["attempted"]))
    return 0 if all(last["correct"] for _, last in rows) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

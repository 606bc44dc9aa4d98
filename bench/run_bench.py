"""Layered benchmark of the asaddle simulator.

    python3 bench/run_bench.py --workload consensus_run --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``. With ``--trace 0`` it times the workload's public set-up calls and
its public call with nothing wrapped and prints the end-to-end metrics; with
``--trace 1`` it wraps the public names each layer is called by, alternates
traced and untraced calls, and prints the per-layer metrics and the tracing
overhead. Every call's outputs are checked. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it records provenance. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Seed kept out of every tuning run: check a later claim on it as well.
HELD_OUT_SEED = 1707

MIN_REPS = 3              # fewest timed calls of the workload per run
# Set-up rounds run in blocks of at least this long, one block before every
# timed call, so they sample the same stretch of machine time as the calls.
SETUP_BLOCK_SECONDS = 0.2

LAYERS = ("graph", "apps", "problem", "delay", "saddle", "metrics", "cli")


def fail(message: str) -> int:
    print(f"run_bench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def tree_sha256(path: str) -> str:
    """Hash of every .py file under ``path``, names included."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(path)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                full = os.path.join(dirpath, name)
                digest.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(workload_name: str, seed: int, workload) -> dict:
    from workloads import inputs_sha256

    return {
        "workload": workload_name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "inputs": {k: v for k, v in workload.inputs().items()
                   if k in ("seeds", "eval_seed", "optimum_seed", "T", "optimum_budget", "budget")},
        "config_sha256": inputs_sha256(workload),
        "git_commit": git_commit(ROOT),
        "src_sha256": tree_sha256(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# timed calls
# ---------------------------------------------------------------------------

def attempt(workload, out_dir: str, tracer=None):
    """One call of the workload: (seconds, ok, result or None).

    An exception or a failed check counts the call as failed; the traceback
    or the problems go to stderr."""
    fn = workload.call if tracer is None else tracer.traced(workload.call_name, workload.call)
    t0 = time.perf_counter()
    try:
        result = fn(out_dir)
    except Exception:
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, False, None
    elapsed = time.perf_counter() - t0
    try:
        problems = workload.check(result)
    except Exception:
        traceback.print_exc()
        return elapsed, False, result
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return elapsed, not problems, result


def time_setup(workload, min_seconds: float, tracer=None) -> list[float]:
    """Repeat the public set-up calls for at least ``min_seconds`` (at least
    once); seconds of each round. With a tracer, round k is run id k."""
    times = []
    t_begin = time.perf_counter()
    while not times or time.perf_counter() - t_begin < min_seconds:
        if tracer is not None:
            tracer.run_id = len(times)
        t0 = time.perf_counter()
        if tracer is None:
            workload.setup()
        else:
            tracer.call("bench.setup", workload.setup)
        times.append(time.perf_counter() - t0)
    return times


def measure_untraced(workload, seconds: float, out_dir: str):
    setup, walls, ok = [], [], []
    t_begin = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - t_begin < seconds:
        setup += time_setup(workload, SETUP_BLOCK_SECONDS)
        elapsed, good, _ = attempt(workload, out_dir)
        walls.append(elapsed)
        ok.append(good)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed = len(ok), ok.count(False)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
    }
    return attempted, failed, metrics, {"setup_reps": len(setup), "reps": len(walls)}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def trace_targets():
    """Every wrapped name: (owner, attribute, span name, after-hook).

    Each name is wrapped in the namespace its caller looks it up in."""
    import asaddle.apps.pricing
    from asaddle import cli, saddle
    from asaddle.delay import StalenessBuffer
    from asaddle.problem import ExpectedObjective
    from asaddle.saddle import SaddleEngine

    return [
        (cli, "build_graph", "graph.build", None),
        (asaddle.apps.pricing, "build_graph", "graph.build", None),
        (cli, "build_consensus_problem", "apps.build", None),
        (cli, "build_pricing_problem", "apps.build", None),
        (ExpectedObjective, "__init__", "problem.evaluator_build", None),
        (ExpectedObjective, "value", "problem.evaluate", None),
        (saddle, "sample_observation", "problem.sample", None),
        (saddle, "project", "problem.project", None),
        (saddle, "resolve", "delay.resolve", None),
        (StalenessBuffer, "record", "delay.buffer", None),
        (StalenessBuffer, "fetch", "delay.buffer", None),
        (SaddleEngine, "run", "saddle.run", _count_engine_bytes),
        (SaddleEngine, "step", "saddle.step", None),
        (saddle, "primal_gradient", "saddle.primal_gradient", None),
        (saddle, "dual_slack", "saddle.dual_slack", None),
        (cli, "estimate_optimum", "metrics.estimate_optimum", None),
        (cli, "audit_assumptions", "metrics.advisor", None),
        (cli, "trace_columns", "cli.trace_columns", None),
        (cli, "write_csv", "cli.write_csv", _count_csv_bytes),
    ]


def _count_engine_bytes(tracer, args, result) -> None:
    engine = args[0]
    tracer.count("saddle.trace_bytes", sum(
        v.nbytes for v in vars(engine).values() if isinstance(v, np.ndarray)))


def _count_csv_bytes(tracer, args, result) -> None:
    tracer.count("cli.csv_bytes", os.path.getsize(args[0]))


def main_step_ratio(tracer, run_ids) -> float:
    """dual_slack calls per engine step over the workload's own engine runs.

    Steps of an F* reference run nested inside a larger public call are left
    out: that run is synchronous and would pull the ratio of an async
    experiment toward 1. When the public call is the F* run, its steps count.
    """
    a = tracer.arrays()

    def named(name):
        return a["name_id"] == (tracer.names.index(name) if name in tracer.names else -1)

    keep = np.isin(a["run"], list(run_ids))
    nested_fstar = keep & named("metrics.estimate_optimum") & (a["parent"] >= 0)
    for idx in np.flatnonzero(nested_fstar):   # one thread: a span's window holds its descendants
        begin, end = a["start"][idx], a["start"][idx] + a["dur"][idx]
        keep &= (a["start"] < begin) | (a["start"] > end)
    steps = np.sum(keep & named("saddle.step"))
    return float(np.sum(keep & named("saddle.dual_slack")) / max(steps, 1))


def measure_traced(workload, seconds: float, out_dir: str):
    """Per-layer metrics from traced calls alternated with untraced ones."""
    from layer_trace import Tracer

    tracer = Tracer()
    targets = trace_targets()
    with tracer.installed(targets):
        setup_runs = list(range(len(time_setup(workload, 1.0, tracer))))
    walls = {False: [], True: []}
    ok, fstar_errs, traced_runs = [], [], []
    t_begin = time.perf_counter()
    while min(map(len, walls.values())) < MIN_REPS or time.perf_counter() - t_begin < seconds:
        traced = len(walls[True]) < len(walls[False])
        if traced:
            tracer.run_id = len(setup_runs) + len(traced_runs)
            traced_runs.append(tracer.run_id)
            with tracer.installed(targets):
                elapsed, good, result = attempt(workload, out_dir, tracer)
            if result is not None:
                fstar_errs.append(workload.fstar_abs_err(result))
        else:
            elapsed, good, _ = attempt(workload, out_dir)
        walls[traced].append(elapsed)
        ok.append(good)
    tracer.write(os.path.join(out_dir, "spans.npz"))

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    setup_sums = tracer.summary(setup_runs).values()
    sums = tracer.summary(traced_runs).values()

    def setup_layer(name, key):
        return med(s.get(name, {}).get(key, 0.0) for s in setup_sums)

    def layer(name, key):
        return med(s.get(name, {}).get(key, 0.0) for s in sums)

    def counter(name):
        return med(tracer.counters.get((r, name), 0.0) for r in traced_runs)

    node_steps = layer("saddle.step", "calls") * workload.spec.graph.n_nodes
    untraced, traced = med(walls[False]), med(walls[True])
    m = {
        "graph.build_s": (setup_layer("graph.build", "self_s"), "s"),
        "apps.build_s": (setup_layer("apps.build", "self_s"), "s"),
        "problem.evaluator_build_s": (setup_layer("problem.evaluator_build", "s"), "s"),
    }
    for name in ("problem.sample", "problem.project", "problem.evaluate", "delay.resolve",
                 "delay.buffer", "saddle.step", "saddle.dual_slack", "cli.write_csv"):
        m[f"{name}.calls"] = (layer(name, "calls"), "count")
        m[f"{name}.s"] = (layer(name, "s"), "s")
    m.update({
        "saddle.step.self_s": (layer("saddle.step", "self_s"), "s"),
        "saddle.primal_gradient.s": (layer("saddle.primal_gradient", "s"), "s"),
        "saddle.us_per_node_step": (1e6 * layer("saddle.step", "s") / max(node_steps, 1), "us"),
        "saddle.dual_slack.calls_per_step": (main_step_ratio(tracer, traced_runs), "1"),
        "saddle.trace_bytes": (counter("saddle.trace_bytes"), "bytes"),
        "metrics.estimate_optimum.s": (layer("metrics.estimate_optimum", "s"), "s"),
        "metrics.advisor.s": (layer("metrics.advisor", "s"), "s"),
        "metrics.fstar_abs_err": (med(fstar_errs), "1"),
        "cli.csv_bytes": (counter("cli.csv_bytes"), "bytes"),
        "cli.trace_columns.s": (layer("cli.trace_columns", "s"), "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_frac": ((traced - untraced) / untraced, "1"),
    })
    for prefix in LAYERS:
        m[f"{prefix}.self_s"] = (med(sum((v["self_s"] for k, v in s.items()
                                          if k.startswith(prefix + ".")), 0.0) for s in sums), "s")
    counts = {"setup_reps": len(setup_runs), "reps": len(walls[False]),
              "traced_reps": len(walls[True])}
    return len(ok), ok.count(False), m, counts


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: str, **sizes):
    """Build the workload and measure it; returns (result, provenance).

    ``sizes`` shrinks the workload (tests only)."""
    from workloads import make_workload

    workload = make_workload(workload_name, ROOT, seed, **sizes)
    measure = measure_traced if trace else measure_untraced
    attempted, failed, metrics, counts = measure(workload, seconds, out_dir)
    prov = provenance(workload_name, seed, workload)
    prov.update(counts, trace=int(trace), seconds=seconds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, prov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep repeating the timed call")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="keep spans and CSVs here (default: a temporary "
                             "directory in the checkout, deleted at exit)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "asaddle", "__init__.py")):
        return fail(f"no asaddle sources under {SRC}")
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        return fail(f"no configs directory under {ROOT}")
    sys.path.insert(0, SRC)
    import asaddle
    if os.path.dirname(os.path.dirname(os.path.abspath(asaddle.__file__))) != SRC:
        return fail(f"imported asaddle from {asaddle.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    out_dir = args.out or tempfile.mkdtemp(prefix=".bench-out-", dir=ROOT)
    os.makedirs(out_dir, exist_ok=True)
    try:
        result, prov = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        if args.out is None:
            shutil.rmtree(out_dir, ignore_errors=True)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload untraced, then every workload traced.

    python3 bench/run_all.py [--seed 0] [--seconds N]

Each run is its own single process (``run_bench.py``) with numpy's BLAS pool
limited to one thread. Spans and CSV outputs go to a temporary directory that
is deleted at the end; each run's result line is printed as it finishes,
followed by one table of the end-to-end and one of the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    status = 0
    with tempfile.TemporaryDirectory(prefix="asaddle-bench-") as tmp:
        for trace in (0, 1):
            for name in workloads:
                out = os.path.join(tmp, f"{name}-trace{trace}")
                cmd = [sys.executable, os.path.join(BENCH, "run_bench.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(seconds),
                       "--trace", str(trace), "--out", out]
                proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
                sys.stderr.write(proc.stderr)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} trace={trace}: exit code {proc.returncode}")
                    status = 1
                    continue
                print(f"{name} trace={trace}: {lines[-1]}", flush=True)
                results[name, trace] = json.loads(lines[-1])
                status |= not results[name, trace]["correct"]

    for trace in (0, 1):
        done = [name for name in workloads if (name, trace) in results]
        if not done:
            continue
        print(f"\n{'metric':34s} {'unit':6s}" + "".join(f"{name:>18s}" for name in done))
        for metric, v in results[done[0], trace]["metrics"].items():
            values = "".join(f"{results[name, trace]['metrics'][metric]['value']:18.6g}" for name in done)
            print(f"{metric:34s} {v['unit']:6s}{values}")
    return status


if __name__ == "__main__":
    sys.exit(main())

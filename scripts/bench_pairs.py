"""Paired end-to-end benchmark of this checkout against another one.

    python scripts/bench_pairs.py OTHER_CHECKOUT --workload W --seed S [--pairs 10] [--seconds 35]

OTHER_CHECKOUT is the parent: the checkout this one is measured against.
Each pair runs both checkouts' own ``bench/run_bench.py --trace 0`` one
after the other, the parent first in pair k when k is even, so that a drift
of the machine over the session hits both sides alike. Prints one JSON
object: the workload's end-to-end block, per metric the parent's and this
checkout's median, q1 and q3 (numpy linear percentiles) and runs, the pairs
this checkout wins (ties count for neither side) and the ratio of medians.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``run_bench.py --trace 0`` run of ``checkout``."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ASADDLE_OUT")}
    cmd = [sys.executable, os.path.join(checkout, "bench", "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _side(runs: list) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(runs),
            "runs": [float(v) for v in runs]}


def summarize(pairs: list, better: dict) -> dict:
    """End-to-end block of ``pairs``, a list of (parent result, change
    result) as ``run_bench.py`` prints them; ``better`` maps each metric to
    "lower" or "higher"."""
    block = {
        "pairs": len(pairs),
        "failed_calls": {"parent": sum(p["failed"] for p, _ in pairs),
                         "change": sum(c["failed"] for _, c in pairs)},
        "attempted_calls": {"parent": sum(p["attempted"] for p, _ in pairs),
                            "change": sum(c["attempted"] for _, c in pairs)},
        "metrics": {},
    }
    for name, direction in better.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
        ties = sum(a == b for a, b in zip(parent, change))
        p_side, c_side = _side(parent), _side(change)
        block["metrics"][name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent": p_side,
            "change": c_side,
            "change_wins": int(wins),
            "ties": int(ties),
            "change_over_parent_median": (c_side["median"] / p_side["median"]
                                          if p_side["median"] else None),
        }
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="root of the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)
    other = os.path.abspath(args.other)
    if not os.path.isfile(os.path.join(other, "bench", "run_bench.py")):
        print(f"bench_pairs: no bench/run_bench.py under {other}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    pairs = []
    try:
        for k in range(args.pairs):
            order = (other, ROOT) if k % 2 == 0 else (ROOT, other)
            got = {side: bench_once(side, args.workload, args.seed, args.seconds) for side in order}
            pairs.append((got[other], got[ROOT]))
            print(f"pair {k}: parent wall_s {got[other]['metrics']['wall_s']['value']:.4g}, "
                  f"change {got[ROOT]['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    key = f"{args.workload} seed {args.seed}"
    print(json.dumps({key: summarize(pairs, better)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

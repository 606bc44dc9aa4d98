#!/usr/bin/env python3
"""Revenue against the interference power margin.

Runs the pricing scenario at a set of margins from a low feasible price start
and prints the final-quarter mean revenue per margin: looser margins leave
more interference headroom to sell, so revenue should increase with gamma.
"""

import argparse

import numpy as np

from asaddle.apps.pricing import PricingConfig, build_pricing_problem
from asaddle.delay import DelaySchedule
from asaddle.saddle import Hyperparams, run

X0_LOW = ((0.9,), (0.45, 0.45), (0.9,))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=20000)
    ap.add_argument("--margins-db", type=float, nargs="+", default=[-3.0, 0.0, 4.0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args()

    print(f"{'margin (dB)':>12}{'revenue':>12}")
    for gdb in args.margins_db:
        cfg = PricingConfig(gamma_db=gdb, x0=X0_LOW)
        spec = build_pricing_problem(cfg)
        hp = Hyperparams(epsilon=0.01, delta=1e-5, T=args.T)
        finals = []
        for seed in args.seeds:
            sched = DelaySchedule(kind="uniform_random", tau_max=10, seed=seed)
            trace = run(spec, hp, sched, seed=seed, evaluator=None, thin_every=0)
            inst = -trace.obj_sample
            finals.append(inst[3 * args.T // 4:].mean())
        print(f"{gdb:>12.1f}{np.mean(finals):>12.3f}")


if __name__ == "__main__":
    main()

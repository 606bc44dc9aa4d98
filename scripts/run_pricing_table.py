#!/usr/bin/env python3
"""SINR comparison for the interference-pricing scenario.

Runs the asynchronous method at the published parameters over several seeds
and prints the per-MU average SINR next to the unit-power naive baseline.
"""

import argparse

import numpy as np

from asaddle.apps.pricing import (PricingConfig, build_pricing_problem, naive_baseline,
                                  revenue_series, sinr_report)
from asaddle.delay import DelaySchedule
from asaddle.saddle import Hyperparams, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=50000)
    ap.add_argument("--tau", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = ap.parse_args()

    cfg = PricingConfig()
    spec = build_pricing_problem(cfg)
    hp = Hyperparams(epsilon=0.01, delta=1e-5, T=args.T)

    sinrs, revenues = [], []
    for seed in args.seeds:
        sched = DelaySchedule(kind="uniform_random", tau_max=args.tau, seed=seed)
        trace = run(spec, hp, sched, seed=seed, evaluator=None, thin_every=1000,
                    record_current_slack=True)
        sinrs.append(sinr_report(cfg, trace))
        revenues.append(revenue_series(cfg, trace)[-1])

    sinr = np.mean(sinrs, axis=0)
    naive = naive_baseline(cfg, seed=2020, T=args.T)
    print(f"{'user':<6}{'priced (dB)':>14}{'naive (dB)':>14}")
    for i in range(cfg.n_mus):
        print(f"MU {i + 1:<3}{sinr[i]:>14.1f}{naive[i]:>14.1f}")
    print(f"\nfinal running-average revenue: {np.mean(revenues):.3f}")


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy experiment bundles
are module-scoped fixtures shared between criteria; every trace produced here
is registered for the final invariant audit.
"""

import math
import time

import numpy as np
import pytest

from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
from asaddle.apps.pricing import (PricingConfig, build_pricing_problem, naive_baseline,
                                  sinr_report)
from asaddle.delay import DelaySchedule
from asaddle.errors import NoFeasibleDelta
from asaddle.graph import build_graph, ring_edges
from asaddle.metrics import (AssumptionEstimates, audit_invariants, estimate_optimum, fit_rate,
                             running_suboptimality)
from asaddle.problem import ExpectedObjective, project, sample_observation
from asaddle.saddle import Hyperparams, advise, run, run_lanes

from conftest import SMALL_CONSENSUS_CFG, assert_grad_close, central_difference
from reference import as_neighborhood, capture_records
from test_problem import DOMAINS, slsqp_projection

SEEDS5 = (0, 1, 2, 3, 4)
EVAL_SEED = 2020
OPT_SEED = 424243

TRACE_REGISTRY = []  # (label, trace) pairs audited by criterion 8


def _register(label, traces):
    for k, tr in enumerate(traces):
        TRACE_REGISTRY.append((f"{label}[{k}]", tr))


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def consensus_rate_spec():
    graph = build_graph(5, ring_edges(5))
    cfg = ConsensusRegressionConfig(p=4, gamma=0.5, x0_value=1.5)
    return build_consensus_problem(cfg, graph)


# ---------------------------------------------------------------------------
# shared experiment bundles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def consensus_bundle():
    """Criteria 2 and 3: 5-seed asynchronous runs on the N=5 ring instance."""
    start = time.perf_counter()
    spec = consensus_rate_spec()
    T = 10**4
    hp = Hyperparams(epsilon=1.0 / math.sqrt(T), delta=1e-5, T=T)
    evaluator = ExpectedObjective(spec, 2000, seed=EVAL_SEED)
    f_star, _ = estimate_optimum(spec, 50000, seed=OPT_SEED, eval_seed=EVAL_SEED)
    traces = run_lanes(spec, hp, [DelaySchedule(kind="uniform_random", tau_max=10, seed=s)
                                  for s in SEEDS5], SEEDS5, evaluator=evaluator)
    elapsed = time.perf_counter() - start
    _register("consensus_rates", traces)
    mean_fhat = np.mean([tr.F_hat for tr in traces], axis=0)
    cum_subopt = np.cumsum(mean_fhat[1:] - f_star)
    mean_violation = np.mean([tr.violation_cumclip for tr in traces], axis=0)
    return {
        "f_star": f_star,
        "cum_subopt": cum_subopt,
        "violation": mean_violation,
        "elapsed": elapsed,
        "traces": traces,
        "tau": 10,
    }


@pytest.fixture(scope="module")
def pricing_sinr_bundle():
    """Criterion 4: the two-MU/three-SCBS scenario at its published parameters."""
    start = time.perf_counter()
    cfg = PricingConfig()
    spec = build_pricing_problem(cfg)
    T = 50000
    hp = Hyperparams(epsilon=0.01, delta=1e-5, T=T)
    traces = run_lanes(spec, hp, [DelaySchedule(kind="uniform_random", tau_max=10, seed=s)
                                  for s in SEEDS5], SEEDS5, evaluator=None, thin_every=1000,
                       record_current_slack=True)
    sinr = np.mean([sinr_report(cfg, tr) for tr in traces], axis=0)
    naive = naive_baseline(cfg, seed=EVAL_SEED, T=T)
    elapsed = time.perf_counter() - start
    _register("pricing_table", traces)
    return {"cfg": cfg, "sinr": sinr, "naive": naive, "elapsed": elapsed,
            "traces": traces, "tau": 10}


@pytest.fixture(scope="module")
def margin_bundle():
    """Criterion 5: revenue at a loose vs tight interference margin."""
    x0_low = ((0.9,), (0.45, 0.45), (0.9,))
    T = 20000
    out = {}
    all_traces = []
    for gdb in (-3.0, 4.0):
        cfg = PricingConfig(gamma_db=gdb, x0=x0_low)
        spec = build_pricing_problem(cfg)
        hp = Hyperparams(epsilon=0.01, delta=1e-5, T=T)
        finals = []
        traces = run_lanes(spec, hp, [DelaySchedule(kind="uniform_random", tau_max=10, seed=s)
                                      for s in (0, 1, 2)], (0, 1, 2), evaluator=None,
                           thin_every=0)
        for tr in traces:
            inst = -tr.obj_sample
            finals.append(inst[3 * T // 4:].mean())
            all_traces.append(tr)
        out[gdb] = float(np.mean(finals))
    _register("pricing_margins", all_traces)
    return out


@pytest.fixture(scope="module")
def mode_bundle():
    """Criterion 6: synchronous vs tau=10 asynchronous on the pricing config."""
    cfg = PricingConfig()
    spec = build_pricing_problem(cfg)
    T = 30000
    hp = Hyperparams(epsilon=0.01, delta=1e-5, T=T)
    evaluator = ExpectedObjective(spec, 2000, seed=EVAL_SEED)
    f_star, _ = estimate_optimum(spec, 60000, seed=OPT_SEED, epsilon=0.01,
                                 eval_seed=EVAL_SEED)
    series = {}
    # one bundle of 6 lanes, as `compare` runs it: a sync lane runs as a
    # zero-delay lane there, which is the same trajectory
    bundle = run_lanes(spec, hp, [None] * 3 + [DelaySchedule(kind="uniform_random", tau_max=10,
                                                             seed=s) for s in (0, 1, 2)],
                       (0, 1, 2) * 2, evaluator=evaluator, thin_every=1000)
    for mode, traces in (("sync", bundle[:3]), ("async", bundle[3:])):
        _register(f"pricing_modes_{mode}", traces)
        mean_fhat = np.mean([tr.F_hat for tr in traces], axis=0)
        series[mode] = running_suboptimality(mean_fhat, f_star)
    return {"T": T, "series": series}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_zero_delay_bitwise_equivalence():
    spec = build_consensus_problem(ConsensusRegressionConfig(),
                                   build_graph(5, ring_edges(5)))
    hp = Hyperparams(epsilon=1.0 / math.sqrt(2000), delta=1e-5, T=2000)
    start = time.perf_counter()
    identical = True
    traces = []
    # two bundles: in one bundle with zero-delay lanes, a sync lane would run
    # as a zero-delay lane itself
    with capture_records() as sync_slacks:
        syncs = run_lanes(spec, hp, [None] * 5, SEEDS5, thin_every=1)
    with capture_records() as async_slacks:
        asyncs = run_lanes(spec, hp, [DelaySchedule(kind="zero")] * 5, SEEDS5, thin_every=1)
    for sync, asyn, s_slack, a_slack in zip(syncs, asyncs, sync_slacks.delayed_slack(5),
                                            async_slacks.delayed_slack(5)):
        traces += [sync, asyn]
        for t in sync.x_snapshots:
            identical &= bool(np.array_equal(sync.x_snapshots[t], asyn.x_snapshots[t]))
        identical &= bool(np.array_equal(sync.lambda_norm, asyn.lambda_norm))
        identical &= s_slack.tobytes() == a_slack.tobytes()
    elapsed = time.perf_counter() - start
    _register("zero_delay_equivalence", traces)
    ok = identical and elapsed < 10.0
    report(1, ok, f"bitwise identical over 5 seeds (T=2000), elapsed {elapsed:.1f}s < 10s")
    assert identical
    assert elapsed < 10.0


def test_criterion_2_suboptimality_rate(consensus_bundle):
    slope = fit_rate(consensus_bundle["cum_subopt"])
    elapsed = consensus_bundle["elapsed"]
    ok = slope <= 0.6 and elapsed < 120.0
    report(2, ok, f"cumulative suboptimality log-log slope {slope:.3f} <= 0.6 "
                  f"(theory 0.5), runs took {elapsed:.1f}s < 120s")
    assert slope <= 0.6
    assert elapsed < 120.0


def test_criterion_3_violation_rate(consensus_bundle):
    slope = fit_rate(consensus_bundle["violation"])
    ok = slope <= 0.8
    report(3, ok, f"clipped cumulative violation log-log slope {slope:.3f} <= 0.8 "
                  f"(theory 0.75); same runs as criterion 2")
    assert slope <= 0.8


def test_criterion_4_sinr_table(pricing_sinr_bundle):
    sinr = pricing_sinr_bundle["sinr"]
    naive = pricing_sinr_bundle["naive"]
    elapsed = pricing_sinr_bundle["elapsed"]
    in_band = abs(sinr[0] - 29.0) <= 3.0 and abs(sinr[1] - 28.0) <= 3.0
    naive_band = all(abs(v - 22.0) <= 3.0 for v in naive)
    gap_ok = all(sinr[i] - naive[i] >= 4.0 for i in range(2))
    ok = in_band and naive_band and gap_ok and elapsed < 120.0
    report(4, ok, f"SINR MU1 {sinr[0]:.1f} dB (29±3), MU2 {sinr[1]:.1f} dB (28±3); "
                  f"naive {naive[0]:.1f}/{naive[1]:.1f} dB (22±3); "
                  f"gaps {sinr[0]-naive[0]:.1f}/{sinr[1]-naive[1]:.1f} >= 4 dB; "
                  f"elapsed {elapsed:.1f}s < 120s")
    assert in_band and naive_band and gap_ok
    assert elapsed < 120.0


def test_criterion_5_revenue_ordering(margin_bundle):
    low, high = margin_bundle[-3.0], margin_bundle[4.0]
    margin = (high - low) / low
    ok = high > low and margin >= 0.10
    report(5, ok, f"final-quarter revenue {high:.3f} at +4 dB vs {low:.3f} at -3 dB "
                  f"(margin {100*margin:.0f}% >= 10%)")
    assert high > low
    assert margin >= 0.10


def test_criterion_6_async_settles_higher(mode_bundle):
    T = mode_bundle["T"]
    s_sync = mode_bundle["series"]["sync"]
    s_async = mode_bundle["series"]["async"]
    ordered = s_async[-1] >= s_sync[-1]
    decreasing = s_async[-1] < s_async[T // 10]
    ok = ordered and decreasing
    report(6, ok, f"final running suboptimality async {s_async[-1]:.4f} >= "
                  f"sync {s_sync[-1]:.4f}; async still decreasing over final decade "
                  f"({s_async[T//10]:.4f} -> {s_async[-1]:.4f})")
    assert ordered
    assert decreasing


def test_criterion_7_oracle_suites(small_consensus_spec):
    # projection vs independent constrained-least-squares oracle
    rng = np.random.default_rng(77)
    proj_worst = 0.0
    for domain in DOMAINS:
        for _ in range(100 // len(DOMAINS) + 1):
            u = rng.uniform(-8, 25, size=domain.dim)
            proj_worst = max(proj_worst, float(np.linalg.norm(
                project(domain, u) - slsqp_projection(domain, u))))
    proj_ok = proj_worst <= 1e-6

    # gradients vs central finite differences at differentiable points
    grad_ok = True
    spec_c = consensus_rate_spec()
    for _ in range(100):
        node = int(rng.integers(5))
        x = rng.uniform(-1.5, 1.5, size=4)
        th = sample_observation(spec_c, 3, node, int(rng.integers(10**4)))
        analytic = spec_c.objectives[node].grad(x, th)
        numeric = central_difference(lambda v: spec_c.objectives[node].value(v, th), x)
        try:
            assert_grad_close(analytic, numeric)
        except AssertionError:
            grad_ok = False
    checked = 0
    spec_p = build_pricing_problem(PricingConfig())
    while checked < 100:
        n = int(rng.integers(3))
        x = rng.uniform(0.3, 6.0, size=spec_p.dims[n])
        th = sample_observation(spec_p, 5, n, int(rng.integers(10**4)))
        if np.any(np.abs(1.0 / (0.1 + x) - 1.0 / th[1]) < 1e-3):
            continue
        analytic = spec_p.objectives[n].grad(x, th)
        numeric = central_difference(lambda v: spec_p.objectives[n].value(v, th), x)
        try:
            assert_grad_close(analytic, numeric)
        except AssertionError:
            grad_ok = False
        checked += 1

    # synthetic exponent recovery
    t = np.arange(1, 20001)
    fit_ok = (abs(fit_rate(np.sqrt(t)) - 0.5) <= 0.01
              and abs(fit_rate(t ** 0.75) - 0.75) <= 0.01)

    # pairwise vs neighborhood encoding agreement
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=150)
    sched = lambda: DelaySchedule(kind="uniform_random", tau_max=3, seed=5)
    pw = run(small_consensus_spec, hp, sched(), seed=2, thin_every=1)
    nb = run(as_neighborhood(small_consensus_spec, SMALL_CONSENSUS_CFG), hp, sched(),
             seed=2, thin_every=1)
    enc_worst = max(float(np.max(np.abs(pw.x_snapshots[t] - nb.x_snapshots[t])))
                    for t in pw.x_snapshots)
    enc_ok = enc_worst <= 1e-12

    ok = proj_ok and grad_ok and fit_ok and enc_ok
    report(7, ok, f"projection worst gap {proj_worst:.2e} <= 1e-6; "
                  f"finite-difference checks {'clean' if grad_ok else 'FAILED'}; "
                  f"exponent recovery {'ok' if fit_ok else 'FAILED'}; "
                  f"encoding agreement {enc_worst:.2e} <= 1e-12")
    assert proj_ok and grad_ok and fit_ok and enc_ok


def test_criterion_9_advisor_consistency(path3):
    est = AssumptionEstimates(sigma_f2=2.0, sigma_h2=1.5, sigma_lambda2=5.0, L_f=3.0)
    L2 = max(est.sigma_f2, est.sigma_h2)
    violations = 0
    checked_feasible = 0
    checked_infeasible = 0
    for tau in (0, 1, 5, 10):
        K1 = (path3.n_nodes + path3.n_edges**2) * L2
        C = 2 * K1 + (tau + 1) * tau * (K1 + 4 * est.L_f * math.sqrt(K1))
        for T in sorted({10, 100, int(7.9 * C) + 1, int(8.0 * C) + 1, int(8.2 * C) + 1,
                         10**7, 10**10}):
            disc = 1.0 - 8.0 * C / T
            if disc < 0:
                checked_infeasible += 1
                with pytest.raises(NoFeasibleDelta):
                    advise(est, path3, tau=tau, T=T)
            else:
                checked_feasible += 1
                hp, con = advise(est, path3, tau=tau, T=T)
                k4 = 2.0 * (con.delta**2 * con.epsilon**2 + con.K1) \
                    + (tau + 1) * tau * (con.K1 + 4.0 * est.L_f * math.sqrt(con.K1))
                if k4 - con.delta > 0.0:
                    violations += 1
    ok = violations == 0
    report(9, ok, f"K4(delta) - delta <= 0 on {checked_feasible} feasible cases; "
                  f"NoFeasibleDelta raised on all {checked_infeasible} negative-discriminant cases")
    assert violations == 0
    assert checked_feasible >= 8 and checked_infeasible >= 4


def test_criterion_8_invariant_audit(consensus_bundle, pricing_sinr_bundle,
                                     margin_bundle, mode_bundle):
    # runs after the bundles so every acceptance trace is registered
    failures = []
    for label, tr in TRACE_REGISTRY:
        audit = audit_invariants(tr)
        if not audit.ok:
            failures.append((label, audit))
    ok = not failures and len(TRACE_REGISTRY) >= 25
    report(8, ok, f"lambda >= 0, x in X, staleness bounded and monotone on "
                  f"{len(TRACE_REGISTRY)} acceptance traces; "
                  f"{len(failures)} violations")
    assert not failures
    assert len(TRACE_REGISTRY) >= 25

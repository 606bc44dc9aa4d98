import numpy as np
import pytest

from asaddle.delay import DelaySchedule
from asaddle.errors import DegenerateSeries
from asaddle.graph import build_graph
from asaddle.metrics import (audit_assumptions, audit_invariants, cumulative_suboptimality,
                             delayed_violation, estimate_optimum, fit_rate,
                             running_suboptimality)
from asaddle.problem import (ConstraintFamily, DomainSpec, NeighborhoodConstraint, Objective,
                             ProblemSpec, Sampler)
from asaddle.saddle import Hyperparams, run


def scalar_noisy_quadratic_spec():
    """E[(x - theta)^2 / 2] with theta ~ N(1, 1): F* = 0.5 at x* = 1."""
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: 0.5 * (x[0] - th) ** 2,
                    grad=lambda x, th: np.array([x[0] - th]),
                    batch_value=lambda x, th: 0.5 * (x[0] - th) ** 2)
    samp = Sampler(sample=lambda rng: float(rng.normal(1.0, 1.0)),
                   batch=lambda rng, size: rng.normal(1.0, 1.0, size=size))
    return ProblemSpec.make(g, 1, [obj], [samp],
                            ConstraintFamily.from_per_node(g, [NeighborhoodConstraint(size=0)]),
                            DomainSpec.box(np.array([-4.0]), np.array([4.0])))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_running_suboptimality_constant_is_zero():
    f_hat = np.full(11, 2.5)
    assert np.allclose(running_suboptimality(f_hat, 2.5), 0.0)


def test_running_suboptimality_power_law_prefix_sums():
    T = 5000
    u = np.arange(1, T + 1)
    f_hat = np.concatenate([[0.0], 1.0 / np.sqrt(u)])  # gaps 1/sqrt(u)
    s = running_suboptimality(f_hat, 0.0)
    exact = np.cumsum(1.0 / np.sqrt(u)) / u  # independent prefix-sum oracle
    assert np.allclose(s[1:], exact)
    # asymptotically 2/sqrt(t)
    assert s[-1] == pytest.approx(2.0 / np.sqrt(T), rel=0.02)


def test_running_suboptimality_single_row():
    s = running_suboptimality(np.array([9.0, 4.0]), 1.0)
    assert s[1] == pytest.approx(3.0)


def test_recomputation_matches_incremental(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=200)
    from asaddle.problem import ExpectedObjective
    ev = ExpectedObjective(small_consensus_spec, 500, seed=4)
    trace = run(small_consensus_spec, hp, DelaySchedule(kind="zero"), seed=0, evaluator=ev)
    s = running_suboptimality(trace, 1.3)
    slow = np.array([np.mean(trace.F_hat[1:t + 1] - 1.3) for t in range(1, hp.T + 1)])
    rel = np.abs(s[1:] - slow) / np.maximum(np.abs(slow), 1e-12)
    assert rel.max() <= 1e-12


def test_delayed_violation_hand_cases():
    neg = -np.ones((5, 2))
    per, agg = delayed_violation(neg)
    assert np.all(per == 0.0) and np.all(agg == 0.0)

    pos = np.ones((5, 1))
    per, agg = delayed_violation(pos)
    assert np.allclose(agg, np.arange(1, 6))

    alt = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    _, agg = delayed_violation(alt)
    assert agg.tolist() == [1.0, 0.0, 1.0, 0.0]


def test_cumulative_suboptimality():
    f_hat = np.array([0.0, 1.0, 2.0, 3.0])
    c = cumulative_suboptimality(f_hat, 1.0)
    assert c.tolist() == [0.0, 0.0, 1.0, 3.0]


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_rate_recovers_exact_exponents():
    t = np.arange(1, 20001)
    assert fit_rate(np.sqrt(t)) == pytest.approx(0.5, abs=1e-6)
    assert fit_rate(t ** 0.75) == pytest.approx(0.75, abs=1e-6)
    assert fit_rate(np.full(t.size, 3.0)) == pytest.approx(0.0, abs=1e-9)


def test_fit_rate_recovers_noisy_exponents_within_tolerance():
    rng = np.random.default_rng(0)
    t = np.arange(1, 50001)
    for p in (0.5, 0.75):
        series = t ** p * np.exp(rng.normal(0.0, 0.001, size=t.size))
        assert fit_rate(series) == pytest.approx(p, abs=0.01)


def test_fit_rate_degenerate():
    with pytest.raises(DegenerateSeries):
        fit_rate(np.zeros(100))
    with pytest.raises(DegenerateSeries):
        fit_rate(np.array([1.0] * 5))


def test_fit_rate_burn_in_window():
    t = np.arange(1, 1001)
    series = np.where(t < 200, 1000.0, np.sqrt(t))  # transient then power law
    assert fit_rate(series, burn_in=0.3) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ValueError):
        fit_rate(series, burn_in=1.5)


# ---------------------------------------------------------------------------
# optimum estimation
# ---------------------------------------------------------------------------

def test_estimate_optimum_scalar_quadratic():
    spec = scalar_noisy_quadratic_spec()
    f_star, x_ref = estimate_optimum(spec, budget=20000, seed=3, eval_seed=11)
    assert abs(x_ref[0][0] - 1.0) <= 0.05
    assert f_star == pytest.approx(0.5, abs=0.06)


def test_estimate_optimum_zero_budget_returns_initial():
    spec = scalar_noisy_quadratic_spec()
    f0, x0 = estimate_optimum(spec, budget=0, seed=3, eval_seed=11)
    assert x0[0][0] == 0.0
    from asaddle.problem import ExpectedObjective
    assert f0 == pytest.approx(ExpectedObjective(spec, 2000, seed=11).value(spec.x0))


def test_estimate_optimum_inactive_constraints_match_sgd_oracle(path3):
    # generous tolerances keep every proximity constraint slack, so each node
    # should land where unconstrained SGD lands
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    cfg = ConsensusRegressionConfig(p=2, gamma=50.0, noise_std=0.1)
    spec = build_consensus_problem(cfg, path3)
    budget = 20000
    f_star, x_ref = estimate_optimum(spec, budget=budget, seed=5, eval_seed=9)

    # independent oracle: per-node SGD with the same observation stream
    from asaddle.problem import sample_observation
    eps = 1.0 / np.sqrt(budget)
    for node in range(3):
        x = spec.x0[node].copy()
        acc = np.zeros(2)
        for t in range(budget):
            z, y = sample_observation(spec, 5, node, t)
            x = np.clip(x - eps * z * (z @ x - y), -2.0, 2.0)
            acc += x
        assert np.linalg.norm(x_ref[node] - acc / budget) <= 1e-9


# ---------------------------------------------------------------------------
# assumption audit
# ---------------------------------------------------------------------------

def linear_objective_spec(c):
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: float(c @ x), grad=lambda x, th: c.copy())
    return ProblemSpec.make(g, c.size, [obj], [Sampler(sample=lambda rng: None)],
                            ConstraintFamily.from_per_node(g, [NeighborhoodConstraint(size=0)]),
                            DomainSpec.box(np.full(c.size, -1.0), np.full(c.size, 1.0)))


def test_audit_linear_gradient_exact():
    c = np.array([3.0, -4.0])
    est = audit_assumptions(linear_objective_spec(c), n_samples=200, seed=0,
                            secant_pairs=10, mc_samples=64)
    assert est.sigma_f2 == pytest.approx(25.0)
    # secants underestimate the true constant ||c|| = 5 but never exceed it
    assert 2.0 <= est.L_f <= 5.0 + 1e-9


def test_audit_consensus_slack_bounded_by_box_diameter(small_consensus_spec):
    est = audit_assumptions(small_consensus_spec, n_samples=400, seed=1,
                            secant_pairs=10, mc_samples=128)
    diam = np.linalg.norm(np.full(2, 4.0))  # box [-2,2]^2 diagonal
    gamma = 0.3
    assert est.sigma_lambda2 <= (diam + gamma) ** 2
    assert est.sigma_h2 <= 1.0 + 1e-9  # unit-norm proximity gradient


def test_audit_deterministic_spec_zero_variance_across_seeds():
    c = np.array([1.0, 2.0])
    runs = [audit_assumptions(linear_objective_spec(c), n_samples=150, seed=s,
                              secant_pairs=5, mc_samples=32).sigma_f2 for s in (0, 1, 2)]
    assert max(runs) == min(runs) == pytest.approx(5.0)


def test_audit_requires_min_samples(small_consensus_spec):
    with pytest.raises(ValueError):
        audit_assumptions(small_consensus_spec, n_samples=10)


# ---------------------------------------------------------------------------
# invariant audit
# ---------------------------------------------------------------------------

def test_audit_invariants_clean_run(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=200)
    trace = run(small_consensus_spec, hp, DelaySchedule(kind="uniform_random", tau_max=4, seed=0),
                seed=1, thin_every=10)
    audit = audit_invariants(trace)
    assert audit.ok
    assert audit.max_staleness <= 4
    assert audit.min_dual >= 0.0

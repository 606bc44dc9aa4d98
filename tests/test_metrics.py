import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asaddle.apps.pricing import PricingConfig, build_pricing_problem
from asaddle.delay import DelaySchedule
from asaddle.errors import DegenerateEstimates, DegenerateSeries
from asaddle.graph import build_graph, closed_neighborhood
from asaddle.metrics import (AssumptionEstimates, audit_assumptions,
                             audit_invariants, cumulative_suboptimality, delayed_violation,
                             estimate_optimum, fit_rate, running_suboptimality)
from asaddle.problem import DomainSpec, ExpectedObjective, Objective, ProblemSpec, Sampler, project
from asaddle.saddle import Hyperparams, advise, run
from asaddle.trace import running_violation
from conftest import CONSENSUS_CFG, SMALL_CONSENSUS_CFG
from reference import (NeighborhoodConstraint, as_neighborhood, no_constraints, node_constraints,
                       observation_rows)


def scalar_noisy_quadratic_spec():
    """E[(x - theta)^2 / 2] with theta ~ N(1, 1): F* = 0.5 at x* = 1."""
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: 0.5 * (x[..., 0] - th[0]) ** 2,
                    grad=lambda x, th: x - th[0][..., None])
    samp = Sampler(sample=lambda rng: (float(rng.normal(1.0, 1.0)),),
                   batch=lambda rngs, size, nodes: (np.stack([rng.normal(1.0, 1.0, size=size)
                                                              for rng in rngs]),))
    return ProblemSpec.make(g, 1, [obj], [samp],
                            no_constraints(g),
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


@settings(max_examples=60, deadline=None)
@given(T=st.integers(1, 300), lanes=st.integers(1, 4), m=st.integers(0, 40),
       seed=st.integers(0, 2**32), cuts=st.lists(st.integers(1, 299), max_size=6))
def test_violation_by_block_is_the_whole_run_violation(T, lanes, m, seed, cuts):
    # a run reduces its slacks block by block, carrying the running sum; the
    # records equal one cumsum, clip and sum over the whole run, and so does
    # delayed_violation, which starts from -0.0; signed zeros included
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(T, lanes, m)) * rng.choice([1e-3, 1.0, 1e3], size=(T, lanes, m))
    s[rng.random(s.shape) < 0.1] = -0.0
    s[rng.random(s.shape) < 0.1] = 0.0
    got, carry, a = np.empty((lanes, T)), np.full((lanes, m), -0.0), 0
    for end in sorted({c for c in cuts if c < T} | {T}):
        clipped, carry = running_violation(s[a:end], carry)
        got[:, a:end], a = clipped.sum(axis=2).T, end
    assert carry.tobytes() == np.cumsum(s, axis=0)[-1].tobytes()  # the carried sum, its zeros' signs too
    for lane in range(lanes):
        alone = np.ascontiguousarray(s[:, lane])
        want = np.maximum(np.cumsum(alone, axis=0), 0.0).sum(axis=1)
        assert got[lane].tobytes() == want.tobytes()
        assert delayed_violation(alone)[1].tobytes() == want.tobytes()


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
    assert f0 == pytest.approx(ExpectedObjective(spec, 2000, seed=11).value(np.concatenate(spec.x0)))


def test_estimate_optimum_inactive_constraints_match_sgd_oracle(path3):
    # generous tolerances keep every proximity constraint slack, so each node
    # should land where unconstrained SGD lands
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    cfg = ConsensusRegressionConfig(p=2, gamma=50.0, noise_std=0.1)
    spec = build_consensus_problem(cfg, path3)
    budget = 20000
    f_star, x_ref = estimate_optimum(spec, budget=budget, seed=5, eval_seed=9)

    # independent oracle: per-node SGD with the same observation stream
    observation = observation_rows(spec, 5)
    eps = 1.0 / np.sqrt(budget)
    for node in range(3):
        x = spec.x0[node].copy()
        acc = np.zeros(2)
        for t in range(budget):
            z, y = observation(node, t)
            x = np.clip(x - eps * z * (z @ x - y), -2.0, 2.0)
            acc += x
        assert np.linalg.norm(x_ref[node] - acc / budget) <= 1e-9


# ---------------------------------------------------------------------------
# assumption audit
# ---------------------------------------------------------------------------

def linear_objective_spec(c):
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: x @ c, grad=lambda x, th: c.copy())
    return ProblemSpec.make(g, c.size, [obj], [Sampler(sample=lambda rng: ())],
                            no_constraints(g),
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


@pytest.mark.parametrize("sizes", [{"theta_draws": 0}, {"theta_draws": -1},
                                   {"secant_pairs": 0}, {"secant_pairs": -3}])
def test_audit_rejects_empty_draw_and_secant_counts(small_consensus_spec, sizes):
    with pytest.raises(ValueError, match="must be >= 1"):
        audit_assumptions(small_consensus_spec, n_samples=100, **sizes)


def test_audit_estimates_are_python_floats(small_consensus_spec):
    est = audit_assumptions(small_consensus_spec, n_samples=100, theta_draws=4,
                            secant_pairs=3, mc_samples=32)
    for v in (est.sigma_f2, est.sigma_h2, est.sigma_lambda2, est.L_f):
        assert type(v) is float
    assert "np." not in repr(est)


def test_audit_propagates_a_nan_moment_sample(small_consensus_spec, nan_gradients):
    spec = nan_gradients(small_consensus_spec)
    sizes = dict(n_samples=400, theta_draws=8, secant_pairs=4, mc_samples=32)
    est = audit_assumptions(spec, **sizes)
    assert math.isnan(est.sigma_f2)
    assert all(math.isfinite(v) for v in (est.sigma_h2, est.sigma_lambda2, est.L_f))
    # the per-draw loop kept the finite point means and reported a finite bound
    per_node = node_constraints(SMALL_CONSENSUS_CFG, spec.graph)
    assert math.isfinite(_reference_audit(spec, per_node, **sizes).sigma_f2)
    with pytest.raises(DegenerateEstimates):
        advise(est, spec.graph, tau=1, T=100)


# ---------------------------------------------------------------------------
# the lane audit against the per-draw loop
# ---------------------------------------------------------------------------

def _max_draw_mean(per_draw: np.ndarray) -> float:
    """Largest per-constraint mean of a (draws, constraints) array.

    Each row is averaged as one contiguous vector, the summation order of
    ``np.mean`` on a list of draws."""
    return float(np.mean(np.ascontiguousarray(per_draw.T), axis=1).max())


def _random_feasible(spec: ProblemSpec, rng) -> list:
    """A feasible point drawn and projected one node at a time."""
    xs = []
    for dom in spec.domains:
        if dom.kind == "box":
            u = rng.uniform(dom.lo, dom.hi)
        else:
            hi = max(abs(dom.c_min), abs(dom.c_max), 1.0)
            u = rng.uniform(0.0 if dom.nonneg else -hi, hi, size=dom.dim)
        xs.append(project(dom, np.atleast_1d(u)))
    return xs


def _reference_audit(spec: ProblemSpec, per_node: list, n_samples: int = 2000, seed: int = 0,
                     theta_draws: int = 16, secant_pairs: int = 40,
                     mc_samples: int = 512) -> AssumptionEstimates:
    """The audit scored one node, one draw and one Jacobian at a time, with
    ``spec``'s constraints as the per-node ``NeighborhoodConstraint``s
    ``per_node``."""
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    rng = np.random.default_rng(np.random.SeedSequence([4, int(seed) & 0xFFFFFFFFFFFFFFFF]))
    n_points = max(1, n_samples // theta_draws)
    g = spec.graph

    sigma_f2 = 0.0
    sigma_h2 = 0.0
    sigma_l2 = 0.0
    for _ in range(n_points):
        xs = _random_feasible(spec, rng)
        ths = [[spec.samplers[i].sample(rng) for _ in range(theta_draws)]
               for i in range(g.n_nodes)]
        for i in range(g.n_nodes):
            ms = np.mean([
                float(np.sum(np.asarray(spec.objectives[i].grad(xs[i], th), dtype=float)**2))
                for th in ths[i]
            ])
            sigma_f2 = max(sigma_f2, ms)
        th_draws = [[ths[i][d] for i in range(g.n_nodes)] for d in range(theta_draws)]
        for k, con in enumerate(per_node):
            if con.size == 0:
                continue
            s2 = np.array([con.value(xs, th) for th in th_draws], dtype=float) ** 2
            sigma_l2 = max(sigma_l2, _max_draw_mean(s2))
            for i in closed_neighborhood(g, k):
                jac = np.array([con.jacobian(i, xs, th) for th in th_draws], dtype=float)
                sigma_h2 = max(sigma_h2, _max_draw_mean(np.sum(jac ** 2, axis=2)))

    evaluator = ExpectedObjective(spec, mc_samples=mc_samples, seed=seed + 1)
    # the secants' ends (a, b) of every pair, scored in one call
    ends = np.array([np.concatenate(_random_feasible(spec, rng))
                     for _ in range(2 * secant_pairs)]).reshape(secant_pairs, 2, -1)
    F = evaluator.values(ends.reshape(2 * secant_pairs, -1)).reshape(secant_pairs, 2)
    L_f = 0.0
    for (xa, xb), (fa, fb) in zip(ends, F):
        gap = np.linalg.norm(xa - xb)
        if gap >= 1e-9:
            L_f = max(L_f, abs(fa - fb) / gap)
    return AssumptionEstimates(sigma_f2=sigma_f2, sigma_h2=sigma_h2,
                               sigma_lambda2=sigma_l2, L_f=float(L_f))


def _audit_spec(name, consensus_spec):
    """The audited problem and its constraints one node at a time."""
    if name.startswith("consensus"):
        spec, cfg = consensus_spec, CONSENSUS_CFG
    elif name.startswith("pricing"):
        cfg = PricingConfig()
        spec = build_pricing_problem(cfg)  # dims 1, 2, 1
    else:  # None observations, no constraint
        return linear_objective_spec(np.array([3.0, -4.0])), [NeighborhoodConstraint(size=0)]
    per_node = node_constraints(cfg, spec.graph)
    if name.endswith("sample_only"):  # the audit stacks sample calls
        return replace(spec, samplers=tuple(replace(s, draws=None) for s in spec.samplers)), per_node
    return (as_neighborhood(spec, cfg) if name.endswith("nbhd") else spec), per_node


# (spec, sizes): 50 and 25 points leave a partial last chunk, 16 points fill two
@pytest.mark.parametrize("name, sizes", [
    ("consensus", dict(n_samples=400, theta_draws=8, seed=0)),
    ("consensus", dict(n_samples=128, theta_draws=8, seed=1707)),
    ("consensus", dict(n_samples=100, theta_draws=1, seed=3)),
    ("pricing", dict(n_samples=400, theta_draws=8, seed=1707)),
    ("pricing", dict(n_samples=2000, theta_draws=16, seed=0)),
    ("pricing", dict(n_samples=100, theta_draws=1, seed=2)),
    ("consensus_nbhd", dict(n_samples=200, theta_draws=8, seed=0)),
    ("pricing_nbhd", dict(n_samples=200, theta_draws=8, seed=3)),
    ("linear", dict(n_samples=200, theta_draws=8, seed=0)),
    ("pricing_sample_only", dict(n_samples=200, theta_draws=8, seed=4)),
])
def test_lane_audit_matches_the_per_draw_loop_bit_for_bit(consensus_spec, name, sizes):
    spec, per_node = _audit_spec(name, consensus_spec)
    sizes = dict(sizes, secant_pairs=6, mc_samples=64)
    got, want = audit_assumptions(spec, **sizes), _reference_audit(spec, per_node, **sizes)
    fields = ("sigma_f2", "sigma_h2", "sigma_lambda2", "L_f")
    assert ([float(getattr(got, f)).hex() for f in fields]
            == [float(getattr(want, f)).hex() for f in fields])
    assert got.sigma_f2 > 0.0


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


def _fixed_tau_run(spec, monkeypatch, resolved):
    """A run at fixed delays 4 whose step reads at ``resolved(times, nodes)``
    instead of the schedule's resolved times."""
    import asaddle.saddle as saddle
    monkeypatch.setattr(saddle, "resolve", lambda schedule, times, nodes, prev: resolved(
        np.asarray(times)[:, None] + np.zeros(len(nodes), dtype=int)))
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=150)
    return run(spec, hp, DelaySchedule(kind="fixed", tau_max=4), seed=0)


def test_audit_catches_resolved_times_that_go_back(small_consensus_spec, monkeypatch):
    # the run keeps no resolved times, so a bad table can only come from
    # resolve itself: t at even and t - 2 at odd steps (0, 0, 2, 1, 4, 3, ...)
    audit = audit_invariants(_fixed_tau_run(small_consensus_spec, monkeypatch,
                                            lambda t: np.maximum(t - 2 * (t % 2), 0)))
    assert not audit.staleness_monotone and not audit.ok
    assert audit.staleness_bounded and audit.max_staleness == 2


def test_audit_catches_resolved_times_beyond_tau(small_consensus_spec, monkeypatch):
    trace = _fixed_tau_run(small_consensus_spec, monkeypatch, lambda t: np.maximum(t - 5, 0))
    audit = audit_invariants(trace)
    assert not audit.staleness_bounded and not audit.ok
    assert audit.staleness_monotone and audit.max_staleness == 5
    assert trace.max_staleness.tolist() == np.minimum(np.arange(150), 5).tolist()


@pytest.mark.parametrize("tau", [None, 3], ids=["sync", "tau3"])
def test_audit_catches_a_minus_inf_slack(small_consensus_spec, monkeypatch, tau):
    # the dual update clips a -inf slack to 0 and the clipped violation stays
    # finite, so only the run's record of its slacks shows it
    import asaddle.saddle as saddle
    dual_slack, steps = saddle.dual_slack, []

    def one_minus_inf(spec, x, ths):
        steps.append(len(steps))
        out = dual_slack(spec, x, ths)
        if len(steps) == 40:
            out = out.copy()
            out[1] = -np.inf
        return out

    monkeypatch.setattr(saddle, "dual_slack", one_minus_inf)
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=100)
    trace = run(small_consensus_spec, hp, None if tau is None else DelaySchedule(kind="fixed", tau_max=tau),
                seed=0, record_current_slack=True)
    assert np.isfinite(trace.lambda_norm).all() and np.isfinite(trace.violation_cumclip).all()
    audit = audit_invariants(trace)
    assert not audit.finite and not audit.ok
    assert audit.dual_nonnegative and audit.staleness_bounded and audit.staleness_monotone


def test_audit_catches_an_iterate_outside_its_box(monkeypatch):
    # with the projection switched off, the constant gradient walks x out of
    # [-1, 1]^2; the domain residual is measured without projecting again
    import asaddle.saddle as saddle
    monkeypatch.setattr(saddle, "project_nodes", lambda spec, flat: flat)
    spec = linear_objective_spec(np.array([3.0, -4.0]))
    trace = run(spec, Hyperparams(epsilon=0.1, delta=0.0, T=20), None, seed=0, thin_every=5)
    audit = audit_invariants(trace)
    assert not audit.primal_feasible and not audit.ok
    assert audit.max_domain_residual == pytest.approx(20 * 0.1 * 4.0 - 1.0)


def test_audit_checks_evaluated_F_hat_rows(small_consensus_spec):
    from asaddle.problem import ExpectedObjective
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=40)
    ev = ExpectedObjective(small_consensus_spec, 100, seed=4)
    trace = run(small_consensus_spec, hp, DelaySchedule(kind="zero"), seed=0, evaluator=ev)
    assert audit_invariants(trace).finite
    trace.F_hat[6] = np.nan  # every row of a run with an evaluator is scored
    audit = audit_invariants(trace)
    assert not audit.finite and not audit.ok


def test_audit_passes_a_run_without_evaluator(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=40)
    trace = run(small_consensus_spec, hp, DelaySchedule(kind="fixed", tau_max=2), seed=0,
                evaluator=None)
    assert trace.F_hat is None
    audit = audit_invariants(trace)
    assert audit.finite and audit.ok
    trace.lambda_norm[3] = np.inf
    assert not audit_invariants(trace).ok

import math

import numpy as np
import pytest

from asaddle.apps.pricing import PricingConfig, build_pricing_problem
from asaddle.delay import DelaySchedule, StalenessBuffer
from asaddle.errors import NoFeasibleDelta, NonFiniteState
from asaddle.graph import build_graph, path_edges
from asaddle.problem import (OBS_BLOCK, ConstraintFamily, DomainSpec, ExpectedObjective,
                             NeighborhoodConstraint, Objective, ProblemSpec, Sampler,
                             as_neighborhood, sample_observation)
from asaddle.metrics import AssumptionEstimates
from asaddle.saddle import (Hyperparams, SaddleEngine, SaddleState, advise, dual_gradient,
                            dual_slack, dual_step, primal_gradient, primal_step, run,
                            run_generalized, run_lanes, run_synchronous, stack,
                            stochastic_lagrangian)


# ---------------------------------------------------------------------------
# fixtures: tiny hand-checkable problems
# ---------------------------------------------------------------------------

def point_mass_sampler():
    return Sampler(sample=lambda rng: None)


def scalar_quadratic_spec():
    """Single node, f = x^2/2, no constraints."""
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: 0.5 * x[0] ** 2, grad=lambda x, th: x.copy())
    return ProblemSpec.make(g, 1, [obj], [point_mass_sampler()],
                            ConstraintFamily.from_per_node(g, [NeighborhoodConstraint(size=0)]),
                            DomainSpec.box(np.array([-10.0]), np.array([10.0])))


def constant_slack_spec(slack):
    """Two nodes, f == 0, both directed edges carry the constant slack."""
    g = build_graph(2, [(0, 1)])
    objs = [Objective(value=lambda x, th: 0.0, grad=lambda x, th: np.zeros(1))] * 2
    constraints = ConstraintFamily.from_symmetric_pairwise(
        g, value=lambda *a: slack, grad_first=lambda *a: np.zeros(1), gamma=0.0)
    return ProblemSpec.make(g, 1, objs, [point_mass_sampler()] * 2, constraints,
                            DomainSpec.box(np.array([-1.0]), np.array([1.0])))


def two_node_quadratic_spec(gamma=1.0):
    """f1 = (x1-1)^2/2 pulls right, f2 = (x2+1)^2/2 pulls left, coupled by the
    mirror-symmetric slack (x_i - x_j)^2 - gamma. Deterministic, smooth, with
    known saddle x* = (0.5, -0.5), lam* = (0.125, 0.125) for gamma = 1."""
    g = build_graph(2, [(0, 1)])
    objs = [
        Objective(value=lambda x, th: 0.5 * (x[0] - 1.0) ** 2, grad=lambda x, th: x - 1.0),
        Objective(value=lambda x, th: 0.5 * (x[0] + 1.0) ** 2, grad=lambda x, th: x + 1.0),
    ]
    constraints = ConstraintFamily.from_symmetric_pairwise(
        g,
        value=lambda a, b, ta, tb: np.sum((a - b) ** 2, axis=-1),
        grad_first=lambda a, b, ta, tb: 2.0 * (a - b),
        gamma=gamma,
    )
    return ProblemSpec.make(g, 1, objs, [point_mass_sampler()] * 2, constraints,
                            DomainSpec.box(np.array([-4.0]), np.array([4.0])))


# ---------------------------------------------------------------------------
# hyperparams
# ---------------------------------------------------------------------------

def test_hyperparams_validation():
    Hyperparams(epsilon=0.1, delta=0.0, T=10)
    with pytest.raises(ValueError):
        Hyperparams(epsilon=0.0, delta=0.0, T=10)
    with pytest.raises(ValueError):
        Hyperparams(epsilon=0.1, delta=-1.0, T=10)
    with pytest.raises(ValueError):
        Hyperparams(epsilon=1.0, delta=1.0, T=10)  # shrink factor hits 0


# ---------------------------------------------------------------------------
# Lagrangian value
# ---------------------------------------------------------------------------

def test_lagrangian_zero_duals_is_objective_sum():
    spec = two_node_quadratic_spec()
    hp = Hyperparams(epsilon=0.1, delta=0.5, T=1)
    state = SaddleState(x=[np.array([0.0]), np.array([0.0])], lam=np.zeros(2))
    val = stochastic_lagrangian(spec, state, [None, None], hp)
    assert val == pytest.approx(0.5 + 0.5)


def test_lagrangian_single_edge_hand_value():
    # f == 0, one directed edge with slack 1.0, lam = 2, delta*eps = 0.1:
    # 2*1 - 0.05*4 = 1.8 per direction counted once
    spec = constant_slack_spec(1.0)
    hp = Hyperparams(epsilon=0.2, delta=0.5, T=1)  # delta*eps = 0.1
    lam = np.zeros(2)
    lam[spec.graph.edge_index(0, 1)] = 2.0
    state = SaddleState(x=[np.zeros(1), np.zeros(1)], lam=lam)
    assert stochastic_lagrangian(spec, state, [None, None], hp) == pytest.approx(1.8)
    # delta = 0 drops the regularizer: plain Lagrangian value
    hp0 = Hyperparams(epsilon=0.2, delta=0.0, T=1)
    assert stochastic_lagrangian(spec, state, [None, None], hp0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# one-step updates
# ---------------------------------------------------------------------------

def test_primal_step_scalar_hand_value():
    spec = scalar_quadratic_spec()
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=1)
    x = [np.array([1.0])]
    state = SaddleState(x=x, lam=np.zeros(0))
    new_x = primal_step(spec, state, x, [None], hp)
    assert new_x[0][0] == pytest.approx(0.9)


def test_primal_step_zero_epsilon_is_identity():
    spec = two_node_quadratic_spec()
    hp = Hyperparams(epsilon=1e-300, delta=0.0, T=1)
    x = [np.array([0.3]), np.array([-0.7])]
    state = SaddleState(x=x, lam=np.zeros(2))
    new_x = primal_step(spec, state, x, [None, None], hp)
    assert np.allclose(stack(new_x), stack(x), atol=1e-12)


def test_dual_step_hand_values():
    x = [np.zeros(1), np.zeros(1)]
    ths = [None, None]
    # lam=1, eps=0.1, delta=0.01, slack=0.5 -> (1 - 1e-4)*1 + 0.05 = 1.0499
    hp = Hyperparams(epsilon=0.1, delta=0.01, T=1)
    state = SaddleState(x=x, lam=np.ones(2))
    new_lam = dual_step(state, dual_slack(constant_slack_spec(0.5), x, ths), hp)
    assert np.allclose(new_lam, 1.0499)
    # delta=0, slack=0 leaves lam unchanged
    hp0 = Hyperparams(epsilon=0.1, delta=0.0, T=1)
    assert np.allclose(dual_step(state, dual_slack(constant_slack_spec(0.0), x, ths), hp0), 1.0)
    # negative slack at lam=0 projects back to 0
    state0 = SaddleState(x=x, lam=np.zeros(2))
    assert np.allclose(dual_step(state0, dual_slack(constant_slack_spec(-2.0), x, ths), hp), 0.0)


# ---------------------------------------------------------------------------
# run loops
# ---------------------------------------------------------------------------

def test_run_T0_has_only_initial_state(small_consensus_spec):
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=0)
    trace = run(small_consensus_spec, hp, DelaySchedule(kind="zero"), seed=0)
    assert trace.n_rows == 1
    assert trace.delayed_slack.shape == (0, small_consensus_spec.graph.n_edges)


def test_run_deterministic_given_seed(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=100)
    sched = DelaySchedule(kind="uniform_random", tau_max=4, seed=3)
    t1 = run(small_consensus_spec, hp, sched, seed=7, thin_every=1)
    t2 = run(small_consensus_spec, hp, DelaySchedule(kind="uniform_random", tau_max=4, seed=3),
             seed=7, thin_every=1)
    for t in t1.x_snapshots:
        assert np.array_equal(t1.x_snapshots[t], t2.x_snapshots[t])
    assert np.array_equal(t1.lambda_norm, t2.lambda_norm)
    assert np.array_equal(t1.delayed_slack, t2.delayed_slack)


def test_zero_delay_matches_synchronous_bitwise(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=200)
    for seed in range(3):
        sync = run_synchronous(small_consensus_spec, hp, seed, thin_every=1)
        asyn = run(small_consensus_spec, hp, DelaySchedule(kind="zero"), seed, thin_every=1)
        for t in sync.x_snapshots:
            assert np.array_equal(sync.x_snapshots[t], asyn.x_snapshots[t])
        assert np.array_equal(sync.lambda_norm, asyn.lambda_norm)
        assert np.array_equal(sync.delayed_slack, asyn.delayed_slack)


def test_pairwise_matches_neighborhood_encoding(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=150)
    sched = DelaySchedule(kind="uniform_random", tau_max=3, seed=5)
    pw = run(small_consensus_spec, hp, sched, seed=2, thin_every=1)
    nb = run_generalized(as_neighborhood(small_consensus_spec), hp,
                         DelaySchedule(kind="uniform_random", tau_max=3, seed=5),
                         seed=2, thin_every=1)
    for t in pw.x_snapshots:
        assert np.max(np.abs(pw.x_snapshots[t] - nb.x_snapshots[t])) <= 1e-12
    assert np.max(np.abs(pw.lambda_norm - nb.lambda_norm)) <= 1e-12


def test_generalized_zero_constraint_keeps_duals_zero():
    g = build_graph(2, [(0, 1)])
    objs = [Objective(value=lambda x, th: 0.5 * np.sum(x * x, axis=-1),
                      grad=lambda x, th: x.copy())] * 2
    cons = tuple(
        NeighborhoodConstraint(size=1,
                               value=lambda xs, ths: np.array([-1.0]),
                               jacobian=lambda wrt, xs, ths: np.zeros((1, 1)))
        for _ in range(2)
    )
    spec = ProblemSpec.make(g, 1, objs, [point_mass_sampler()] * 2,
                            ConstraintFamily.from_per_node(g, cons),
                            DomainSpec.box(np.array([-2.0]), np.array([2.0])))
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=50)
    trace = run_generalized(spec, hp, DelaySchedule(kind="zero"), seed=0)
    assert np.all(trace.lambda_norm == 0.0)


def test_generalized_single_node_reduces_to_projected_sgd():
    # one node, self-only constraint x <= 0.4 (slack x - 0.4), point-mass data
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: 0.5 * (x[0] - 1.0) ** 2, grad=lambda x, th: x - 1.0)
    con = NeighborhoodConstraint(size=1,
                                 value=lambda xs, ths: np.array([xs[0][0] - 0.4]),
                                 jacobian=lambda wrt, xs, ths: np.ones((1, 1)))
    spec = ProblemSpec.make(g, 1, [obj], [point_mass_sampler()],
                            ConstraintFamily.from_per_node(g, [con]),
                            DomainSpec.box(np.array([-2.0]), np.array([2.0])),
                            x0=[np.array([0.0])])
    hp = Hyperparams(epsilon=0.05, delta=0.0, T=120)
    trace = run_generalized(spec, hp, DelaySchedule(kind="zero"), seed=0, thin_every=1)

    # independent reference: scalar projected gradient with one multiplier
    x, lam = 0.0, 0.0
    for t in range(hp.T):
        g_x = (x - 1.0) + lam * 1.0
        s = x - 0.4
        x = float(np.clip(x - hp.epsilon * g_x, -2.0, 2.0))
        lam = max(lam + hp.epsilon * s, 0.0)
    assert trace.x_final[0][0] == pytest.approx(x, abs=1e-12)
    assert trace.lam_final.shape == (1,)
    assert trace.lam_final[0] == pytest.approx(lam, abs=1e-12)
    assert abs(trace.x_final[0][0] - 0.4) < 0.05  # constraint active near optimum


def test_engine_stepwise_matches_one_shot(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=80)
    sched = DelaySchedule(kind="uniform_random", tau_max=4, seed=6)
    one_shot = run(small_consensus_spec, hp, sched, seed=9, thin_every=1)

    engine = SaddleEngine(small_consensus_spec, hp,
                          DelaySchedule(kind="uniform_random", tau_max=4, seed=6),
                          seed=9, thin_every=1)
    mid = engine.run(30).trace()
    assert mid.T == 30 and mid.n_rows == 31
    for _ in range(50):
        engine.step()
    full = engine.trace()
    assert np.array_equal(full.lambda_norm, one_shot.lambda_norm)
    assert np.array_equal(full.delayed_slack, one_shot.delayed_slack)
    for t in one_shot.x_snapshots:
        assert np.array_equal(full.x_snapshots[t], one_shot.x_snapshots[t])
    with pytest.raises(IndexError):
        engine.step()


def nan_gradient_spec():
    """One node whose gradient is NaN on the steps its observation is True."""
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: 0.5 * float(x @ x),
                    grad=lambda x, th: np.full_like(x, np.nan) if th else x.copy())
    return ProblemSpec.make(g, 1, [obj], [Sampler(sample=lambda rng: rng.random() < 0.1)],
                            ConstraintFamily.from_per_node(g, [NeighborhoodConstraint(size=0)]),
                            DomainSpec.box(np.array([-1.0]), np.array([1.0])))


def test_nan_gradient_stops_the_run():
    # one NaN gradient used to leave x NaN for the rest of the run while the
    # invariant audit still reported a feasible trace
    spec = nan_gradient_spec()
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=200)
    first_nan = next(t for t in range(hp.T) if sample_observation(spec, 0, 0, t))
    with pytest.raises(NonFiniteState, match=f"step {first_nan}, node 0$"):
        run(spec, hp, DelaySchedule(kind="zero"), seed=0, thin_every=1)


def test_non_finite_update_names_the_node():
    # per-node dimensions 1, 2, 3: the NaN sits in the last coordinate block
    g = build_graph(3, path_edges(3))
    objs = [Objective(value=lambda x, th: 0.0, grad=lambda x, th: x.copy()),
            Objective(value=lambda x, th: 0.0, grad=lambda x, th: x.copy()),
            Objective(value=lambda x, th: 0.0,
                      grad=lambda x, th: np.full_like(x, np.inf) if th else x.copy())]
    samplers = [point_mass_sampler()] * 2 + [Sampler(sample=lambda rng: rng.random() < 0.2)]
    spec = ProblemSpec.make(g, (1, 2, 3), objs, samplers,
                            ConstraintFamily.from_per_node(g, [NeighborhoodConstraint(size=0)] * 3),
                            tuple(DomainSpec.box(-np.ones(d), np.ones(d)) for d in (1, 2, 3)))
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=100)
    first = next(t for t in range(hp.T) if sample_observation(spec, 4, 2, t))
    with pytest.raises(NonFiniteState, match=f"step {first}, node 2$"):
        run_synchronous(spec, hp, seed=4)


def test_staleness_monotone_and_bounded(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=300)
    sched = DelaySchedule(kind="uniform_random", tau_max=6, seed=1)
    trace = run(small_consensus_spec, hp, sched, seed=4)
    assert np.all(np.diff(trace.resolved, axis=0) >= 0)
    assert trace.staleness.max() <= 6
    assert np.all(trace.staleness >= 0)


# ---------------------------------------------------------------------------
# seed lanes: every lane's trace is the solo run's, byte for byte
# ---------------------------------------------------------------------------

def assert_traces_identical(a, b):
    for name, va in vars(a).items():
        vb = getattr(b, name)
        if name == "x_snapshots":
            assert va.keys() == vb.keys()
            for t in va:
                assert va[t].tobytes() == vb[t].tobytes(), (name, t)
        elif name == "x_final":
            assert stack(va).tobytes() == stack(vb).tobytes(), name
        elif isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and va.shape == vb.shape, name
            assert va.tobytes() == vb.tobytes(), name
        else:
            assert va == vb, name


def assert_lanes_match_solo(spec, hp, schedules, seeds, **kwargs):
    lanes = run_lanes(spec, hp, schedules, seeds, **kwargs)
    assert [tr.seed for tr in lanes] == list(seeds)
    for schedule, seed, trace in zip(schedules, seeds, lanes):
        assert_traces_identical(trace, run(spec, hp, schedule, seed, **kwargs))
    return lanes


def uniform(tau, seed):
    return DelaySchedule(kind="uniform_random", tau_max=tau, seed=seed)


@pytest.mark.parametrize("neighborhood", [False, True], ids=["pairwise", "per_node"])
def test_consensus_lanes_match_solo_runs(consensus_spec, neighborhood):
    spec = as_neighborhood(consensus_spec) if neighborhood else consensus_spec
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=150)
    evaluator = ExpectedObjective(spec, mc_samples=64, seed=1)
    assert_lanes_match_solo(spec, hp, [uniform(5, s) for s in (3, 4, 5)], [3, 4, 5],
                            evaluator=evaluator, thin_every=7)


@pytest.mark.parametrize("mu_n", [1.0, (1.0, 2.0, 1.0)], ids=["shared", "own_objective"])
def test_pricing_lanes_match_solo_runs(mu_n):
    # dims 1, 2, 1; with mu_n differing, SCBS 1 has an Objective of its own
    spec = build_pricing_problem(PricingConfig(mu_n=mu_n))
    assert spec.dims == (1, 2, 1)
    hp = Hyperparams(epsilon=0.3, delta=1e-5, T=150)
    evaluator = ExpectedObjective(spec, mc_samples=64, seed=1)
    lanes = assert_lanes_match_solo(spec, hp, [uniform(4, s) for s in range(4)], [0, 1, 2, 3],
                                    evaluator=evaluator, thin_every=9, record_current_slack=True)
    assert all(tr.current_slack is not None for tr in lanes)
    assert any(tr.lambda_norm.max() > 0 for tr in lanes)  # the duals take part


def test_lanes_with_delays_longer_than_an_observation_block():
    spec = build_pricing_problem(PricingConfig())
    tau = 70
    assert tau > OBS_BLOCK
    hp = Hyperparams(epsilon=0.3, delta=1e-5, T=3 * OBS_BLOCK)
    lanes = assert_lanes_match_solo(spec, hp, [DelaySchedule(kind="fixed", tau_max=tau),
                                               uniform(tau, 9)], [8, 9])
    assert lanes[0].staleness.max() == tau


def test_mixed_sync_and_async_lanes(consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=120)
    seeds = [6, 7, 6, 7]
    lanes = assert_lanes_match_solo(consensus_spec, hp, [None, None, uniform(6, 6), uniform(6, 7)],
                                    seeds, thin_every=5)
    for seed, trace in zip(seeds[:2], lanes[:2]):
        assert trace.mode == "sync" and trace.tau_bound == 0
        assert_traces_identical(trace, run_synchronous(consensus_spec, hp, seed, thin_every=5))
    assert [tr.mode for tr in lanes[2:]] == ["async", "async"]


def test_one_lane_engine_is_the_solo_engine(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=90)
    assert_lanes_match_solo(small_consensus_spec, hp, [uniform(3, 2)], [2])
    engine = SaddleEngine(small_consensus_spec, hp, [uniform(3, 2)], [2]).run()
    assert_traces_identical(engine.trace(), run(small_consensus_spec, hp, uniform(3, 2), 2))
    with pytest.raises(ValueError, match="traces"):
        SaddleEngine(small_consensus_spec, hp, [None, None], [0, 1]).trace()


def test_lanes_sharing_one_delay_seed(consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=100)
    shared = uniform(5, 11)  # one schedule object for every lane, as a fixed delay seed gives
    lanes = assert_lanes_match_solo(consensus_spec, hp, [shared] * 3, [0, 1, 2])
    assert np.array_equal(lanes[0].resolved, lanes[2].resolved)
    assert not np.array_equal(lanes[0].delayed_slack, lanes[2].delayed_slack)


def test_non_finite_lane_names_its_seed():
    spec = nan_gradient_spec()
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=200)
    seeds = [0, 1, 2, 3]
    first = {seed: next(t for t in range(hp.T) if sample_observation(spec, seed, 0, t))
             for seed in seeds}
    step, seed = min((t, seed) for seed, t in first.items())
    assert sorted(first.values()).count(step) == 1
    with pytest.raises(NonFiniteState, match=f"seed {seed}, step {step}, node 0$"):
        run_lanes(spec, hp, [DelaySchedule(kind="zero")] * 4, seeds)


# ---------------------------------------------------------------------------
# one-step decrement property (deterministic saddle instance)
# ---------------------------------------------------------------------------

def one_step_decrement_audit(spec, hp, schedule, x_star, lam_star, T):
    """Assert the per-step telescoping inequality of the decrement property.

    ||z_{t+1} - z*||^2 - ||z_t - z*||^2 <= 2 eps [ -(L(x_[t], lam*) - L(x*, lam_t))
        + (eps/2)(|grad_x L|^2 + |grad_lam L|^2) + <grad_x L, x_[t] - x_t> ]
    with gradients at the resolved stale window and current duals.
    """
    n = spec.graph.n_nodes
    xbuf = StalenessBuffer(n, schedule.tau_max + 1)
    obuf = StalenessBuffer(n, schedule.tau_max + 1)
    from asaddle.delay import resolve
    from asaddle.problem import sample_observation

    x = [v.copy() for v in spec.x0]
    lam = np.zeros(spec.graph.n_edges)
    prev = [0] * n
    xs_star = [np.asarray(v, dtype=float) for v in x_star]
    for k in range(T):
        th = [sample_observation(spec, 0, i, k) for i in range(n)]
        for i in range(n):
            xbuf.record(k, i, x[i])
            obuf.record(k, i, th[i])
        res = [resolve(schedule, k, i, prev[i]) for i in range(n)]
        prev = res
        xs_eval = [xbuf.fetch(res[i], i) for i in range(n)]
        ths_eval = [obuf.fetch(res[i], i) for i in range(n)]

        g_x = primal_gradient(spec, lam, xs_eval, ths_eval)
        g_lam = dual_gradient(spec, lam, xs_eval, ths_eval, hp)
        state = SaddleState(x=x, lam=lam)
        new_x = primal_step(spec, state, xs_eval, ths_eval, hp)
        new_lam = dual_step(state, dual_slack(spec, xs_eval, ths_eval), hp)

        # both sides of the inequality
        lhs = (np.sum((stack(new_x) - stack(xs_star)) ** 2) + np.sum((new_lam - lam_star) ** 2)
               - np.sum((stack(x) - stack(xs_star)) ** 2) - np.sum((lam - lam_star) ** 2))
        l_at_stale_lamstar = stochastic_lagrangian(
            spec, SaddleState(x=xs_eval, lam=lam_star), ths_eval, hp)
        l_at_star_lamt = stochastic_lagrangian(
            spec, SaddleState(x=xs_star, lam=lam), ths_eval, hp)
        grad_sq = float(np.sum(stack(g_x) ** 2) + np.sum(np.asarray(g_lam) ** 2))
        drift = float(np.dot(stack(g_x), stack(xs_eval) - stack(x)))
        rhs = 2.0 * hp.epsilon * (
            -(l_at_stale_lamstar - l_at_star_lamt) + 0.5 * hp.epsilon * grad_sq + drift
        )
        assert lhs <= rhs + 1e-9, f"step {k}: lhs={lhs} rhs={rhs}"
        x, lam = new_x, new_lam


@pytest.mark.parametrize("schedule", [
    DelaySchedule(kind="zero"),
    DelaySchedule(kind="fixed", tau_max=2),
    DelaySchedule(kind="uniform_random", tau_max=3, seed=12),
], ids=["zero", "fixed2", "uniform3"])
def test_one_step_decrement_property(schedule):
    spec = two_node_quadratic_spec(gamma=1.0)
    hp = Hyperparams(epsilon=0.05, delta=0.0, T=300)
    x_star = [np.array([0.5]), np.array([-0.5])]
    lam_star = np.full(2, 0.125)
    one_step_decrement_audit(spec, hp, schedule, x_star, lam_star, hp.T)


def test_two_node_instance_converges_to_known_saddle():
    spec = two_node_quadratic_spec(gamma=1.0)
    hp = Hyperparams(epsilon=0.02, delta=0.0, T=6000)
    trace = run_synchronous(spec, hp, seed=0)
    assert trace.x_final[0][0] == pytest.approx(0.5, abs=2e-2)
    assert trace.x_final[1][0] == pytest.approx(-0.5, abs=2e-2)
    assert trace.lam_final.sum() == pytest.approx(0.25, abs=2e-2)


# ---------------------------------------------------------------------------
# advisor
# ---------------------------------------------------------------------------

def make_estimates(sf2=2.0, sh2=1.0, sl2=4.0, Lf=3.0):
    return AssumptionEstimates(sigma_f2=sf2, sigma_h2=sh2, sigma_lambda2=sl2, L_f=Lf)


def test_advise_satisfies_fixed_point_rule(path3):
    est = make_estimates()
    hp, con = advise(est, path3, tau=3, T=10**7)
    assert hp.epsilon == pytest.approx(1.0 / math.sqrt(10**7))
    k4_at_delta = 2.0 * (con.delta**2 * con.epsilon**2 + con.K1) + (con.tau + 1) * con.tau * (
        con.K1 + 4.0 * est.L_f * math.sqrt(con.K1))
    assert k4_at_delta - con.delta <= 0.0
    assert con.K4 == pytest.approx(k4_at_delta)


def test_advise_tau_zero_reduces_to_2k3(path3):
    est = make_estimates()
    hp, con = advise(est, path3, tau=0, T=10**8)
    # fixed point collapses to delta = 2 K3(delta)
    assert con.delta == pytest.approx(2.0 * con.K3, rel=1e-9)


def test_advise_epsilon_to_zero_limit(path3):
    est = make_estimates()
    _, con = advise(est, path3, tau=4, T=10**12)
    # smallest root tends to C as eps -> 0
    assert con.delta == pytest.approx(con.C, rel=1e-3)


def test_advise_infeasible_exactly_when_discriminant_negative(path3):
    est = make_estimates()
    L2 = max(est.sigma_f2, est.sigma_h2)
    K1 = (path3.n_nodes + path3.n_edges**2) * L2
    C = 2 * K1 + 5 * 4 * (K1 + 4 * est.L_f * math.sqrt(K1))
    threshold = 8.0 * C  # discriminant 1 - 8C/T crosses zero at T = 8C
    T_bad = int(threshold * 0.9)
    T_good = int(threshold * 1.1) + 1
    with pytest.raises(NoFeasibleDelta) as info:
        advise(est, path3, tau=4, T=T_bad)
    assert info.value.C == pytest.approx(C)
    assert info.value.min_T >= T_bad
    hp, con = advise(est, path3, tau=4, T=T_good)
    assert con.discriminant >= 0
    assert con.K4 - con.delta <= 0.0


def test_advise_rejects_nonpositive_estimates(path3):
    with pytest.raises(ValueError):
        advise(make_estimates(sf2=0.0), path3, tau=1, T=100)

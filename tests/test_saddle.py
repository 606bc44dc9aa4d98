import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asaddle.apps.pricing import PricingConfig, build_pricing_problem
from asaddle.delay import DelaySchedule, StalenessBuffer
from asaddle.errors import DimensionMismatch, NoFeasibleDelta, NonFiniteState
from asaddle.graph import build_graph, path_edges
from asaddle.problem import (OBS_BLOCK, ConstraintFamily, DomainSpec, ExpectedObjective,
                             Objective, ProblemSpec, Sampler, sample_observation)
from asaddle.metrics import AssumptionEstimates
from asaddle.saddle import (Hyperparams, SaddleEngine, SaddleState, advise,
                            dual_slack, dual_step, primal_gradient, primal_step, run,
                            run_lanes, stochastic_lagrangian)
from conftest import CONSENSUS_CFG, SMALL_CONSENSUS_CFG
from reference import (NeighborhoodConstraint, as_neighborhood, capture_records, from_per_node,
                       no_constraints, observations, per_step_traces)


# ---------------------------------------------------------------------------
# fixtures: tiny hand-checkable problems
# ---------------------------------------------------------------------------

def point_mass_sampler():
    return Sampler(sample=lambda rng: ())


def scalar_quadratic_spec():
    """Single node, f = x^2/2, no constraints."""
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: 0.5 * x[0] ** 2, grad=lambda x, th: x.copy())
    return ProblemSpec.make(g, 1, [obj], [point_mass_sampler()],
                            no_constraints(g),
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
    state = SaddleState(x=np.array([0.0, 0.0]), lam=np.zeros(2))
    val = stochastic_lagrangian(spec, state, observations([(), ()]), hp)
    assert val == pytest.approx(0.5 + 0.5)


def test_lagrangian_single_edge_hand_value():
    # f == 0, one directed edge with slack 1.0, lam = 2, delta*eps = 0.1:
    # 2*1 - 0.05*4 = 1.8 per direction counted once
    spec = constant_slack_spec(1.0)
    hp = Hyperparams(epsilon=0.2, delta=0.5, T=1)  # delta*eps = 0.1
    lam = np.zeros(2)
    lam[spec.graph.edge_index(0, 1)] = 2.0
    state = SaddleState(x=np.zeros(2), lam=lam)
    assert stochastic_lagrangian(spec, state, observations([(), ()]), hp) == pytest.approx(1.8)
    # delta = 0 drops the regularizer: plain Lagrangian value
    hp0 = Hyperparams(epsilon=0.2, delta=0.0, T=1)
    assert stochastic_lagrangian(spec, state, observations([(), ()]), hp0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# one-step updates
# ---------------------------------------------------------------------------

def test_primal_step_scalar_hand_value():
    spec = scalar_quadratic_spec()
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=1)
    x = np.array([1.0])
    state = SaddleState(x=x, lam=np.zeros(0))
    new_x = primal_step(spec, state, x, observations([()]), hp)
    assert new_x[0] == pytest.approx(0.9)


def test_primal_step_zero_epsilon_is_identity():
    spec = two_node_quadratic_spec()
    hp = Hyperparams(epsilon=1e-300, delta=0.0, T=1)
    x = np.array([0.3, -0.7])
    state = SaddleState(x=x, lam=np.zeros(2))
    new_x = primal_step(spec, state, x, observations([(), ()]), hp)
    assert np.allclose(new_x, x, atol=1e-12)


def test_dual_step_hand_values():
    x = np.zeros(2)
    ths = observations([(), ()])
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
    assert trace.violation_cumclip.shape == trace.max_staleness.shape == (0,)


def test_run_deterministic_given_seed(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=100)
    sched = DelaySchedule(kind="uniform_random", tau_max=4, seed=3)
    with capture_records() as c1:
        t1 = run(small_consensus_spec, hp, sched, seed=7, thin_every=1)
    with capture_records() as c2:
        t2 = run(small_consensus_spec, hp, DelaySchedule(kind="uniform_random", tau_max=4, seed=3),
                 seed=7, thin_every=1)
    for t in t1.x_snapshots:
        assert np.array_equal(t1.x_snapshots[t], t2.x_snapshots[t])
    assert np.array_equal(t1.lambda_norm, t2.lambda_norm)
    assert c1.delayed_slack()[0].tobytes() == c2.delayed_slack()[0].tobytes()
    assert c1.resolved_times()[0].tobytes() == c2.resolved_times()[0].tobytes()


def test_zero_delay_matches_synchronous_bitwise(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=200)
    for seed in range(3):
        with capture_records() as c_sync:
            sync = run(small_consensus_spec, hp, None, seed, thin_every=1)
        with capture_records() as c_async:
            asyn = run(small_consensus_spec, hp, DelaySchedule(kind="zero"), seed, thin_every=1)
        for t in sync.x_snapshots:
            assert np.array_equal(sync.x_snapshots[t], asyn.x_snapshots[t])
        assert np.array_equal(sync.lambda_norm, asyn.lambda_norm)
        assert c_sync.delayed_slack()[0].tobytes() == c_async.delayed_slack()[0].tobytes()


def test_pairwise_matches_neighborhood_encoding(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=150)
    sched = DelaySchedule(kind="uniform_random", tau_max=3, seed=5)
    pw = run(small_consensus_spec, hp, sched, seed=2, thin_every=1)
    nb = run(as_neighborhood(small_consensus_spec, SMALL_CONSENSUS_CFG), hp,
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
                            from_per_node(g, cons, 1),
                            DomainSpec.box(np.array([-2.0]), np.array([2.0])))
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=50)
    trace = run(spec, hp, DelaySchedule(kind="zero"), seed=0)
    assert np.all(trace.lambda_norm == 0.0)


def test_generalized_single_node_reduces_to_projected_sgd():
    # one node, self-only constraint x <= 0.4 (slack x - 0.4), point-mass data
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: 0.5 * (x[0] - 1.0) ** 2, grad=lambda x, th: x - 1.0)
    con = NeighborhoodConstraint(size=1,
                                 value=lambda xs, ths: np.array([xs[0][0] - 0.4]),
                                 jacobian=lambda wrt, xs, ths: np.ones((1, 1)))
    spec = ProblemSpec.make(g, 1, [obj], [point_mass_sampler()],
                            from_per_node(g, [con], 1),
                            DomainSpec.box(np.array([-2.0]), np.array([2.0])),
                            x0=[np.array([0.0])])
    hp = Hyperparams(epsilon=0.05, delta=0.0, T=120)
    trace = run(spec, hp, DelaySchedule(kind="zero"), seed=0, thin_every=1)

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
    with capture_records() as c_one_shot:
        one_shot = run(small_consensus_spec, hp, sched, seed=9, thin_every=1)

    engine = SaddleEngine(small_consensus_spec, hp,
                          DelaySchedule(kind="uniform_random", tau_max=4, seed=6),
                          seed=9, thin_every=1)
    with capture_records() as c_stepwise:
        mid = engine.run(30).trace()
        assert mid.T == 30 and mid.n_rows == 31
        for _ in range(50):
            engine.step()
    full = engine.trace()
    assert np.array_equal(full.lambda_norm, one_shot.lambda_norm)
    assert c_stepwise.delayed_slack()[0].tobytes() == c_one_shot.delayed_slack()[0].tobytes()
    for t in one_shot.x_snapshots:
        assert np.array_equal(full.x_snapshots[t], one_shot.x_snapshots[t])
    with pytest.raises(IndexError):
        engine.step()


def nan_gradient_spec():
    """One node whose gradient is NaN on the steps its observation is True."""
    g = build_graph(1, [])
    obj = Objective(value=lambda x, th: 0.5 * (x * x).sum(axis=-1),
                    grad=lambda x, th: np.where(th[0][..., None], np.nan, x))
    return ProblemSpec.make(g, 1, [obj], [Sampler(sample=lambda rng: (rng.random() < 0.1,))],
                            no_constraints(g),
                            DomainSpec.box(np.array([-1.0]), np.array([1.0])))


def test_nan_gradient_stops_the_run():
    # one NaN gradient used to leave x NaN for the rest of the run while the
    # invariant audit still reported a feasible trace
    spec = nan_gradient_spec()
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=200)
    first_nan = next(t for t in range(hp.T) if sample_observation(spec, 0, 0, t)[0])
    with pytest.raises(NonFiniteState, match=f"step {first_nan}, node 0$"):
        run(spec, hp, DelaySchedule(kind="zero"), seed=0, thin_every=1)


def test_non_finite_update_names_the_node():
    # per-node dimensions 1, 2, 3: the NaN sits in the last coordinate block
    g = build_graph(3, path_edges(3))
    # the flag is one entry per coordinate, as nodes of different dimensions need
    def zero(x, th):
        return np.zeros(np.shape(x)[:-1])

    objs = [Objective(value=zero, grad=lambda x, th: x.copy()),
            Objective(value=zero, grad=lambda x, th: x.copy()),
            Objective(value=zero, grad=lambda x, th: np.where(th[0], np.inf, x))]
    samplers = [Sampler(sample=lambda rng, d=d: (np.zeros(d, dtype=bool),)) for d in (1, 2)] + [
        Sampler(sample=lambda rng: (np.full(3, rng.random() < 0.2),))]
    spec = ProblemSpec.make(g, (1, 2, 3), objs, samplers,
                            no_constraints(g),
                            tuple(DomainSpec.box(-np.ones(d), np.ones(d)) for d in (1, 2, 3)))
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=100)
    first = next(t for t in range(hp.T) if sample_observation(spec, 4, 2, t)[0].all())
    with pytest.raises(NonFiniteState, match=f"step {first}, node 2$"):
        run(spec, hp, None, seed=4)


def test_staleness_monotone_and_bounded(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=300)
    sched = DelaySchedule(kind="uniform_random", tau_max=6, seed=1)
    with capture_records() as captured:
        trace = run(small_consensus_spec, hp, sched, seed=4)
    resolved = captured.resolved_times()[0]
    staleness = np.arange(hp.T)[:, None] - resolved
    assert np.all(np.diff(resolved, axis=0) >= 0)
    assert staleness.max() <= 6
    assert np.all(staleness >= 0)
    assert trace.staleness_monotone and trace.max_staleness.max() <= 6
    assert trace.max_staleness.tobytes() == staleness.max(axis=1).tobytes()


def test_custom_table_of_exactly_T_rows(small_consensus_spec):
    from asaddle.delay import resolve
    from asaddle.errors import OutOfWindow
    T = 2 * OBS_BLOCK + 11
    table = np.random.default_rng(0).integers(0, 9, size=(T, 3))
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=T)
    with capture_records() as captured:
        run(small_consensus_spec, hp, DelaySchedule(kind="custom_table", tau_max=8, table=table), seed=1)
    resolved = captured.resolved_times()[0]
    assert resolved.shape == (T, 3)
    sched = DelaySchedule(kind="custom_table", tau_max=8, table=table)
    chain = np.zeros(3, dtype=int)
    for t in range(T):
        chain = resolve(sched, [t], np.arange(3), chain)[0]
        assert resolved[t].tolist() == chain.tolist(), t
    # one row short: the engine stops at the start of the block holding row T - 1
    engine = SaddleEngine(small_consensus_spec, hp,
                          DelaySchedule(kind="custom_table", tau_max=8, table=table[:-1]), seed=1)
    with pytest.raises(OutOfWindow):
        engine.run()
    assert engine.state.t == 2 * OBS_BLOCK


@pytest.mark.parametrize("short", [
    DelaySchedule(kind="fixed", tau_max=4, node_taus=(1, 2, 4)),
    DelaySchedule(kind="custom_table", tau_max=4, table=np.full((100, 3), 2)),
], ids=["fixed", "custom_table"])
def test_a_schedule_for_fewer_nodes_than_the_network_is_a_dimension_mismatch(short):
    import os
    from asaddle import cli
    config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs", "consensus.json")
    spec, _ = cli.build_problem(cli.parse_config(config))
    assert spec.graph.n_nodes == 5
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=100)
    with pytest.raises(DimensionMismatch, match=f"seed 7: {short.kind} delays for 3 of 5 nodes"):
        SaddleEngine(spec, hp, short, seed=7)
    with pytest.raises(DimensionMismatch, match="seed 9: "):
        run_lanes(spec, hp, [uniform(4, 8), short], [8, 9])
    # a schedule with delays for every node runs; for more nodes, the first ones are read
    wide = (DelaySchedule(kind="fixed", tau_max=4, node_taus=(1, 2, 4, 0, 3, 2))
            if short.kind == "fixed" else
            DelaySchedule(kind="custom_table", tau_max=4, table=np.full((100, 6), 2)))
    assert run(spec, hp, wide, seed=7).max_staleness.max() > 0


def test_rings_are_written_and_delays_resolved_once_per_block(monkeypatch):
    import asaddle.saddle as saddle_mod
    resolves = []
    resolve = saddle_mod.resolve

    def counting_resolve(*args):
        resolves.append(args[1])
        return resolve(*args)

    monkeypatch.setattr(saddle_mod, "resolve", counting_resolve)
    spec = build_pricing_problem(PricingConfig())
    T, S = 150, 5
    hp = Hyperparams(epsilon=0.3, delta=1e-5, T=T)
    engine = SaddleEngine(spec, hp, [uniform(10, s) for s in range(S)], list(range(S))).run()
    # x shares the observations' window: the current block and the one before
    # it, one column per coordinate of every lane
    assert engine._x_window.shape == (2 * OBS_BLOCK, S * sum(spec.dims))
    assert len(resolves) == S * math.ceil(T / OBS_BLOCK)
    assert [len(steps) for steps in resolves[::S]] == [OBS_BLOCK, OBS_BLOCK, T - 2 * OBS_BLOCK]
    # the synchronous path keeps a window of one block, which the block pass
    # records from, and resolves nothing
    resolves.clear()
    engine = SaddleEngine(spec, hp, [None] * S, list(range(S))).run()
    assert engine._x_window.shape == (OBS_BLOCK, S * sum(spec.dims)) and resolves == []
    assert engine._res_window is None  # and stores no resolved times


@pytest.mark.parametrize("tau", [None, 10], ids=["sync", "tau10"])
def test_engine_arrays_grow_by_a_few_numbers_per_step(tau):
    # a run keeps per-row series and reductions, and its windows are set by
    # tau: on a 50-node ring the engine's arrays grow by at most 8 numbers
    # (64 bytes) per step from T=640 to T=6400 (1224 with a dense slack and
    # resolved times per step)
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    from asaddle.graph import ring_edges
    spec = build_consensus_problem(ConsensusRegressionConfig(), build_graph(50, ring_edges(50)))

    def held(T):
        hp = Hyperparams(epsilon=0.05, delta=1e-5, T=T)
        engine = SaddleEngine(spec, hp, None if tau is None else uniform(tau, 0), seed=0, thin_every=0)
        engine.run()
        return sum(v.nbytes for v in vars(engine).values() if isinstance(v, np.ndarray))

    assert held(6400) - held(640) <= 64 * (6400 - 640)


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
            assert np.concatenate(va).tobytes() == np.concatenate(vb).tobytes(), name
        elif isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and va.shape == vb.shape, name
            assert va.tobytes() == vb.tobytes(), name
        else:
            assert va == vb, name


def assert_captured_identical(a, b):
    """Two captures of the same steps hold the same delayed slacks and resolved times."""
    for mine, theirs in ((a.slacks, b.slacks), (a.resolved, b.resolved)):
        assert [x.tobytes() for x in mine] == [x.tobytes() for x in theirs]


def assert_lanes_match_solo(spec, hp, schedules, seeds, **kwargs):
    # the traces, the fresh slack included, and the delayed slacks and resolved
    # times the step used; a sync lane of a bundle with stale lanes resolves
    # every step to itself and scores its fresh slack through the tiled family,
    # where its solo run copies the delayed slack
    kwargs.setdefault("record_current_slack", True)
    with capture_records() as bundle:
        lanes = run_lanes(spec, hp, schedules, seeds, **kwargs)
    assert [tr.seed for tr in lanes] == list(seeds)
    S, n = len(seeds), spec.graph.n_nodes
    slacks = bundle.delayed_slack(S)
    resolved = bundle.resolved_times(S) if bundle.resolved else None
    for s, (schedule, seed, trace) in enumerate(zip(schedules, seeds, lanes)):
        with capture_records() as solo:
            assert_traces_identical(trace, run(spec, hp, schedule, seed, **kwargs))
        assert slacks[s].tobytes() == solo.delayed_slack()[0].tobytes()
        if resolved is not None:
            times = np.repeat(np.arange(hp.T), n).reshape(hp.T, n)
            want = times if schedule is None else solo.resolved_times()[0]
            assert resolved[s].tobytes() == want.tobytes()
    return lanes


def uniform(tau, seed):
    return DelaySchedule(kind="uniform_random", tau_max=tau, seed=seed)


@pytest.mark.parametrize("neighborhood", [False, True], ids=["pairwise", "per_node"])
def test_consensus_lanes_match_solo_runs(consensus_spec, neighborhood):
    spec = as_neighborhood(consensus_spec, CONSENSUS_CFG) if neighborhood else consensus_spec
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
    assert lanes[0].max_staleness.max() == tau


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("app", ["consensus", "pricing"])
def test_own_objective_instances_give_the_shared_instance_bits(consensus_spec, app, lanes):
    # every node with its own copy of the Objective: one call per node's
    # rows, against one call on every node's rows
    from dataclasses import replace
    spec = consensus_spec if app == "consensus" else build_pricing_problem(PricingConfig())
    own = replace(spec, objectives=tuple(replace(obj) for obj in spec.objectives))
    assert len(spec.objective_groups) == 1 and len(own.objective_groups) == spec.graph.n_nodes
    hp = Hyperparams(epsilon=0.05 if app == "consensus" else 0.3, delta=1e-5, T=150)
    seeds = list(range(lanes))
    for schedules in ([None] * lanes, [uniform(4, s) for s in seeds]):
        runs = []
        for p in (spec, own):
            with capture_records() as captured:
                traces = run_lanes(p, hp, schedules, seeds, thin_every=7, record_current_slack=True,
                                   evaluator=ExpectedObjective(p, mc_samples=64, seed=1))
            runs.append((traces, captured))
        (shared, c_shared), (owned, c_owned) = runs
        for a, b in zip(shared, owned, strict=True):
            assert_traces_identical(a, b)
        assert_captured_identical(c_shared, c_owned)


# observation windows one to three blocks deep, each filled past its depth
@pytest.mark.parametrize("tau", [63, 64, 65, 128, 130])
def test_lanes_match_solo_runs_at_delays_around_a_block(tau):
    spec = build_pricing_problem(PricingConfig())
    hp = Hyperparams(epsilon=0.3, delta=1e-5, T=5 * OBS_BLOCK + 3)
    lanes = assert_lanes_match_solo(spec, hp, [DelaySchedule(kind="fixed", tau_max=tau),
                                               uniform(tau, 9)], [8, 9])
    assert lanes[0].max_staleness.max() == tau


def test_a_delay_beyond_the_observation_window_is_out_of_window(small_consensus_spec):
    from asaddle.errors import OutOfWindow
    schedule = DelaySchedule(kind="fixed", tau_max=70)
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=6 * OBS_BLOCK)
    engine = SaddleEngine(small_consensus_spec, hp, schedule, seed=0)  # a window of 3 blocks
    # delays the window was not built for: its block-level check trips before
    # any iterate or observation is read from an overwritten row
    schedule.tau_max = 200
    with pytest.raises(OutOfWindow, match="observation window"):
        engine.run()
    assert engine.state.t == 3 * OBS_BLOCK  # the first block reaching before the window


@pytest.mark.parametrize("T", [OBS_BLOCK, 2 * OBS_BLOCK + 11])
@pytest.mark.parametrize("lanes", [1, 5])
@pytest.mark.parametrize("tau", [None, 3, 70], ids=["sync", "tau3", "tau70"])
@pytest.mark.parametrize("app", ["consensus", "pricing"])
def test_block_records_equal_per_step_records(consensus_spec, app, tau, lanes, T):
    # every record of the block pass against its per-step recomputation, for a
    # horizon on a block boundary (its last block recorded by traces() alone)
    # and one past it; the fresh slack of a sync run is its delayed slack
    spec = consensus_spec if app == "consensus" else build_pricing_problem(PricingConfig())
    hp = Hyperparams(epsilon=0.05 if app == "consensus" else 0.3, delta=1e-5, T=T)
    seeds = list(range(lanes))
    schedules = [None if tau is None else uniform(tau, s) for s in seeds]
    kwargs = dict(evaluator=ExpectedObjective(spec, mc_samples=64, seed=1), thin_every=7,
                  record_current_slack=True)
    with capture_records() as captured:
        full = run_lanes(spec, hp, schedules, seeds, **kwargs)
    oracle, dense = per_step_traces(spec, hp, schedules, seeds, **kwargs)
    slacks = captured.delayed_slack(lanes)
    resolved = None if tau is None else captured.resolved_times(lanes)
    assert tau is not None or captured.resolved == []  # a sync run resolves nothing
    for s, (got, want, (delayed, times)) in enumerate(zip(full, oracle, dense, strict=True)):
        assert_traces_identical(got, want)
        assert slacks[s].tobytes() == delayed.tobytes()
        assert tau is None or resolved[s].tobytes() == times.tobytes()
    # a read inside the last block records the rows before it and its own row
    # from the state; the run then goes on as if it had not been read
    mid = T - 24
    engine = SaddleEngine(spec, hp, schedules, seeds, **kwargs)
    oracle, _ = per_step_traces(spec, hp, schedules, seeds, steps=mid, **kwargs)
    with capture_records() as read_mid:
        for got, want in zip(engine.run(mid).traces(), oracle, strict=True):
            assert_traces_identical(got, want)
        for got, want in zip(engine.run().traces(), full, strict=True):
            assert_traces_identical(got, want)
    assert_captured_identical(read_mid, captured)


@settings(max_examples=80, deadline=None)
@given(lanes=st.integers(1, 8), m=st.integers(0, 300), seed=st.integers(0, 2**32),
       zero=st.lists(st.booleans(), min_size=8, max_size=8))
def test_lane_lambda_norms_equal_per_lane_norms(lanes, m, seed, zero):
    # the engine's (S,) norms in one vecdot, bit for bit the per-lane norms
    lam = np.random.default_rng(seed).uniform(0.0, 3.0, size=(lanes, m))
    lam[np.array(zero[:lanes])] = 0.0
    got = np.sqrt(np.vecdot(lam, lam))
    assert got.tobytes() == np.array([np.linalg.norm(row) for row in lam]).tobytes()


def test_mixed_sync_and_async_lanes(consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=120)
    seeds = [6, 7, 6, 7]
    lanes = assert_lanes_match_solo(consensus_spec, hp, [None, None, uniform(6, 6), uniform(6, 7)],
                                    seeds, thin_every=5, record_current_slack=True)
    for seed, trace in zip(seeds[:2], lanes[:2]):
        assert trace.mode == "sync" and trace.tau_bound == 0 and trace.current_slack is not None
        assert_traces_identical(trace, run(consensus_spec, hp, None, seed, thin_every=5,
                                           record_current_slack=True))
    assert [tr.mode for tr in lanes[2:]] == ["async", "async"]


def test_one_lane_engine_is_the_solo_engine(small_consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=90)
    assert_lanes_match_solo(small_consensus_spec, hp, [uniform(3, 2)], [2])
    with capture_records() as c_engine:
        engine = SaddleEngine(small_consensus_spec, hp, [uniform(3, 2)], [2],
                              record_current_slack=True).run()
    with capture_records() as c_run:
        assert_traces_identical(engine.trace(), run(small_consensus_spec, hp, uniform(3, 2), 2,
                                                    record_current_slack=True))
    assert_captured_identical(c_engine, c_run)
    with pytest.raises(ValueError, match="traces"):
        SaddleEngine(small_consensus_spec, hp, [None, None], [0, 1]).trace()


def test_lanes_sharing_one_delay_seed(consensus_spec):
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=100)
    shared = uniform(5, 11)  # one schedule object for every lane, as a fixed delay seed gives
    assert_lanes_match_solo(consensus_spec, hp, [shared] * 3, [0, 1, 2])
    with capture_records() as captured:
        run_lanes(consensus_spec, hp, [shared] * 3, [0, 1, 2])
    resolved, slack = captured.resolved_times(3), captured.delayed_slack(3)
    assert resolved[0].shape == (hp.T, consensus_spec.graph.n_nodes)
    assert resolved[0].tobytes() == resolved[2].tobytes()
    assert slack[0].tobytes() != slack[2].tobytes()


def test_non_finite_lane_names_its_seed():
    spec = nan_gradient_spec()
    hp = Hyperparams(epsilon=0.1, delta=0.0, T=200)
    seeds = [0, 1, 2, 3]
    first = {seed: next(t for t in range(hp.T) if sample_observation(spec, seed, 0, t)[0])
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

    x = np.concatenate(spec.x0)
    lam = np.zeros(spec.graph.n_edges)
    prev = np.zeros(n, dtype=int)
    x_star = np.concatenate(x_star)
    for k in range(T):
        th = [sample_observation(spec, 0, i, k) for i in range(n)]
        for i in range(n):
            xbuf.record(k, i, spec.rows(x)[i])
            obuf.record(k, i, th[i])
        res = resolve(schedule, [k], np.arange(n), prev)[0]
        prev = res
        x_eval = np.concatenate([xbuf.fetch(res[i], i) for i in range(n)])
        ths_eval = observations([obuf.fetch(res[i], i) for i in range(n)])

        g_x = primal_gradient(spec, lam, x_eval, ths_eval)
        g_lam = dual_slack(spec, x_eval, ths_eval) - hp.delta * hp.epsilon * lam
        state = SaddleState(x=x, lam=lam)
        new_x = primal_step(spec, state, x_eval, ths_eval, hp)
        new_lam = dual_step(state, dual_slack(spec, x_eval, ths_eval), hp)

        # both sides of the inequality
        lhs = (np.sum((new_x - x_star) ** 2) + np.sum((new_lam - lam_star) ** 2)
               - np.sum((x - x_star) ** 2) - np.sum((lam - lam_star) ** 2))
        l_at_stale_lamstar = stochastic_lagrangian(
            spec, SaddleState(x=x_eval, lam=lam_star), ths_eval, hp)
        l_at_star_lamt = stochastic_lagrangian(
            spec, SaddleState(x=x_star, lam=lam), ths_eval, hp)
        grad_sq = float(np.sum(g_x ** 2) + np.sum(np.asarray(g_lam) ** 2))
        drift = float(np.dot(g_x, x_eval - x))
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
    trace = run(spec, hp, None, seed=0)
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


# ---------------------------------------------------------------------------
# Python calls per engine step: a count the machine's load cannot blur
# ---------------------------------------------------------------------------

# (app, mode): calls per step of one lane at T=1280, seed 0, no evaluator,
# after a warm-up run (cProfile); each ceiling is the count of the engine
# that draws each sampler group in one call + 5 % (in parentheses, newest
# first: with a draw per node, with per-step recording, with per-node
# iterate views, with separate objective calls per node, with a separate
# iterate ring, then with observation trees)
STEP_CALL_CEILINGS = {
    ("consensus", "sync"): 71.4,  # 68.0 (71.5, 93.1, 114.1, 116.3, 117.3, 205.8)
    ("consensus", "async"): 75.1,  # 71.6 (73.9, 116.4, 144.5, 146.7, 152.9, 280.7)
    ("pricing", "sync"): 57.8,  # 55.0 (63.3, 83.4, 117.2, 117.4, 118.4, 153.3)
    ("pricing", "async"): 61.4,  # 58.4 (65.5, 91.6, 139.2, 139.4, 145.7, 199.6)
}


@pytest.mark.parametrize("app, mode", list(STEP_CALL_CEILINGS))
def test_python_calls_per_engine_step(app, mode):
    import cProfile
    import os
    import pstats

    from asaddle import cli
    config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs", f"{app}.json")
    spec, _ = cli.build_problem(cli.parse_config(config))
    T = 1280
    hp = Hyperparams(epsilon=0.01, delta=1e-5, T=T)
    schedule = None if mode == "sync" else uniform(10, 0)
    run(spec, hp, schedule, 0)
    profile = cProfile.Profile()
    profile.enable()
    run(spec, hp, schedule, 0)
    profile.disable()
    stats = pstats.Stats(profile)

    def calls_of(fn):
        return sum(calls for (_, _, name), (_, calls, *_) in stats.stats.items() if name == fn)

    assert calls_of("tree_map") == 0
    # the step makes the update only, one slack per step; the records come
    # from one pass per block, one objective_sum each
    assert calls_of("dual_slack") == T and calls_of("objective_sum") == T // OBS_BLOCK
    assert stats.total_calls / T <= STEP_CALL_CEILINGS[(app, mode)]

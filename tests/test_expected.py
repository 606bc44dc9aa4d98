"""Exact expectations: E1, the apps' closed forms, and block-scored F_hat."""

import numpy as np
import pytest
from scipy.special import exp1 as scipy_exp1

from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
from asaddle.apps.pricing import PricingConfig, build_pricing_problem, exp1
from asaddle.delay import DelaySchedule
from asaddle.graph import build_graph, ring_edges
from asaddle.errors import DimensionMismatch
from asaddle.problem import OBS_BLOCK, ExpectedObjective
from asaddle.saddle import Hyperparams, run_lanes
from test_metrics import _random_feasible
from test_problem import _pricing_specs, _random_prices, monte_carlo
from test_saddle import assert_lanes_match_solo


def all_specs():
    ring = build_consensus_problem(ConsensusRegressionConfig(noise_std=0.5),
                                   build_graph(5, ring_edges(5)))
    return _pricing_specs() + [ring]


def test_exp1_matches_scipy():
    z = np.geomspace(1e-8, 700.0, 20001)
    got = exp1(z)
    assert np.isfinite(got).all()
    want = scipy_exp1(z)
    assert np.max(np.abs(got - want) / want) <= 1e-12
    # any shape; an entry does not depend on the others
    grid = z[::97].reshape(-1, 1)
    assert exp1(grid).shape == grid.shape
    assert all(exp1(z[k:k + 1])[0] == got[k] for k in range(0, z.size, 611))


def test_exact_expectation_within_monte_carlo_error():
    # per node, at random feasible points: the closed form against the mean
    # of 200k draws through value, within 4 standard errors
    n = 200_000
    rng = np.random.default_rng(21)
    for spec in all_specs():
        for _ in range(3):
            xs = _random_feasible(spec, rng)
            for i, x in enumerate(xs):
                obj, sampler = spec.objectives[i], spec.samplers[i]
                # node i's draws: row 0 of its group's batch alone
                draws = obj.value(x, tuple([leaf[0] for leaf in sampler.batch([rng], n, np.array([i]))]))
                exact = float(obj.expected(x, sampler.law))
                se = draws.std() / np.sqrt(n)
                assert abs(exact - draws.mean()) <= 4.0 * se, (spec.name, i, x)


def test_exact_evaluator_adds_node_expectations_in_order():
    rng = np.random.default_rng(3)
    for spec in all_specs():
        est = ExpectedObjective(spec, mc_samples=5, seed=1)
        assert est._exact and not est._sampled  # no draws
        for _ in range(5):
            xs = (_random_prices(spec, rng) if spec.name == "pricing"
                  else list(rng.uniform(-2.0, 2.0, size=(5, 4))))
            total = 0.0
            for i, x in enumerate(xs):
                total += float(spec.objectives[i].expected(x, spec.samplers[i].law))
            assert est.value(np.concatenate(xs)) == total


def test_values_equal_value_row_by_row():
    rng = np.random.default_rng(4)
    for spec in all_specs() + [monte_carlo(_pricing_specs()[2])]:
        est = ExpectedObjective(spec, mc_samples=50, seed=2)
        X = np.array([np.concatenate(_random_feasible(spec, rng)) for _ in range(70)])
        got = est.values(X)
        assert got.shape == (70,)
        for b in range(70):
            assert got[b:b + 1].tobytes() == np.float64(est.value(X[b].copy())).tobytes()


def test_value_rejects_iterates_that_are_not_stacked():
    # a per-node list of a ragged problem, and an (N, p) rows array of a
    # uniform one, which a reshape would otherwise score
    pricing, ring = _pricing_specs()[0], all_specs()[-1]
    for spec in (pricing, monte_carlo(pricing)):
        est = ExpectedObjective(spec, mc_samples=8)
        with pytest.raises(DimensionMismatch):
            est.value([np.ones(d) for d in spec.dims])
        with pytest.raises(DimensionMismatch):
            est.values([np.ones(d) for d in spec.dims])
    for spec in (ring, monte_carlo(ring)):
        est = ExpectedObjective(spec, mc_samples=8)
        rows = np.zeros((spec.graph.n_nodes, spec.dim))
        with pytest.raises(DimensionMismatch):
            est.value(rows)
        with pytest.raises(DimensionMismatch):
            est.values(rows)
        assert est.values(rows.reshape(1, -1))[0] == est.value(rows.reshape(-1))


def mixed_pricing_spec():
    """SCBS 1 has an Objective of its own, estimated by Monte Carlo; SCBSs 0
    and 2 share one with an exact expectation."""
    from dataclasses import replace
    spec = _pricing_specs()[2]
    objectives = list(spec.objectives)
    objectives[1] = replace(objectives[1], expected=None)
    return replace(spec, objectives=tuple(objectives))


def test_mixed_problem_is_scored_per_group():
    spec = mixed_pricing_spec()
    est = ExpectedObjective(spec, mc_samples=300, seed=7)
    assert len(est._exact) == 1 and len(est._sampled) == 1
    rng = np.random.default_rng(8)
    for _ in range(5):
        xs = _random_prices(spec, rng)
        rng_1 = np.random.default_rng(np.random.SeedSequence([2, 7, 1]))
        draws = tuple([leaf[0] for leaf in spec.samplers[1].batch([rng_1], 300, np.array([1]))])
        per_node = [float(spec.objectives[0].expected(xs[0], spec.samplers[0].law)),
                    float(np.mean(spec.objectives[1].value(xs[1], draws))),
                    float(spec.objectives[2].expected(xs[2], spec.samplers[2].law))]
        assert est.value(np.concatenate(xs)) == (0.0 + per_node[0]) + per_node[1] + per_node[2]


def test_block_scored_F_hat_equals_per_row_value():
    T = 2 * OBS_BLOCK + 11  # full blocks and a partial one, read by traces()
    for spec, hp in [(all_specs()[-1], Hyperparams(epsilon=0.05, delta=1e-5, T=T)),
                     (_pricing_specs()[2], Hyperparams(epsilon=0.3, delta=1e-5, T=T)),
                     (mixed_pricing_spec(), Hyperparams(epsilon=0.3, delta=1e-5, T=T))]:
        est = ExpectedObjective(spec, mc_samples=40, seed=3)
        traces = run_lanes(spec, hp, [DelaySchedule(kind="uniform_random", tau_max=4, seed=s)
                                      for s in (1, 2)], [1, 2], evaluator=est, thin_every=1)
        for tr in traces:
            assert tr.F_hat.shape == (T + 1,)  # every row scored
            for t in range(T + 1):
                want = est.value(tr.x_snapshots[t])
                assert tr.F_hat[t:t + 1].tobytes() == np.float64(want).tobytes(), (spec.name, t)


def test_mixed_problem_lanes_match_solo_runs():
    spec = mixed_pricing_spec()
    hp = Hyperparams(epsilon=0.3, delta=1e-5, T=100)
    est = ExpectedObjective(spec, mc_samples=64, seed=1)
    assert_lanes_match_solo(spec, hp, [DelaySchedule(kind="uniform_random", tau_max=3, seed=s)
                                       for s in range(3)], [0, 1, 2], evaluator=est, thin_every=9)

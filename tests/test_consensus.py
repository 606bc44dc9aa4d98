import numpy as np
import pytest

from asaddle.apps.consensus import (ConsensusRegressionConfig, build_consensus_problem,
                                    ring_weights)
from asaddle.delay import DelaySchedule
from asaddle.errors import InvalidConfig
from asaddle.graph import build_graph, path_edges, ring_edges
from asaddle.problem import (ConstraintFamily, DomainSpec, Objective, ProblemSpec,
                             Sampler, sample_observation)
from asaddle.saddle import Hyperparams, run
from reference import capture_records, observation_rows, observations


def test_ring_weights_nearby_nodes_similar():
    w = ring_weights(5, 4, scale=1.0)
    assert np.allclose(np.linalg.norm(w, axis=1), 1.0)
    d_adj = np.linalg.norm(w[0] - w[1])
    d_far = np.linalg.norm(w[0] - w[2])
    assert d_adj == pytest.approx(2 * np.sin(np.pi / 5), rel=1e-9)
    assert d_adj < d_far


def test_config_validation():
    with pytest.raises(InvalidConfig):
        ConsensusRegressionConfig(p=0)
    with pytest.raises(InvalidConfig):
        ConsensusRegressionConfig(gamma=-1.0)
    with pytest.raises(InvalidConfig):
        ConsensusRegressionConfig(box_lo=2.0, box_hi=-2.0)
    with pytest.raises(InvalidConfig):
        build_consensus_problem(ConsensusRegressionConfig(weights=((1.0,),)),
                                build_graph(2, [(0, 1)]))


def test_gamma_table_missing_an_edge_is_invalid_config(path3):
    table = {(0, 1): 0.3, (1, 0): 0.3, (1, 2): 0.3}  # no (2, 1)
    with pytest.raises(InvalidConfig, match=r"edge \(2, 1\)"):
        build_consensus_problem(ConsensusRegressionConfig(p=2, gamma_table=table), path3)


def test_negative_tolerance_is_invalid_config(path3):
    table = {e: 0.3 for e in path3.edges} | {(1, 2): -1.0}
    with pytest.raises(InvalidConfig, match=r"gamma\[1,2\] must be >= 0"):
        build_consensus_problem(ConsensusRegressionConfig(p=2, gamma_table=table), path3)
    with pytest.raises(InvalidConfig, match=r"gamma\[0,1\] must be >= 0"):
        ConstraintFamily.from_symmetric_pairwise(path3, lambda *a: 0.0, lambda *a: 0.0, -0.5)


def test_explicit_weights_and_sampler(small_consensus_spec):
    g = build_graph(2, [(0, 1)])
    w = ((1.0, 0.0), (0.0, 1.0))
    spec = build_consensus_problem(ConsensusRegressionConfig(p=2, weights=w, noise_std=0.0), g)
    z, y = sample_observation(spec, 0, 0, 0)
    assert y == pytest.approx(z @ np.array([1.0, 0.0]))


def test_zero_tolerance_with_shared_stream_gives_identical_iterates():
    # point-mass observations make every node see the same data; with gamma = 0
    # and a common start the symmetric dynamics keep all iterates equal
    g = build_graph(3, path_edges(3))
    z0 = np.array([1.0, -0.5])
    th0 = (z0, 0.7)
    # one shared instance: called on the stacked rows (3, 2) of all nodes
    def residual(x, th):
        return np.sum(th[0] * x, axis=-1) - th[1]

    objs = [Objective(value=lambda x, th: 0.5 * residual(x, th) ** 2,
                      grad=lambda x, th: th[0] * residual(x, th)[..., None])] * 3
    samp = [Sampler(sample=lambda rng: th0)] * 3

    # one edge's rows (2,) or every edge's rows (E, 2)
    def prox(a, b, ta, tb):
        return np.linalg.norm(a - b, axis=-1)

    def prox_grad(a, b, ta, tb):
        d = a - b
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        return np.divide(d, n, out=np.zeros_like(d), where=n > 0)

    fam = ConstraintFamily.from_symmetric_pairwise(g, prox, prox_grad, 0.0)
    spec = ProblemSpec.make(g, 2, objs, samp, fam,
                            DomainSpec.box(np.full(2, -2.0), np.full(2, 2.0)))
    hp = Hyperparams(epsilon=0.05, delta=0.0, T=200)
    trace = run(spec, hp, DelaySchedule(kind="zero"), seed=0)
    for i in (1, 2):
        assert np.array_equal(trace.x_final[0], trace.x_final[i])


def test_generous_tolerance_matches_per_node_sgd(path3):
    # identical ground truth + slack constraints: nodes track their own local fit
    w = ((0.5, -0.5),) * 3
    cfg = ConsensusRegressionConfig(p=2, gamma=100.0, weights=w, noise_std=0.1)
    spec = build_consensus_problem(cfg, path3)
    hp = Hyperparams(epsilon=0.02, delta=0.0, T=4000)
    trace = run(spec, hp, None, seed=8)
    observation = observation_rows(spec, 8)
    for node in range(3):
        x = spec.x0[node].copy()
        for t in range(hp.T):
            z, y = observation(node, t)
            x = np.clip(x - hp.epsilon * z * (z @ x - y), -2.0, 2.0)
        assert np.allclose(trace.x_final[node], x, atol=1e-12)
        assert np.linalg.norm(trace.x_final[node] - np.array(w[node])) < 0.15


def test_single_node_is_plain_stochastic_least_squares():
    g = build_graph(1, [])
    cfg = ConsensusRegressionConfig(p=3, weights=((0.8, -0.3, 0.1),), noise_std=0.05)
    spec = build_consensus_problem(cfg, g)
    hp = Hyperparams(epsilon=0.02, delta=0.0, T=6000)
    trace = run(spec, hp, None, seed=2)
    assert np.linalg.norm(trace.x_final[0] - np.array([0.8, -0.3, 0.1])) < 0.1


def test_active_constraints_pull_estimates_together(ring5):
    cfg = ConsensusRegressionConfig(p=4, gamma=0.5, noise_std=0.2)
    spec = build_consensus_problem(cfg, ring5)
    hp = Hyperparams(epsilon=0.01, delta=1e-5, T=4000)
    trace = run(spec, hp, None, seed=0)
    w = ring_weights(5, 4, 1.0)
    for (i, j) in ring5.edges:
        gap = np.linalg.norm(trace.x_final[i] - trace.x_final[j])
        w_gap = np.linalg.norm(w[i] - w[j])
        assert gap < w_gap  # tighter than the ground truth spread
        assert gap < cfg.gamma * 1.6  # near the proximity tolerance


# ---------------------------------------------------------------------------
# block observation stream
# ---------------------------------------------------------------------------

def _objective_replay(spec, trace, seed, k):
    """sum_i f^i(x_k^i, theta_k^i) with every theta from sample_observation."""
    xs = spec.rows(trace.x_snapshots[k])
    return sum(float(spec.objectives[i].value(xs[i], sample_observation(spec, seed, i, k)))
               for i in range(spec.graph.n_nodes))


def test_engine_observations_replay_and_do_not_depend_on_T(consensus_spec):
    long = run(consensus_spec, Hyperparams(epsilon=0.05, delta=1e-5, T=150), None,
               seed=3, thin_every=1)
    short = run(consensus_spec, Hyperparams(epsilon=0.05, delta=1e-5, T=70), None,
                seed=3, thin_every=1)
    assert np.array_equal(short.obj_sample, long.obj_sample[:70])
    # rows on both sides of the 64-row block boundaries
    for k in (0, 1, 63, 64, 65, 127, 128, 149):
        assert long.obj_sample[k] == pytest.approx(_objective_replay(consensus_spec, long, 3, k),
                                                   rel=1e-12, abs=1e-12)


def test_delay_longer_than_an_observation_block_replays(small_consensus_spec):
    from asaddle.metrics import audit_invariants
    from asaddle.problem import OBS_BLOCK

    spec, tau, seed = small_consensus_spec, OBS_BLOCK + 6, 5
    hp = Hyperparams(epsilon=0.05, delta=1e-5, T=2 * OBS_BLOCK + 30)
    with capture_records() as captured:
        trace = run(spec, hp, DelaySchedule(kind="fixed", tau_max=tau, node_taus=(tau, 3, 0)),
                    seed=seed, thin_every=1)
    assert audit_invariants(trace).ok
    resolved, delayed = captured.resolved_times()[0], captured.delayed_slack()[0]
    staleness = np.arange(hp.T)[:, None] - resolved
    assert staleness.max() > OBS_BLOCK
    assert trace.max_staleness.tobytes() == staleness.max(axis=1).tobytes()
    for k in range(0, hp.T, 7):
        res = resolved[k]
        x = np.concatenate([spec.rows(trace.x_snapshots[int(r)])[i] for i, r in enumerate(res)])
        ths = observations([sample_observation(spec, seed, i, int(r)) for i, r in enumerate(res)])
        assert np.allclose(delayed[k], spec.constraints.slack(x, ths),
                           rtol=0.0, atol=1e-12)
        assert trace.obj_sample[k] == pytest.approx(_objective_replay(spec, trace, seed, k),
                                                    rel=1e-12, abs=1e-12)

"""The closed-form optimum of the ring consensus problem, its gates, and the
F* that ``asaddle run`` and ``compare`` score against."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

import asaddle.cli as cli
from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem, ring_weights
from asaddle.cli import compare_modes, config_from_dict, run_experiment
from asaddle.graph import build_graph, path_edges, ring_edges
from asaddle.problem import ExpectedObjective


def ring_problem(n, **params):
    app = ConsensusRegressionConfig(**params)
    return build_consensus_problem(app, build_graph(n, ring_edges(n))), app


def shrink(n, app):
    """r = min(1, gamma / chord), chord the distance of neighbouring w_i."""
    chord = 2.0 * app.weight_scale * math.sin(math.pi / n)
    return min(1.0, app.gamma / chord) if chord > 0 else 1.0


# gamma below the chord (the constraints bind, r < 1) and above it (r = 1),
# for N = 3, 5, 8, with a zero scale (w_i = 0) and p = 2, 4, 6
CASES = [(n, dict(p=p, gamma=gamma, noise_std=0.3, weight_scale=scale))
         for n in (3, 5, 8)
         for p, scale in ((4, 1.0), (2, 1.3), (6, 0.7))
         for gamma in (0.2, 0.5, 1.0, 2.5)] + [(5, dict(weight_scale=0.0, gamma=0.1))]


@pytest.mark.parametrize("n, params", CASES)
def test_closed_form_value_feasibility_and_kkt(n, params):
    spec, app = ring_problem(n, **params)
    r = shrink(n, app)
    x = spec.rows(spec.x_star)
    w = ring_weights(n, app.p, app.weight_scale)

    f_star = ExpectedObjective(spec).value(x)
    expected = n * 0.5 * ((1.0 - r) ** 2 * app.weight_scale ** 2 + app.noise_std ** 2)
    assert abs(f_star - expected) <= 1e-12

    # feasible: every ring edge within gamma, every x_i in the box
    dist = np.linalg.norm(x - np.roll(x, -1, axis=0), axis=1)
    assert np.all(dist <= app.gamma + 1e-12)
    assert np.all((x >= app.box_lo) & (x <= app.box_hi))

    # stationary with one multiplier mu >= 0 on every edge, zero when r = 1
    if r == 1.0:
        mu = 0.0
        assert np.array_equal(x, w)
    else:
        mu = (1.0 - r) * app.gamma / (r * (2.0 - 2.0 * math.cos(2.0 * math.pi / n)))
        assert np.all(np.abs(dist - app.gamma) <= 1e-12)  # every edge binds
    assert mu >= 0.0
    grad = x - w
    for k in (1, -1):
        d = x - np.roll(x, k, axis=0)
        nrm = np.linalg.norm(d, axis=1, keepdims=True)
        grad += mu * np.divide(d, nrm, out=np.zeros_like(d), where=nrm > 0)
    assert np.max(np.abs(grad)) < 1e-12


@pytest.mark.parametrize("n, gamma", [(3, 0.4), (5, 0.5), (8, 0.3), (5, 1.5)])
def test_closed_form_matches_slsqp(n, gamma):
    spec, app = ring_problem(n, p=4, gamma=gamma, noise_std=0.25)
    w = ring_weights(n, app.p, app.weight_scale)
    evaluator = ExpectedObjective(spec)

    def edge_room(flat):  # gamma^2 - |x_i - x_{i+1}|^2 >= 0
        x = flat.reshape(n, app.p)
        return gamma ** 2 - np.sum((x - np.roll(x, -1, axis=0)) ** 2, axis=1)

    res = minimize(lambda flat: 0.5 * np.sum((flat - w.ravel()) ** 2),
                   np.zeros(n * app.p), jac=lambda flat: flat - w.ravel(), method="SLSQP",
                   bounds=[(app.box_lo, app.box_hi)] * (n * app.p),
                   constraints=[{"type": "ineq", "fun": edge_room}],
                   options={"ftol": 1e-14, "maxiter": 500})
    assert res.success
    f_solver = evaluator.value(res.x.reshape(n, app.p))
    assert abs(evaluator.value(spec.rows(spec.x_star)) - f_solver) <= 1e-6
    assert np.max(np.abs(res.x - spec.x_star)) <= 1e-6


def test_tile_does_not_carry_the_optimum():
    spec, _ = ring_problem(5)
    assert spec.x_star is not None and spec.tile(3).x_star is None


# ---------------------------------------------------------------------------
# gates: problems the closed form does not describe keep the F* run
# ---------------------------------------------------------------------------

RING = {
    "problem": {"name": "consensus_regression", "p": 4, "x0_value": 1.0},
    "graph": {"n_nodes": 5, "edges": "ring"},
    "algo": {"T": 40},
    "delay": {"kind": "uniform_random", "tau_max": 2},
    "eval": {"seeds": [0, 1], "mc_samples": 50, "optimum_budget": 60},
    "output": {"thin_every": 10},
}

# (app parameters, graph edges) of a 5-node problem without the closed form
GATES = {
    "path graph": ({}, path_edges(5)),
    "ring with a chord": ({}, ring_edges(5) + [(0, 2)]),
    "odd p": ({"p": 3}, ring_edges(5)),
    "custom weights": ({"weights": tuple(map(tuple, ring_weights(5, 4, 1.0)))}, ring_edges(5)),
    "gamma table": ({"gamma_table": {(i, j): 0.5 for i, j in build_graph(5, ring_edges(5)).edges}},
                    ring_edges(5)),
    "box excludes a weight": ({"box_lo": -0.5}, ring_edges(5)),
}


def test_two_node_ring_has_no_closed_form():
    spec = build_consensus_problem(ConsensusRegressionConfig(), build_graph(2, ring_edges(2)))
    assert spec.x_star is None


@pytest.mark.parametrize("gate", sorted(GATES))
def test_gate_falls_back_to_the_optimum_run(gate, tmp_path, monkeypatch):
    params, edges = GATES[gate]
    app = ConsensusRegressionConfig(**params)
    assert build_consensus_problem(app, build_graph(5, edges)).x_star is None

    cfg = config_from_dict(dict(RING, graph={"n_nodes": 5, "edges": [list(e) for e in edges]}))
    monkeypatch.setattr(cli, "app_config", lambda cfg: app)
    calls = []
    real = cli.estimate_optimum

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_optimum", counted)
    summary, _, _ = run_experiment(cfg, out_dir=str(tmp_path))
    assert len(calls) == 1 and summary.f_star_source == "estimate_optimum"
    args, kwargs = calls[0]
    assert summary.f_star == real(*args, **kwargs)[0]


def test_ring_run_and_compare_skip_the_optimum_run(tmp_path, monkeypatch):
    def no_fstar_run(*args, **kwargs):
        raise AssertionError("estimate_optimum called on a problem with a closed form")

    monkeypatch.setattr(cli, "estimate_optimum", no_fstar_run)
    cfg = config_from_dict(RING)
    spec, app = cli.build_problem(cfg)
    expected = ExpectedObjective(spec).value(spec.rows(spec.x_star))
    r = shrink(5, app)
    assert abs(expected - 5 * 0.5 * ((1.0 - r) ** 2 + app.noise_std ** 2)) <= 1e-12

    summary, _, _ = run_experiment(cfg, out_dir=str(tmp_path / "run"))
    assert summary.f_star_source == "closed_form" and summary.f_star == expected
    compared, _ = compare_modes(cfg, out_dir=str(tmp_path / "compare"))
    assert compared["f_star_source"] == "closed_form" and compared["f_star"] == expected

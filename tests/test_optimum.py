"""The optima ``asaddle run`` and ``compare`` score F* at: the closed form
of the ring consensus problem and its gates, the certified KKT solve of the
expected pricing problem and its fallback, and both kept out of the set-up
path."""

import json
import math
import os

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import exp1 as scipy_exp1

import asaddle.apps.consensus as consensus
import asaddle.apps.pricing as pricing
import asaddle.cli as cli
from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem, ring_weights
from asaddle.apps.pricing import PricingConfig, build_pricing_problem, exp1, expected_optimum
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


# ---------------------------------------------------------------------------
# pricing: the certified KKT solve of the expected problem
# ---------------------------------------------------------------------------

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
PRICING_CONFIGS = ("pricing.json", "pricing_margin4db.json")


def shipped(name, **overrides):
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        raw = json.load(fh)
    for block, values in overrides.items():
        raw[block] = dict(raw.get(block) or {}, **values)
    return config_from_dict(raw)


def coordinates(cfg):
    """Per stacked coordinate: c mu_n, nu_n, its MU and its SCBS."""
    subs = cfg.scbs_subchannels()
    owner = np.array([n for n, sub in enumerate(subs) for _ in sub])
    mu = np.array([i for sub in subs for i in sub])
    a = np.array([cfg.cost * cfg.mu_param(n) for n in owner])
    b = np.array([cfg.nu_param(n) for n in owner])
    return a, b, mu, owner


def interference(cfg, x):
    """Per coordinate z and psi(z) = e^{-z}/z - E1(z), with scipy's E1."""
    a, b, _, _ = coordinates(cfg)
    z = (a + b * x) / (cfg.gain_mean * cfg.bandwidth)
    return z, np.exp(-z) / z - scipy_exp1(z)


def kkt_residual(cfg, x, lam):
    """KKT residual of prices x and MU duals lam for the expected problem
    max sum_k x_k psi(z_k) s.t. sum_{k in i} psi(z_k) <= gamma_i and each
    SCBS's x >= 0, c_min <= sum x <= c_max; every SCBS with several
    coordinates strictly inside its sum bounds."""
    a, b, mu, owner = coordinates(cfg)
    s = cfg.gain_mean * cfg.bandwidth
    z, psi = interference(cfg, x)
    dpsi = -np.exp(-z) / z ** 2
    # d/dx_k of the Lagrangian revenue - sum_i lam_i (u_i - gamma_i)
    dL = psi + (x - lam[mu]) * dpsi * b / s
    sizes = np.bincount(owner)
    sums = np.bincount(owner, x)
    single = sizes[owner] == 1
    at_lo = (x <= 1e-12) | (single & (x <= cfg.c_min + 1e-12))
    at_hi = single & (x >= cfg.c_max - 1e-12)
    assert np.all(x >= 0.0) and np.all((sums >= cfg.c_min) & (sums <= cfg.c_max))
    assert np.all((sums[sizes > 1] > cfg.c_min) & (sums[sizes > 1] < cfg.c_max))
    gamma = np.array([cfg.gamma_linear(i) for i in range(cfg.n_mus)])
    G = np.bincount(mu, psi, cfg.n_mus) - gamma
    stationarity = np.where(at_lo, np.maximum(dL, 0.0),
                            np.where(at_hi, np.maximum(-dL, 0.0), np.abs(dL)))
    budgets = np.where(lam > 0.0, np.abs(G), np.maximum(G, 0.0)) / gamma
    return max(stationarity.max(), budgets.max(), np.maximum(-lam, 0.0).max())


@pytest.mark.parametrize("config, x_k, f_star", [
    ("pricing.json", 2.302015, -2.307481068412),
    ("pricing_margin4db.json", 0.9312292, -4.678283980836),
])
def test_shipped_pricing_optimum(config, x_k, f_star):
    cfg = shipped(config)
    spec, app = cli.build_problem(cfg)
    opt = expected_optimum(app)
    assert np.allclose(opt.x, x_k, rtol=0, atol=5e-7)
    assert np.array_equal(spec.x_star, opt.x) and spec.optimum_source == "kkt_solve"
    assert abs(ExpectedObjective(spec).value(spec.rows(spec.x_star)) - f_star) <= 1e-9
    assert opt.kkt_residual < 1e-8
    assert kkt_residual(app, opt.x, opt.lam) < 1e-8


def slsqp_best(cfg, spec, starts):
    """Best feasible SLSQP minimum of the expected problem over ``starts``."""
    a, b, mu, owner = coordinates(cfg)
    gamma = np.array([cfg.gamma_linear(i) for i in range(cfg.n_mus)])
    n_scbs = cfg.n_scbs

    def budgets(x):
        return gamma - np.bincount(mu, interference(cfg, x)[1], cfg.n_mus)

    def sum_room(x):
        sums = np.bincount(owner, x, n_scbs)
        return np.concatenate([sums - cfg.c_min, cfg.c_max - sums])

    best = None
    for start in starts:
        res = minimize(lambda x: -np.sum(x * interference(cfg, x)[1]), start, method="SLSQP",
                       bounds=[(0.0, None)] * len(a),
                       constraints=[{"type": "ineq", "fun": budgets}, {"type": "ineq", "fun": sum_room}],
                       options={"ftol": 1e-15, "maxiter": 1000})
        x = np.maximum(res.x, 0.0)
        if min(budgets(x).min(), sum_room(x).min()) < -1e-9:
            continue
        value = ExpectedObjective(spec).value(spec.rows(x))
        if best is None or value < best:
            best = value
    return best


# scalar and per-MU margins, and each scenario parameter moved on its own;
# gain_mean 1 puts SCBSs 0 and 2 on their c_min bound
SOLVE_CASES = [
    {}, {"gamma_db": -8.0}, {"gamma_db": 0.0}, {"gamma_db": 4.0},
    {"gamma_db": (-5.0, 2.0)}, {"gamma_db": (2.0, -6.0)},
    {"mu_n": (1.0, 2.0, 0.5)}, {"nu_n": (0.5, 1.0, 3.0)},
    {"gain_mean": 1.0}, {"gain_mean": 6.0},
    {"bandwidth": 0.5}, {"bandwidth": 3.0},
    {"cost": 0.02}, {"cost": 0.5},
    {"n_mus": 3, "assignment": ((0, 1), (1, 2), (0, 1, 2)), "gamma_db": (-3.0, 0.0, 2.0)},
]


@pytest.mark.parametrize("params", SOLVE_CASES, ids=[str(p) for p in SOLVE_CASES])
def test_pricing_solve_matches_slsqp(params):
    cfg = PricingConfig(**params)
    spec = build_pricing_problem(cfg)
    opt = expected_optimum(cfg)
    assert opt is not None and opt.kkt_residual < 1e-8
    assert kkt_residual(cfg, opt.x, opt.lam) < 1e-8
    f_star = ExpectedObjective(spec).value(spec.rows(opt.x))
    c = len(opt.x)
    starts = [np.concatenate(spec.x0), np.full(c, 1.0), np.full(c, 3.0),
              np.random.default_rng(0).uniform(0.5, 5.0, c)]
    f_solver = slsqp_best(cfg, spec, starts)
    assert f_solver is not None
    assert abs(f_star - f_solver) <= 1e-7 and f_star <= f_solver + 1e-9


# -40 dB: SCBS 1's relaxed prices sum above c_max; -50 dB: no price up to
# c_max meets it on SCBSs 0 and 2; -3100 dB: gamma is subnormal and e^{-z}
# underflows on the way
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma_db", [10.0, -40.0, -50.0, -3100.0])
def test_pricing_solve_gives_none_where_it_cannot_certify(gamma_db):
    assert expected_optimum(PricingConfig(gamma_db=gamma_db)) is None


def test_e1_bound_behind_the_concavity():
    """E1(z) > e^{-z} / (z + 1), so E1(z) > e^{-z} / (z + 2): the revenue is
    strictly concave in the interference."""
    z = np.concatenate([np.geomspace(1e-8, 700.0, 4000), np.linspace(0.01, 700.0, 4000)])
    assert np.all(exp1(z) > np.exp(-z) / (z + 1.0))


PRICING = {
    "problem": {"name": "pricing", "gamma_db": 10.0},
    "algo": {"T": 40, "epsilon": 0.05},
    "delay": {"kind": "uniform_random", "tau_max": 2},
    "eval": {"seeds": [0, 1], "optimum_budget": 60},
    "output": {"thin_every": 10},
}


def test_uncertified_pricing_falls_back_to_the_optimum_run(tmp_path, monkeypatch):
    cfg = config_from_dict(PRICING)
    spec, app = cli.build_problem(cfg)
    # the unconstrained prices of SCBS 1 sum below c_min = 0.9
    assert expected_optimum(app) is None and spec.x_star is None
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


@pytest.mark.parametrize("config", PRICING_CONFIGS)
def test_pricing_run_and_compare_skip_the_optimum_run(config, tmp_path, monkeypatch):
    def no_fstar_run(*args, **kwargs):
        raise AssertionError("estimate_optimum called on a certified pricing problem")

    monkeypatch.setattr(cli, "estimate_optimum", no_fstar_run)
    cfg = shipped(config, algo={"T": 60}, eval={"seeds": [0, 1]})
    spec, _ = cli.build_problem(cfg)
    expected = ExpectedObjective(spec).value(spec.rows(spec.x_star))
    summary, _, _ = run_experiment(cfg, out_dir=str(tmp_path / "run"))
    assert summary.f_star_source == "kkt_solve" and summary.f_star == expected
    compared, _ = compare_modes(cfg, out_dir=str(tmp_path / "compare"))
    assert compared["f_star_source"] == "kkt_solve" and compared["f_star"] == expected


def test_set_up_path_leaves_the_optimum_unsolved(monkeypatch):
    def unsolved(*args, **kwargs):
        raise AssertionError("optimum computed while building the problem")

    monkeypatch.setattr(consensus, "_ring_optimum", unsolved)
    monkeypatch.setattr(pricing, "expected_optimum", unsolved)
    for config in sorted(os.listdir(CONFIGS)):
        cfg = shipped(config)
        spec, _ = cli.build_problem(cfg)
        ExpectedObjective(spec, mc_samples=cfg.mc_samples, seed=cfg.eval_seed)
        with pytest.raises(AssertionError, match="optimum computed"):
            spec.x_star  # the optimum is solved on first read, and only then

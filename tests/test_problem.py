import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from asaddle.errors import DimensionMismatch, InfeasibleDomain, NonFiniteState
from asaddle.graph import build_graph, path_edges
from asaddle.problem import (ConstraintFamily, DomainSpec, ExpectedObjective,
                             NeighborhoodConstraint, Objective, ProblemSpec, Sampler,
                             as_neighborhood, objective_grad, project, sample_observation)
from conftest import assert_grad_close, central_difference


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def slsqp_projection(domain, u):
    """Independent projection oracle via constrained least squares."""
    cons = []
    if domain.kind == "box":
        bounds = list(zip(domain.lo, domain.hi))
    else:
        bounds = [(0.0, None) if domain.nonneg else (None, None)] * domain.dim
        cons = [
            {"type": "ineq", "fun": lambda y: y.sum() - domain.c_min},
            {"type": "ineq", "fun": lambda y: domain.c_max - y.sum()},
        ]
    res = minimize(lambda y: 0.5 * np.sum((y - u) ** 2), np.clip(u, -50, 50),
                   jac=lambda y: y - u, bounds=bounds, constraints=cons,
                   method="SLSQP", options={"maxiter": 200, "ftol": 1e-14})
    return res.x


DOMAINS = [
    DomainSpec.box(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
    DomainSpec.box(np.array([-2.0, -1.0, 0.5]), np.array([2.0, 3.0, 0.5])),
    DomainSpec.sum_interval(2, 0.9, 20.0),
    DomainSpec.sum_interval(3, 0.9, 20.0, nonneg=True),
    DomainSpec.sum_interval(1, 0.9, 20.0, nonneg=True),
    DomainSpec.sum_interval(4, -5.0, 5.0),
]


def test_box_clamp():
    dom = DomainSpec.box(np.zeros(2), np.ones(2))
    assert np.allclose(project(dom, np.array([-1.0, 0.5])), [0.0, 0.5])


def test_sum_interval_passthrough():
    dom = DomainSpec.sum_interval(2, 0.9, 20.0)
    u = np.array([1.0, 2.0])
    assert np.array_equal(project(dom, u), u)


def test_sum_interval_uniform_shift():
    # KKT of equality-constrained least squares: shift by (C* - sum)/n
    dom = DomainSpec.sum_interval(2, 0.9, 20.0)
    got = project(dom, np.array([0.2, 0.3]))
    assert np.allclose(got, [0.4, 0.5], atol=1e-12)
    assert np.allclose(got, slsqp_projection(dom, np.array([0.2, 0.3])), atol=1e-6)


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: f"{d.kind}{d.dim}{'n' if d.nonneg else ''}")
def test_projection_matches_slsqp_oracle(domain):
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = rng.uniform(-8, 25, size=domain.dim)
        ours = project(domain, u)
        oracle = slsqp_projection(domain, u)
        assert np.linalg.norm(ours - oracle) <= 1e-6


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: f"{d.kind}{d.dim}{'n' if d.nonneg else ''}")
def test_projection_idempotent_and_optimal(domain):
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.uniform(-10, 30, size=domain.dim)
        y = project(domain, rng.uniform(-10, 30, size=domain.dim))  # feasible point
        pu = project(domain, u)
        assert np.array_equal(project(domain, pu), pu)
        assert np.linalg.norm(pu - u) <= np.linalg.norm(y - u) + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3))
def test_projection_idempotent_property(vals):
    dom = DomainSpec.sum_interval(3, 0.9, 20.0, nonneg=True)
    pu = project(dom, np.array(vals))
    assert dom.contains(pu)
    assert np.array_equal(project(dom, pu), pu)


def test_projection_degenerate_zero_budget():
    dom = DomainSpec.sum_interval(3, -1.0, 0.0, nonneg=True)  # feasible set {0}
    got = project(dom, np.array([2.0, -1.0, 0.5]))
    assert np.allclose(got, 0.0)


def test_infeasible_domains_rejected():
    with pytest.raises(InfeasibleDomain):
        DomainSpec.box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(InfeasibleDomain):
        DomainSpec.sum_interval(2, 5.0, 1.0)
    with pytest.raises(InfeasibleDomain):
        DomainSpec.sum_interval(2, -3.0, -1.0, nonneg=True)


def test_projection_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        project(DomainSpec.box(np.zeros(2), np.ones(2)), np.zeros(3))


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: f"{d.kind}{d.dim}{'n' if d.nonneg else ''}")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_rejects_non_finite_input(domain, bad):
    u = np.ones(domain.dim)
    u[-1] = bad
    with pytest.raises(NonFiniteState):
        project(domain, u)


# ---------------------------------------------------------------------------
# observation streams
# ---------------------------------------------------------------------------

def test_sample_observation_reproducible(consensus_spec):
    a = sample_observation(consensus_spec, 42, 1, 10)
    b = sample_observation(consensus_spec, 42, 1, 10)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    c = sample_observation(consensus_spec, 42, 1, 11)
    assert not np.array_equal(a[0], c[0])
    d = sample_observation(consensus_spec, 43, 1, 10)
    assert not np.array_equal(a[0], d[0])


def test_exponential_sampler_mean():
    rng = np.random.default_rng(0)
    draws = rng.exponential(3.0, size=10**5)
    assert draws.min() > 0
    assert abs(draws.mean() - 3.0) / 3.0 <= 0.01


def test_consensus_sampler_moments(consensus_spec):
    sampler = consensus_spec.samplers[0]
    rng = np.random.default_rng(1)
    Z, y = sampler.batch(rng, 10**5)
    assert Z.shape == (10**5, 4)
    assert abs(np.mean(Z**2) - 1.0) <= 0.01  # unit feature variance
    assert abs(np.mean(y)) <= 0.02


def test_point_mass_sampler():
    s = Sampler(sample=lambda rng: 7.5)
    assert s.sample(np.random.default_rng(0)) == 7.5


# ---------------------------------------------------------------------------
# objective / constraint evaluation
# ---------------------------------------------------------------------------

def test_least_squares_gradient_hand_case(consensus_spec):
    z = np.array([1.0, 0.0, 0.0, 0.0])
    got = objective_grad(consensus_spec, 0, np.zeros(4), (z, 1.0))
    assert np.allclose(got, -z)


def no_constraints(graph):
    return ConstraintFamily.from_per_node(
        graph, [NeighborhoodConstraint(size=0)] * graph.n_nodes)


def test_constant_objective_gradient():
    g = build_graph(1, [])
    spec = ProblemSpec.make(
        g, 2,
        [Objective(value=lambda x, th: 3.0, grad=lambda x, th: np.zeros(2))],
        [Sampler(sample=lambda rng: None)],
        no_constraints(g),
        DomainSpec.box(np.full(2, -1.0), np.full(2, 1.0)),
    )
    assert np.allclose(objective_grad(spec, 0, np.zeros(2), None), 0.0)


def test_objective_grad_dimension_mismatch(consensus_spec):
    with pytest.raises(DimensionMismatch):
        objective_grad(consensus_spec, 0, np.zeros(3), (np.zeros(4), 0.0))


def test_constraint_value_hand_cases(path3):
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    e01 = path3.edge_index(0, 1)
    spec_g1 = build_consensus_problem(ConsensusRegressionConfig(p=2, gamma=1.0), path3)
    x = np.array([0.3, -0.2])
    slack = spec_g1.constraints.slack([x, x, x], [None] * 3)
    assert slack.shape == (path3.n_edges,)
    assert slack[e01] == pytest.approx(-1.0)
    spec_g0 = build_consensus_problem(ConsensusRegressionConfig(p=2, gamma=0.0), path3)
    xs = [np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([0.0, 0.0])]
    assert spec_g0.constraints.slack(xs, [None] * 3)[e01] == pytest.approx(1.0)


def test_constraint_grad_hand_cases(small_consensus_spec):
    # node 0 of the path owns one entry, the (0, 1) slack ||x_0 - x_1|| - gamma
    con = small_consensus_spec.constraints.per_node[0]
    xi, xj, x2 = np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.zeros(2)
    ths = [None] * 3
    assert np.allclose(con.jacobian(0, [xi, xj, x2], ths), [[1.0, 0.0]])   # first argument
    assert np.allclose(con.jacobian(1, [xi, xj, x2], ths), [[-1.0, 0.0]])  # second argument
    assert np.allclose(con.jacobian(2, [xi, xj, x2], ths), 0.0)  # not an argument
    # 0 picked from the subdifferential at the kink
    assert np.allclose(con.jacobian(0, [xi, xi, x2], ths), 0.0)


def test_gradients_match_finite_differences(consensus_spec):
    rng = np.random.default_rng(11)
    spec = consensus_spec
    for _ in range(100):
        node = int(rng.integers(spec.graph.n_nodes))
        x = rng.uniform(-1.5, 1.5, size=4)
        th = sample_observation(spec, 5, node, int(rng.integers(1000)))
        analytic = objective_grad(spec, node, x, th)
        numeric = central_difference(lambda v: spec.objectives[node].value(v, th), x)
        assert_grad_close(analytic, numeric)

    ths = [None] * spec.graph.n_nodes
    for _ in range(100):
        i, j = spec.graph.edges[int(rng.integers(spec.graph.n_edges))]
        xs = [rng.uniform(-1.5, 1.5, size=4) for _ in range(spec.graph.n_nodes)]
        if np.linalg.norm(xs[i] - xs[j]) < 1e-2:
            continue
        con = spec.constraints.per_node[i]
        row = spec.graph.adjacency[i].index(j)
        for wrt in (i, j):
            def entry(v, wrt=wrt):
                moved = list(xs)
                moved[wrt] = v
                return con.value(moved, ths)[row]
            analytic = con.jacobian(wrt, xs, ths)[row]
            assert_grad_close(analytic, central_difference(entry, xs[wrt]))


# ---------------------------------------------------------------------------
# spec assembly helpers
# ---------------------------------------------------------------------------

def test_make_broadcasts_and_projects_x0(path3):
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    spec = build_consensus_problem(ConsensusRegressionConfig(p=2), path3)
    assert spec.dims == (2, 2, 2)
    assert spec.dim == 2
    for v in spec.x0:
        assert spec.domains[0].contains(v)


def test_as_neighborhood_shape(small_consensus_spec):
    nb = as_neighborhood(small_consensus_spec)
    sizes = [c.size for c in nb.constraints.per_node]
    assert sizes == [1, 2, 1]  # path graph neighbor counts
    assert nb.constraints.size == small_consensus_spec.constraints.size == 4
    # same stacked slack; J^T lam from the per-node Jacobians matches the edge loop
    rng = np.random.default_rng(5)
    xs = [rng.uniform(-1.0, 1.0, size=2) for _ in range(3)]
    ths = [None] * 3
    lam = rng.uniform(0.0, 2.0, size=4)
    grads = [np.zeros(2) for _ in range(3)]
    assert np.array_equal(nb.constraints.slack(xs, ths),
                          small_consensus_spec.constraints.slack(xs, ths))
    for a, b in zip(nb.constraints.add_jt_lam(grads, lam, xs, ths),
                    small_consensus_spec.constraints.add_jt_lam(grads, lam, xs, ths)):
        assert np.allclose(a, b, rtol=0.0, atol=1e-14)


def test_expected_objective_quadratic():
    g = build_graph(1, [])

    def sample(rng):
        return float(rng.normal(1.0, 1.0))

    def batch(rng, size):
        return rng.normal(1.0, 1.0, size=size)

    obj = Objective(value=lambda x, th: 0.5 * (x[0] - th) ** 2,
                    grad=lambda x, th: np.array([x[0] - th]),
                    batch_value=lambda x, th: 0.5 * (x[0] - th) ** 2)
    spec = ProblemSpec.make(g, 1, [obj], [Sampler(sample=sample, batch=batch)],
                            no_constraints(g),
                            DomainSpec.box(np.array([-5.0]), np.array([5.0])))
    est = ExpectedObjective(spec, mc_samples=20000, seed=1)
    assert est.value([np.array([1.0])]) == pytest.approx(0.5, abs=0.03)
    # plain (non-batched) path agrees with the batched one
    spec_plain = ProblemSpec.make(
        g, 1,
        [Objective(value=obj.value, grad=obj.grad)],
        [Sampler(sample=sample)],
        no_constraints(g),
        DomainSpec.box(np.array([-5.0]), np.array([5.0])))
    est_plain = ExpectedObjective(spec_plain, mc_samples=4000, seed=1)
    assert est_plain.value([np.array([1.0])]) == pytest.approx(0.5, abs=0.05)

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from asaddle.errors import DimensionMismatch, InfeasibleDomain, NonFiniteState
from asaddle.graph import build_graph, path_edges
from asaddle.problem import (DomainSpec, ExpectedObjective, Objective, ProblemSpec, Sampler,
                             project, sample_observation)
from conftest import CONSENSUS_CFG, SMALL_CONSENSUS_CFG, assert_grad_close, central_difference
from reference import (as_neighborhood, no_constraints, node_constraints, node_observations,
                       observations)


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
@example([0.0, 0.0, 20.0000000031731])  # above C_max by less than project's slack
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
    Z, y = (leaf[0] for leaf in sampler.batch([rng], 10**5, np.array([0])))
    assert Z.shape == (10**5, 4)
    assert abs(np.mean(Z**2) - 1.0) <= 0.01  # unit feature variance
    assert abs(np.mean(y)) <= 0.02


def test_point_mass_sampler():
    s = Sampler(sample=lambda rng: (7.5,))
    assert s.sample(np.random.default_rng(0)) == (7.5,)


# ---------------------------------------------------------------------------
# objective / constraint evaluation
# ---------------------------------------------------------------------------

def test_least_squares_gradient_hand_case(consensus_spec):
    z = np.array([1.0, 0.0, 0.0, 0.0])
    got = consensus_spec.objectives[0].grad(np.zeros(4), (z, 1.0))
    assert np.allclose(got, -z)


def test_constant_objective_gradient():
    g = build_graph(1, [])
    spec = ProblemSpec.make(
        g, 2,
        [Objective(value=lambda x, th: 3.0, grad=lambda x, th: np.zeros(2))],
        [Sampler(sample=lambda rng: ())],
        no_constraints(g),
        DomainSpec.box(np.full(2, -1.0), np.full(2, 1.0)),
    )
    assert np.allclose(spec.objectives[0].grad(np.zeros(2), ()), 0.0)


def test_x0_dimension_mismatch(consensus_spec):
    spec = consensus_spec
    with pytest.raises(DimensionMismatch):
        ProblemSpec.make(spec.graph, 4, spec.objectives, spec.samplers, spec.constraints,
                         spec.domains, x0=[np.zeros(3)] * spec.graph.n_nodes)


@pytest.mark.parametrize("count", [1, 4, 6])
def test_x0_with_another_number_of_entries_than_nodes_is_a_dimension_mismatch(consensus_spec, count):
    spec = consensus_spec
    with pytest.raises(DimensionMismatch, match=f"x0 has {count} entries for 5 nodes"):
        ProblemSpec.make(spec.graph, 4, spec.objectives, spec.samplers, spec.constraints,
                         spec.domains, x0=[np.zeros(4)] * count)


def test_pricing_x0_with_an_entry_per_scbs_too_many_is_a_dimension_mismatch():
    from asaddle.apps.pricing import PricingConfig, build_pricing_problem
    spec = build_pricing_problem(PricingConfig())
    with pytest.raises(DimensionMismatch, match="x0 has 4 entries for 3 nodes"):
        ProblemSpec.make(spec.graph, spec.dims, spec.objectives, spec.samplers, spec.constraints,
                         spec.domains, x0=list(spec.x0) + [np.ones(1)])


def test_constraint_value_hand_cases(path3):
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    e01 = path3.edge_index(0, 1)
    spec_g1 = build_consensus_problem(ConsensusRegressionConfig(p=2, gamma=1.0), path3)
    x = np.array([0.3, -0.2])
    slack = spec_g1.constraints.slack(np.tile(x, 3), observations([()] * 3))
    assert slack.shape == (path3.n_edges,)
    assert slack[e01] == pytest.approx(-1.0)
    spec_g0 = build_consensus_problem(ConsensusRegressionConfig(p=2, gamma=0.0), path3)
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert spec_g0.constraints.slack(x, observations([()] * 3))[e01] == pytest.approx(1.0)


def test_constraint_grad_hand_cases(small_consensus_spec):
    # node 0 of the path owns one entry, the (0, 1) slack ||x_0 - x_1|| - gamma
    con = node_constraints(SMALL_CONSENSUS_CFG, small_consensus_spec.graph)[0]
    xi, xj, x2 = np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.zeros(2)
    ths = [()] * 3
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
        analytic = spec.objectives[node].grad(x, th)
        numeric = central_difference(lambda v: spec.objectives[node].value(v, th), x)
        assert_grad_close(analytic, numeric)

    ths = [()] * spec.graph.n_nodes
    for _ in range(100):
        i, j = spec.graph.edges[int(rng.integers(spec.graph.n_edges))]
        xs = [rng.uniform(-1.5, 1.5, size=4) for _ in range(spec.graph.n_nodes)]
        if np.linalg.norm(xs[i] - xs[j]) < 1e-2:
            continue
        con = node_constraints(CONSENSUS_CFG, spec.graph)[i]
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
    nb = as_neighborhood(small_consensus_spec, SMALL_CONSENSUS_CFG)
    sizes = [c.size for c in node_constraints(SMALL_CONSENSUS_CFG, small_consensus_spec.graph)]
    assert sizes == [1, 2, 1]  # path graph neighbor counts
    assert nb.constraints.size == small_consensus_spec.constraints.size == 4
    # same stacked slack; J^T lam from the per-node Jacobians matches the edge loop
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=6)
    ths = observations([()] * 3)
    lam = rng.uniform(0.0, 2.0, size=4)
    grads = np.zeros(6)
    assert np.array_equal(nb.constraints.slack(x, ths),
                          small_consensus_spec.constraints.slack(x, ths))
    for a, b in zip(nb.constraints.add_jt_lam(grads, lam, x, ths),
                    small_consensus_spec.constraints.add_jt_lam(grads, lam, x, ths)):
        assert np.allclose(a, b, rtol=0.0, atol=1e-14)


def test_edge_batched_pairwise_matches_per_node_family(ring5):
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    cfg = ConsensusRegressionConfig(gamma=0.4)
    spec = build_consensus_problem(cfg, ring5)
    nb = as_neighborhood(spec, cfg)
    rng = np.random.default_rng(21)
    ths = observations([sample_observation(spec, 1, i, 0) for i in range(5)])
    for trial in range(20):
        xs = rng.uniform(-2.0, 2.0, size=(5, 4))
        if trial % 2:
            xs[1] = xs[0]  # coincident neighbors: the zero-norm subgradient
        x = xs.reshape(-1)
        lam = rng.uniform(0.0, 2.0, size=spec.constraints.size)
        grads = rng.normal(size=20)
        assert np.allclose(spec.constraints.slack(x, ths), nb.constraints.slack(x, ths),
                           rtol=0.0, atol=1e-12)
        batched = spec.constraints.add_jt_lam(grads, lam, x, ths)
        per_node = nb.constraints.add_jt_lam(grads, lam, x, ths)
        assert np.allclose(batched, per_node, rtol=0.0, atol=1e-12)


def test_sample_observation_is_the_block_row(consensus_spec):
    from asaddle.problem import OBS_BLOCK, observation_block
    block = observation_block(consensus_spec, 7, 2)
    for node in (0, 4):
        for row in (0, OBS_BLOCK - 1):
            z, y = sample_observation(consensus_spec, 7, node, 2 * OBS_BLOCK + row)
            assert np.array_equal(z, block[0][row, node]) and y == block[1][row, node]


def test_shared_objective_is_called_once_on_stacked_rows(consensus_spec):
    from asaddle.problem import objective_grads, objective_sum
    assert len(consensus_spec.objective_groups) == 1
    rng = np.random.default_rng(2)
    xs = rng.uniform(-1.0, 1.0, size=(5, 4))
    ths = [sample_observation(consensus_spec, 0, i, 9) for i in range(5)]
    grads = objective_grads(consensus_spec, xs.reshape(-1), observations(ths)).reshape(5, 4)
    for i in range(5):
        assert np.allclose(grads[i], consensus_spec.objectives[i].grad(xs[i], ths[i]),
                           rtol=0.0, atol=1e-14)
    expected = sum(float(consensus_spec.objectives[i].value(xs[i], ths[i])) for i in range(5))
    assert objective_sum(consensus_spec, xs.reshape(-1), observations(ths)) == pytest.approx(expected, rel=1e-14)


def test_expected_objective_quadratic():
    g = build_graph(1, [])

    def sample(rng):
        return (float(rng.normal(1.0, 1.0)),)

    def batch(rngs, size, nodes):
        return (np.stack([rng.normal(1.0, 1.0, size=size) for rng in rngs]),)

    obj = Objective(value=lambda x, th: 0.5 * (x[..., 0] - th[0]) ** 2,
                    grad=lambda x, th: x - th[0][..., None])
    spec = ProblemSpec.make(g, 1, [obj], [Sampler(sample=sample, batch=batch)],
                            no_constraints(g),
                            DomainSpec.box(np.array([-5.0]), np.array([5.0])))
    est = ExpectedObjective(spec, mc_samples=20000, seed=1)
    assert est.value(np.array([1.0])) == pytest.approx(0.5, abs=0.03)
    # draws of a sampler without ``batch`` (stacked ``sample`` calls) agree
    spec_plain = ProblemSpec.make(
        g, 1,
        [Objective(value=obj.value, grad=obj.grad)],
        [Sampler(sample=sample)],
        no_constraints(g),
        DomainSpec.box(np.array([-5.0]), np.array([5.0])))
    est_plain = ExpectedObjective(spec_plain, mc_samples=4000, seed=1)
    assert est_plain.value(np.array([1.0])) == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# projection on extreme inputs, and the stacked projection
# ---------------------------------------------------------------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_DOMAIN_IDS = st.integers(0, len(DOMAINS) - 1)


@settings(max_examples=200, deadline=None)
@given(_DOMAIN_IDS, st.data())
def test_projection_of_nan_or_inf_anywhere_raises(k, data):
    domain = DOMAINS[k]
    u = data.draw(st.lists(_FINITE, min_size=domain.dim, max_size=domain.dim))
    u[data.draw(st.integers(0, domain.dim - 1))] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(NonFiniteState):
        project(domain, np.array(u))


def _in_domain(domain, y, u):
    """``domain.contains`` with a slack for the rounding of entries as large as u's."""
    tol = 1e-9 * max(1.0, abs(domain.c_min), abs(domain.c_max))
    tol += 4 * domain.dim * np.finfo(float).eps * float(np.max(np.abs(u)))
    if domain.kind == "box":
        return domain.contains(y, tol=0.0)
    return domain.contains(y, tol=tol)


class _Drawn:
    """Stands in for ``st.data()`` in an ``@example``: every ``draw`` returns
    a copy of the given list, whatever the strategy."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return list(self.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_DOMAIN_IDS, st.data())
# the slab -5 <= sum(y) <= 5: the shifted point is finite but its sum overflows
@example(5, _Drawn([0.0, 1e308, -1e308, -1.5953862697246314e308]))
def test_projection_of_huge_finite_input_is_in_domain_or_non_finite_state(k, data):
    domain = DOMAINS[k]
    huge = st.one_of(_FINITE, st.sampled_from([1e300, -1e300, 1e308, -1e308, 5.0]))
    u = np.array(data.draw(st.lists(huge, min_size=domain.dim, max_size=domain.dim)))
    try:
        y = project(domain, u)
    except NonFiniteState:
        return
    assert np.isfinite(y).all() and _in_domain(domain, y, u)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_projection_when_the_breakpoints_cancel():
    dom = DomainSpec.sum_interval(2, 0.9, 20.0, nonneg=True)
    # 1e300 + (20 - 1e300) rounds to 0: no breakpoint read active
    assert project(dom, np.array([1e300, 5.0])).tolist() == [20.0, 0.0]
    # the partial sums overflow to -inf: nu came out inf
    assert project(dom, np.array([-1e308, -1e308])).tolist() == [0.45, 0.45]
    dom3 = DomainSpec.sum_interval(3, 0.9, 20.0, nonneg=True)
    assert project(dom3, np.array([1e308, 0.0, 0.0])).tolist() == [20.0, 0.0, 0.0]
    slab = DomainSpec.sum_interval(2, 0.9, 20.0)
    with pytest.raises(NonFiniteState):
        project(slab, np.array([1e308, 1e308]))  # the sum overflows


@pytest.mark.filterwarnings("error")
def test_node_sums_of_a_near_overflow_block_are_non_finite_without_a_warning():
    spec = _spec_on([DomainSpec.sum_interval(1, 0.9, 20.0, nonneg=True),
                     DomainSpec.sum_interval(2, 0.9, 20.0),
                     DomainSpec.sum_interval(3, -5.0, 5.0)])
    flat = np.array([[1.0, 1e308, 1e308, 1e308, 1e308, -1e308],
                     [1.0, 1e308, -1e308, -1e308, -1e308, 1e308]])
    sums = spec.node_sums(flat)
    assert sums[:, 0].tolist() == [1.0, 1.0] and sums[:, 1].tolist() == [np.inf, 0.0]
    assert sums[:, 2].tolist() == [np.inf, -np.inf]  # overflowed before the last entry


def _spec_on(domains):
    """A constraint-free problem with one node per domain."""
    n = len(domains)
    g = build_graph(n, path_edges(n)) if n > 1 else build_graph(1, [])
    obj = Objective(value=lambda x, th: 0.0, grad=lambda x, th: np.zeros_like(x))
    return ProblemSpec.make(g, tuple(d.dim for d in domains), [obj] * n,
                            [Sampler(sample=lambda rng: ())] * n,
                            no_constraints(g),
                            tuple(domains))


_NODE_DOMAINS = [
    DomainSpec.sum_interval(1, 0.9, 20.0, nonneg=True),
    DomainSpec.sum_interval(2, 0.9, 20.0, nonneg=True),
    DomainSpec.sum_interval(3, 0.9, 20.0, nonneg=True),
    DomainSpec.sum_interval(9, -5.0, 5.0, nonneg=True),
    DomainSpec.sum_interval(2, 0.9, 20.0),
    DomainSpec.sum_interval(4, -5.0, 5.0),
    DomainSpec.box(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
    DomainSpec.box(np.zeros(3), np.ones(3)),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, len(_NODE_DOMAINS) - 1), min_size=1, max_size=5), st.data())
def test_project_nodes_equals_per_node_project_bitwise(kinds, data):
    from asaddle.saddle import project_nodes
    domains = [_NODE_DOMAINS[k] for k in kinds]
    spec = _spec_on(domains)
    blocks = []
    for dom in domains:
        u = np.array(data.draw(st.lists(st.floats(-30.0, 30.0), min_size=dom.dim, max_size=dom.dim)))
        if data.draw(st.booleans()):  # on a face of the domain, or just off it
            u = project(dom, u) + data.draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-8, -1e-8]))
        blocks.append(u)
    flat = np.concatenate(blocks)
    expected = np.concatenate([project(dom, u) for dom, u in zip(domains, blocks)])
    got = project_nodes(spec, flat)
    assert got.tobytes() == expected.tobytes()
    assert flat.tobytes() == np.concatenate(blocks).tobytes()  # input left as it was


# ---------------------------------------------------------------------------
# observations of nodes of different dimensions
# ---------------------------------------------------------------------------

def test_per_coordinate_leaves_are_concatenated_floats():
    from asaddle.problem import OBS_BLOCK, observation_block
    from asaddle.apps.pricing import PricingConfig, build_pricing_problem
    spec = build_pricing_problem(PricingConfig())
    g, h = observation_block(spec, 3, 0)
    assert g.shape == h.shape == (OBS_BLOCK, 4) and g.dtype == float
    ths = [sample_observation(spec, 3, i, 5) for i in range(3)]
    obs = observations(ths, spec.obs_offsets)
    assert np.array_equal(obs.leaves[0], g[5]) and np.array_equal(obs.leaves[1], h[5])
    for i, th in enumerate(node_observations(obs, 3)):
        assert all(np.array_equal(a, b) for a, b in zip(th, ths[i]))
    rows = obs.rows(np.array([1, 2]))
    assert rows[0].shape == (2, 1) and rows[0][:, 0].tolist() == ths[1][0].tolist()


def test_an_observation_or_law_that_is_not_a_tuple_is_invalid_config(consensus_spec):
    # a bare array would be taken apart row by row into observations of p
    # leaves without an error
    from dataclasses import replace
    from asaddle.errors import InvalidConfig
    from asaddle.apps.pricing import PricingConfig, build_pricing_problem
    from asaddle.problem import observation_block
    from asaddle.saddle import Hyperparams, run
    bare = Sampler(sample=lambda rng: rng.standard_normal(4),
                   batch=lambda rngs, size, nodes: np.stack([rng.standard_normal((size, 4)) for rng in rngs]))
    batch_only = replace(consensus_spec, samplers=(bare,) * 5)
    sample_only = replace(consensus_spec, samplers=(Sampler(sample=bare.sample),) * 5)
    for spec in (batch_only, sample_only):
        with pytest.raises(InvalidConfig, match="tuples of arrays"):
            observation_block(spec, 0, 0)
        with pytest.raises(InvalidConfig, match="tuples of arrays"):
            run(spec, Hyperparams(epsilon=0.1, delta=0.0, T=3), None, 0)
        with pytest.raises(InvalidConfig, match="tuples of arrays"):
            sample_observation(spec, 0, 0, 5)
    with pytest.raises(InvalidConfig, match="tuples of arrays"):  # Monte Carlo draws
        ExpectedObjective(monte_carlo(batch_only), mc_samples=8)
    # one node's observation of one array, the others' of two
    samplers = list(consensus_spec.samplers)
    samplers[2] = Sampler(sample=lambda rng: (rng.standard_normal(4),))
    with pytest.raises(InvalidConfig, match="got 1 arrays"):
        observation_block(replace(consensus_spec, samplers=tuple(samplers)), 0, 0)
    pricing = build_pricing_problem(PricingConfig())
    bare_law = tuple(replace(s, law=s.law[0]) for s in pricing.samplers)
    with pytest.raises(InvalidConfig, match="tuples of arrays"):
        ExpectedObjective(replace(pricing, samplers=bare_law))


def test_mixed_dims_need_an_observation_entry_per_coordinate():
    # every Objective takes coordinate rows when dims differ: one float per
    # node would hand node 1 the floats of nodes 1 and 2, and node 2 none
    # The engine's blocks, the evaluator's draws and laws and the audit's
    # draws all check it
    from dataclasses import replace
    from asaddle.errors import InvalidConfig
    from asaddle.metrics import audit_assumptions
    from asaddle.saddle import Hyperparams, run
    g = build_graph(3, path_edges(3))
    obj = Objective(value=lambda x, th: (x * th[0]).sum(axis=-1), grad=lambda x, th: x.copy())
    spec = ProblemSpec.make(g, (1, 2, 3), [obj] * 3, [Sampler(sample=lambda rng: (rng.random(),))] * 3,
                            no_constraints(g), tuple(DomainSpec.box(-np.ones(d), np.ones(d)) for d in (1, 2, 3)))
    with pytest.raises(InvalidConfig, match="one entry per coordinate"):
        run(spec, Hyperparams(epsilon=0.1, delta=0.0, T=3), None, 0)
    with pytest.raises(InvalidConfig, match="one entry per coordinate"):
        ExpectedObjective(spec, mc_samples=8).value(np.zeros(6))
    with pytest.raises(InvalidConfig, match="one entry per coordinate"):
        audit_assumptions(spec, n_samples=100, secant_pairs=2, mc_samples=8)
    exact = replace(obj, expected=lambda x, law: (x * law[0]).sum(axis=-1))
    with pytest.raises(InvalidConfig, match="one entry per coordinate"):
        ExpectedObjective(replace(spec, objectives=(exact,) * 3,
                                  samplers=(replace(spec.samplers[0], law=(np.float64(0.5),)),) * 3))


def test_observations_of_mixed_rank_are_an_invalid_config():
    # node 0 gives one float, node 1 one entry per coordinate: stacking the
    # leaves of different ranks used to die with a raw numpy AxisError in the
    # engine's blocks and the audit's draws
    from asaddle.errors import InvalidConfig
    from asaddle.metrics import audit_assumptions
    from asaddle.saddle import Hyperparams, run
    g = build_graph(2, path_edges(2))
    obj = Objective(value=lambda x, th: (x * th[0]).sum(axis=-1), grad=lambda x, th: x.copy())
    spec = ProblemSpec.make(g, (1, 2), [obj] * 2,
                            [Sampler(sample=lambda rng: (rng.random(),)),
                             Sampler(sample=lambda rng: (rng.random(2),))],
                            no_constraints(g), tuple(DomainSpec.box(-np.ones(d), np.ones(d)) for d in (1, 2)))
    with pytest.raises(InvalidConfig, match="one entry per coordinate"):
        run(spec, Hyperparams(epsilon=0.1, delta=0.0, T=3), None, 0)
    with pytest.raises(InvalidConfig, match="one entry per coordinate"):
        ExpectedObjective(spec, mc_samples=8)
    with pytest.raises(InvalidConfig, match="one entry per coordinate"):
        audit_assumptions(spec, n_samples=100, secant_pairs=2, mc_samples=8)


def test_a_node_needs_a_coordinate():
    g = build_graph(2, path_edges(2))
    obj = Objective(value=lambda x, th: 0.0, grad=lambda x, th: x)
    with pytest.raises(DimensionMismatch):
        ProblemSpec.make(g, (1, 0), [obj] * 2, [Sampler(sample=lambda rng: ())] * 2,
                         no_constraints(g),
                         (DomainSpec.box(np.zeros(1), np.ones(1)),
                          DomainSpec.sum_interval(0, 0.0, 1.0)))


# ---------------------------------------------------------------------------
# grouped kernels and evaluator against per-node calls
# ---------------------------------------------------------------------------

def _pricing_cfgs():
    from asaddle.apps.pricing import PricingConfig
    return [PricingConfig(),
            # SCBS 1 serves three MUs and MU 2 has three members
            PricingConfig(n_mus=3, assignment=((0, 1), (1, 2), (0, 1, 2)), gamma_db=(-3.0, 0.0, 2.0)),
            # distinct (c mu_n, nu_n): SCBSs 0 and 2 share an instance, SCBS 1 is alone
            PricingConfig(mu_n=(1.0, 2.0, 1.0), nu_n=(1.0, 0.5, 1.0))]


def _pricing_specs():
    from asaddle.apps.pricing import build_pricing_problem
    return [build_pricing_problem(cfg) for cfg in _pricing_cfgs()]


def _random_prices(spec, rng):
    # prices around the activation kink W / (c mu + nu x) = 1 / h: most
    # subchannels are active, some are not
    return [rng.uniform(0.0, 2.0, size=d) for d in spec.dims]


def test_grouped_objective_kernels_equal_per_node_calls(consensus_spec):
    from asaddle.problem import objective_grads, objective_sum
    rng = np.random.default_rng(11)
    for spec in _pricing_specs() + [consensus_spec]:
        for t in range(40):
            xs = (_random_prices(spec, rng) if spec.name == "pricing"
                  else list(rng.uniform(-2.0, 2.0, size=(5, 4))))
            ths = [sample_observation(spec, 1, i, t) for i in range(spec.graph.n_nodes)]
            x, obs = np.concatenate(xs), observations(ths, spec.obs_offsets)
            grads = spec.rows(objective_grads(spec, x, obs))
            total = 0.0
            for i in range(spec.graph.n_nodes):
                assert np.array_equal(grads[i], spec.objectives[i].grad(xs[i], ths[i]))
                total += float(spec.objectives[i].value(xs[i], ths[i]))
            assert objective_sum(spec, x, obs) == total


def test_pricing_family_equals_the_per_node_encoding():
    rng = np.random.default_rng(12)
    for spec, cfg in zip(_pricing_specs(), _pricing_cfgs()):
        nb = as_neighborhood(spec, cfg)
        for t in range(60):
            x = np.concatenate(_random_prices(spec, rng))
            ths = observations([sample_observation(spec, 2, i, t) for i in range(spec.graph.n_nodes)],
                               spec.obs_offsets)
            assert np.array_equal(spec.constraints.slack(x, ths), nb.constraints.slack(x, ths))
            grads = rng.normal(size=spec.offsets[-1])
            lam = rng.uniform(0.0, 2.0, size=spec.constraints.size) * (rng.random(spec.constraints.size) < 0.7)
            for duals in (lam, np.zeros_like(lam)):
                got = spec.constraints.add_jt_lam(grads, duals, x, ths)
                want = nb.constraints.add_jt_lam(grads, duals, x, ths)
                assert np.array_equal(got, want)


def _per_node_expectation(spec, x, mc_samples, seed):
    """The estimator as a per-node loop of ``value`` on each node's row of
    the stacked x against its draws (its group's ``batch`` on the node alone,
    else ``sample_rows``), node
    means added in order."""
    from asaddle.problem import sample_rows
    total = 0.0
    for i, xi in enumerate(spec.rows(x)):
        rng = np.random.default_rng(np.random.SeedSequence([2, seed, i]))
        sampler = spec.samplers[i]
        draws = (tuple([leaf[0] for leaf in sampler.batch([rng], mc_samples, np.array([i]))])
                 if sampler.batch is not None else sample_rows(sampler, rng, mc_samples))
        total += float(np.mean(spec.objectives[i].value(xi, draws)))
    return total


def monte_carlo(spec):
    """``spec`` with every Objective's ``expected`` taken away (an instance
    shared by nodes stays shared), so ExpectedObjective estimates it."""
    from dataclasses import replace
    stripped = {id(obj): replace(obj, expected=None) for obj in spec.objectives}
    return replace(spec, objectives=tuple(stripped[id(obj)] for obj in spec.objectives))


def test_grouped_evaluator_equals_per_node_loop(consensus_spec):
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    from asaddle.graph import ring_edges
    from dataclasses import replace
    # 40 nodes x 2000 draws do not fit one value call: two pieces
    ring40 = build_consensus_problem(ConsensusRegressionConfig(), build_graph(40, ring_edges(40)))
    rng = np.random.default_rng(13)
    # samplers with ``batch``, without it (``Sampler.draws``), and with
    # neither (stacked ``sample`` calls)
    for strip in ({}, {"batch": None}, {"batch": None, "draws": None}):
        for spec in map(monte_carlo, _pricing_specs() + [consensus_spec, ring40]):
            spec = replace(spec, samplers=tuple(replace(s, **strip) for s in spec.samplers))
            est = ExpectedObjective(spec, mc_samples=2000, seed=5)
            assert not est._exact
            for _ in range(3):
                if spec.name == "pricing":
                    x = np.concatenate(_random_prices(spec, rng))
                else:
                    x = rng.uniform(-2.0, 2.0, size=spec.offsets[-1])
                want = _per_node_expectation(spec, x, 2000, 5)
                assert est.value(x) == want  # the stacked iterate
                assert est.values(np.stack([x, x]))[1] == want  # a row of a batch


def _lane_inputs(spec, rng, lanes, t):
    """Per-lane (x, observations) and their tiled (lane after lane) forms."""
    from asaddle.problem import NodeObservations
    xs = [np.concatenate(_random_prices(spec, rng)) if spec.name.startswith("pricing")
          else rng.uniform(-2.0, 2.0, size=spec.offsets[-1]) for _ in range(lanes)]
    obs = [observations([sample_observation(spec, s, i, t) for i in range(spec.graph.n_nodes)],
                        spec.obs_offsets) for s in range(lanes)]
    tiled = spec.tile(lanes)
    tiled_obs = NodeObservations([np.concatenate(leaves) for leaves in zip(*[o.leaves for o in obs])],
                                 tiled.obs_offsets)
    return xs, obs, tiled, np.concatenate(xs), tiled_obs


@pytest.mark.parametrize("per_node", [False, True], ids=["batched", "per_node"])
def test_tiled_family_gives_each_copy_its_own_bits(consensus_spec, per_node):
    # one copy's duals all zero while the other's are positive, and gradients
    # holding -0.0: the zero copy keeps its gradients exactly, as alone
    rng = np.random.default_rng(5)
    for spec, cfg in zip(_pricing_specs() + [consensus_spec], _pricing_cfgs() + [CONSENSUS_CFG]):
        spec = as_neighborhood(spec, cfg) if per_node else spec
        m, c = spec.constraints.size, spec.offsets[-1]
        for t in range(10):
            xs, obs, tiled, tiled_xs, tiled_obs = _lane_inputs(spec, rng, 3, t)
            assert tiled.constraints.size == 3 * m
            grads = [np.where(rng.random(c) < 0.3, -0.0, rng.normal(size=c)) for _ in range(3)]
            lams = [rng.uniform(0.0, 2.0, size=m), np.zeros(m), rng.uniform(0.0, 2.0, size=m)]
            slack = tiled.constraints.slack(tiled_xs, tiled_obs)
            jt = tiled.constraints.add_jt_lam(np.concatenate(grads), np.concatenate(lams),
                                              tiled_xs, tiled_obs)
            for s in range(3):
                solo_slack = spec.constraints.slack(xs[s], obs[s])
                assert slack[s * m:(s + 1) * m].tobytes() == solo_slack.tobytes()
                solo = spec.constraints.add_jt_lam(grads[s].copy(), lams[s], xs[s], obs[s])
                assert jt[s * c:(s + 1) * c].tobytes() == solo.tobytes()


def test_tiled_objectives_and_sums_per_copy(consensus_spec):
    from asaddle.problem import NodeObservations, objective_grads, objective_sum
    rng = np.random.default_rng(6)
    for spec in _pricing_specs() + [consensus_spec]:
        for t in range(10):
            xs, obs, tiled, tiled_xs, tiled_obs = _lane_inputs(spec, rng, 4, t)
            # the copies as a leading axis of the solo problem's iterate and leaves
            sums = objective_sum(spec, np.stack(xs), NodeObservations(
                [np.stack(leaves) for leaves in zip(*(o.leaves for o in obs))], spec.obs_offsets))
            grads = objective_grads(tiled, tiled_xs, tiled_obs)
            c = spec.offsets[-1]
            for s in range(4):
                assert sums[s:s + 1].tobytes() == np.float64(objective_sum(spec, xs[s], obs[s])).tobytes()
                solo = objective_grads(spec, xs[s], obs[s])
                assert grads[s * c:(s + 1) * c].tobytes() == solo.tobytes()
    # every instance, a node's own included, spans every copy
    groups = _pricing_specs()[-1].tile(3).objective_groups
    members = sorted(tuple(range(9)[g.nodes]) if isinstance(g.nodes, slice)
                     else tuple(np.atleast_1d(g.nodes).tolist()) for g in groups)
    assert members == [(0, 2, 3, 5, 6, 8), (1, 4, 7)]


# ---------------------------------------------------------------------------
# Sampler.draws: n observations in the stream order of n sample calls
# ---------------------------------------------------------------------------

def _assert_draws_equal_sample_calls(sampler, n, seed):
    from asaddle.problem import stack_leaves
    rng_draws, rng_calls = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sampler.draws(rng_draws, n)
    want = stack_leaves([sampler.sample(rng_calls) for _ in range(n)], axis=0)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a = np.ascontiguousarray(a)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert rng_draws.bit_generator.state == rng_calls.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 70), p=st.integers(1, 7), n_nodes=st.integers(3, 6),
       scale=st.floats(0.1, 10.0), noise=st.floats(0.0, 3.0), seed=st.integers(0, 2**32),
       explicit=st.booleans())
def test_consensus_draws_equal_sample_calls(n, p, n_nodes, scale, noise, seed, explicit):
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    from asaddle.graph import ring_edges
    weights = None
    if explicit:
        weights = tuple(map(tuple, np.random.default_rng(seed).normal(0.0, scale, (n_nodes, p))))
    cfg = ConsensusRegressionConfig(p=p, weight_scale=scale, noise_std=noise, weights=weights)
    spec = build_consensus_problem(cfg, build_graph(n_nodes, ring_edges(n_nodes)))
    for sampler in spec.samplers:
        _assert_draws_equal_sample_calls(sampler, n, seed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 70), mean=st.floats(0.01, 100.0), seed=st.integers(0, 2**32),
       assignment=st.sampled_from([((0, 1), (1, 2)), ((0, 1), (1, 2), (0, 1, 2)), ((0,),)]))
def test_pricing_draws_equal_sample_calls(n, mean, seed, assignment):
    from asaddle.apps.pricing import PricingConfig, build_pricing_problem
    n_scbs = 1 + max(max(group) for group in assignment)
    cfg = PricingConfig(n_mus=len(assignment), n_scbs=n_scbs, assignment=assignment,
                        gain_mean=mean, gamma_db=0.0)
    for sampler in build_pricing_problem(cfg).samplers:
        _assert_draws_equal_sample_calls(sampler, n, seed)


def test_edge_gather_is_shared_and_reads_the_iterate_on_every_call(consensus_spec):
    # slack and J^T lam at one evaluation share the observations' gather; an
    # iterate changed in place between the calls is still read afresh
    rng = np.random.default_rng(3)
    family = consensus_spec.constraints
    ths = [sample_observation(consensus_spec, 0, i, 4) for i in range(5)]
    x = rng.uniform(-2.0, 2.0, size=20)
    obs = observations(ths)
    family.slack(x, obs)
    gathered = obs.edges
    x[:] = rng.uniform(-2.0, 2.0, size=20)
    grads, lam = rng.normal(size=20), rng.uniform(0.0, 1.0, size=family.size)
    shared = family.add_jt_lam(grads, lam, x, obs)
    assert obs.edges is gathered
    fresh = family.add_jt_lam(grads, lam, x, observations(ths))
    assert shared.tobytes() == fresh.tobytes()
    assert family.slack(x, obs).tobytes() == family.slack(x, observations(ths)).tobytes()


def test_terms_of_one_point_are_shared_and_never_read_at_another(consensus_spec):
    # slack and J^T lam at one point compute their shared terms once, kept on
    # the observations; J^T lam at another iterate with the same observations
    # computes its own, equal to a call on fresh observations
    from asaddle.apps.pricing import PricingConfig, build_pricing_problem
    rng = np.random.default_rng(4)
    pricing = build_pricing_problem(PricingConfig())
    for spec in (consensus_spec, pricing):
        family, C, n = spec.constraints, int(spec.offsets[-1]), spec.graph.n_nodes
        ths = [sample_observation(spec, 0, i, 9) for i in range(n)]
        fresh = lambda: observations(ths, spec.obs_offsets)  # noqa: E731
        x1, x2 = (np.concatenate([project(d, rng.uniform(0.0, 2.0, d.dim)) for d in spec.domains])
                  for _ in range(2))
        grads, lam = rng.normal(size=C), rng.uniform(0.5, 1.0, size=family.size)
        obs = fresh()
        s1 = family.slack(x1, obs)
        terms = obs.terms
        assert family.add_jt_lam(grads, lam, x1, obs).tobytes() == \
            family.add_jt_lam(grads, lam, x1, fresh()).tobytes()
        assert obs.terms is terms  # read, not computed again
        assert family.add_jt_lam(grads, lam, x2, obs).tobytes() == \
            family.add_jt_lam(grads, lam, x2, fresh()).tobytes()
        assert obs.terms is not terms
        assert family.slack(x1, obs).tobytes() == s1.tobytes()


def test_python_calls_per_node_of_an_observation_block():
    # one keyed generator and one raw fill per node, then array calls for
    # the whole group (9.3 calls per node when each node drew on its own)
    import cProfile
    import pstats
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    from asaddle.graph import ring_edges
    from asaddle.problem import observation_block
    spec = build_consensus_problem(ConsensusRegressionConfig(), build_graph(500, ring_edges(500)))
    observation_block(spec, 0, 0)
    profile = cProfile.Profile()
    profile.enable()
    observation_block(spec, 1, 1)
    profile.disable()
    assert pstats.Stats(profile).total_calls / 500 <= 3


# ---------------------------------------------------------------------------
# network-scale set-up: the layout of a tile and the start point in arrays
# ---------------------------------------------------------------------------

def _assert_same_index(a, b):
    """Equal node or row selectors: the same slice, or equal index arrays."""
    if isinstance(b, slice):
        assert a == b
    else:
        assert not isinstance(a, slice) and a.dtype == b.dtype and np.array_equal(a, b)


def _assert_same_layout(tiled, want):
    _assert_same_index(tiled.offsets, want["offsets"])
    if want["box_bounds"] is None:
        assert tiled.box_bounds is None
    else:
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(tiled.box_bounds, want["box_bounds"], strict=True))
    if want["_domain_limits"] is not None:  # read only where some domain is no box
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(tiled._domain_limits, want["_domain_limits"], strict=True))
    assert len(tiled._dim_classes) == len(want["_dim_classes"])
    for (nodes, coords), (ref_nodes, ref_coords) in zip(tiled._dim_classes, want["_dim_classes"]):
        _assert_same_index(nodes, ref_nodes)
        _assert_same_index(coords, ref_coords)
    assert len(tiled.objective_groups) == len(want["objective_groups"])
    for group, ref in zip(tiled.objective_groups, want["objective_groups"]):
        assert group.objective is ref.objective
        _assert_same_index(group.nodes, ref.nodes)
        _assert_same_index(group.rows, ref.rows)
        if ref.sums is None:
            assert group.sums is None
            continue
        _assert_same_index(group.sums[0], ref.sums[0])
        assert len(group.sums[1]) == len(ref.sums[1])
        for (m, at), (ref_m, ref_at) in zip(group.sums[1], ref.sums[1]):
            _assert_same_index(m, ref_m)
            _assert_same_index(at, ref_at)
    assert len(tiled.sampler_groups) == len(want["sampler_groups"])
    for (batch, nodes), (ref_batch, ref_nodes) in zip(tiled.sampler_groups, want["sampler_groups"]):
        assert batch is ref_batch
        _assert_same_index(nodes, ref_nodes)


@pytest.mark.parametrize("lanes", [2, 3, 7])
def test_tile_layout_equals_the_per_node_walk(consensus_spec, lanes):
    # a tile derives its layout from the problem's arrays; the oracle walks
    # every node of every copy, on both apps (pricing: mixed dims, shared
    # and own objective instances, sum-interval domains)
    from dataclasses import replace
    from reference import per_node_tile_layout
    for spec in [consensus_spec, *_pricing_specs()]:
        tiled = spec.tile(lanes)
        _assert_same_layout(tiled, per_node_tile_layout(spec, lanes))
        assert tiled.uniform == spec.uniform and tiled.graph.n_nodes == lanes * spec.graph.n_nodes
        # a tile of a tile is the tile of all its lanes
        _assert_same_layout(tiled.tile(2), per_node_tile_layout(spec, 2 * lanes))
    # samplers without a batch function form a group of their own
    bare = replace(consensus_spec, samplers=(Sampler(sample=consensus_spec.samplers[0].sample),) * 5)
    _assert_same_layout(bare.tile(lanes), per_node_tile_layout(bare, lanes))


def test_a_shared_box_start_is_clamped_as_one_array(path3):
    # the nodes of the consensus problem share one box: its start is one
    # clamp of an (N, p) array, with the per-node projection's values and errors
    from asaddle.apps.consensus import ConsensusRegressionConfig, build_consensus_problem
    spec = build_consensus_problem(ConsensusRegressionConfig(p=2, x0_value=5.0), path3)
    domain = spec.domains[0]
    per_node = ProblemSpec.make(path3, 2, spec.objectives, spec.samplers, spec.constraints, [domain] * 3,
                                x0=[np.full(2, 5.0)] * 3)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(spec.x0, per_node.x0, strict=True))
    assert np.concatenate(spec.x0).tolist() == [2.0] * 6
    start = np.array([[0.5, -3.0], [1.0, np.nan], [np.inf, 0.0]])
    with pytest.raises(NonFiniteState) as shared:
        ProblemSpec.make(path3, 2, spec.objectives, spec.samplers, spec.constraints, domain, x0=start)
    with pytest.raises(NonFiniteState) as alone:
        ProblemSpec.make(path3, 2, spec.objectives, spec.samplers, spec.constraints, [domain] * 3, x0=start)
    assert str(shared.value) == str(alone.value)
    # rows of other lengths go through the per-node projection and its error
    for ragged in ([np.zeros(2), np.zeros(3), np.zeros(2)], np.zeros((3, 3))):
        with pytest.raises(DimensionMismatch, match="expected vector of length 2"):
            ProblemSpec.make(path3, 2, spec.objectives, spec.samplers, spec.constraints, domain, x0=ragged)


def _profiled_calls(fn) -> int:
    import cProfile
    import pstats
    fn()
    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    return pstats.Stats(profile).total_calls


def test_python_calls_of_network_set_up():
    # building a ring problem and its evaluator makes one Python call per
    # node, the Sampler each node needs (23 per node with per-node loops),
    # and a tile makes as many calls at any size and lane count
    from asaddle import cli

    def ring(n):
        return cli.config_from_dict({"problem": {"name": "consensus_regression", "x0_value": 1.5},
                                     "graph": {"n_nodes": n, "edges": "ring"}})

    def set_up(cfg):
        spec, _ = cli.build_problem(cfg)
        ExpectedObjective(spec, mc_samples=cfg.mc_samples, seed=cfg.eval_seed)

    small, large = ring(500), ring(2000)
    per_node = (_profiled_calls(lambda: set_up(large)) - _profiled_calls(lambda: set_up(small))) / 1500
    assert per_node <= 1.1
    counts = set()
    for n in (5, 500):
        spec, _ = cli.build_problem(ring(n))
        for lanes in (5, 25):
            def tile():
                tiled = spec.tile(lanes)
                return (tiled.offsets, tiled.box_bounds, tiled._dim_classes, tiled.objective_groups,
                        tiled.sampler_groups)
            counts.add(_profiled_calls(tile))
    assert len(counts) == 1

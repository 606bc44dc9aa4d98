import numpy as np
import pytest

from asaddle.apps.pricing import (PricingConfig, build_pricing_problem, constraint_slots,
                                  interference_series, naive_baseline, power_allocation,
                                  pricing_graph, revenue_series, sinr_report)
from asaddle.delay import DelaySchedule
from asaddle.errors import InvalidConfig
from asaddle.problem import sample_observation
from asaddle.saddle import Hyperparams, run
from conftest import assert_grad_close, central_difference


@pytest.fixture(scope="module")
def cfg():
    return PricingConfig()


@pytest.fixture(scope="module")
def spec(cfg):
    return build_pricing_problem(cfg)


# ---------------------------------------------------------------------------
# power allocation
# ---------------------------------------------------------------------------

def test_power_allocation_hand_value(cfg):
    # W=1, c=0.1, mu=nu=1, x=0, h=1 -> (1/0.1 - 1)_+ = 9
    assert power_allocation(cfg, 0, 0, 0.0, 1.0) == pytest.approx(9.0)


def test_power_allocation_clips_at_high_price(cfg):
    assert power_allocation(cfg, 0, 0, 1e6, 1.0) == 0.0


def test_power_allocation_infinite_direct_gain_limit(cfg):
    x = 2.0
    expected = cfg.bandwidth / (cfg.cost * 1.0 + 1.0 * x)
    assert power_allocation(cfg, 0, 0, x, 1e12) == pytest.approx(expected, rel=1e-9)


def test_power_allocation_monotone_in_price_and_cost():
    base = PricingConfig()
    xs = np.linspace(0.0, 20.0, 40)
    powers = [power_allocation(base, 0, 0, x, 2.0) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(powers, powers[1:]))
    costs = np.linspace(0.05, 2.0, 30)
    pc = [power_allocation(PricingConfig(cost=c), 0, 0, 1.0, 2.0) for c in costs]
    assert all(a >= b - 1e-12 for a, b in zip(pc, pc[1:]))


# ---------------------------------------------------------------------------
# config validation and structure
# ---------------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(InvalidConfig):
        PricingConfig(assignment=((), (1, 2)))
    with pytest.raises(InvalidConfig):
        PricingConfig(assignment=((0,), (0,)))  # SCBS 1 and 2 unused
    with pytest.raises(InvalidConfig):
        PricingConfig(c_min=5.0, c_max=1.0)
    with pytest.raises(InvalidConfig):
        PricingConfig(gain_mean=0.0)
    with pytest.raises(InvalidConfig):
        PricingConfig(assignment=((0, 9), (1, 2)))


def test_paper_topology_structure(cfg, spec):
    assert spec.dims == (1, 2, 1)
    assert pricing_graph(cfg).edges == ((0, 1), (1, 0), (1, 2), (2, 1))
    assert constraint_slots(cfg) == [0, 1]
    sizes = [c.size for c in spec.constraints.per_node]
    assert sizes == [1, 1, 0]
    assert spec.constraints.size == 2
    # price boxes: nonnegative, sums within [0.9, 20]
    for dom in spec.domains:
        assert dom.kind == "sum_interval" and dom.nonneg
    # default start: per-SCBS sum at the midpoint of the penalty budget
    assert spec.x0[0][0] == pytest.approx(10.45)
    assert spec.x0[1].sum() == pytest.approx(10.45)


def test_zero_gains_give_zero_objective_and_negative_slack(cfg, spec):
    th = [(np.zeros(d), np.ones(d)) for d in spec.dims]
    xs = [v.copy() for v in spec.x0]
    total = sum(spec.objectives[n].value(xs[n], th[n]) for n in range(3))
    assert total == 0.0
    assert np.allclose(spec.constraints.slack(xs, th), -cfg.gamma_linear(0))


def test_gamma_db_conversion():
    assert PricingConfig().gamma_linear(0) == pytest.approx(10 ** (-0.3))
    assert PricingConfig(gamma_db=4.0).gamma_linear(1) == pytest.approx(10 ** 0.4)
    assert PricingConfig(gamma_db=(0.0, 3.0)).gamma_linear(1) == pytest.approx(10 ** 0.3)


# ---------------------------------------------------------------------------
# gradients and the closed-form update
# ---------------------------------------------------------------------------

def test_objective_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3))
        x = rng.uniform(0.2, 6.0, size=spec.dims[n])
        th = sample_observation(spec, 9, n, int(rng.integers(5000)))
        g, h = th
        margin = spec.objectives[n].value  # noqa: F841 (kept for clarity)
        # stay away from the activation kink of each subchannel
        p_lin = 1.0 / (0.1 + x) - 1.0 / h
        if np.any(np.abs(p_lin) < 1e-3):
            continue
        analytic = spec.objectives[n].grad(x, th)
        numeric = central_difference(lambda v: spec.objectives[n].value(v, th), x)
        assert_grad_close(analytic, numeric)
        checked += 1


def test_constraint_jacobian_matches_finite_differences(spec):
    rng = np.random.default_rng(3)
    con = spec.constraints.per_node[0]  # first MU, members SCBS 0 and 1
    checked = 0
    while checked < 60:
        xs = [rng.uniform(0.2, 6.0, size=d) for d in spec.dims]
        ths = [sample_observation(spec, 17, n, int(rng.integers(5000))) for n in range(3)]
        skip = False
        for n in range(3):
            g, h = ths[n]
            if np.any(np.abs(1.0 / (0.1 + xs[n]) - 1.0 / h) < 1e-3):
                skip = True
        if skip:
            continue
        for wrt in (0, 1):
            jac = con.jacobian(wrt, xs, ths)
            def val(v, wrt=wrt):
                xs2 = [u.copy() for u in xs]
                xs2[wrt] = v
                return con.value(xs2, ths)[0]
            numeric = central_difference(val, xs[wrt])
            assert_grad_close(jac[0], numeric)
        checked += 1


def test_engine_step_matches_algorithm_closed_form(cfg, spec):
    """One engine primal step equals the published price update
    x + eps * g * [W (c mu + nu lam) / (c mu + nu x)^2 - 1/h] * 1(p > 0)."""
    from asaddle.problem import project
    from asaddle.saddle import primal_gradient

    rng = np.random.default_rng(4)
    xs = [rng.uniform(0.5, 4.0, size=d) for d in spec.dims]
    ths = [(rng.exponential(3.0, size=d), rng.exponential(3.0, size=d)) for d in spec.dims]
    lam = np.array([0.7, 0.3])  # MU 0 (hosted by SCBS 0), MU 1 (hosted by SCBS 1)
    eps = 0.01

    grads = primal_gradient(spec, lam, xs, ths)
    engine_next = [project(spec.domains[n], xs[n] - eps * grads[n]) for n in range(3)]

    lam_by_mu = {0: 0.7, 1: 0.3}
    subs = cfg.scbs_subchannels()
    manual_next = []
    for n in range(3):
        x = xs[n].copy()
        g, h = ths[n]
        upd = np.zeros_like(x)
        for pos, mu_idx in enumerate(subs[n]):
            denom = cfg.cost * 1.0 + 1.0 * x[pos]
            active = (cfg.bandwidth / denom - 1.0 / h[pos]) > 0
            if active:
                upd[pos] = g[pos] * (cfg.bandwidth * (cfg.cost + lam_by_mu[mu_idx]) / denom**2
                                     - 1.0 / h[pos])
        manual_next.append(project(spec.domains[n], x + eps * upd))
    for n in range(3):
        assert np.allclose(engine_next[n], manual_next[n], atol=1e-12)


# ---------------------------------------------------------------------------
# runs and reporting
# ---------------------------------------------------------------------------

def test_generous_margin_keeps_duals_zero():
    cfg = PricingConfig(gamma_db=60.0)  # margin 1e6: interference never binds
    spec = build_pricing_problem(cfg)
    hp = Hyperparams(epsilon=0.01, delta=1e-5, T=2000, tau=5)
    trace = run(spec, hp, DelaySchedule(kind="uniform_random", tau_max=5, seed=0), seed=0,
                eval_every=0)
    assert trace.lambda_norm.max() == 0.0


def test_revenue_nonnegative_and_running_mean(cfg, spec):
    hp = Hyperparams(epsilon=0.01, delta=1e-5, T=500, tau=0)
    trace = run(spec, hp, DelaySchedule(kind="zero"), seed=1, eval_every=0)
    rev = revenue_series(cfg, trace)
    assert rev.shape == (500,)
    assert np.all(rev >= 0.0)
    inst = -trace.obj_sample
    assert rev[-1] == pytest.approx(inst.mean())
    assert rev[0] == pytest.approx(inst[0])


def test_naive_baseline_properties():
    base = PricingConfig()
    sinr = naive_baseline(base, seed=0, T=200000)
    assert sinr.shape == (2,)
    assert np.all(np.abs(sinr - 22.0) < 1.0)
    # doubled interference gains lower the SINR strictly
    worse = naive_baseline(PricingConfig(gain_mean=6.0, signal_scale=185.0), seed=0, T=200000)
    assert np.all(worse < sinr)
    # vanishing interference: SINR approaches signal over noise alone
    clean = PricingConfig(gain_mean=1e-9, signal_scale=370.0 * 3e9)
    lim = naive_baseline(clean, seed=0, T=1000)
    assert np.allclose(lim, 10 * np.log10(clean.signal_power() / clean.noise_power), atol=1e-3)
    # more noise, less SINR
    noisy = naive_baseline(PricingConfig(noise_power=100.0), seed=0, T=50000)
    assert np.all(noisy < sinr)


def test_prices_pinned_at_cap_beat_naive(cfg):
    # prices frozen near C_max give minimal powers, hence minimal interference
    pinned = PricingConfig(x0=((20.0,), (10.0, 10.0), (20.0,)))
    spec = build_pricing_problem(pinned)
    hp = Hyperparams(epsilon=1e-9, delta=0.0, T=400, tau=0)
    trace = run(spec, hp, DelaySchedule(kind="zero"), seed=0, eval_every=0)
    sinr = sinr_report(pinned, trace)
    naive = naive_baseline(pinned, seed=0, T=50000)
    assert np.all(sinr >= naive)


def test_interference_settles_within_margin_tolerance():
    # long-run empirical mean interference must respect the configured margin
    low_start = PricingConfig(x0=((0.9,), (0.45, 0.45), (0.9,)))
    spec = build_pricing_problem(low_start)
    T = 20000
    hp = Hyperparams(epsilon=0.01, delta=1e-5, T=T, tau=10)
    trace = run(spec, hp, DelaySchedule(kind="uniform_random", tau_max=10, seed=1),
                seed=1, eval_every=0, thin_every=0)
    series = interference_series(low_start, trace)
    final_quarter = series[3 * T // 4:].mean(axis=0)
    for i in range(2):
        assert final_quarter[i] <= low_start.gamma_linear(i) * 1.10


def test_interference_series_matches_slots(cfg, spec):
    hp = Hyperparams(epsilon=0.01, delta=1e-5, T=50, tau=0)
    trace = run(spec, hp, DelaySchedule(kind="zero"), seed=3, eval_every=0)
    series = interference_series(cfg, trace)
    assert series.shape == (50, 2)
    assert np.all(series >= 0.0)  # interference is a sum of nonnegative terms

"""Interference management through pricing in a two-tier cellular network.

A base station sets per-subchannel interference prices for small-cell base
stations (SCBS). Each SCBS reacts with the closed-form power allocation

    p_n^i = ( W / (c mu_n + nu_n x_n^i) - 1 / h_n^i )_+

and the base station maximizes expected pricing revenue subject to a per-MU
average interference margin and per-SCBS bounds on the total imposed penalty.
The problem is encoded for the engine as minimization of the negated revenue
with one neighborhood constraint (and one dual) per macro user.

Bandwidth is expressed in MHz units (W = 1 means 1 MHz) so that SCBS powers
are commensurate with the unit-power naive baseline. The macro-user signal
model behind SINR reporting is not pinned down by the interference problem
itself: we use unit MU transmit power, an exponential direct-link gain with
the common gain mean, and an explicit ``signal_scale`` calibration constant
(part of the config, defaults chosen so the naive baseline sits near 22 dB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ..errors import InvalidConfig
from ..graph import NetworkGraph, build_graph
from ..problem import (ConstraintFamily, DomainSpec, Objective, ProblemSpec, Sampler, lane_copies,
                       point_terms)
from ..trace import RunTrace

__all__ = [
    "PricingConfig",
    "power_allocation",
    "build_pricing_problem",
    "expected_optimum",
    "PricingOptimum",
    "pricing_graph",
    "constraint_slots",
    "naive_baseline",
    "sinr_report",
    "interference_series",
    "revenue_series",
    "exp1",
]


@dataclass(frozen=True)
class PricingConfig:
    """Scenario parameters; defaults reproduce the two-MU / three-SCBS layout.

    ``mu_n`` and ``nu_n`` give one value for every SCBS, or one per SCBS;
    ``gamma_db`` one for every MU, or one per MU, each a finite linear
    margin 10^(dB/10). ``x0``, when given, holds one price vector per SCBS
    with one price per subchannel it serves (``scbs_subchannels``). Any
    other value raises InvalidConfig.
    """

    n_mus: int = 2
    n_scbs: int = 3
    assignment: tuple = ((0, 1), (1, 2))  # per-MU SCBS neighborhoods
    gain_mean: float = 3.0                # exponential mean of g_{ni} and h_n^i
    bandwidth: float = 1.0                # W, in MHz units
    cost: float = 0.1                     # c, transmission cost per unit power
    mu_n: tuple | float = 1.0
    nu_n: tuple | float = 1.0
    gamma_db: tuple | float = -3.0        # per-MU interference margin, dB re 1 W
    c_min: float = 0.9
    c_max: float = 20.0
    noise_power: float = 1.0              # sigma^2 for SINR reporting
    signal_scale: float = 370.0           # MU signal calibration (naive ~= 22 dB)
    x0: tuple | None = None

    def __post_init__(self):
        if self.n_mus < 1 or self.n_scbs < 1:
            raise InvalidConfig("need at least one MU and one SCBS")
        if len(self.assignment) != self.n_mus:
            raise InvalidConfig("assignment must list one SCBS set per MU")
        seen = set()
        for i, group in enumerate(self.assignment):
            if len(group) == 0:
                raise InvalidConfig(f"MU {i} has an empty SCBS set")
            for n in group:
                if not 0 <= n < self.n_scbs:
                    raise InvalidConfig(f"SCBS index {n} outside [0, {self.n_scbs})")
                seen.add(n)
        if seen != set(range(self.n_scbs)):
            raise InvalidConfig("every SCBS must appear in some MU neighborhood")
        for v in (self.gain_mean, self.bandwidth, self.cost, self.noise_power,
                  self.signal_scale):
            if not v > 0:
                raise InvalidConfig("gain_mean, bandwidth, cost, noise_power and "
                                    "signal_scale must be positive")
        if not self.c_min <= self.c_max:
            raise InvalidConfig("c_min must be <= c_max")
        for key, count in (("mu_n", self.n_scbs), ("nu_n", self.n_scbs), ("gamma_db", self.n_mus)):
            value = getattr(self, key)
            values = value if isinstance(value, (tuple, list)) else (value,) * count
            if len(values) != count:
                raise InvalidConfig(f"{key} needs one value per {'MU' if key == 'gamma_db' else 'SCBS'}, "
                                    f"{count}: got {len(values)}")
            if key != "gamma_db" and any(not v > 0 for v in values):
                raise InvalidConfig("mu_n and nu_n must be positive")
        try:  # 10^(dB/10) overflows a float above ~3082 dB
            finite = all(math.isfinite(self.gamma_linear(i)) for i in range(self.n_mus))
        except (OverflowError, TypeError, ValueError):
            finite = False
        if not finite:
            raise InvalidConfig("gamma_db must give every MU a finite linear margin")
        if self.x0 is not None:
            dims = [len(s) for s in self.scbs_subchannels()]
            try:
                shapes = [np.shape(np.atleast_1d(np.asarray(v, dtype=float))) for v in self.x0]
            except (TypeError, ValueError) as exc:
                raise InvalidConfig(f"x0 must hold price vectors: {exc}") from exc
            if shapes != [(k,) for k in dims]:
                raise InvalidConfig(f"x0 needs one entry per SCBS ({self.n_scbs}) with one price per "
                                    f"subchannel it serves ({dims}): got shapes {shapes}")

    # --- derived structure -------------------------------------------------

    def scbs_subchannels(self) -> list:
        """Per-SCBS sorted list of MU subchannels it serves."""
        subs = [[] for _ in range(self.n_scbs)]
        for i, group in enumerate(self.assignment):
            for n in group:
                subs[n].append(i)
        return [sorted(s) for s in subs]

    def mu_param(self, n: int) -> float:
        return float(self.mu_n[n]) if isinstance(self.mu_n, (tuple, list)) else float(self.mu_n)

    def nu_param(self, n: int) -> float:
        return float(self.nu_n[n]) if isinstance(self.nu_n, (tuple, list)) else float(self.nu_n)

    def gamma_linear(self, i: int) -> float:
        db = self.gamma_db[i] if isinstance(self.gamma_db, (tuple, list)) else self.gamma_db
        return 10.0 ** (float(db) / 10.0)

    def signal_power(self) -> float:
        """Expected received MU signal: unit transmit power times direct gain."""
        return self.signal_scale * self.gain_mean


def power_allocation(cfg: PricingConfig, n: int, i: int, x: float, h: float) -> float:
    """SCBS n's transmit power on MU i's subchannel at price x and gain h."""
    return max(cfg.bandwidth / (cfg.cost * cfg.mu_param(n) + cfg.nu_param(n) * x) - 1.0 / h, 0.0)


def pricing_graph(cfg: PricingConfig) -> NetworkGraph:
    """SCBS graph with an edge wherever two SCBSs share a subchannel."""
    edges = []
    for group in cfg.assignment:
        group = sorted(group)
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                edges.append((group[a], group[b]))
    return build_graph(cfg.n_scbs, edges)


def _hosted_mus(cfg: PricingConfig) -> list:
    """Per-SCBS list, in MU order, of the MUs whose constraint it hosts.

    MU i's constraint is hosted by the smallest SCBS index in its neighborhood
    (any member works: all members are mutually adjacent)."""
    hosted = [[] for _ in range(cfg.n_scbs)]
    for i, group in enumerate(cfg.assignment):
        hosted[min(group)].append(i)
    return hosted


def constraint_slots(cfg: PricingConfig) -> list:
    """Flat position of each MU's slack in the stacked constraint vector."""
    order = [i for mus in _hosted_mus(cfg) for i in mus]
    return [order.index(i) for i in range(cfg.n_mus)]


def build_pricing_problem(cfg: PricingConfig) -> ProblemSpec:
    """Encode revenue maximization as engine-ready minimization.

    Objective per SCBS: f^n = -sum_i x_n^i g_{ni} p_n^i, one shared instance
    per distinct (c mu_n, nu_n). One slack entry per MU,
    sum_{n in N_i} g_{ni} p_n^i - gamma_i, owned by its host SCBS.
    Domain per SCBS: nonnegative prices with c_min <= sum <= c_max, enforced
    every slot by projection.
    """
    graph = pricing_graph(cfg)
    subs = cfg.scbs_subchannels()
    dims = tuple(len(s) for s in subs)
    mean = cfg.gain_mean

    shared = {}
    objectives = []
    samplers = []
    batch = partial(_exponential_batch, mean, dims)
    for n in range(cfg.n_scbs):
        k = dims[n]
        key = (cfg.cost * cfg.mu_param(n), cfg.nu_param(n))
        if key not in shared:
            shared[key] = _price_objective(cfg.bandwidth, *key)
        objectives.append(shared[key])

        # (g, h) as one block of standard draws scaled by the mean: the
        # variates, in the order, of two rng.exponential(mean) calls
        def sample(rng, k=k):
            return tuple(_exponential_pair(rng, (k,), mean))

        def draws(rng, size, k=k):
            gh = rng.standard_exponential((size, 2, k))
            gh *= mean
            return gh[:, 0], gh[:, 1]

        samplers.append(Sampler(sample=sample, batch=batch, law=(np.full(k, mean),), draws=draws))

    constraints = _interference_family(cfg, subs, dims)
    domains = tuple(DomainSpec.sum_interval(dims[n], cfg.c_min, cfg.c_max, nonneg=True)
                    for n in range(cfg.n_scbs))
    x0 = None if cfg.x0 is None else [np.atleast_1d(np.asarray(v, dtype=float)) for v in cfg.x0]
    return ProblemSpec.make(graph, dims, objectives, samplers, constraints, domains,
                            x0=x0, name="pricing", optimum=partial(_optimum_prices, cfg),
                            optimum_source="kkt_solve")


def _exponential_batch(mean: float, dims: tuple, rngs, size: int, nodes) -> tuple:
    """``Sampler.batch`` of SCBSs of one dimension k (a sampler group has
    one): each generator's (g, h) as one (2, size, k) fill, the variates of
    ``_exponential_pair``, then all of them scaled by the mean at once."""
    raw = np.empty((len(nodes), 2, size, dims[nodes[0]]))
    for row, rng in zip(raw, rngs):
        rng.standard_exponential(out=row)
    raw *= mean
    return raw[:, 0], raw[:, 1]


def _exponential_pair(rng, shape: tuple, mean: float) -> np.ndarray:
    """Two exponential draws of ``shape`` with mean ``mean``, stacked."""
    pair = rng.standard_exponential((2,) + shape)
    pair *= mean
    return pair


def _price_objective(W: float, mu_c: float, nu: float) -> Objective:
    """Negated revenue of the SCBSs with cost term ``mu_c`` = c mu_n and
    ``nu``, separable by subchannel: ``value``/``grad`` take prices
    (..., k) with gains that broadcast against them, such as one SCBS's
    prices (k,) with gains (k,), coordinate rows (n, 1) with (n, 1), or rows
    (n, 1, 1) with draws (n, S, 1).

    ``expected`` takes prices (..., k) and the law (m,) of g and h, with m
    the gain mean of every coordinate. With A = W / (c mu + nu x) and
    z = 1 / (m A), independence gives E[x g (A - 1/h)_+] = x m E(A - 1/h)_+
    = x m (A e^{-z} - E1(z) / m) = x (e^{-z} / z - E1(z))."""

    def value(x, th):
        g, h = th
        p = np.maximum(W / (mu_c + nu * x) - 1.0 / h, 0.0)
        return -(x * g * p).sum(axis=-1)

    def grad(x, th):
        g, h = th
        denom = mu_c + nu * x
        active = (W / denom - 1.0 / h) > 0.0
        return -g * (W * mu_c / denom**2 - 1.0 / h) * active

    def expected(x, law):
        (m,) = law
        z = (mu_c + nu * x) / (m * W)
        return -(x * _interference(z)[0]).sum(axis=-1)

    return Objective(value=value, grad=grad, expected=expected)


def _interference(z):
    """(psi(z), e^{-z}, E1(z)) with psi(z) = e^{-z} / z - E1(z): at price x,
    with z = (c mu + nu x) / (m W), a coordinate's expected interference
    E g (W / (c mu + nu x) - 1/h)_+ is psi(z) and its expected revenue
    x psi(z)."""
    ez, e1 = np.exp(-z), exp1(z)
    return ez / z - e1, ez, e1


class PricingOptimum(NamedTuple):
    """Minimizer of the expected pricing problem: the stacked prices, the
    duals of the MU interference budgets (MU order) and the KKT residual."""

    x: np.ndarray
    lam: np.ndarray
    kkt_residual: float


# the solve's KKT residual bar, well under the 1e-8 an F* reference needs,
# and its step cap (the shipped configs take 5)
_KKT_TOL = 1e-12
_NEWTON_STEPS = 50


def expected_optimum(cfg: PricingConfig) -> PricingOptimum | None:
    """The minimizer of the expected pricing problem by a certified Newton
    solve, or None.

    Coordinate k (SCBS n, MU i) with z_k = (c mu_n + nu_n x_k) / (m W) has
    expected interference u_k = psi(z_k) (``_interference``), decreasing in
    x_k, and expected revenue x_k psi(z_k), which is strictly concave in u_k
    (that needs E1(z) > e^{-z} / (z + 2), and E1(z) > e^{-z} / (z + 1),
    from A&S 5.1.20). Keep the MU budgets sum_{k in i} u_k <= gamma_i, linear
    in u, and each coordinate's bounds (x >= 0, and [c_min, c_max] for an
    SCBS with one coordinate), but drop the sum bounds of SCBSs with several:
    that relaxation maximizes a concave function over a convex set, so its
    KKT point is its optimum (water-filling, Boyd & Vandenberghe, Convex
    Optimization, 2004, 5.5.3), and where the point meets every dropped sum
    bound it is the optimum of the expected problem.

    Stationarity reads m W h(z_k) - c mu_n = nu_n lam_i with
    h(z) = z^2 e^z E1(z) increasing. Newton runs on (z, lam) from z = 1,
    lam = 0, and eliminates each MU's dual with one bincount. A coordinate
    at a bound its residual pushes outward is frozen out of its MU's
    equation; an MU with every coordinate frozen takes lam = 0 when within
    its budget and keeps them all otherwise. lam is clipped at 0, and a step
    raises z by at most 1. The KKT residual is the largest of |dL/dx_k| over
    the coordinates not frozen and each MU's budget excess, or its slack
    where lam > 0, relative to gamma_i. None when the residual does not reach
    ``_KKT_TOL`` in ``_NEWTON_STEPS`` steps (an infeasible budget among
    others), a price or dual is not finite, or a dropped sum bound is
    violated."""
    s = cfg.gain_mean * cfg.bandwidth
    subs = cfg.scbs_subchannels()
    owner = np.array([n for n, sub in enumerate(subs) for _ in sub])
    mu = np.array([i for sub in subs for i in sub])
    a = np.array([cfg.cost * cfg.mu_param(n) for n in owner])
    b = np.array([cfg.nu_param(n) for n in owner])
    single = np.array([len(subs[n]) == 1 for n in owner])
    lo = np.where(single, max(cfg.c_min, 0.0), 0.0)
    hi = np.where(single, cfg.c_max, np.inf)
    z_lo, z_hi = (a + b * lo) / s, (a + b * hi) / s
    M = cfg.n_mus
    gamma = np.array([cfg.gamma_linear(i) for i in range(M)])
    z, lam = np.clip(1.0, z_lo, z_hi), np.zeros(M)
    # z beyond ~700 underflows e^{-z}: the residual turns NaN and never converges
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_NEWTON_STEPS):
            psi, ez, e1 = _interference(z)
            h = z * z * (e1 / ez)
            F = s * h - a - b * lam[mu]  # dL/dx_k = psi'(z_k) F_k / s
            G = np.bincount(mu, psi, M) - gamma
            frozen = ((z <= z_lo) & (F >= 0.0)) | ((z >= z_hi) & (F <= 0.0))
            grad = np.where(frozen, 0.0, ez / (z * z) * F / s)
            residual = max(np.abs(grad).max(),
                           (np.where(lam > 0.0, np.abs(G), np.maximum(G, 0.0)) / gamma).max())
            if residual <= _KKT_TOL:
                break
            dh = h * (z + 2.0) / z - z
            all_frozen = np.bincount(mu, ~frozen, M) == 0
            # dz_k = (nu_n dlam_i - F_k) / (m W h'_k); the budget's Newton
            # equation sum_k psi'_k dz_k = -G_i then gives dlam_i
            w = np.where(frozen & ~all_frozen[mu], 0.0, -ez / (z * z) / (s * dh))
            den = np.bincount(mu, w * b, M)
            dlam = np.divide(np.bincount(mu, w * F, M) - G, den, out=np.zeros(M), where=den != 0.0)
            new = np.where(all_frozen & (G <= 0.0), 0.0, np.maximum(lam + dlam, 0.0))
            dz = (b * (new - lam)[mu] - F) / (s * dh)
            z, lam = np.clip(z + np.minimum(dz, 1.0), z_lo, z_hi), new
        else:
            return None
    x = np.clip((s * z - a) / b, lo, hi)
    sums = np.bincount(owner, x, cfg.n_scbs)
    if not (np.isfinite(x).all() and np.isfinite(lam).all()
            and all(cfg.c_min <= sums[n] <= cfg.c_max for n, sub in enumerate(subs) if len(sub) > 1)):
        return None
    return PricingOptimum(x, lam, float(residual))


def _optimum_prices(cfg: PricingConfig):
    """``expected_optimum``'s prices, or None."""
    opt = expected_optimum(cfg)
    return None if opt is None else opt.x


# Euler-Mascheroni constant
_EULER = 0.57721566490153286061
# below _E1_SPLIT the power series, above it the continued fraction; the
# term counts keep both within 2e-13 relative error of E1 on [1e-8, 700]
_E1_SPLIT = 3.0
# the series' coefficients (-1)^k / (k k!), k = 1..30
_E1_SERIES = [(-1.0) ** k / (k * math.factorial(k)) for k in range(1, 31)]
_E1_FRACTION_TERMS = 25


def exp1(z) -> np.ndarray:
    """Exponential integral E1(z) = int_z^inf e^{-t} / t dt for z > 0.

    For z <= 3 the power series -gamma - ln z - sum_k (-z)^k / (k k!)
    (Abramowitz & Stegun 5.1.11), by Horner's rule; above, the continued
    fraction of 5.1.22 in its even form
    e^{-z} / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))), evaluated from a
    fixed depth back. Both take elementwise operations only, so an entry
    does not depend on the others in the array, and temporaries stay the
    size of z."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= _E1_SPLIT
    zs = z[small]
    series = np.zeros_like(zs)
    for c in reversed(_E1_SERIES):
        series = (series + c) * zs
    out[small] = -_EULER - np.log(zs) - series
    zl = z[~small]
    tail = zl + (2 * _E1_FRACTION_TERMS + 1)
    for j in range(_E1_FRACTION_TERMS, 0, -1):
        tail = zl + (2 * j - 1) - j * j / tail
    out[~small] = np.exp(-zl) / tail
    return out


def _interference_family(cfg: PricingConfig, subs: list, dims: tuple) -> ConstraintFamily:
    """MU i's slack sum_{n in N_i} g_{ni} p_n^i - gamma_i, owned by its host SCBS.

    The stacked vector holds SCBS n's price on MU subs[n][pos] at coordinate
    offsets[n] + pos, and each coordinate enters exactly one MU's slack. So
    the slack is one pass over the coordinates and a per-MU sum over its
    members, and J^T lam adds to each coordinate its own diagonal Jacobian
    entry -g W nu / (c mu + nu x)^2 (0 on inactive subchannels) times the
    dual of its MU. Hosts take their MUs' rows in SCBS order
    (``constraint_slots``)."""
    W = cfg.bandwidth
    local_pos = [{i: pos for pos, i in enumerate(s)} for s in subs]
    offsets = list(accumulate(dims, initial=0))
    order = [i for mus in _hosted_mus(cfg) for i in mus]  # MU of each stacked slack row
    member_coord, member_row = [], []
    for r, i in enumerate(order):
        for m in sorted(cfg.assignment[i]):
            member_coord.append(offsets[m] + local_pos[m][i])
            member_row.append(r)
    row_of_coord = np.empty(offsets[-1], dtype=np.intp)
    row_of_coord[member_coord] = member_row
    gammas = np.array([cfg.gamma_linear(i) for i in order])
    owner = [n for n in range(cfg.n_scbs) for _ in range(dims[n])]
    mu_c = np.array([cfg.cost * cfg.mu_param(n) for n in owner])
    nu = np.array([cfg.nu_param(n) for n in owner])
    n_coords, n_rows = offsets[-1], len(order)

    def copies(lanes):
        """The kernels on ``lanes`` copies: copy s's coordinates shifted by
        s*C, its MU rows (and duals) by s*M."""
        coord_l, row_l = lane_copies(lanes, member_coord, n_coords), lane_copies(lanes, member_row, n_rows)
        row_of_coord_l = lane_copies(lanes, row_of_coord, n_rows)
        gammas_l, mu_c_l, nu_l = (lane_copies(lanes, a) for a in (gammas, mu_c, nu))

        def at_coords(x, obs):
            """What the slack and J^T lam at x share: the gains, c mu + nu x,
            each coordinate's power before clipping and where it is active."""
            g, h = obs.leaves  # per coordinate, in the layout of the stacked iterate
            denom = mu_c_l + nu_l * x
            p = W / denom - 1.0 / h
            return g, denom, p, p > 0.0

        def slack(x, obs):
            g, _, p, active = point_terms(obs, at_coords, x)
            received = np.where(active, g * p, 0.0)
            # bincount adds each MU's members in order, from 0.0
            return np.bincount(row_l, weights=received[coord_l],
                               minlength=lanes * n_rows) - gammas_l

        def add_jt_lam(grads, lam, x, obs):
            g, denom, _, active = point_terms(obs, at_coords, x)
            # float_power squares with pow(), as the per-node Jacobian's scalar
            # denom**2 does; an array's denom**2 multiplies, which can differ in
            # the last bit
            jac = np.where(active, -g * W * nu_l / np.float_power(denom, 2), 0.0)
            return grads + jac * lam[row_of_coord_l]

        return slack, add_jt_lam

    return ConstraintFamily.from_lane_kernels(n_rows, copies)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def naive_baseline(cfg: PricingConfig, seed: int, T: int) -> np.ndarray:
    """Per-MU SINR (dB) when every SCBS transmits at unit power all the time."""
    rng = np.random.default_rng(np.random.SeedSequence([5, int(seed) & 0xFFFFFFFFFFFFFFFF]))
    sinr = np.zeros(cfg.n_mus)
    signal = cfg.signal_power()
    for i, group in enumerate(cfg.assignment):
        gains = rng.exponential(cfg.gain_mean, size=(T, len(group)))
        interference = gains.sum(axis=1).mean()
        sinr[i] = 10.0 * math.log10(signal / (cfg.noise_power + interference))
    return sinr


def interference_series(cfg: PricingConfig, trace: RunTrace) -> np.ndarray:
    """(T, n_mus) realized interference at the fresh iterate, from trace slacks."""
    if trace.current_slack is None:
        raise InvalidConfig("interference needs the fresh slack: run with record_current_slack=True")
    slots = constraint_slots(cfg)
    gammas = np.array([cfg.gamma_linear(i) for i in range(cfg.n_mus)])
    return trace.current_slack[:, slots] + gammas


def sinr_report(cfg: PricingConfig, trace: RunTrace) -> np.ndarray:
    """Per-MU SINR (dB) with powers from the run's price trajectory,
    interference averaged over the final half of the horizon."""
    series = interference_series(cfg, trace)
    half = series.shape[0] // 2
    mean_i = series[half:].mean(axis=0) if series.shape[0] else np.zeros(cfg.n_mus)
    signal = cfg.signal_power()
    return 10.0 * np.log10(signal / (cfg.noise_power + np.maximum(mean_i, 0.0)))


def revenue_series(cfg: PricingConfig, trace: RunTrace) -> np.ndarray:
    """Running average of instantaneous revenue sum_i sum_n x g p, length T."""
    inst = -trace.obj_sample
    if inst.size == 0:
        return inst.copy()
    return np.cumsum(inst) / np.arange(1, inst.size + 1)

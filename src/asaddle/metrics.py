"""Convergence diagnostics: suboptimality and violation series, rate fits,
optimum estimation, and empirical audits of the moment assumptions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries
from .graph import closed_neighborhood
from .problem import DEFAULT_MC_SAMPLES, ExpectedObjective, ProblemSpec, project
from .saddle import Hyperparams, run_synchronous
from .trace import RunTrace

__all__ = [
    "RunTrace",
    "AssumptionEstimates",
    "AuditResult",
    "estimate_optimum",
    "running_suboptimality",
    "cumulative_suboptimality",
    "delayed_violation",
    "fit_rate",
    "audit_assumptions",
    "audit_invariants",
]


# ---------------------------------------------------------------------------
# series derived from traces
# ---------------------------------------------------------------------------

def running_suboptimality(trace_or_series, f_star: float) -> np.ndarray:
    """Prefix means s_t = (1/t) sum_{u<=t} (F_hat(x_u) - F*), rows 1..T.

    Accepts a trace (uses its F_hat) or a raw F_hat row series of length T+1;
    entry 0 of the result is F_hat(x_0) - F*.
    """
    f_hat = trace_or_series.F_hat if isinstance(trace_or_series, RunTrace) else np.asarray(trace_or_series, dtype=float)
    gaps = f_hat - f_star
    out = np.empty_like(gaps)
    out[0] = gaps[0]
    if gaps.size > 1:
        out[1:] = np.cumsum(gaps[1:]) / np.arange(1, gaps.size)
    return out


def cumulative_suboptimality(trace_or_series, f_star: float) -> np.ndarray:
    """Cumulative gaps sum_{u<=t} (F_hat(x_u) - F*), rows 1..T (entry 0 is 0)."""
    f_hat = trace_or_series.F_hat if isinstance(trace_or_series, RunTrace) else np.asarray(trace_or_series, dtype=float)
    out = np.zeros_like(f_hat)
    if f_hat.size > 1:
        out[1:] = np.cumsum(f_hat[1:] - f_star)
    return out


def delayed_violation(trace_or_slacks):
    """Clipped cumulative constraint violation at delayed arguments.

    Returns (per_constraint, aggregate): per_constraint[t-1, c] is
    [ sum_{u<=t} s_c at the stale window of step u ]_+ and aggregate its sum
    over constraints, both step-aligned (length T).
    """
    s = trace_or_slacks.delayed_slack if isinstance(trace_or_slacks, RunTrace) else np.asarray(trace_or_slacks, dtype=float)
    per = np.maximum(np.cumsum(s, axis=0), 0.0)
    return per, per.sum(axis=1)


def fit_rate(series, t=None, burn_in: float = 0.2) -> float:
    """Least-squares slope of log(series) against log(t).

    Points with t below the burn-in fraction of the horizon and nonpositive
    values are excluded; fewer than 10 surviving points raises
    DegenerateSeries.
    """
    series = np.asarray(series, dtype=float)
    if t is None:
        t = np.arange(1, series.size + 1)
    t = np.asarray(t, dtype=float)
    if not 0.0 <= burn_in < 1.0:
        raise ValueError("burn_in must lie in [0, 1)")
    keep = (t >= burn_in * t.max()) & (series > 0) & np.isfinite(series)
    if keep.sum() < 10:
        raise DegenerateSeries(f"only {int(keep.sum())} positive points after burn-in")
    slope, _ = np.polyfit(np.log(t[keep]), np.log(series[keep]), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# optimum estimation
# ---------------------------------------------------------------------------

def estimate_optimum(spec: ProblemSpec, budget: int, seed: int,
                     delta: float = 1e-5, epsilon: float | None = None,
                     mc_samples: int = DEFAULT_MC_SAMPLES, eval_seed: int = 0):
    """Reference objective value from a long synchronous run.

    Runs the tau=0 method for ``budget`` iterations with epsilon = 1/sqrt(budget)
    unless overridden, and returns (F*, x_ref) where x_ref is the running
    average of the iterates x_1..x_T and F* its Monte Carlo objective value.
    """
    evaluator = ExpectedObjective(spec, mc_samples=mc_samples, seed=eval_seed)
    if budget <= 0:
        x0 = [v.copy() for v in spec.x0]
        return evaluator.value(x0), x0

    eps = epsilon if epsilon is not None else 1.0 / math.sqrt(budget)
    hp = Hyperparams(epsilon=eps, delta=delta, T=int(budget))
    acc = [np.zeros(d) for d in spec.dims]

    def accumulate(t, state):
        if t >= 1:
            for i in range(len(acc)):
                acc[i] += state.x[i]

    run_synchronous(spec, hp, seed, hooks=(accumulate,), evaluator=None,
                    eval_every=0, thin_every=0, record_current_slack=False)
    x_ref = [a / budget for a in acc]
    x_ref = [project(spec.domains[i], x_ref[i]) for i in range(len(x_ref))]
    return evaluator.value(x_ref), x_ref


# ---------------------------------------------------------------------------
# assumption audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionEstimates:
    """Empirical moment bounds feeding the hyperparameter advisor.

    sigma_f2 / sigma_h2: largest mean squared norm of a per-node objective
    gradient / of one constraint's gradient in one node's variables, over
    sampled feasible points; sigma_lambda2: largest mean squared slack of one
    constraint; L_f: largest secant slope of the Monte Carlo objective. Means
    are over observation draws at a fixed point.
    """

    sigma_f2: float
    sigma_h2: float
    sigma_lambda2: float
    L_f: float


def _random_feasible(spec: ProblemSpec, rng) -> list:
    xs = []
    for i, dom in enumerate(spec.domains):
        if dom.kind == "box":
            u = rng.uniform(dom.lo, dom.hi)
        else:
            hi = max(abs(dom.c_min), abs(dom.c_max), 1.0)
            u = rng.uniform(0.0 if dom.nonneg else -hi, hi, size=dom.dim)
        xs.append(project(dom, np.atleast_1d(u)))
    return xs


def _max_draw_mean(per_draw: np.ndarray) -> float:
    """Largest per-constraint mean of a (draws, constraints) array.

    Each row is averaged as one contiguous vector, the summation order of
    ``np.mean`` on a list of draws."""
    return float(np.mean(np.ascontiguousarray(per_draw.T), axis=1).max())


def audit_assumptions(spec: ProblemSpec, n_samples: int = 2000, seed: int = 0,
                      theta_draws: int = 16, secant_pairs: int = 40,
                      mc_samples: int = 512) -> AssumptionEstimates:
    """Monte Carlo maxima over random feasible points and observations.

    Each sampled point contributes a ``theta_draws``-sample mean of the
    squared gradient norms and squared slacks, per node, per constraint and
    per node the constraint depends on; the Lipschitz constant of the
    expected objective comes from random feasible secants.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    rng = np.random.default_rng(np.random.SeedSequence([4, int(seed) & 0xFFFFFFFFFFFFFFFF]))
    n_points = max(1, n_samples // theta_draws)
    g = spec.graph

    sigma_f2 = 0.0
    sigma_h2 = 0.0
    sigma_l2 = 0.0
    for _ in range(n_points):
        xs = _random_feasible(spec, rng)
        ths = [[spec.samplers[i].sample(rng) for _ in range(theta_draws)]
               for i in range(g.n_nodes)]
        for i in range(g.n_nodes):
            ms = np.mean([
                float(np.sum(np.asarray(spec.objectives[i].grad(xs[i], th), dtype=float)**2))
                for th in ths[i]
            ])
            sigma_f2 = max(sigma_f2, ms)
        th_draws = [[ths[i][d] for i in range(g.n_nodes)] for d in range(theta_draws)]
        for k, con in enumerate(spec.constraints.per_node):
            if con.size == 0:
                continue
            s2 = np.array([con.value(xs, th) for th in th_draws], dtype=float) ** 2
            sigma_l2 = max(sigma_l2, _max_draw_mean(s2))
            for i in closed_neighborhood(g, k):
                jac = np.array([con.jacobian(i, xs, th) for th in th_draws], dtype=float)
                sigma_h2 = max(sigma_h2, _max_draw_mean(np.sum(jac ** 2, axis=2)))

    evaluator = ExpectedObjective(spec, mc_samples=mc_samples, seed=seed + 1)
    L_f = 0.0
    for _ in range(secant_pairs):
        xa, xb = _random_feasible(spec, rng), _random_feasible(spec, rng)
        gap = np.linalg.norm(np.concatenate(xa) - np.concatenate(xb))
        if gap < 1e-9:
            continue
        L_f = max(L_f, abs(evaluator.value(xa) - evaluator.value(xb)) / gap)
    return AssumptionEstimates(sigma_f2=sigma_f2, sigma_h2=sigma_h2,
                               sigma_lambda2=sigma_l2, L_f=L_f)


# ---------------------------------------------------------------------------
# invariant audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditResult:
    ok: bool
    dual_nonnegative: bool
    staleness_bounded: bool
    staleness_monotone: bool
    primal_feasible: bool
    max_staleness: int
    min_dual: float
    max_domain_residual: float


def audit_invariants(trace: RunTrace, feas_tol: float = 1e-9) -> AuditResult:
    """Check the run-level invariants: dual nonnegativity, primal feasibility
    at recorded snapshots, and bounded monotone staleness."""
    dual_ok = bool(np.all(trace.lambda_min >= 0.0))
    max_stale = int(trace.staleness.max(initial=0))
    stale_ok = max_stale <= trace.tau_bound
    mono_ok = bool(np.all(np.diff(trace.resolved, axis=0) >= 0)) if trace.T > 1 else True
    feas_ok = trace.domain_residual_max <= feas_tol
    return AuditResult(
        ok=dual_ok and stale_ok and mono_ok and feas_ok,
        dual_nonnegative=dual_ok,
        staleness_bounded=stale_ok,
        staleness_monotone=mono_ok,
        primal_feasible=feas_ok,
        max_staleness=max_stale,
        min_dual=float(trace.lambda_min.min(initial=0.0)),
        max_domain_residual=float(trace.domain_residual_max),
    )

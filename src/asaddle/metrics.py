"""Convergence diagnostics: suboptimality and violation series, rate fits,
optimum estimation, and empirical audits of the moment assumptions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeries
from .problem import (DEFAULT_MC_SAMPLES, ExpectedObjective, NodeObservations, ProblemSpec,
                      coordinate_leaves, objective_grads, sample_rows, stack_leaves)
from .saddle import Hyperparams, SaddleEngine, project_nodes
from .trace import RunTrace, running_violation

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


def delayed_violation(slacks):
    """Clipped cumulative constraint violation of step-aligned slacks (T, M).

    Returns (per_constraint, aggregate): per_constraint[t-1, c] is
    [ sum_{u<=t} s_c at the stale window of step u ]_+ and aggregate its sum
    over constraints, both step-aligned (length T); a run records the
    aggregate as ``RunTrace.violation_cumclip``, bit for bit.
    """
    s = np.asarray(slacks, dtype=float)
    per, _ = running_violation(s, np.full(s.shape[1:], -0.0))
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
    average of the iterates x_1..x_T, as per-node rows (``ProblemSpec.rows``),
    and F* its expected objective value (``ExpectedObjective``: exact where
    the problem gives its expectation).
    """
    evaluator = ExpectedObjective(spec, mc_samples=mc_samples, seed=eval_seed)
    if budget <= 0:
        x0 = np.concatenate(spec.x0)
        return evaluator.value(x0), spec.rows(x0)

    eps = epsilon if epsilon is not None else 1.0 / math.sqrt(budget)
    hp = Hyperparams(epsilon=eps, delta=delta, T=int(budget))
    acc = np.zeros(spec.offsets[-1])

    def accumulate(t, state):
        if t >= 1:
            np.add(acc, state.x, out=acc)

    # only the hook's sum is read: no trace is built
    SaddleEngine(spec, hp, None, seed, hooks=(accumulate,), thin_every=0).run()
    x_ref = project_nodes(spec, acc / budget)
    return evaluator.value(x_ref), spec.rows(x_ref)


# ---------------------------------------------------------------------------
# assumption audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionEstimates:
    """Empirical moment bounds feeding the hyperparameter advisor.

    sigma_f2 / sigma_h2: largest mean squared norm of a per-node objective
    gradient / of one constraint's gradient in one node's variables, over
    sampled feasible points; sigma_lambda2: largest mean squared slack of one
    constraint; L_f: largest secant slope of the expected objective
    (``ExpectedObjective``). Means are over observation draws at a fixed
    point.
    """

    sigma_f2: float
    sigma_h2: float
    sigma_lambda2: float
    L_f: float


def _feasible_box(spec: ProblemSpec):
    """Stacked (lo, hi) the audit draws a random point's coordinates from,
    before it projects the point: its node's box, or [-b, b] ([0, b] when
    nonnegative) for a sum interval, with b the largest of 1, |C_min| and
    |C_max|."""
    lo, hi = [], []
    for dom in spec.domains:
        b, box = max(abs(dom.c_min), abs(dom.c_max), 1.0), dom.kind == "box"
        lo.append(dom.lo if box else np.full(dom.dim, 0.0 if dom.nonneg else -b))
        hi.append(dom.hi if box else np.full(dom.dim, b))
    return np.concatenate(lo), np.concatenate(hi)


# points whose lanes one chunk scores: with 8 (64 lanes at 8 draws) the
# advisor of the shipped configs peaks at 0.25-0.4 MB (tracemalloc), where
# scoring all 50 points at once took 1.7-2.7 MB
_AUDIT_CHUNK = 8


def _draw_means(per_lane: np.ndarray, points: int) -> np.ndarray:
    """(points, K) means over each point's draws of per-lane values
    (points * draws, K): each mean is taken over one contiguous vector, the
    summation order of ``np.mean`` on a list of draws."""
    v = per_lane.reshape(points, -1, per_lane.shape[-1]).swapaxes(1, 2)
    return np.ascontiguousarray(v).mean(axis=-1)


def audit_assumptions(spec: ProblemSpec, n_samples: int = 2000, seed: int = 0,
                      theta_draws: int = 16, secant_pairs: int = 40,
                      mc_samples: int = 512) -> AssumptionEstimates:
    """Monte Carlo maxima over random feasible points and observations.

    Each of the ``n_samples // theta_draws`` sampled points contributes a
    ``theta_draws``-sample mean of the squared gradient norms and squared
    slacks, per node, per constraint and per node the constraint depends
    on; the Lipschitz constant of the expected objective comes from random
    feasible secants. A NaN sample makes its estimate NaN.

    The draws come one point at a time: the point, one ``rng.uniform`` over
    the stacked bounds projected by ``project_nodes``, then each node's
    ``theta_draws`` observations in one ``sample_rows`` call, stacked into
    a chunk's lanes with one stack per leaf. They are scored in chunks of
    points, as lanes of the tiled problem (``ProblemSpec.tile``): lane
    (point, draw) holds the point's stacked iterate and that draw's
    observation of every node, so one ``objective_grads`` and one ``slack``
    call score a chunk. Row c of the stacked Jacobian is read from one
    ``add_jt_lam`` call with lam = e_c in every lane: node i's block of
    J^T e_c is the row of c's owner's Jacobian in node i's variables, and 0
    for a node outside the owner's closed neighborhood.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    if theta_draws < 1 or secant_pairs < 1:
        raise ValueError("theta_draws and secant_pairs must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([4, int(seed) & 0xFFFFFFFFFFFFFFFF]))
    n_points = max(1, n_samples // theta_draws)
    m = spec.constraints.size
    box = _feasible_box(spec)
    tiles = {}
    # every chunk's largest mean, NaN-propagating through np.max at the end
    f2, h2, l2 = [0.0], [0.0], [0.0]
    for first in range(0, n_points, _AUDIT_CHUNK):
        points = min(_AUDIT_CHUNK, n_points - first)
        lanes = points * theta_draws
        xs, draws = [], []
        for _ in range(points):
            xs.append(project_nodes(spec, rng.uniform(*box)))
            draws += [sample_rows(sampler, rng, theta_draws) for sampler in spec.samplers]
        if lanes not in tiles:
            tiles[lanes] = spec.tile(lanes)
        tiled = tiles[lanes]
        xs = np.repeat(np.array(xs), theta_draws, axis=0).reshape(-1)
        # one stack per leaf: (draw, point and node or coordinate, ...), then point first
        leaves = coordinate_leaves(spec, stack_leaves(draws, axis=1), 1, points * spec.offsets[-1])
        th = NodeObservations([leaf.reshape((theta_draws, points, -1) + leaf.shape[2:]).swapaxes(0, 1)
                               .reshape((-1,) + leaf.shape[2:]) for leaf in leaves], tiled.obs_offsets)

        g = objective_grads(tiled, xs, th).reshape(lanes, -1)
        f2.append(_draw_means(spec.node_sums(g ** 2), points).max())
        if m == 0:
            continue
        s = tiled.constraints.slack(xs, th).reshape(lanes, m)
        l2.append(_draw_means(s ** 2, points).max())
        zeros = np.zeros(g.size)
        for c in range(m):
            lam = np.zeros(lanes * m)
            lam[c::m] = 1.0
            jt = tiled.constraints.add_jt_lam(zeros, lam, xs, th).reshape(lanes, -1)
            h2.append(_draw_means(spec.node_sums(jt ** 2), points).max())

    evaluator = ExpectedObjective(spec, mc_samples=mc_samples, seed=seed + 1)
    # the secants' ends (a, b) of every pair, scored in one call
    ends = np.array([project_nodes(spec, rng.uniform(*box))
                     for _ in range(2 * secant_pairs)]).reshape(secant_pairs, 2, -1)
    F = evaluator.values(ends.reshape(2 * secant_pairs, -1)).reshape(secant_pairs, 2)
    slopes = [0.0]
    for (xa, xb), (fa, fb) in zip(ends, F):
        gap = np.linalg.norm(xa - xb)
        if gap >= 1e-9:
            slopes.append(abs(fa - fb) / gap)
    return AssumptionEstimates(sigma_f2=float(np.max(f2)), sigma_h2=float(np.max(h2)),
                               sigma_lambda2=float(np.max(l2)), L_f=float(np.max(slopes)))


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
    finite: bool = True


def audit_invariants(trace: RunTrace, feas_tol: float = 1e-9) -> AuditResult:
    """Check the run-level invariants: dual nonnegativity, primal feasibility
    at recorded snapshots, bounded monotone staleness, and finite records:
    every slack of the run (``slack_finite``) and every recorded number,
    ``F_hat`` where the run has one."""
    dual_ok = bool(np.all(trace.lambda_min >= 0.0))
    max_stale = int(trace.max_staleness.max(initial=0))
    stale_ok = max_stale <= trace.tau_bound
    feas_ok = trace.domain_residual_max <= feas_tol
    records = [trace.lambda_norm, trace.obj_sample, *trace.x_snapshots.values(), trace.F_hat]
    finite = trace.slack_finite and all(np.isfinite(a).all() for a in records if a is not None)
    mono_ok = trace.staleness_monotone
    return AuditResult(
        ok=dual_ok and stale_ok and mono_ok and feas_ok and finite,
        dual_nonnegative=dual_ok,
        staleness_bounded=stale_ok,
        staleness_monotone=mono_ok,
        primal_feasible=feas_ok,
        finite=finite,
        max_staleness=max_stale,
        min_dual=float(trace.lambda_min.min(initial=0.0)),
        max_domain_residual=float(trace.domain_residual_max),
    )

"""Asynchronous stochastic saddle-point engine.

Alternates projected primal descent and regularized dual ascent on the
stochastic augmented Lagrangian

    L_t(x, lam) = sum_i f^i(x^i, th^i) + lam^T s(x, th) - (delta eps / 2) |lam|^2

where s is the stacked slack vector (constraint minus tolerance, one entry
per constraint, grouped by owner node). Primal steps
start from the current iterate but use gradients evaluated at each node's
resolved stale index; dual variables are never delayed. Both updates read the
time-t state and commit together.

The per-node update with bounded staleness is

    x^i_{t+1} = P_X[ x^i_t - eps ( grad f^i at [t]_i + (J^T lam_t)_i ) ]
    lam_{t+1} = [ (1 - eps^2 delta) lam_t + eps s at the resolved windows ]_+

where J is the Jacobian of s; s and J are evaluated at each node's resolved
stale point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delay import DelaySchedule, StalenessBuffer, resolve
from .errors import NoFeasibleDelta
from .graph import NetworkGraph
from .problem import ProblemSpec, project, sample_observation
from .trace import RunTrace

__all__ = [
    "Hyperparams",
    "SaddleState",
    "SaddleEngine",
    "AdvisorConstants",
    "stochastic_lagrangian",
    "primal_gradient",
    "dual_gradient",
    "dual_slack",
    "primal_step",
    "dual_step",
    "run",
    "run_generalized",
    "run_synchronous",
    "advise",
    "stack",
]


@dataclass(frozen=True)
class Hyperparams:
    """Step size, dual regularizer, horizon and delay bound."""

    epsilon: float
    delta: float
    T: int
    tau: int = 0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        shrink = 1.0 - self.epsilon**2 * self.delta
        if not 0.0 < shrink <= 1.0:
            raise ValueError("(1 - epsilon^2 delta) must lie in (0, 1]")
        if self.T < 0 or self.tau < 0:
            raise ValueError("T and tau must be >= 0")


@dataclass
class SaddleState:
    """Primal block (per-node vectors) and nonnegative dual vector at time t.

    ``lam`` is one (M,) array laid out like the stacked slack: each owner
    node's constraints in turn, in node order.
    """

    x: list
    lam: np.ndarray
    t: int = 0


def stack(vectors) -> np.ndarray:
    if len(vectors) == 0:
        return np.zeros(0)
    return np.concatenate([np.atleast_1d(np.asarray(v, dtype=float)) for v in vectors])


# ---------------------------------------------------------------------------
# Lagrangian pieces
# ---------------------------------------------------------------------------

def stochastic_lagrangian(spec: ProblemSpec, state: SaddleState, observations, hp: Hyperparams) -> float:
    """Sampled augmented Lagrangian at (state.x, state.lam) and the given draws."""
    de = hp.delta * hp.epsilon
    total = 0.0
    for i in range(spec.graph.n_nodes):
        total += float(spec.objectives[i].value(state.x[i], observations[i]))
    lam = state.lam
    s = spec.constraints.slack(state.x, observations)
    return total + float(np.dot(lam, s)) - 0.5 * de * float(np.dot(lam, lam))


def primal_gradient(spec: ProblemSpec, lam, xs_eval, ths_eval) -> list:
    """Per-node gradient of the sampled Lagrangian in x, at possibly stale points.

    ``lam`` is the current (undelayed) dual vector; xs_eval/ths_eval are indexed
    by node and already resolved to each node's own stale time.
    """
    grads = [np.asarray(spec.objectives[i].grad(xs_eval[i], ths_eval[i]), dtype=float)
             for i in range(spec.graph.n_nodes)]
    return spec.constraints.add_jt_lam(grads, lam, xs_eval, ths_eval)


def dual_slack(spec: ProblemSpec, xs_eval, ths_eval) -> np.ndarray:
    """Stacked (M,) constraint slack at the given (possibly stale) points."""
    return spec.constraints.slack(xs_eval, ths_eval)


def dual_gradient(spec: ProblemSpec, lam, xs_eval, ths_eval, hp: Hyperparams) -> np.ndarray:
    """Gradient of the sampled augmented Lagrangian in the dual vector."""
    return dual_slack(spec, xs_eval, ths_eval) - hp.delta * hp.epsilon * lam


# ---------------------------------------------------------------------------
# one-step updates
# ---------------------------------------------------------------------------

def primal_step(spec: ProblemSpec, state: SaddleState, xs_eval, ths_eval, hp: Hyperparams) -> list:
    """Projected descent step from the current x with gradients at the
    resolved (possibly stale) points xs_eval/ths_eval."""
    grads = primal_gradient(spec, state.lam, xs_eval, ths_eval)
    return [
        project(spec.domains[i], state.x[i] - hp.epsilon * grads[i])
        for i in range(spec.graph.n_nodes)
    ]


def dual_step(state: SaddleState, slack, hp: Hyperparams) -> np.ndarray:
    """Regularized ascent on the duals with the given stacked slack, clipped at 0."""
    shrink = 1.0 - hp.epsilon**2 * hp.delta
    return np.maximum(shrink * state.lam + hp.epsilon * slack, 0.0)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class SaddleEngine:
    """Stateful iteration driver: construct, then step() / run(T) / trace().

    All randomness flows from the single 64-bit ``seed``. Passing
    ``schedule=None`` selects the reference synchronous loop (no buffers, no
    staleness resolution); a zero schedule exercises the asynchronous machinery
    and produces the identical trajectory.
    """

    def __init__(self, spec: ProblemSpec, hp: Hyperparams, schedule: DelaySchedule | None,
                 seed: int, hooks=(), evaluator=None, eval_every: int = 1,
                 thin_every: int = 50, record_current_slack: bool = True):
        self.spec = spec
        self.hp = hp
        self.schedule = schedule
        self.seed = seed
        self.hooks = tuple(hooks)
        self.evaluator = evaluator
        self.eval_every = eval_every
        self.thin_every = thin_every
        self.mode = "sync" if schedule is None else "async"

        n = spec.graph.n_nodes
        T = hp.T
        self._n = n
        n_cons = spec.constraints.size
        self.tau_bound = 0 if schedule is None else schedule.tau_max
        if schedule is not None:
            depth = self.tau_bound + 1
            self._xbuf = StalenessBuffer(n, depth)
            self._obuf = StalenessBuffer(n, depth)
        self._prev_resolved = [0] * n

        x = [np.asarray(v, dtype=float).copy() for v in spec.x0]
        self.state = SaddleState(x=x, lam=np.zeros(n_cons), t=0)

        self._F_hat = np.full(T + 1, np.nan)
        self._obj_sample = np.zeros(T)
        self._lambda_norm = np.zeros(T + 1)
        self._lambda_min = np.zeros(T + 1)
        self._delayed_slack = np.zeros((T, n_cons))
        self._current_slack = np.zeros((T, n_cons)) if record_current_slack else None
        self._resolved = np.zeros((T, n), dtype=int)
        self._staleness = np.zeros((T, n), dtype=int)
        self._snapshots = {}
        self._domain_residual = 0.0

        self._record_row(0)
        for hook in self.hooks:
            hook(0, self.state)

    # -- recording ---------------------------------------------------------

    def _record_row(self, t):
        lam = self.state.lam
        self._lambda_norm[t] = float(np.linalg.norm(lam))
        self._lambda_min[t] = float(lam.min(initial=0.0))
        if self.evaluator is not None and self.eval_every and \
                (t % self.eval_every == 0 or t == self.hp.T):
            self._F_hat[t] = self.evaluator.value(self.state.x)
        if self.thin_every and (t % self.thin_every == 0 or t == self.hp.T):
            self._snapshots[t] = stack(self.state.x)
            # np.max keeps a NaN residual where the builtin max would drop it
            self._domain_residual = float(np.max([self._domain_residual] + [
                np.max(np.abs(project(self.spec.domains[i], self.state.x[i])
                              - self.state.x[i]), initial=0.0)
                for i in range(self._n)
            ]))

    # -- iteration ---------------------------------------------------------

    def step(self) -> SaddleState:
        """Advance one iteration; raises past the configured horizon."""
        spec, hp, n = self.spec, self.hp, self._n
        k = self.state.t
        if k >= hp.T:
            raise IndexError(f"horizon T={hp.T} exhausted")
        theta = [sample_observation(spec, self.seed, i, k) for i in range(n)]

        if self.schedule is not None:
            for i in range(n):
                self._xbuf.record(k, i, self.state.x[i])
                self._obuf.record(k, i, theta[i])
            res_k = [resolve(self.schedule, k, i, self._prev_resolved[i]) for i in range(n)]
            self._prev_resolved = res_k
            xs_eval = [self._xbuf.fetch(res_k[i], i) for i in range(n)]
            ths_eval = [self._obuf.fetch(res_k[i], i) for i in range(n)]
        else:
            res_k = [k] * n
            xs_eval = self.state.x
            ths_eval = theta

        s_delayed = dual_slack(spec, xs_eval, ths_eval)
        new_x = primal_step(spec, self.state, xs_eval, ths_eval, hp)
        new_lam = dual_step(self.state, s_delayed, hp)

        self._obj_sample[k] = sum(
            float(spec.objectives[i].value(self.state.x[i], theta[i])) for i in range(n)
        )
        self._delayed_slack[k] = s_delayed
        if self._current_slack is not None:
            if self.schedule is not None and any(r != k for r in res_k):
                self._current_slack[k] = dual_slack(spec, self.state.x, theta)
            else:
                self._current_slack[k] = s_delayed
        self._resolved[k] = res_k
        self._staleness[k] = [k - r for r in res_k]

        self.state = SaddleState(x=new_x, lam=new_lam, t=k + 1)
        self._record_row(k + 1)
        for hook in self.hooks:
            hook(k + 1, self.state)
        return self.state

    def run(self, steps: int | None = None) -> "SaddleEngine":
        """Advance ``steps`` iterations (default: all remaining)."""
        remaining = self.hp.T - self.state.t
        for _ in range(remaining if steps is None else min(steps, remaining)):
            self.step()
        return self

    def trace(self) -> RunTrace:
        """Snapshot of the history up to the current iteration."""
        t = self.state.t
        cur = self._current_slack[:t].copy() if self._current_slack is not None else None
        return RunTrace(
            name=self.spec.name, seed=self.seed, T=t, n_nodes=self._n,
            tau_bound=self.tau_bound, mode=self.mode,
            F_hat=self._F_hat[:t + 1].copy(), obj_sample=self._obj_sample[:t].copy(),
            lambda_norm=self._lambda_norm[:t + 1].copy(),
            lambda_min=self._lambda_min[:t + 1].copy(),
            delayed_slack=self._delayed_slack[:t].copy(), current_slack=cur,
            resolved=self._resolved[:t].copy(), staleness=self._staleness[:t].copy(),
            x_snapshots=dict(self._snapshots), x_final=self.state.x,
            lam_final=self.state.lam, domain_residual_max=self._domain_residual,
        )


def run(spec: ProblemSpec, hp: Hyperparams, schedule: DelaySchedule | None, seed: int,
        hooks=(), evaluator=None, eval_every: int = 1, thin_every: int = 50,
        record_current_slack: bool = True) -> RunTrace:
    """Execute T iterations of the asynchronous method; deterministic given seed.

    Each iteration samples fresh observations, resolves per-node staleness
    (monotone, bounded by the schedule), then commits the primal and dual steps
    computed from the time-t state (Jacobi order). ``evaluator`` supplies the
    Monte Carlo objective recorded in the trace every ``eval_every`` rows.
    ``schedule=None`` runs the synchronous reference loop.
    """
    engine = SaddleEngine(spec, hp, schedule, seed, hooks=hooks, evaluator=evaluator,
                          eval_every=eval_every, thin_every=thin_every,
                          record_current_slack=record_current_slack)
    return engine.run().trace()


def run_generalized(spec: ProblemSpec, hp: Hyperparams, schedule: DelaySchedule, seed: int,
                    **kwargs) -> RunTrace:
    """Same as ``run``: every constraint family goes through one step kernel."""
    return run(spec, hp, schedule, seed, **kwargs)


def run_synchronous(spec: ProblemSpec, hp: Hyperparams, seed: int, **kwargs) -> RunTrace:
    """Reference synchronous loop: no schedule, no buffers, fresh gradients.

    Keyword arguments are those of ``run``."""
    return run(spec, hp, None, seed, **kwargs)


# ---------------------------------------------------------------------------
# hyperparameter advisor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdvisorConstants:
    """Aggregates of network size, delay bound and moment estimates that govern
    the dual-regularizer selection rule delta >= K4(delta)."""

    L2: float
    K1: float
    K2: float
    K3: float
    K4: float
    K: float
    C: float
    discriminant: float
    N: int
    M: int
    tau: int
    T: int
    epsilon: float
    delta: float


def advise(estimates, graph: NetworkGraph, tau: int, T: int):
    """Theory-driven step size and dual regularizer for a horizon T.

    Sets epsilon = 1/sqrt(T). The self-referential rule delta >= K4(delta) with
    K4 = 2 delta^2 eps^2 + C reduces to 2 eps^2 d^2 - d + C <= 0; the smallest
    root exists iff 1 - 8 C eps^2 >= 0, otherwise NoFeasibleDelta is raised
    with the horizon that would make it solvable. The returned delta is a
    diagnostic: practical runs typically use a much smaller value.
    """
    sf2, sh2, sl2, Lf = (
        float(estimates.sigma_f2), float(estimates.sigma_h2),
        float(estimates.sigma_lambda2), float(estimates.L_f),
    )
    if min(sf2, sh2, sl2, Lf) <= 0:
        raise ValueError("moment estimates must be positive")
    if T < 1:
        raise ValueError("T must be >= 1")
    eps = 1.0 / math.sqrt(T)
    L2 = max(sf2, sh2)
    N, M = graph.n_nodes, graph.n_edges
    K1 = (N + M**2) * L2
    base = K1 + 4.0 * Lf * math.sqrt(K1)
    C = 2.0 * K1 + (tau + 1) * tau * base
    disc = 1.0 - 8.0 * C * eps**2
    if disc < 0:
        raise NoFeasibleDelta(C, T)
    delta = (1.0 - math.sqrt(disc)) / (4.0 * eps**2)
    # nudge up so K4(delta) - delta <= 0 survives rounding; fall back to the
    # vertex of the parabola if the discriminant is too small for the nudge
    delta_adj = delta * (1.0 + 1e-9) + 1e-15
    if _k4(delta_adj, eps, C) - delta_adj > 0:
        delta_adj = 1.0 / (4.0 * eps**2)
    delta = delta_adj

    K3 = delta**2 * eps**2 + K1
    K4 = 2.0 * K3 + (tau + 1) * tau * base
    K2 = M * sl2 + K1 + tau * K1
    K = 2.0 * K2 + 4.0 * tau * Lf * math.sqrt(K1)
    constants = AdvisorConstants(L2=L2, K1=K1, K2=K2, K3=K3, K4=K4, K=K, C=C,
                                 discriminant=disc, N=N, M=M, tau=tau, T=T,
                                 epsilon=eps, delta=delta)
    return Hyperparams(epsilon=eps, delta=delta, T=T, tau=tau), constants


def _k4(delta, eps, C):
    return 2.0 * (delta**2 * eps**2) + C

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

from .delay import DelaySchedule, StackedBuffer, resolve
from .errors import NoFeasibleDelta, NonFiniteState
from .graph import NetworkGraph
from .problem import (OBS_BLOCK, NodeObservations, ProblemSpec, objective_grads, objective_sum,
                      observation_block, project, stack, tree_map)
# replays one node's row of the engine's observation stream; kept in this
# namespace, where bench/run_bench.py looks it up
from .problem import sample_observation  # noqa: F401
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
    "project_nodes",
    "domain_residual",
    "run",
    "run_lanes",
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

    The engine holds ``x`` as ``spec.rows`` of one stacked vector: an (N, p)
    array, or per-node slices of it when dimensions differ. ``lam`` is one
    (M,) array laid out like the stacked slack: each owner node's constraints
    in turn, in node order. An engine of several lanes holds the state of
    its tiled problem (``ProblemSpec.tile``), lane after lane.
    """

    x: list
    lam: np.ndarray
    t: int = 0


# ---------------------------------------------------------------------------
# Lagrangian pieces
# ---------------------------------------------------------------------------

def stochastic_lagrangian(spec: ProblemSpec, state: SaddleState, observations, hp: Hyperparams) -> float:
    """Sampled augmented Lagrangian at (state.x, state.lam) and the given draws."""
    de = hp.delta * hp.epsilon
    total = objective_sum(spec, state.x, observations)
    lam = state.lam
    s = spec.constraints.slack(state.x, observations)
    return total + float(np.dot(lam, s)) - 0.5 * de * float(np.dot(lam, lam))


def primal_gradient(spec: ProblemSpec, lam, xs_eval, ths_eval):
    """Per-node gradient of the sampled Lagrangian in x, at possibly stale points.

    ``lam`` is the current (undelayed) dual vector; xs_eval/ths_eval are indexed
    by node and already resolved to each node's own stale time.
    """
    grads = objective_grads(spec, xs_eval, ths_eval)
    return spec.constraints.add_jt_lam(grads, lam, xs_eval, ths_eval)


def dual_slack(spec: ProblemSpec, xs_eval, ths_eval) -> np.ndarray:
    """Stacked (M,) constraint slack at the given (possibly stale) points."""
    return spec.constraints.slack(xs_eval, ths_eval)


def dual_gradient(spec: ProblemSpec, lam, xs_eval, ths_eval, hp: Hyperparams) -> np.ndarray:
    """Gradient of the sampled augmented Lagrangian in the dual vector."""
    return dual_slack(spec, xs_eval, ths_eval) - hp.delta * hp.epsilon * lam


# ---------------------------------------------------------------------------
# stacked projection
# ---------------------------------------------------------------------------

def project_nodes(spec: ProblemSpec, flat: np.ndarray) -> np.ndarray:
    """Projection of every node's block of a finite stacked vector: one clamp
    when every domain is a box; otherwise ``project`` on the blocks that left
    their domain (``ProblemSpec.inside``), the others kept as they are."""
    box = spec.box_bounds
    if box is not None:
        return np.minimum(np.maximum(flat, box[0]), box[1])
    out = flat.copy()
    o = spec.offsets
    for i in np.flatnonzero(~spec.inside(flat)).tolist():
        out[o[i]:o[i + 1]] = project(spec.domains[i], flat[o[i]:o[i + 1]])
    return out


def domain_residual(spec: ProblemSpec, flat: np.ndarray) -> float:
    """Largest distance of a coordinate of the stacked vector from its domain:
    max(lo - x, x - hi, 0) for boxes, the ``project`` distance otherwise.
    NaN when the vector is not finite."""
    box = spec.box_bounds
    if box is not None:
        return float(np.max(np.maximum(box[0] - flat, flat - box[1]), initial=0.0))
    if not np.isfinite(flat).all():
        return math.nan
    return float(np.max(np.abs(project_nodes(spec, flat) - flat), initial=0.0))


# ---------------------------------------------------------------------------
# one-step updates
# ---------------------------------------------------------------------------

def primal_step(spec: ProblemSpec, state: SaddleState, xs_eval, ths_eval, hp: Hyperparams,
                seeds=None):
    """Projected descent step from the current x with gradients at the
    resolved (possibly stale) points xs_eval/ths_eval, as ``spec.rows``.

    Raises NonFiniteState naming step ``state.t`` and the first node whose
    update holds NaN or inf; with ``seeds``, one per lane of a tiled
    problem (``ProblemSpec.tile``), also that node's seed."""
    grads = primal_gradient(spec, state.lam, xs_eval, ths_eval)
    u = stack(state.x) - hp.epsilon * stack(grads)
    finite = np.isfinite(u)
    if not finite.all():
        node = spec.node_of(int(np.argmin(finite)))
        where = f"step {state.t}, node {node}"
        if seeds is not None:
            lane, node = divmod(node, spec.graph.n_nodes // len(seeds))
            where = f"seed {seeds[lane]}, step {state.t}, node {node}"
        raise NonFiniteState(f"non-finite primal update at {where}")
    return spec.rows(project_nodes(spec, u))


def dual_step(state: SaddleState, slack, hp: Hyperparams) -> np.ndarray:
    """Regularized ascent on the duals with the given stacked slack, clipped at 0."""
    shrink = 1.0 - hp.epsilon**2 * hp.delta
    return np.maximum(shrink * state.lam + hp.epsilon * slack, 0.0)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class SaddleEngine:
    """Stateful iteration driver: construct, then step() / run(T) / trace().

    All randomness flows from the single 64-bit ``seed``: observations are
    drawn for all nodes in blocks of OBS_BLOCK steps (``observation_block``),
    and ``sample_observation`` replays any single one. Passing
    ``schedule=None`` selects the reference synchronous loop (no buffers, no
    staleness resolution); a zero schedule exercises the asynchronous
    machinery and produces the identical trajectory.

    Lanes: with a sequence of seeds and one schedule (or None) per seed, the
    engine steps every seed's run at once as the lanes of one problem of S
    copies (``ProblemSpec.tile``): the stacked x and lam are (S, C) and
    (S, M) arrays laid out lane after lane, each lane with its own
    observation blocks, delay schedule and staleness-buffer rows. ``traces()`` gives each lane's RunTrace, equal
    byte for byte to the run of that seed alone; a None schedule in a bundle
    with stale lanes runs as a zero-delay lane, which is the same trajectory.
    ``state`` and the hooks then see the state of the tiled problem.
    """

    def __init__(self, spec: ProblemSpec, hp: Hyperparams, schedule, seed,
                 hooks=(), evaluator=None, eval_every: int = 1,
                 thin_every: int = 50, record_current_slack: bool = True):
        self.spec = spec
        self.hp = hp
        self.schedule = schedule
        self.seed = seed
        self.hooks = tuple(hooks)
        self.evaluator = evaluator
        self.eval_every = eval_every if evaluator is not None else 0
        self.thin_every = thin_every

        seeds = list(seed) if np.ndim(seed) else [seed]
        schedules = list(schedule) if np.ndim(seed) else [schedule]
        if len(schedules) != len(seeds):
            raise ValueError(f"{len(schedules)} schedules for {len(seeds)} seeds")
        self.seeds = seeds
        self._lanes = S = len(seeds)
        self._modes = ["sync" if sch is None else "async" for sch in schedules]
        self._tau_bounds = [0 if sch is None else sch.tau_max for sch in schedules]
        # a bundle with any stale lane resolves every lane; a sync lane is a
        # zero-delay lane there
        self._schedules = None
        if any(sch is not None for sch in schedules):
            self._schedules = [DelaySchedule() if sch is None else sch for sch in schedules]
        self.mode = "sync" if self._schedules is None else "async"
        self._tiled = tiled = spec.tile(S)

        n = spec.graph.n_nodes
        T = hp.T
        self._n = n
        self._n_cons = n_cons = spec.constraints.size
        self._n_coords = int(spec.offsets[-1])
        self.tau_bound = max(self._tau_bounds)
        self._nodes = np.arange(n)
        # node of every stacked coordinate of the tiled problem: a stale read
        # of x (and of the per-coordinate observation leaves) gathers each
        # coordinate at its node's resolved time
        self._coord_node = np.repeat(np.arange(S * n), tiled.dims)
        self._prev_resolved = np.zeros((S, n), dtype=int)
        self._block_id = -1
        self._block = None
        self._x_buf = self._th_buf = None

        self.state = SaddleState(x=tiled.rows(stack(tiled.x0).copy()),
                                 lam=np.zeros(S * n_cons), t=0)

        self._F_hat = np.full((S, T + 1), np.nan)
        self._F_evaluated = np.zeros(T + 1, dtype=bool)
        self._obj_sample = np.zeros((S, T))
        self._lambda_norm = np.zeros((S, T + 1))
        self._lambda_min = np.zeros((S, T + 1))
        self._delayed_slack = np.zeros((T, S, n_cons))
        self._current_slack = np.zeros((T, S, n_cons)) if record_current_slack else None
        self._resolved = np.zeros((T, S, n), dtype=int)
        self._staleness = np.zeros((T, S, n), dtype=int)
        self._snapshots = [{} for _ in range(S)]
        self._domain_residual = [0.0] * S

        self._record_row(0)
        for hook in self.hooks:
            hook(0, self.state)

    # -- recording ---------------------------------------------------------

    def _lane_x(self, s: int) -> np.ndarray:
        """Lane s's stacked iterate: a view into the tiled one."""
        c = self._n_coords
        return stack(self.state.x)[s * c:(s + 1) * c]

    def _record_row(self, t):
        lam = self.state.lam.reshape(self._lanes, self._n_cons)
        for s in range(self._lanes):
            # one 1-D norm per lane: the norm of a 2-D array's rows adds differently
            self._lambda_norm[s, t] = float(np.linalg.norm(lam[s]))
        self._lambda_min[:, t] = lam.min(axis=1, initial=0.0)
        if self.eval_every and (t % self.eval_every == 0 or t == self.hp.T):
            for s in range(self._lanes):
                self._F_hat[s, t] = self.evaluator.value(self.spec.rows(self._lane_x(s)))
            self._F_evaluated[t] = True
        if self.thin_every and (t % self.thin_every == 0 or t == self.hp.T):
            for s in range(self._lanes):
                flat = self._lane_x(s)
                self._snapshots[s][t] = flat.copy()
                # np.maximum keeps a NaN residual where the builtin max would drop it
                self._domain_residual[s] = float(np.maximum(self._domain_residual[s],
                                                            domain_residual(self.spec, flat)))

    # -- iteration ---------------------------------------------------------

    def _observations(self, k: int) -> NodeObservations:
        """Every node's observation of step k, from the block holding it; the
        lanes' blocks side by side along the node (or coordinate) axis."""
        block, row = divmod(k, OBS_BLOCK)
        if block != self._block_id:
            blocks = [observation_block(self.spec, seed, block) for seed in self.seeds]
            self._block = blocks[0] if self._lanes == 1 else tree_map(
                lambda *leaves: np.concatenate(leaves, axis=1), *blocks)
            self._block_id = block
        return NodeObservations(tree_map(lambda leaf: leaf[row], self._block), self._tiled.obs_offsets)

    def _stale_window(self, k: int, x, theta: NodeObservations):
        """Record step k's iterate and observations, and return every node's
        iterate and observation at its resolved time, with those times."""
        res = np.empty_like(self._prev_resolved)
        for s, schedule in enumerate(self._schedules):
            res[s] = resolve(schedule, k, self._nodes, self._prev_resolved[s])
        self._prev_resolved = res
        res = res.reshape(-1)
        flat = stack(x)
        if self._x_buf is None:
            depth = self.tau_bound + 1
            self._x_buf = StackedBuffer(depth, flat)
            self._th_buf = tree_map(lambda leaf: StackedBuffer(depth, leaf), theta.leaves)
        self._x_buf.record(k, flat)
        tree_map(lambda buf, leaf: buf.record(k, leaf), self._th_buf, theta.leaves)
        res_coord = res[self._coord_node]
        n_nodes = res.size
        xs_eval = self._tiled.rows(self._x_buf.fetch(res_coord))
        ths_eval = NodeObservations(
            tree_map(lambda buf: buf.fetch(res if buf.width == n_nodes else res_coord), self._th_buf),
            self._tiled.obs_offsets)
        return xs_eval, ths_eval, res

    def step(self) -> SaddleState:
        """Advance one iteration; raises past the configured horizon."""
        spec, hp = self._tiled, self.hp
        S, n, m = self._lanes, self._n, self._n_cons
        k = self.state.t
        if k >= hp.T:
            raise IndexError(f"horizon T={hp.T} exhausted")
        x = self.state.x
        theta = self._observations(k)

        if self._schedules is not None:
            xs_eval, ths_eval, res_k = self._stale_window(k, x, theta)
        else:
            xs_eval, ths_eval, res_k = x, theta, k

        s_delayed = dual_slack(spec, xs_eval, ths_eval)
        new_x = primal_step(spec, self.state, xs_eval, ths_eval, hp, seeds=self.seeds)
        new_lam = dual_step(self.state, s_delayed, hp)

        self._obj_sample[:, k] = objective_sum(spec, x, theta, lanes=S)
        self._delayed_slack[k] = s_delayed.reshape(S, m)
        if self._current_slack is not None:
            # every lane's slack again when any lane is stale: a fresh lane's
            # comes out equal to its delayed one
            if self._schedules is not None and (res_k != k).any():
                self._current_slack[k] = dual_slack(spec, x, theta).reshape(S, m)
            else:
                self._current_slack[k] = s_delayed.reshape(S, m)
        if self._schedules is not None:
            res_k = res_k.reshape(S, n)
        self._resolved[k] = res_k
        self._staleness[k] = k - res_k

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

    def traces(self) -> list:
        """Every lane's history up to the current iteration, in seed order."""
        t = self.state.t
        m = self._n_cons
        out = []
        for s, seed in enumerate(self.seeds):
            cur = self._current_slack[:t, s].copy() if self._current_slack is not None else None
            out.append(RunTrace(
                name=self.spec.name, seed=seed, T=t, n_nodes=self._n,
                tau_bound=self._tau_bounds[s], mode=self._modes[s],
                F_hat=self._F_hat[s, :t + 1].copy(), obj_sample=self._obj_sample[s, :t].copy(),
                lambda_norm=self._lambda_norm[s, :t + 1].copy(),
                lambda_min=self._lambda_min[s, :t + 1].copy(),
                delayed_slack=self._delayed_slack[:t, s].copy(), current_slack=cur,
                resolved=self._resolved[:t, s].copy(), staleness=self._staleness[:t, s].copy(),
                x_snapshots=dict(self._snapshots[s]), x_final=self.spec.rows(self._lane_x(s).copy()),
                lam_final=self.state.lam[s * m:(s + 1) * m].copy(),
                domain_residual_max=self._domain_residual[s],
                F_evaluated=self._F_evaluated[:t + 1].copy(),
            ))
        return out

    def trace(self) -> RunTrace:
        """Snapshot of the history up to the current iteration (one lane)."""
        if self._lanes != 1:
            raise ValueError(f"the engine runs {self._lanes} lanes; use traces()")
        return self.traces()[0]


def run_lanes(spec: ProblemSpec, hp: Hyperparams, schedules, seeds, hooks=(), evaluator=None,
              eval_every: int = 1, thin_every: int = 50,
              record_current_slack: bool = True) -> list:
    """Run every seed with its schedule (None: synchronous) as the lanes of
    one engine; one RunTrace per seed, each equal byte for byte to ``run``
    of that seed alone. ``evaluator`` scores each lane on its own."""
    engine = SaddleEngine(spec, hp, list(schedules), list(seeds), hooks=hooks,
                          evaluator=evaluator, eval_every=eval_every, thin_every=thin_every,
                          record_current_slack=record_current_slack)
    return engine.run().traces()


def run(spec: ProblemSpec, hp: Hyperparams, schedule: DelaySchedule | None, seed: int,
        hooks=(), evaluator=None, eval_every: int = 1, thin_every: int = 50,
        record_current_slack: bool = True) -> RunTrace:
    """Execute T iterations of the asynchronous method; deterministic given seed.

    Each iteration takes every node's observation of that step, resolves
    per-node staleness (monotone, bounded by the schedule), then commits the
    primal and dual steps computed from the time-t state (Jacobi order).
    ``evaluator`` supplies the Monte Carlo objective recorded in the trace
    every ``eval_every`` rows. ``schedule=None`` runs the synchronous
    reference loop. The one-lane case of ``run_lanes``.
    """
    return run_lanes(spec, hp, [schedule], [seed], hooks=hooks, evaluator=evaluator,
                     eval_every=eval_every, thin_every=thin_every,
                     record_current_slack=record_current_slack)[0]


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

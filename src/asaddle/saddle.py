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

from .delay import DelaySchedule, resolve
from .errors import DegenerateEstimates, DimensionMismatch, NoFeasibleDelta, NonFiniteState, OutOfWindow
from .graph import NetworkGraph
from .problem import (OBS_BLOCK, NodeObservations, ProblemSpec, lane_copies, objective_grads,
                      objective_sum, observation_block, project)
# replays one node's row of the engine's observation stream; kept in this
# namespace, where bench/run_bench.py looks it up
from .problem import sample_observation  # noqa: F401
from .trace import RunTrace, running_violation

__all__ = [
    "Hyperparams",
    "SaddleState",
    "SaddleEngine",
    "AdvisorConstants",
    "stochastic_lagrangian",
    "primal_gradient",
    "dual_slack",
    "primal_step",
    "dual_step",
    "project_nodes",
    "domain_residual",
    "run",
    "run_lanes",
    "advise",
]


@dataclass(frozen=True)
class Hyperparams:
    """Step size, dual regularizer and horizon; the delay bound is the schedule's."""

    epsilon: float
    delta: float
    T: int

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        shrink = 1.0 - self.epsilon**2 * self.delta
        if not 0.0 < shrink <= 1.0:
            raise ValueError("(1 - epsilon^2 delta) must lie in (0, 1]")
        if self.T < 0:
            raise ValueError("T must be >= 0")


@dataclass
class SaddleState:
    """Stacked primal iterate and nonnegative dual vector at time t.

    ``x`` is one (C,) vector, every node's coordinates in node order
    (``ProblemSpec.offsets``). ``lam`` is one (M,) array laid out like the
    stacked slack: each owner node's constraints in turn, in node order. An
    engine of S lanes holds the state of its tiled problem
    (``ProblemSpec.tile``), lane after lane: x is (S*C,) and lam (S*M,).
    """

    x: np.ndarray
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


def primal_gradient(spec: ProblemSpec, lam, x_eval, ths_eval) -> np.ndarray:
    """Stacked (C,) gradient of the sampled Lagrangian in x, at possibly stale points.

    ``lam`` is the current (undelayed) dual vector; the stacked x_eval and
    the ``NodeObservations`` ths_eval are already resolved to each node's
    own stale time.
    """
    grads = objective_grads(spec, x_eval, ths_eval)
    return spec.constraints.add_jt_lam(grads, lam, x_eval, ths_eval)


def dual_slack(spec: ProblemSpec, x_eval, ths_eval) -> np.ndarray:
    """Stacked (M,) constraint slack at the given (possibly stale) points."""
    return spec.constraints.slack(x_eval, ths_eval)


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

def primal_step(spec: ProblemSpec, state: SaddleState, x_eval, ths_eval, hp: Hyperparams,
                seeds=None) -> np.ndarray:
    """Projected descent step from the current stacked x with gradients at
    the resolved (possibly stale) stacked point x_eval and
    ``NodeObservations`` ths_eval; returns the new stacked iterate.

    Raises NonFiniteState naming step ``state.t`` and the first node whose
    update holds NaN or inf; with ``seeds``, one per lane of a tiled
    problem (``ProblemSpec.tile``), also that node's seed."""
    grads = primal_gradient(spec, state.lam, x_eval, ths_eval)
    u = state.x - hp.epsilon * grads
    finite = np.isfinite(u)
    if not finite.all():
        node = spec.node_of(int(np.argmin(finite)))
        where = f"step {state.t}, node {node}"
        if seeds is not None:
            lane, node = divmod(node, spec.graph.n_nodes // len(seeds))
            where = f"seed {seeds[lane]}, step {state.t}, node {node}"
        raise NonFiniteState(f"non-finite primal update at {where}")
    return project_nodes(spec, u)


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
    and ``sample_observation`` replays any single one. All staleness state
    is one window on the global clock: the current block and the
    ceil(tau/OBS_BLOCK) blocks before it, time t at row t mod its depth, of
    every flat observation leaf and of the stacked iterate, both read by
    index at (resolved time mod depth, node or coordinate). Passing
    ``schedule=None`` selects the reference synchronous loop (a window of
    one block, no staleness resolution); a zero schedule exercises the
    asynchronous machinery and produces the identical trajectory.

    Lanes: with a sequence of seeds and one schedule (or None) per seed, the
    engine steps every seed's run at once as the lanes of one problem of S
    copies (``ProblemSpec.tile``): the stacked x and lam are (S*C,) and
    (S*M,) vectors laid out lane after lane, each lane with its own
    observation blocks, delay schedule, and columns of the window.
    ``traces()`` gives each lane's RunTrace, equal byte for byte to the run
    of that seed alone; a None schedule in a bundle with stale lanes runs as
    a zero-delay lane, which is the same trajectory.
    ``state`` and the hooks then see the state of the tiled problem.

    Recording is by block: ``step`` makes the update and writes x_k, lambda_k
    and its delayed slack into the window; ``_record`` records a block's rows
    and reduces its steps, one call per record, when the next block starts
    and when ``traces()`` is read, so a run keeps a few numbers per step.
    """

    def __init__(self, spec: ProblemSpec, hp: Hyperparams, schedule, seed,
                 hooks=(), evaluator=None, thin_every: int = 50,
                 record_current_slack: bool = False):
        self.spec = spec
        self.hp = hp
        self.hooks = tuple(hooks)
        self.evaluator = evaluator
        self.thin_every = thin_every

        seeds = list(seed) if np.ndim(seed) else [seed]
        schedules = list(schedule) if np.ndim(seed) else [schedule]
        if len(schedules) != len(seeds):
            raise ValueError(f"{len(schedules)} schedules for {len(seeds)} seeds")
        n = spec.graph.n_nodes
        for sch, sd in zip(schedules, seeds):
            covered = None if sch is None else sch.covered_nodes()
            if covered is not None and covered < n:
                raise DimensionMismatch(f"seed {sd}: {sch.kind} delays for {covered} of {n} nodes")
        self.seeds = seeds
        self._lanes = S = len(seeds)
        self._modes = ["sync" if sch is None else "async" for sch in schedules]
        self._tau_bounds = [0 if sch is None else sch.tau_max for sch in schedules]
        # a bundle with any stale lane resolves every lane (``_res_window``); a
        # sync lane is a zero-delay lane there
        self._schedules = [DelaySchedule() if sch is None else sch for sch in schedules]
        self._tiled = tiled = spec.tile(S)

        T = hp.T
        self._n = n
        self._n_cons = n_cons = spec.constraints.size
        self._n_coords = int(spec.offsets[-1])
        # node of every stacked coordinate of the tiled problem: a stale read
        # of x (and of the per-coordinate observation leaves) gathers each
        # coordinate at its node's resolved time
        self._coord_node = np.repeat(np.arange(S * n), tiled.dims)
        self._node_cols, self._coord_cols = np.arange(S * n), np.arange(S * self._n_coords)
        # the staleness window, time t at row t mod _depth: the current block and the ceil(tau/OBS_BLOCK)
        # before it, of every observation leaf and of x; the block's duals; the first row not yet recorded
        self._depth = OBS_BLOCK * (1 + -(-max(self._tau_bounds) // OBS_BLOCK))
        self._window = None
        self._x_window = np.empty((self._depth, S * self._n_coords))
        self._lam_window = np.empty((OBS_BLOCK, S * n_cons))
        self._recorded = 0

        self.state = SaddleState(x=np.concatenate(tiled.x0),
                                 lam=np.zeros(S * n_cons), t=0)

        self._F_hat = None if evaluator is None else np.full((S, T + 1), np.nan)
        self._obj_sample = np.zeros((S, T))
        self._lambda_norm = np.zeros((S, T + 1))
        self._lambda_min = np.zeros((S, T + 1))
        self._violation = np.zeros((S, T))
        self._max_staleness = np.zeros((S, T), dtype=int)
        self._current_slack = np.zeros((T, S, n_cons)) if record_current_slack else None
        # the block's delayed slacks, the running slack sum before them (from -0.0, which adds as the
        # identity) and, async only, the block's resolved times after those of the step before it
        self._slack_window = np.empty((OBS_BLOCK, S * n_cons))
        self._slack_sum = np.full((S, n_cons), -0.0)
        self._res_window = np.zeros((OBS_BLOCK + 1, S, n), dtype=int) if any(schedules) else None
        self._monotone = np.ones(S, dtype=bool)
        self._finite = np.ones(S, dtype=bool)
        self._snapshots = [{} for _ in range(S)]
        self._domain_residual = [0.0] * S

        for hook in self.hooks:
            hook(0, self.state)

    # -- recording ---------------------------------------------------------

    def _record_rows(self, a: int, x: np.ndarray, lam: np.ndarray) -> None:
        """Record rows a, a+1, ... of every lane from their tiled iterates
        x (B, S*C) and duals lam (B, S*M)."""
        B, S, end = len(x), self._lanes, a + len(x)
        lam = lam.reshape(B, S, self._n_cons)
        # a dot product per row and lane, as np.linalg.norm of the lane's 1-D vector
        self._lambda_norm[:, a:end] = np.sqrt(np.vecdot(lam, lam)).T
        self._lambda_min[:, a:end] = np.minimum.reduce(lam, axis=2, initial=0.0).T
        if self.evaluator is not None:
            self._F_hat[:, a:end] = self.evaluator.values(x.reshape(B * S, -1)).reshape(B, S).T
        c, thin = self._n_coords, self.thin_every
        for t in range(a, end):
            if not thin or (t % thin and t != self.hp.T):
                continue
            for s in range(S):
                flat = x[t - a, s * c:(s + 1) * c]
                self._snapshots[s][t] = flat.copy()
                # np.maximum keeps a NaN residual where the builtin max would drop it
                self._domain_residual[s] = float(np.maximum(self._domain_residual[s],
                                                            domain_residual(self.spec, flat)))

    def _record(self, end: int) -> None:
        """Record the rows and steps from the first unrecorded one up to ``end``, all of one block, from
        views of the window, reducing the block's slacks and resolved times as it goes."""
        a = self._recorded
        if end <= a:
            return
        B, row, S, i = end - a, a % self._depth, self._lanes, a % OBS_BLOCK
        x = self._x_window[row:row + B]
        self._record_rows(a, x, self._lam_window[i:i + B])
        leaves = [rows[row:row + B] for rows in self._window]
        # (B, S, ...): the lanes as a leading axis of the solo problem
        theta = NodeObservations([leaf.reshape((B, S, -1) + leaf.shape[2:]) for leaf in leaves],
                                 self.spec.obs_offsets)
        self._obj_sample[:, a:end] = objective_sum(self.spec, x.reshape(B, S, -1), theta).T
        slack = self._slack_window[i:i + B].reshape(B, S, -1)
        clipped, self._slack_sum = running_violation(slack, self._slack_sum)
        self._violation[:, a:end] = clipped.sum(axis=2).T
        self._finite &= np.isfinite(slack).all(axis=(0, 2))
        if self._res_window is not None:
            res = self._res_window[i:i + B + 1]
            self._monotone &= (np.diff(res, axis=0) >= 0).all(axis=(0, 2))
            self._max_staleness[:, a:end] = (np.arange(a, end)[:, None] - res[1:].min(axis=2)).T
        fresh = self._current_slack
        if fresh is not None and self._res_window is None:  # a synchronous step's slack is at the fresh pair
            fresh[a:end] = slack
        elif fresh is not None:
            offsets = None if self.spec.uniform else np.append(
                lane_copies(B * S, self.spec.offsets[:-1], self._n_coords), B * S * self._n_coords)
            block = NodeObservations([leaf.reshape((-1,) + leaf.shape[2:]) for leaf in leaves], offsets)
            family = self.spec.constraints.tile(B * S)  # the block's steps as copies of every lane
            fresh[a:end] = family.slack(x.reshape(-1), block).reshape(B, S, -1)
            self._finite &= np.isfinite(fresh[a:end]).all(axis=(0, 2))
        self._recorded = end

    # -- iteration ---------------------------------------------------------

    def _next_block(self, k: int) -> None:
        """Step k starts a block: write every lane's observations of its steps
        into the window (a window of one block is the block itself) and, when
        any lane is stale, resolve every lane's delays for them, check them
        against the window, which holds every time from ``_depth`` - OBS_BLOCK
        before the block on."""
        depth = self._depth
        leaves = observation_block(self.spec, self.seeds, k // OBS_BLOCK)
        if depth == OBS_BLOCK:
            self._window = leaves
        else:
            self._window = self._window or [np.empty((depth,) + a.shape[1:], a.dtype) for a in leaves]
            for rows, leaf in zip(self._window, leaves):
                rows[k % depth:k % depth + OBS_BLOCK] = leaf
        res = self._res_window
        if res is None:
            return
        steps = np.arange(k, min(k + OBS_BLOCK, self.hp.T))
        res[0] = res[-1]  # step k - 1, the last of the block before (recorded by now)
        for s, schedule in enumerate(self._schedules):
            res[1:1 + len(steps), s] = resolve(schedule, steps, np.arange(self._n), res[0, s])
        first, base = res[1:1 + len(steps)].min(), k + OBS_BLOCK - depth
        if first < base:
            raise OutOfWindow(f"time {first} before the observation window at {base}")

    def _stale_window(self, k: int):
        """Every node's iterate and observation at its resolved time of step
        k, read from the window by index at row (resolved time mod
        ``_depth``) and node or coordinate."""
        res = self._res_window[k % OBS_BLOCK + 1].reshape(-1)
        at_node = (res % self._depth, self._node_cols)
        at_coord = (res[self._coord_node] % self._depth, self._coord_cols)
        ths_eval = NodeObservations(
            [rows[at_node if rows.shape[1] == res.size else at_coord] for rows in self._window],
            self._tiled.obs_offsets)
        return self._x_window[at_coord], ths_eval

    def step(self) -> SaddleState:
        """Advance one iteration; raises past the configured horizon. A block's
        first step records the block before it."""
        spec, hp = self._tiled, self.hp
        k = self.state.t
        if k >= hp.T:
            raise IndexError(f"horizon T={hp.T} exhausted")
        if k % OBS_BLOCK == 0:
            self._record(k)
            self._next_block(k)
        x, row = self.state.x, k % self._depth
        self._x_window[row] = x
        self._lam_window[k % OBS_BLOCK] = self.state.lam
        if self._res_window is None:
            x_eval, ths_eval = x, NodeObservations([rows[row] for rows in self._window], spec.obs_offsets)
        else:
            x_eval, ths_eval = self._stale_window(k)

        s_delayed = dual_slack(spec, x_eval, ths_eval)
        new_x = primal_step(spec, self.state, x_eval, ths_eval, hp, seeds=self.seeds)
        new_lam = dual_step(self.state, s_delayed, hp)
        self._slack_window[k % OBS_BLOCK] = s_delayed

        self.state = SaddleState(x=new_x, lam=new_lam, t=k + 1)
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
        self._record(t)
        # row t from the state: its step's block pass records the same bits again
        self._record_rows(t, self.state.x[None], self.state.lam[None])
        m, lanes_x = self._n_cons, self.state.x.reshape(self._lanes, -1)
        out = []
        for s, seed in enumerate(self.seeds):
            cur = self._current_slack[:t, s].copy() if self._current_slack is not None else None
            out.append(RunTrace(
                name=self.spec.name, seed=seed, T=t, n_nodes=self._n,
                tau_bound=self._tau_bounds[s], mode=self._modes[s],
                F_hat=None if self._F_hat is None else self._F_hat[s, :t + 1].copy(),
                obj_sample=self._obj_sample[s, :t].copy(),
                lambda_norm=self._lambda_norm[s, :t + 1].copy(),
                lambda_min=self._lambda_min[s, :t + 1].copy(),
                violation_cumclip=self._violation[s, :t].copy(),
                max_staleness=self._max_staleness[s, :t].copy(),
                staleness_monotone=bool(self._monotone[s]),
                slack_finite=bool(self._finite[s]),
                current_slack=cur,
                x_snapshots=dict(self._snapshots[s]), x_final=self.spec.rows(lanes_x[s].copy()),
                lam_final=self.state.lam[s * m:(s + 1) * m].copy(),
                domain_residual_max=self._domain_residual[s],
            ))
        return out

    def trace(self) -> RunTrace:
        """Snapshot of the history up to the current iteration (one lane)."""
        if self._lanes != 1:
            raise ValueError(f"the engine runs {self._lanes} lanes; use traces()")
        return self.traces()[0]


def run_lanes(spec: ProblemSpec, hp: Hyperparams, schedules, seeds, hooks=(), evaluator=None,
              thin_every: int = 50, record_current_slack: bool = False) -> list:
    """Run every seed with its schedule (None: synchronous) as the lanes of
    one engine; one RunTrace per seed, each equal byte for byte to ``run``
    of that seed alone. ``evaluator`` scores the rows of every lane in
    blocks, each row as it would alone."""
    engine = SaddleEngine(spec, hp, list(schedules), list(seeds), hooks=hooks,
                          evaluator=evaluator, thin_every=thin_every,
                          record_current_slack=record_current_slack)
    return engine.run().traces()


def run(spec: ProblemSpec, hp: Hyperparams, schedule: DelaySchedule | None, seed: int,
        hooks=(), evaluator=None, thin_every: int = 50,
        record_current_slack: bool = False) -> RunTrace:
    """Execute T iterations of the asynchronous method; deterministic given seed.

    Each iteration takes every node's observation of that step, resolves
    per-node staleness (monotone, bounded by the schedule), then commits the
    primal and dual steps computed from the time-t state (Jacobi order).
    ``evaluator`` (an ``ExpectedObjective``), when given, supplies the
    objective recorded in the trace at every row. ``schedule=None`` runs the
    synchronous reference loop. The one-lane case of ``run_lanes``.
    """
    return run_lanes(spec, hp, [schedule], [seed], hooks=hooks, evaluator=evaluator,
                     thin_every=thin_every, record_current_slack=record_current_slack)[0]


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
    diagnostic: practical runs typically use a much smaller value. Raises
    DegenerateEstimates when an estimate is not positive (a network without
    constraints has no constraint moments).
    """
    sf2, sh2, sl2, Lf = (
        float(estimates.sigma_f2), float(estimates.sigma_h2),
        float(estimates.sigma_lambda2), float(estimates.L_f),
    )
    if not all(v > 0 for v in (sf2, sh2, sl2, Lf)):  # NaN fails too
        raise DegenerateEstimates(
            f"moment estimates must be positive: sigma_f2={sf2:.6g}, sigma_h2={sh2:.6g}, "
            f"sigma_lambda2={sl2:.6g}, L_f={Lf:.6g}")
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
    return Hyperparams(epsilon=eps, delta=delta, T=T), constants


def _k4(delta, eps, C):
    return 2.0 * (delta**2 * eps**2) + C

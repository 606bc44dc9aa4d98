"""Reference forms the engine is checked against.

Per-node constraints: the engine reaches a constraint family only through
its lane kernels (``ConstraintFamily.from_symmetric_pairwise`` and
pricing's ``from_lane_kernels``). This module keeps the literal per-node
form of the paper's update as the oracle those kernels are checked against:
node k owns a ``NeighborhoodConstraint``, a block of slack entries over its
closed neighborhood with their Jacobians, and J^T lam loops over every
node's closed neighborhood and multiplies the owners' Jacobians. Its kernels
take the stacked iterate and observations the engine passes and split them
per node themselves.

Per-key generators: the engine keys every observation, delay and
evaluation stream of a block in one bulk hash (``keyed_generators``) and
draws each sampler group's nodes in one ``Sampler.batch`` call.
``seedsequence_generators`` builds each key's generator on its own with
``default_rng(SeedSequence(key))``, and the ``per_key_*`` functions draw
from them one node and one lane at a time, each node as ``node_draws``
draws it (the apps' per-node draws, written out here), as the oracle of
the bulk keying and of the group draws. ``observation_rows`` draws each
such block once and indexes its rows, for oracles that replay many steps.

Per-step recording: the engine records a block of steps at a time and
keeps reductions of its slacks and resolved times; ``per_step_traces``
recomputes every record of a run one row and one step at a time, from
public calls, with the dense per-step arrays it reduces, as the oracle of
that block pass. ``capture_records`` collects the engine's own per-step
slacks and per-block resolved times while it runs.

Tuple graphs and per-node layouts: ``build_graph`` works on index arrays
and a tile of a problem derives its layout from the problem's. ``TupleGraph``
(``tuple_graph``, ``tuple_disjoint_copies``) builds a graph as sorted tuples
by a loop over the edges, and ``per_node_tile_layout`` computes a tile's
layout by walking every node of every copy, as the oracles of both.
"""

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from types import SimpleNamespace

import numpy as np

import asaddle.saddle
from asaddle.apps.pricing import PricingConfig
from asaddle.delay import _CHUNK, _DELAY_STREAM, resolve
from asaddle.graph import NetworkGraph, closed_neighborhood
from asaddle.errors import DisconnectedGraph, SelfLoop
from asaddle.metrics import delayed_violation
from asaddle.problem import (_EVAL_STREAM, _OBS_STREAM, OBS_BLOCK, ConstraintFamily, NodeObservations,
                             ObjectiveGroup, ProblemSpec, _row_layout, objective_sum, sample_rows,
                             stack_leaves)
from asaddle.saddle import SaddleEngine, domain_residual
from asaddle.trace import RunTrace


@dataclass(frozen=True)
class NeighborhoodConstraint:
    """Vector slack function owned by one node over its closed neighborhood.

    value(xs, ths) -> array of length ``size``; jacobian(wrt, xs, ths) ->
    (size, dim(wrt)) matrix. ``xs`` and ``ths`` are indexed by node id and
    cover at least the owner's closed neighborhood. At nondifferentiable
    points the jacobian must return a valid subgradient.
    """

    size: int
    value: callable = None
    jacobian: callable = None


def observations(ths, offsets=None) -> NodeObservations:
    """Per-node observations ``ths`` stacked leaf by leaf, as the engine
    passes them (``offsets`` as ``ProblemSpec.obs_offsets``)."""
    return NodeObservations(stack_leaves(list(ths), axis=0), offsets)


def node_observations(obs: NodeObservations, n: int) -> list:
    """Node i's observation of ``obs`` over n nodes, for every i: a leaf with
    a row per node gives its rows, one with a row per coordinate splits at
    ``obs.offsets``."""
    if not obs.leaves:
        return [()] * n
    o = obs.offsets
    return list(zip(*[list(leaf) if o is None or len(leaf) == n else np.split(leaf, o[1:-1])
                      for leaf in obs.leaves]))


def from_per_node(graph: NetworkGraph, per_node, dims) -> ConstraintFamily:
    """Stack one NeighborhoodConstraint per node of dimension ``dims`` (an
    int, or one per node); J^T lam loops over each node's closed
    neighborhood and multiplies the owners' Jacobians. The kernels take the
    stacked x and a ``NodeObservations`` and split them per node. Its
    ``tile`` evaluates the copies one at a time."""
    per_node = tuple(per_node)
    n = graph.n_nodes
    assert len(per_node) == n, "need one NeighborhoodConstraint per node"
    dims = (dims,) * n if np.ndim(dims) == 0 else tuple(dims)
    cuts = list(accumulate(dims))[:-1]  # where the stacked x splits per node
    offsets = list(accumulate((c.size for c in per_node), initial=0))
    blocks = [slice(offsets[k], offsets[k + 1]) for k in range(n)]
    owned = [con for con in per_node if con.size]
    # per node i: the nonempty blocks whose owner k is in i's closed neighborhood
    reach = [[(per_node[k], blocks[k]) for k in closed_neighborhood(graph, i)
              if per_node[k].size] for i in range(n)]

    def slack(x, obs):
        if not owned:
            return np.zeros(0)
        xs, ths = np.split(x, cuts), node_observations(obs, n)
        return np.concatenate([con.value(xs, ths) for con in owned])

    def add_jt_lam(grads, lam, x, obs):
        xs, ths = np.split(x, cuts), node_observations(obs, n)
        out = []
        for i, acc in enumerate(np.split(grads, cuts)):
            for con, block in reach[i]:
                lam_k = lam[block]
                if not lam_k.any():
                    continue
                acc = acc + np.asarray(con.jacobian(i, xs, ths), dtype=float).T @ lam_k
            out.append(acc)
        return np.concatenate(out)

    def tile(lanes):
        return _lane_by_lane(family, n, sum(dims), lanes)

    family = ConstraintFamily(offsets[-1], slack, add_jt_lam, tile)
    return family


def _lane_by_lane(family: ConstraintFamily, n: int, c: int, lanes: int) -> ConstraintFamily:
    """``lanes`` copies of ``family`` (over n nodes and c coordinates each),
    laid out one after the other, evaluated one copy at a time on its
    entries of the tiled x, observations and gradients."""
    m = family.size

    def lane(s, flat):
        return flat[s * c:(s + 1) * c]

    def lane_obs(s, obs):
        # a leaf with a row per node, or per coordinate; one copy's offsets
        # start the tiled problem's
        offsets = None if obs.offsets is None else obs.offsets[:n + 1]
        return NodeObservations([leaf[s * n:(s + 1) * n] if len(leaf) == lanes * n else lane(s, leaf)
                                 for leaf in obs.leaves], offsets)

    def slack(x, obs):
        return np.concatenate([family.slack(lane(s, x), lane_obs(s, obs)) for s in range(lanes)])

    def add_jt_lam(grads, lam, x, obs):
        return np.concatenate([family.add_jt_lam(lane(s, grads), lam[s * m:(s + 1) * m],
                                                 lane(s, x), lane_obs(s, obs))
                               for s in range(lanes)])

    return ConstraintFamily(lanes * m, slack, add_jt_lam,
                            tile=lambda k: _lane_by_lane(family, n, c, lanes * k))


def no_constraints(graph: NetworkGraph) -> ConstraintFamily:
    """The family of a problem without constraints."""
    return ConstraintFamily.from_lane_kernels(
        0, lambda lanes: (lambda x, obs: np.zeros(0), lambda grads, lam, x, obs: grads))


# ---------------------------------------------------------------------------
# the shipped apps' constraints, one node at a time
# ---------------------------------------------------------------------------

def pairwise_block(i, nbr_gammas, value, grad_first) -> NeighborhoodConstraint:
    """Node i's entries value(x_i, x_j, th_i, th_j) - gamma_ij, one per
    neighbor j in ``nbr_gammas`` ((j, gamma_ij) pairs)."""
    def slack(xs, ths):
        return np.array([value(xs[i], xs[j], ths[i], ths[j]) - g for j, g in nbr_gammas])

    def jacobian(wrt, xs, ths):
        rows = []
        for j, _ in nbr_gammas:
            if wrt == i:
                rows.append(grad_first(xs[i], xs[j], ths[i], ths[j]))
            elif wrt == j:
                rows.append(grad_first(xs[j], xs[i], ths[j], ths[i]))
            else:
                rows.append(np.zeros(np.shape(xs[wrt])))
        return np.asarray(rows, dtype=float)

    return NeighborhoodConstraint(size=len(nbr_gammas), value=slack, jacobian=jacobian)


def prox(a, b, th_a, th_b):
    """The consensus slack's distance ||a - b||."""
    d = a - b
    return np.sqrt((d * d).sum(axis=-1))


def prox_grad(a, b, th_a, th_b):
    """Its gradient in a, 0 at a == b."""
    d = a - b
    nrm = np.sqrt((d * d).sum(axis=-1, keepdims=True))
    return np.divide(d, nrm, out=np.zeros_like(d), where=nrm > 0.0)


def consensus_constraints(cfg, graph: NetworkGraph) -> list:
    """Node i's block of ||x_i - x_j|| - gamma_ij over its sorted neighbors."""
    table = cfg.gamma_table
    return [pairwise_block(i, [(j, table[(i, j)] if table is not None else float(cfg.gamma))
                               for j in graph.adjacency[i]], prox, prox_grad)
            for i in range(graph.n_nodes)]


def interference_constraint(cfg: PricingConfig, mus: list, local_pos: list) -> NeighborhoodConstraint:
    """A host's block: the slacks sum_{n in N_i} g_{ni} p_n^i - gamma_i of
    its MUs ``mus``, added one member SCBS at a time; SCBS m's price on MU i
    sits at position local_pos[m][i] of its vector."""
    W, c = cfg.bandwidth, cfg.cost
    rows = []
    for i in mus:
        members = sorted(cfg.assignment[i])
        rows.append((i, cfg.gamma_linear(i), tuple((m, local_pos[m][i]) for m in members)))

    def value(xs, ths):
        out = np.zeros(len(rows))
        for r, (_, gamma, members) in enumerate(rows):
            acc = 0.0
            for m, pos in members:
                g, h = ths[m]
                x = xs[m][pos]
                p = W / (c * cfg.mu_param(m) + cfg.nu_param(m) * x) - 1.0 / h[pos]
                if p > 0.0:
                    acc += g[pos] * p
            out[r] = acc - gamma
        return out

    def jacobian(wrt, xs, ths):
        jac = np.zeros((len(rows), xs[wrt].shape[0]))
        for r, (_, _, members) in enumerate(rows):
            for m, pos in members:
                if m != wrt:
                    continue
                g, h = ths[m]
                x = xs[m][pos]
                denom = c * cfg.mu_param(m) + cfg.nu_param(m) * x
                if W / denom - 1.0 / h[pos] > 0.0:
                    jac[r, pos] = -g[pos] * W * cfg.nu_param(m) / denom**2
        return jac

    return NeighborhoodConstraint(size=len(rows), value=value, jacobian=jacobian)


def pricing_constraints(cfg: PricingConfig) -> list:
    """Each SCBS's block: the MUs whose smallest member it is, in MU order."""
    local_pos = [{i: pos for pos, i in enumerate(s)} for s in cfg.scbs_subchannels()]
    hosted = [[] for _ in range(cfg.n_scbs)]
    for i, group in enumerate(cfg.assignment):
        hosted[min(group)].append(i)
    return [interference_constraint(cfg, mus, local_pos) for mus in hosted]


def node_constraints(cfg, graph: NetworkGraph) -> list:
    """The per-node constraints of the app ``cfg`` configures on ``graph``."""
    if isinstance(cfg, PricingConfig):
        return pricing_constraints(cfg)
    return consensus_constraints(cfg, graph)


def as_neighborhood(spec: ProblemSpec, cfg) -> ProblemSpec:
    """``spec``, built from the app config ``cfg``, with its constraints in
    the per-node encoding: it follows the lane kernels' trajectory up to
    floating-point summation order."""
    constraints = from_per_node(spec.graph, node_constraints(cfg, spec.graph), spec.dims)
    return replace(spec, constraints=constraints, name=spec.name + "_nbhd")


# ---------------------------------------------------------------------------
# the records of a run, one row and one step at a time
# ---------------------------------------------------------------------------

def per_step_traces(spec: ProblemSpec, hp, schedules, seeds, evaluator=None, thin_every: int = 50,
                    record_current_slack: bool = False, steps: int | None = None):
    """Every lane's RunTrace after ``steps`` steps (default: all), each
    record recomputed on its own, and every lane's dense (delayed slack
    (T, M), resolved times (T, N)) pair. A hook keeps every row's
    (x_t, lam_t); per lane and row, the dual norm (``np.linalg.norm``) and
    minimum, ``ExpectedObjective.value`` and the thinned snapshots and
    domain residual; per step, each node's resolved time (``delay.resolve``
    one step at a time, carried from 0; the step itself without a schedule),
    and from every node's observation (``observation_rows``, the per-key
    draws ``sample_observation`` equals), ``objective_sum``, the fresh slack at (x_k, theta_k) and the delayed slack at the resolved
    times. The violation, staleness and finiteness records come from those
    dense arrays (``metrics.delayed_violation``). Only the iterates are the
    engine's."""
    rows = []
    engine = SaddleEngine(spec, hp, list(schedules), list(seeds),
                          hooks=[lambda t, state: rows.append((state.x.copy(), state.lam.copy()))])
    engine.run(steps)
    T, n, c, m = engine.state.t, spec.graph.n_nodes, int(spec.offsets[-1]), spec.constraints.size
    traces, dense = [], []
    for s, (schedule, seed) in enumerate(zip(schedules, seeds)):
        xs = [x[s * c:(s + 1) * c] for x, _ in rows]
        lams = [lam[s * m:(s + 1) * m] for _, lam in rows]

        rows_of = observation_rows(spec, seed)

        def observed(times):
            """The observations of node i at times[i], stacked."""
            return observations([rows_of(i, int(t)) for i, t in enumerate(times)], spec.obs_offsets)

        snapshots, residual = {}, 0.0
        for t in range(T + 1):
            if thin_every and (t % thin_every == 0 or t == hp.T):
                snapshots[t] = xs[t].copy()
                residual = float(np.maximum(residual, domain_residual(spec, xs[t])))
        resolved, chain = np.zeros((T, n), dtype=int), np.zeros(n, dtype=int)
        delayed, current, obj = np.zeros((T, m)), np.zeros((T, m)), np.zeros(T)
        for k in range(T):
            if schedule is not None:
                chain = resolve(schedule, [k], np.arange(n), chain)[0]
            resolved[k] = k if schedule is None else chain
            theta = observed([k] * n)
            obj[k] = objective_sum(spec, xs[k], theta)
            current[k] = spec.constraints.slack(xs[k], theta)
            res = resolved[k]
            x_eval = np.concatenate([xs[res[i]][spec.offsets[i]:spec.offsets[i + 1]] for i in range(n)])
            delayed[k] = spec.constraints.slack(x_eval, observed(res))
        current = current if record_current_slack else None
        traces.append(RunTrace(
            name=spec.name, seed=seed, T=T, n_nodes=n,
            tau_bound=0 if schedule is None else schedule.tau_max,
            mode="sync" if schedule is None else "async",
            F_hat=None if evaluator is None else np.array([evaluator.value(x) for x in xs]),
            obj_sample=obj, lambda_norm=np.array([np.linalg.norm(lam) for lam in lams]),
            lambda_min=np.array([np.min(lam, initial=0.0) for lam in lams]),
            violation_cumclip=delayed_violation(delayed)[1],
            max_staleness=(np.arange(T)[:, None] - resolved).max(axis=1),
            staleness_monotone=bool(np.all(np.diff(resolved, axis=0, prepend=0) >= 0)),
            slack_finite=bool(np.isfinite(delayed).all() and (current is None or np.isfinite(current).all())),
            current_slack=current,
            x_snapshots=snapshots, x_final=spec.rows(xs[T].copy()), lam_final=lams[T].copy(),
            domain_residual_max=residual))
        dense.append((delayed, resolved))
    return traces, dense


@dataclass
class Captured:
    """What the engine computed while captured, in call order: the delayed
    slack of every step as ``dual_slack`` returned it, (S*M,) over the
    lanes, and every block's resolved times as ``resolve`` returned them,
    one (B, N) array per lane and block."""

    slacks: list = field(default_factory=list)
    resolved: list = field(default_factory=list)

    def delayed_slack(self, lanes: int = 1) -> list:
        """Each lane's (T, M) delayed slack of every step."""
        steps = np.array(self.slacks).reshape(len(self.slacks), lanes, -1)
        return [np.ascontiguousarray(steps[:, s]) for s in range(lanes)]

    def resolved_times(self, lanes: int = 1) -> list:
        """Each lane's (T, N) resolved times, its blocks in turn."""
        return [np.concatenate(self.resolved[s::lanes]) for s in range(lanes)]


@contextmanager
def capture_records():
    """Capture the delayed slacks and resolved times of every engine that
    runs inside the block, through the names its step and its block start
    call: ``asaddle.saddle.dual_slack`` and ``asaddle.saddle.resolve``."""
    got = Captured()
    dual_slack, resolve_block = asaddle.saddle.dual_slack, asaddle.saddle.resolve

    def slack(*args):
        out = dual_slack(*args)
        got.slacks.append(out.copy())
        return out

    def resolved(*args):
        out = resolve_block(*args)
        got.resolved.append(out.copy())
        return out

    asaddle.saddle.dual_slack, asaddle.saddle.resolve = slack, resolved
    try:
        yield got
    finally:
        asaddle.saddle.dual_slack, asaddle.saddle.resolve = dual_slack, resolve_block


# ---------------------------------------------------------------------------
# streams keyed one generator at a time
# ---------------------------------------------------------------------------

def seedsequence_generators(stream: int, seeds, nodes, *counters: int):
    """default_rng(SeedSequence([stream, seed & (2^64 - 1), node, *counters]))
    of every seed of ``seeds`` and node of ``nodes``, seed after seed."""
    for seed in seeds:
        for node in nodes:
            yield np.random.default_rng(np.random.SeedSequence(
                [stream, int(seed) & 0xFFFFFFFFFFFFFFFF, int(node), *counters]))


def node_draws(spec: ProblemSpec, node: int, rng, size: int) -> tuple:
    """Node ``node``'s ``size`` observations from its own generator, drawn
    as the apps drew them one node at a time: consensus
    standard_normal((size, p)), then standard_normal(size), then
    y = Z @ w_i + noise e; pricing standard_exponential((2, size, k)) times
    the gain mean, (g, h). A sampler without ``batch`` draws by
    ``sample_rows``. The parameters are read from the sampler's law:
    consensus (w_i, noise^2), whose square root is noise exactly (a
    correctly rounded sqrt of a rounded square returns the float), pricing
    the mean of every coordinate."""
    sampler = spec.samplers[node]
    if sampler.batch is None:
        return sample_rows(sampler, rng, size)
    if spec.name == "consensus_regression":
        w_i, noise2 = sampler.law
        Z = rng.standard_normal((size, len(w_i)))
        return (Z, Z @ w_i + math.sqrt(noise2) * rng.standard_normal(size))
    assert spec.name == "pricing", f"no per-node draws for {spec.name}"
    (mean,) = sampler.law
    pair = rng.standard_exponential((2, size, len(mean)))
    pair *= mean[0]
    return pair[0], pair[1]


def per_key_observation_block(spec: ProblemSpec, seeds, block: int, draws=node_draws) -> tuple:
    """Every lane's observation block, each node's drawn from its own
    generator by ``draws``, the nodes of a lane stacked and the lanes
    concatenated."""
    n = spec.graph.n_nodes
    lanes = [stack_leaves([draws(spec, i, rng, OBS_BLOCK) for i, rng in
                           enumerate(seedsequence_generators(_OBS_STREAM, [seed], range(n), block))],
                          axis=1) for seed in seeds]
    return tuple([np.concatenate(parts, axis=1) for parts in zip(*lanes)])


def observation_rows(spec: ProblemSpec, seed: int, draws=node_draws):
    """``per_key_sample_observation(spec, seed, ., .)`` as a function of
    (node, t) that draws each node's block once, on first use, and indexes
    its rows: for oracles that read many steps of one seed."""
    blocks = {}

    def row(node: int, t: int) -> tuple:
        block, r = divmod(t, OBS_BLOCK)
        if (node, block) not in blocks:
            (rng,) = seedsequence_generators(_OBS_STREAM, [seed], [node], block)
            blocks[node, block] = draws(spec, node, rng, OBS_BLOCK)
        return tuple([leaf[r] for leaf in blocks[node, block]])

    return row


def per_key_sample_observation(spec: ProblemSpec, seed: int, node: int, t: int, draws=node_draws) -> tuple:
    """Row t mod OBS_BLOCK of node ``node``'s block, drawn from its own generator."""
    return observation_rows(spec, seed, draws)(node, t)


def per_key_delay_tau(schedule, nodes, times) -> np.ndarray:
    """A uniform_random schedule's raw draws, (times, nodes): row i of every
    _CHUNK-step chunk drawn from node i's own generator."""
    rows = {}
    out = np.empty((len(times), len(nodes)), dtype=np.int64)
    for a, t in enumerate(times):
        for b, i in enumerate(nodes):
            chunk = int(t) // _CHUNK
            if (i, chunk) not in rows:
                (rng,) = seedsequence_generators(_DELAY_STREAM, [schedule.seed], [i], chunk)
                rows[i, chunk] = rng.integers(0, schedule.tau_max + 1, size=_CHUNK)
            out[a, b] = rows[i, chunk][int(t) % _CHUNK]
    return out


def per_key_evaluation_draws(spec: ProblemSpec, seed: int, node: int, mc_samples: int,
                             draws=node_draws) -> tuple:
    """Node ``node``'s Monte Carlo sample of ``ExpectedObjective``, from its own generator."""
    (rng,) = seedsequence_generators(_EVAL_STREAM, [seed], [node])
    return draws(spec, node, rng, mc_samples)


# ---------------------------------------------------------------------------
# tuple graphs and per-node tile layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TupleGraph:
    """A symmetric graph as its sorted directed edge tuples and per-node
    neighbor tuples, with ``NetworkGraph``'s reads computed from them."""

    n_nodes: int
    edges: tuple
    adjacency: tuple

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, i, j) -> int:
        return self._position[(i, j)]

    @cached_property
    def _position(self) -> dict:
        return {e: k for k, e in enumerate(self.edges)}

    @property
    def diameter(self) -> int:
        return max(max(_bfs_distances(self.adjacency, s)) for s in range(self.n_nodes))


def _bfs_distances(adjacency, source) -> list:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def tuple_graph(n_nodes: int, edge_list) -> TupleGraph:
    """``build_graph`` by a loop over the edges, with its checks and errors:
    each pair's ids converted with ``int``, SelfLoop or ValueError for the
    first bad pair, DisconnectedGraph naming the nodes node 0 cannot reach."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    directed = set()
    for i, j in edge_list:
        i, j = int(i), int(j)
        if i == j:
            raise SelfLoop(f"edge ({i}, {j})")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(f"edge ({i}, {j}) outside [0, {n_nodes})")
        directed.add((i, j))
        directed.add((j, i))
    edges = tuple(sorted(directed))
    neighbors = [[] for _ in range(n_nodes)]
    for i, j in edges:
        neighbors[i].append(j)
    adjacency = tuple(map(tuple, neighbors))
    unreachable = [v for v, d in enumerate(_bfs_distances(adjacency, 0)) if d < 0]
    if unreachable:
        raise DisconnectedGraph(f"nodes unreachable from 0: {unreachable}")
    return TupleGraph(n_nodes, edges, adjacency)


def tuple_disjoint_copies(g, copies: int) -> TupleGraph:
    """``copies`` unlinked copies of the graph ``g``, copy s's node i numbered s*N + i."""
    n = g.n_nodes
    edges = tuple((i + s * n, j + s * n) for s in range(copies) for i, j in g.edges)
    adjacency = tuple(tuple(j + s * n for j in nbrs) for s in range(copies) for nbrs in g.adjacency)
    return TupleGraph(copies * n, edges, adjacency)


def per_node_tile_layout(spec: ProblemSpec, lanes: int) -> dict:
    """The layout of ``spec.tile(lanes)`` computed from the per-node fields
    of all its lanes * N nodes, one node at a time: ``offsets``,
    ``box_bounds``, ``_domain_limits`` (None when every domain is a box),
    ``_dim_classes``, ``objective_groups`` and ``sampler_groups``."""
    dims, domains = spec.dims * lanes, spec.domains * lanes
    objectives, samplers = spec.objectives * lanes, spec.samplers * lanes
    layout = SimpleNamespace(dims=dims, uniform=len(set(dims)) == 1,
                             offsets=np.array(list(accumulate(dims, initial=0))))
    boxes = all(dom.kind == "box" for dom in domains)
    limits = None
    if not boxes:
        lo, sum_lo, sum_hi = [], [], []
        for dom in domains:
            if dom.kind == "box":
                lo.append(np.full(dom.dim, -math.inf))
                sum_lo.append(math.inf)
                sum_hi.append(-math.inf)
                continue
            tol = 1e-9 * max(1.0, abs(dom.c_min), abs(dom.c_max))
            lo.append(np.full(dom.dim, -tol if dom.nonneg else -math.inf))
            sum_lo.append(dom.c_min - tol)
            sum_hi.append(dom.c_max + tol)
        limits = (np.concatenate(lo), np.array(sum_lo), np.array(sum_hi))
    classes = []
    for d in sorted(set(dims)):
        nodes = np.array([i for i, di in enumerate(dims) if di == d])
        classes.append((nodes, layout.offsets[nodes][:, None] + np.arange(d)))
    shared = {}
    for i, obj in enumerate(objectives):
        shared.setdefault(id(obj), (obj, []))[1].append(i)
    drawn = {}
    for i, (sampler, dim) in enumerate(zip(samplers, dims)):
        drawn.setdefault((id(sampler.batch), dim), (sampler.batch, []))[1].append(i)
    return {
        "offsets": layout.offsets,
        "box_bounds": (np.concatenate([dom.lo for dom in domains]),
                       np.concatenate([dom.hi for dom in domains])) if boxes else None,
        "_domain_limits": limits,
        "_dim_classes": classes,
        "objective_groups": tuple(ObjectiveGroup(obj, *_row_layout(layout, members))
                                  for obj, members in shared.values()),
        "sampler_groups": tuple((batch, np.array(nodes)) for batch, nodes in drawn.values()),
    }

"""Constrained stochastic program abstraction.

A problem couples per-node stochastic objectives over a compact convex domain
with proximity constraints between neighbors. Constraints are stored as slack
functions (constraint value minus its tolerance), so the engine treats a
constraint as satisfied-in-expectation whenever the expected slack is <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InfeasibleDomain, NonFiniteState
from .graph import NetworkGraph, closed_neighborhood, disjoint_copies

__all__ = [
    "DomainSpec",
    "Objective",
    "Sampler",
    "NeighborhoodConstraint",
    "ConstraintFamily",
    "ProblemSpec",
    "NodeObservations",
    "project",
    "stack",
    "split_stacked",
    "tree_map",
    "sample_observation",
    "observation_block",
    "objective_grad",
    "objective_grads",
    "objective_sum",
    "as_neighborhood",
    "ObjectiveGroup",
    "lane_copies",
    "ExpectedObjective",
    "DEFAULT_MC_SAMPLES",
    "OBS_BLOCK",
]

DEFAULT_MC_SAMPLES = 2000

# distinct stream tags keep observation, delay and evaluation randomness disjoint
_OBS_STREAM = 1

# rows per observation block: one generator per (seed, node, block) is spread
# over this many steps while a block of a 500-node, p=4 problem stays ~1 MB
OBS_BLOCK = 64


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Compact convex per-node domain.

    kind "box": coordinatewise interval [lo, hi].
    kind "sum_interval": C_min <= sum(y) <= C_max, optionally with y >= 0
    (the nonnegative variant is compact; the plain slab relies on the problem
    keeping iterates bounded).
    """

    kind: str
    dim: int
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    c_min: float = 0.0
    c_max: float = 0.0
    nonneg: bool = False

    @staticmethod
    def box(lo, hi) -> "DomainSpec":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise DimensionMismatch("box bounds must have equal length")
        if np.any(lo > hi) or not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InfeasibleDomain("box requires finite lo <= hi coordinatewise")
        return DomainSpec(kind="box", dim=lo.size, lo=lo, hi=hi)

    @staticmethod
    def sum_interval(dim: int, c_min: float, c_max: float, nonneg: bool = False) -> "DomainSpec":
        if c_min > c_max:
            raise InfeasibleDomain(f"C_min={c_min} > C_max={c_max}")
        if nonneg and c_max < 0:
            raise InfeasibleDomain("nonnegative coordinates cannot sum to a negative bound")
        return DomainSpec(kind="sum_interval", dim=dim, c_min=float(c_min),
                          c_max=float(c_max), nonneg=nonneg)

    def center(self) -> np.ndarray:
        if self.kind == "box":
            return 0.5 * (self.lo + self.hi)
        mid = 0.5 * (self.c_min + self.c_max)
        return np.full(self.dim, mid / self.dim)

    def contains(self, u, tol: float = 1e-9) -> bool:
        u = np.asarray(u, dtype=float)
        if self.kind == "box":
            return bool((u >= self.lo - tol).all() and (u <= self.hi + tol).all())
        # a sum of entries near the float range may overflow: not contained
        with np.errstate(over="ignore", invalid="ignore"):
            return self._sum_contains(u, tol)

    def _sum_contains(self, u: np.ndarray, tol: float) -> bool:
        """``contains`` for a sum interval, under the caller's ``np.errstate``."""
        s = u.sum()
        ok = math.isfinite(s) and self.c_min - tol <= s <= self.c_max + tol
        if self.nonneg:
            ok = ok and bool((u >= -tol).all())
        return ok


def project(domain: DomainSpec, u) -> np.ndarray:
    """Euclidean projection onto the domain.

    Box: coordinatewise clamp. Sum interval: return u when already feasible;
    otherwise shift toward the violated bound C* (uniformly when coordinates
    are unconstrained in sign, or by the KKT shift-and-clip rule when the
    nonnegativity option is set). Raises NonFiniteState on NaN or inf input,
    and when the shifted point or its sum overflows (a plain slab with entries
    near the float range), so every point returned passes ``contains``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size != domain.dim:
        raise DimensionMismatch(f"expected vector of length {domain.dim}, got shape {u.shape}")
    # a Python loop beats numpy's reductions on the short per-node vectors
    if not all(map(math.isfinite, u.tolist())):
        raise NonFiniteState(f"cannot project a non-finite vector {u}")
    if domain.kind == "box":
        return np.minimum(np.maximum(u, domain.lo), domain.hi)

    tol = _sum_tolerance(domain)
    # sums and breakpoints of entries near the float range may overflow; the
    # check of y's sum below (NaN or inf when any entry is) turns an
    # overflowed result into NonFiniteState
    with np.errstate(over="ignore", invalid="ignore"):
        if domain._sum_contains(u, tol):
            return u.copy()
        if not domain.nonneg:
            s = u.sum()
            target = domain.c_min if s < domain.c_min else domain.c_max
            y = u + (target - s) / u.size
        else:
            base = np.maximum(u, 0.0)
            s = base.sum()
            if domain.c_min - tol <= s <= domain.c_max + tol:
                return base
            target = domain.c_min if s < domain.c_min else domain.c_max
            y = _shift_clip_to_sum(u, target)
        total = y.sum()
    if not math.isfinite(total):
        raise NonFiniteState(f"projection of {u} onto the sum interval overflows")
    return y


def _sum_tolerance(domain: DomainSpec) -> float:
    """Slack ``project`` allows a sum-interval point before moving it."""
    return 1e-9 * max(1.0, abs(domain.c_min), abs(domain.c_max))


def _shift_clip_to_sum(u: np.ndarray, target: float) -> np.ndarray:
    # exact KKT solve of min ||y - u|| s.t. y >= 0, sum(y) = target:
    # y = (u + nu)_+ with nu chosen on the sorted breakpoint structure
    if target <= 0.0:
        return np.zeros_like(u)
    y = _clip_at_breakpoint(u, target)
    if y is None or not np.isfinite(y).all():
        # entries far above target cancel in the breakpoints u + nu (none is
        # active, or nu overflows). Solve relative to the largest entry: the
        # active entries of u - max(u) lie in (-target, 0], so clamping at
        # -target changes no y and keeps every partial sum finite.
        y = _clip_at_breakpoint(np.maximum(u - u.max(), -target), target)
    return y


def _clip_at_breakpoint(u: np.ndarray, target: float):
    """(u + nu)_+ at the last active breakpoint, None when none is active."""
    srt = np.sort(u)[::-1]
    csum = np.cumsum(srt)
    ks = np.arange(1, u.size + 1)
    nus = (target - csum) / ks
    active = np.flatnonzero(srt + nus > 0.0)
    if active.size == 0:
        return None
    return np.maximum(u + nus[active[-1]], 0.0)


# ---------------------------------------------------------------------------
# objectives, samplers, constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Objective:
    """Per-node stochastic objective f(x, theta) with gradient.

    ``value`` and ``grad`` take one node's row x (p,) and its observation.
    Nodes that share one Objective instance are evaluated together: the
    engine then passes their stacked rows (n, p) with their observations
    stacked leaf by leaf (see ``NodeObservations``), and expects (n,) values
    and (n, p) gradients. ``batch_value``, when given, maps (x,
    batched-observations) to a vector of per-sample values and is used by
    Monte Carlo estimators. ``expected``, when given, maps rows x (..., p)
    and the samplers' laws (``Sampler.law``, stacked like the rows) to the
    exact expectations E f(x, theta), one per row (...,); ``ExpectedObjective``
    then draws no sample for these nodes.
    """

    value: callable
    grad: callable
    batch_value: callable | None = None
    expected: callable | None = None


@dataclass(frozen=True)
class Sampler:
    """Per-node observation distribution.

    ``sample(rng)`` draws one observation; ``batch(rng, size)``, when given,
    draws a batched observation set consumable by Objective.batch_value,
    whose row r (of every leaf) is one observation. The engine draws its
    observations in blocks of OBS_BLOCK rows with ``batch``, or with
    OBS_BLOCK calls of ``sample`` when ``batch`` is missing. ``law``, when
    given, holds the distribution's parameters as ``Objective.expected``
    reads them: a tree of arrays, whose leaves have one entry per coordinate
    when nodes of different dimensions share the objective.
    """

    sample: callable
    batch: callable | None = None
    law: object = None


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


@dataclass(frozen=True)
class ConstraintFamily:
    """All constraints of a problem, stacked into one slack vector.

    Node k owns ``per_node[k]``; the stacked slack (and the dual vector, which
    has the same layout) is the concatenation of the per-node blocks in node
    order. ``slack(xs, ths)`` returns that (size,) vector and
    ``add_jt_lam(grads, lam, xs, ths)`` returns the per-node gradients plus
    J^T lam, with J the Jacobian of the stacked slack at (xs, ths).

    ``tile(S)``, when given, returns the family of S independent copies of
    the problem laid out one after the other (``ProblemSpec.tile``), whose
    kernels evaluate every copy in one call and give each copy's entries
    bit for bit as the family gives them alone. Such a family keeps no
    per-node constraints.
    """

    per_node: tuple
    size: int
    slack: callable
    add_jt_lam: callable
    tile: callable = None

    @staticmethod
    def from_per_node(graph: NetworkGraph, per_node) -> "ConstraintFamily":
        """Stack one NeighborhoodConstraint per node; J^T lam loops over each
        node's closed neighborhood and multiplies the owners' Jacobians."""
        per_node = tuple(per_node)
        if len(per_node) != graph.n_nodes:
            raise DimensionMismatch("need one NeighborhoodConstraint per node")
        offsets = list(accumulate((c.size for c in per_node), initial=0))
        blocks = [slice(offsets[k], offsets[k + 1]) for k in range(graph.n_nodes)]
        owned = [con for con in per_node if con.size]
        # per node i: the nonempty blocks whose owner k is in i's closed neighborhood
        reach = [[(per_node[k], blocks[k]) for k in closed_neighborhood(graph, i)
                  if per_node[k].size] for i in range(graph.n_nodes)]

        def slack(xs, ths):
            if not owned:
                return np.zeros(0)
            return np.concatenate([con.value(xs, ths) for con in owned])

        def add_jt_lam(grads, lam, xs, ths):
            out = []
            for i, acc in enumerate(grads):
                for con, block in reach[i]:
                    lam_k = lam[block]
                    if not lam_k.any():
                        continue
                    acc = acc + np.asarray(con.jacobian(i, xs, ths), dtype=float).T @ lam_k
                out.append(acc)
            return out

        return ConstraintFamily(per_node=per_node, size=offsets[-1],
                                slack=slack, add_jt_lam=add_jt_lam)

    @staticmethod
    def from_symmetric_pairwise(graph: NetworkGraph, value, grad_first, gamma) -> "ConstraintFamily":
        """One slack value(x_i, x_j, th_i, th_j) - gamma_ij per directed edge.

        ``value(a, b, th_a, th_b)`` must satisfy value(a, b, .) == value(b, a, .)
        and ``grad_first`` must be its gradient in the first argument. Both
        take either one edge's rows a, b (p,) or every edge's stacked rows
        (E, p) with stacked observations, returning (E,) values and (E, p)
        gradients. Node i owns the entries of its sorted neighbors, so the
        stacked order is that of ``graph.edges``. The slack is one call over
        the src/dst rows of all edges; mirror symmetry makes the gradient of
        node i's Lagrangian term the sum over its edges of
        (lam_ij + lam_ji) grad_first(x_i, x_j), so J^T lam is one
        ``grad_first`` call and a per-source sum instead of the per-node
        Jacobians.
        """
        gam = dict(gamma) if isinstance(gamma, dict) else None
        per_node, gammas = [], []
        for i in range(graph.n_nodes):
            nbr_gammas = [(j, gam[(i, j)] if gam is not None else float(gamma))
                          for j in graph.adjacency[i]]
            for j, g_ij in nbr_gammas:
                if g_ij < 0:
                    raise ValueError(f"tolerance gamma[{i},{j}] must be >= 0")
            per_node.append(_pairwise_block(i, nbr_gammas, value, grad_first))
            gammas += [g_ij for _, g_ij in nbr_gammas]
        gammas = np.array(gammas, dtype=float)
        src, dst = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T
        mirror = np.array([graph.edge_index(j, i) for i, j in graph.edges], dtype=np.intp)
        # edges are sorted by source and every node of a connected graph with
        # N >= 2 has one, so node i's edges start at first[i]
        first = np.searchsorted(src, np.arange(graph.n_nodes))
        n, m = graph.n_nodes, len(gammas)

        def copies(lanes):
            """The kernels on ``lanes`` copies: copy s's nodes shifted by s*n,
            its edges (and duals) by s*m."""
            src_l, dst_l = lane_copies(lanes, src, n), lane_copies(lanes, dst, n)
            mirror_l, first_l = lane_copies(lanes, mirror, m), lane_copies(lanes, first, m)
            gammas_l = lane_copies(lanes, gammas)

            def edge_rows(xs, ths):
                """(x_src, x_dst, th_src, th_dst) stacked over all edges."""
                xs, ths = np.asarray(xs, dtype=float), NodeObservations.of(ths)
                return xs.take(src_l, axis=0), xs.take(dst_l, axis=0), ths[src_l], ths[dst_l]

            def slack(xs, ths):
                return np.asarray(value(*edge_rows(xs, ths)), dtype=float) - gammas_l

            def add_jt_lam(grads, lam, xs, ths):
                w = lam + lam[mirror_l]
                live = w.reshape(lanes, m).any(axis=1)
                if not live.any():
                    return grads
                jac = np.asarray(grad_first(*edge_rows(xs, ths)), dtype=float)
                out = np.asarray(grads, dtype=float) + np.add.reduceat(w[:, None] * jac, first_l, axis=0)
                # a copy whose duals all vanish keeps its gradients as they
                # are, as it would alone (adding zeros can flip a -0.0)
                return out if live.all() else np.where(np.repeat(live, n)[:, None], out, grads)

            return slack, add_jt_lam

        return ConstraintFamily.from_lane_kernels(per_node, m, copies)

    @staticmethod
    def from_lane_kernels(per_node, size: int, kernels) -> "ConstraintFamily":
        """Family of ``size`` stacked entries whose ``kernels(S)`` returns the
        (slack, add_jt_lam) of S copies; ``per_node`` describes one copy."""
        def tile(lanes):
            return ConstraintFamily((), lanes * size, *kernels(lanes))

        return ConstraintFamily(tuple(per_node), size, *kernels(1), tile=tile)


def lane_copies(lanes: int, idx, by: int | None = None) -> np.ndarray:
    """Per-entry array ``idx`` of one copy of a problem, for ``lanes``
    copies one after the other: repeated, each copy's entries shifted by
    s*``by`` when ``by`` is given (an index array); ``idx`` itself for one."""
    idx = np.asarray(idx)
    if lanes == 1:
        return idx
    if by is None:
        return np.tile(idx, lanes)
    return (idx + by * np.arange(lanes)[:, None]).reshape(-1)


def _pairwise_block(i, nbr_gammas, value, grad_first):
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


# ---------------------------------------------------------------------------
# problem spec
# ---------------------------------------------------------------------------

class ObjectiveGroup(NamedTuple):
    """Nodes whose objective terms one call of a shared Objective evaluates.

    A node alone with its instance has ``rows`` None and ``nodes`` its id: it
    is called on its own row and observation. Otherwise the call takes the
    rows ``rows`` of ``ProblemSpec.row_array`` and ``nodes`` selects the
    member nodes (each a slice when consecutive). With uniform dims the rows
    are the nodes and ``sums`` is None; otherwise every coordinate is a row
    and ``sums`` is the plan ``_sum_node_rows`` adds each node's rows with.
    """

    objective: Objective
    nodes: object
    rows: object
    sums: object


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable bundle of graph, objectives, samplers, constraints and domains.

    ``dims`` and ``domains`` are per-node; uniform problems may pass a single
    int / DomainSpec which is broadcast at construction via ``make``.
    ``optimum`` is a zero-argument callable giving the stacked minimizer of
    the expected problem, or None where it finds none, and
    ``optimum_source`` names how (``"closed_form"``, ``"kkt_solve"``); it is
    called on the first read of ``x_star``, not at construction.
    """

    graph: NetworkGraph
    dims: tuple
    objectives: tuple
    samplers: tuple
    constraints: ConstraintFamily
    domains: tuple
    x0: tuple = None
    name: str = "problem"
    optimum: object = None
    optimum_source: str | None = None

    @staticmethod
    def make(graph, dim, objectives, samplers, constraints, domain,
             x0=None, name="problem", optimum=None, optimum_source=None) -> "ProblemSpec":
        n = graph.n_nodes
        dims = tuple(dim) if isinstance(dim, (tuple, list)) else (int(dim),) * n
        domains = tuple(domain) if isinstance(domain, (tuple, list)) else (domain,) * n
        objectives = tuple(objectives)
        samplers = tuple(samplers)
        if not (len(dims) == len(domains) == len(objectives) == len(samplers) == n):
            raise DimensionMismatch("per-node field lengths must equal n_nodes")
        for i in range(n):
            if dims[i] < 1:
                raise DimensionMismatch(f"node {i} has no coordinates")
            if domains[i].dim != dims[i]:
                raise DimensionMismatch(f"domain dim {domains[i].dim} != dims[{i}]={dims[i]}")
        if x0 is None:
            x0 = tuple(project(domains[i], domains[i].center()) for i in range(n))
        else:
            x0 = tuple(project(domains[i], np.asarray(x, dtype=float)) for i, x in enumerate(x0))
        return ProblemSpec(graph=graph, dims=dims, objectives=objectives,
                           samplers=samplers, constraints=constraints,
                           domains=domains, x0=x0, name=name, optimum=optimum,
                           optimum_source=optimum_source)

    @cached_property
    def x_star(self) -> np.ndarray | None:
        """The stacked minimizer from ``optimum``, or None."""
        return None if self.optimum is None else self.optimum()

    @property
    def dim(self) -> int:
        """Common per-node dimension p; only defined for uniform problems."""
        if not self.uniform:
            raise DimensionMismatch("problem has per-node dimensions; use .dims")
        return self.dims[0]

    # -- stacked layout: every node's coordinates in one flat vector ----------

    @cached_property
    def uniform(self) -> bool:
        """True when every node has the same dimension."""
        return len(set(self.dims)) == 1

    @cached_property
    def offsets(self) -> np.ndarray:
        """(N+1,) start of each node's coordinates in the stacked vector, then its length."""
        return np.array(list(accumulate(self.dims, initial=0)))

    @cached_property
    def obs_offsets(self):
        """``offsets`` when dims differ, for the per-coordinate observation
        leaves of ``NodeObservations``; None when they are uniform."""
        return None if self.uniform else self.offsets

    def rows(self, flat: np.ndarray):
        """Per-node views of a stacked vector: an (N, p) array when dims are
        uniform, a list of slices otherwise."""
        if self.uniform:
            return flat.reshape(self.graph.n_nodes, self.dims[0])
        return split_stacked(flat, self._slices)

    def row_array(self, xs) -> np.ndarray:
        """Per-node vectors (or a stacked vector) as the rows shared objectives
        take: (N, p) when dims are uniform, otherwise every coordinate as a row
        of dimension 1, (C, 1). A view of a stacked vector or of ``rows``."""
        if self.uniform:
            return np.asarray(xs, dtype=float).reshape(self.graph.n_nodes, -1)
        return stack(xs)[:, None]

    @cached_property
    def _slices(self) -> list:
        o = self.offsets
        return [slice(o[i], o[i + 1]) for i in range(self.graph.n_nodes)]

    def node_of(self, coordinate: int) -> int:
        """Node owning an entry of the stacked vector."""
        return int(np.searchsorted(self.offsets, coordinate, side="right")) - 1

    @cached_property
    def box_bounds(self):
        """Stacked (lo, hi) when every domain is a box, else None."""
        if any(dom.kind != "box" for dom in self.domains):
            return None
        return (np.concatenate([dom.lo for dom in self.domains]),
                np.concatenate([dom.hi for dom in self.domains]))

    def inside(self, flat: np.ndarray) -> np.ndarray:
        """(N,) True where node i's block of the stacked vector lies in its sum
        interval by the test ``project`` makes before it moves a point, so
        ``project`` would return the block unchanged. Box blocks read False:
        ``project`` clamps them, which also settles the sign of a zero."""
        lo, sum_lo, sum_hi = self._domain_limits
        ok = np.logical_and.reduceat(flat >= lo, self.offsets[:-1])
        sums = np.empty(self.graph.n_nodes)
        # a sum that overflows (NaN or inf) reads outside, as in ``contains``
        with np.errstate(over="ignore", invalid="ignore"):
            for nodes, coords in self._dim_classes:
                # a row sum of an (n, d) gather adds in the order u.sum() does
                sums[nodes] = flat[coords].sum(axis=1)
        return ok & (sums >= sum_lo) & (sums <= sum_hi)

    def node_sums(self, flat: np.ndarray) -> np.ndarray:
        """(..., N) sum of each node's block of stacked vectors (..., C),
        added in the order ``np.sum`` adds the block alone, as in ``inside``
        (whose 1-D indexing takes half the time on one vector)."""
        sums = np.empty(flat.shape[:-1] + (self.graph.n_nodes,))
        # a sum that overflows is NaN or inf, without a warning, as in ``inside``
        with np.errstate(over="ignore", invalid="ignore"):
            for nodes, coords in self._dim_classes:
                sums[..., nodes] = flat[..., coords].sum(axis=-1)
        return sums

    @cached_property
    def _domain_limits(self):
        """Stacked coordinate lower bounds and per-node sum bounds of ``inside``."""
        lo, sum_lo, sum_hi = [], [], []
        for dom in self.domains:
            if dom.kind == "box":  # an empty sum interval
                lo.append(np.full(dom.dim, -math.inf))
                sum_lo.append(math.inf)
                sum_hi.append(-math.inf)
                continue
            tol = _sum_tolerance(dom)
            lo.append(np.full(dom.dim, -tol if dom.nonneg else -math.inf))
            sum_lo.append(dom.c_min - tol)
            sum_hi.append(dom.c_max + tol)
        return np.concatenate(lo), np.array(sum_lo), np.array(sum_hi)

    @cached_property
    def _dim_classes(self) -> list:
        """(nodes, (n, d) coordinate indices) once per node dimension d."""
        classes = []
        for d in sorted(set(self.dims)):
            nodes = np.array([i for i, di in enumerate(self.dims) if di == d])
            classes.append((nodes, self.offsets[nodes][:, None] + np.arange(d)))
        return classes

    def tile(self, lanes: int) -> "ProblemSpec":
        """``lanes`` independent copies of the problem as one problem (the
        layout of a bundle of seeds): copy s holds nodes s*N..(s+1)*N-1 and
        slack entries s*M..(s+1)*M-1, so its stacked vector is row s of a
        (lanes, C) array. An Objective that nodes share covers every copy in
        one call; a node's own Objective gets one instance per copy, so it is
        still called on its own row. ``optimum`` is not carried. The problem
        itself when ``lanes`` is 1."""
        if lanes == 1:
            return self
        own = {id(obj) for obj, _, rows, _ in self.objective_groups if rows is None}
        objectives = tuple(replace(obj) if s and id(obj) in own else obj
                           for s in range(lanes) for obj in self.objectives)
        tiled = replace(self, graph=disjoint_copies(self.graph, lanes), dims=self.dims * lanes,
                        objectives=objectives, samplers=self.samplers * lanes,
                        domains=self.domains * lanes, x0=self.x0 * lanes, optimum=None)
        family = self.constraints
        constraints = (family.tile(lanes) if family.tile is not None
                       else _lane_by_lane(self, tiled, lanes))
        return replace(tiled, constraints=constraints)

    @cached_property
    def objective_groups(self) -> tuple:
        """One ``ObjectiveGroup`` per Objective instance, in order of first use.

        Nodes of different dimensions that share an instance are evaluated on
        their coordinates as rows of dimension 1: the instance must then be
        separable by coordinate, with one observation entry per coordinate."""
        shared = {}
        for i, obj in enumerate(self.objectives):
            shared.setdefault(id(obj), (obj, []))[1].append(i)
        groups = []
        for obj, nodes in shared.values():
            if len(nodes) == 1:
                groups.append(ObjectiveGroup(obj, nodes[0], None, None))
            else:
                groups.append(ObjectiveGroup(obj, *_row_layout(self, nodes)))
        return tuple(groups)


def _lane_by_lane(spec: ProblemSpec, tiled: ProblemSpec, lanes: int) -> ConstraintFamily:
    """``lanes`` copies of ``spec.constraints`` for ``tiled`` (its
    ``ProblemSpec.tile``), evaluated one copy at a time."""
    family = spec.constraints
    n, c, m = spec.graph.n_nodes, int(spec.offsets[-1]), family.size

    def lane(s, xs, ths):
        """Copy s's iterate and observations."""
        flat = stack(xs)[s * c:(s + 1) * c]
        leaves = tree_map(lambda leaf: leaf[s * n:(s + 1) * n] if len(leaf) == lanes * n
                          else leaf[s * c:(s + 1) * c], NodeObservations.of(ths).leaves)
        return spec.rows(flat), NodeObservations(leaves, spec.obs_offsets)

    def slack(xs, ths):
        return np.concatenate([family.slack(*lane(s, xs, ths)) for s in range(lanes)])

    def add_jt_lam(grads, lam, xs, ths):
        g = stack(grads)
        return tiled.rows(np.concatenate([
            stack(family.add_jt_lam(spec.rows(g[s * c:(s + 1) * c]), lam[s * m:(s + 1) * m],
                                    *lane(s, xs, ths)))
            for s in range(lanes)]))

    return ConstraintFamily(per_node=(), size=lanes * m, slack=slack, add_jt_lam=add_jt_lam)


def _row_layout(spec: ProblemSpec, members: list):
    """(nodes, rows, sums) of an ObjectiveGroup for ascending node ids ``members``."""
    nodes = _selector(members)
    if spec.uniform:
        return nodes, nodes, None
    counts = [spec.dims[i] for i in members]
    starts = list(accumulate(counts[:-1], initial=0))
    rest = []
    for j in range(1, max(counts)):
        longer = [m for m, c in enumerate(counts) if c > j]
        rest.append((np.array(longer), np.array([starts[m] + j for m in longer])))
    if isinstance(nodes, slice):  # consecutive nodes own consecutive coordinates
        first = sum(spec.dims[:nodes.start])
        rows = slice(first, first + starts[-1] + counts[-1])
    else:
        o = spec.offsets
        rows = np.concatenate([np.arange(o[i], o[i + 1]) for i in members])
    return nodes, rows, (np.array(starts), rest)


def _members(nodes, n_nodes: int) -> list:
    """Node ids a ``_selector`` selects among ``n_nodes``."""
    return list(range(n_nodes)[nodes]) if isinstance(nodes, slice) else nodes.tolist()


def _selector(ids: list):
    """A slice for consecutive ascending ids, else an index array."""
    if ids[-1] - ids[0] + 1 == len(ids):
        return slice(int(ids[0]), int(ids[-1]) + 1)
    return np.array(ids)


def _sum_node_rows(values: np.ndarray, sums) -> np.ndarray:
    """Each node's consecutive rows of ``values`` (leading axis) added in
    order, as ``np.sum`` adds a short vector."""
    starts, rest = sums
    out = values[starts]
    for nodes, rows in rest:
        out[nodes] += values[rows]
    return out


def _sum_in_order(values: np.ndarray):
    """0.0 + values[0] + values[1] + ..., one term at a time (np.sum pairs
    them), along the last axis."""
    return 0.0 + np.cumsum(values, axis=-1)[..., -1]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class _Slices(list):
    """Per-node slices of the stacked vector ``stacked``."""

    __slots__ = ("stacked",)


def split_stacked(flat: np.ndarray, slices) -> list:
    """Views of the stacked vector ``flat`` at per-node ``slices``, which
    ``stack`` turns back into ``flat`` without a copy."""
    rows = _Slices([flat[s] for s in slices])
    rows.stacked = flat
    return rows


def stack(vectors) -> np.ndarray:
    """Per-node vectors as one flat float vector; no copy for ``spec.rows``
    of a stacked vector."""
    if isinstance(vectors, np.ndarray):
        return vectors.reshape(-1)
    if isinstance(vectors, _Slices):
        return vectors.stacked
    if len(vectors) == 0:
        return np.zeros(0)
    return np.concatenate([np.atleast_1d(np.asarray(v, dtype=float)) for v in vectors])


def tree_map(fn, tree, *rest):
    """Apply ``fn`` leaf by leaf to observations (nested tuples of arrays)."""
    if isinstance(tree, tuple):
        return tuple([tree_map(fn, *leaves) for leaves in zip(tree, *rest)])
    return fn(tree, *rest)


def _leaves(tree) -> list:
    """The arrays of an observation, depth first."""
    if isinstance(tree, tuple):
        return [leaf for sub in tree for leaf in _leaves(sub)]
    return [tree]


def _stack_leaves(parts, axis: int):
    """Stack equally structured observations leaf by leaf along a new ``axis``.

    A leaf whose length differs between the parts (one entry per coordinate
    of nodes of different dimensions) is concatenated along ``axis`` instead,
    coordinate after coordinate as in the stacked iterate."""
    if isinstance(parts[0], tuple):
        return tuple(_stack_leaves(leaf, axis) for leaf in zip(*parts))
    parts = [np.asarray(p) for p in parts]
    if all(p.shape == parts[0].shape for p in parts):
        return np.stack(parts, axis=axis)
    return np.concatenate(parts, axis=axis)


class NodeObservations:
    """Observations of all nodes, stacked leaf by leaf.

    A leaf has a leading node axis, or, when its length differs between nodes
    (``_stack_leaves``), a leading coordinate axis laid out like the stacked
    iterate, split per node at ``offsets`` (``ProblemSpec.obs_offsets``).
    ``obs[i]`` is node i's observation, as ``sample_observation`` returns it;
    an index array or a slice selects nodes of node-axis leaves, and
    ``rows(sel)`` gives the observations of the rows ``sel`` of
    ``ProblemSpec.row_array``.
    """

    __slots__ = ("leaves", "offsets", "_per_node")

    def __init__(self, leaves, offsets=None):
        self.leaves = leaves
        self.offsets = offsets
        self._per_node = None

    @staticmethod
    def of(ths, offsets=None) -> "NodeObservations":
        """``ths`` itself, or a per-node sequence of observations stacked."""
        if isinstance(ths, NodeObservations):
            return ths
        return NodeObservations(_stack_leaves(list(ths), axis=0), offsets)

    def __getitem__(self, nodes):
        if isinstance(nodes, (int, np.integer)):
            if self._per_node is None:  # split once: per-node code asks for each node often
                self._per_node = _split_nodes(self.leaves, self.offsets)
            return self._per_node[nodes]
        if isinstance(nodes, slice):
            return tree_map(lambda leaf: leaf[nodes], self.leaves)
        return tree_map(lambda leaf: leaf.take(nodes, axis=0), self.leaves)

    def rows(self, sel):
        """Observations of rows ``sel`` of ``ProblemSpec.row_array``: the nodes
        ``sel``, or coordinate rows of dimension 1 (leaves (rows, 1, ...))."""
        if self.offsets is None:
            return self[sel]
        return tree_map(lambda leaf: leaf[sel, None], self.leaves)


def _split_nodes(tree, offsets) -> list:
    """Per-node observations of stacked ``tree``: a leaf with one row per
    node is split by row, one with a row per coordinate at ``offsets``."""
    if isinstance(tree, tuple):
        return list(zip(*[_split_nodes(leaf, offsets) for leaf in tree]))
    if offsets is None or len(tree) == len(offsets) - 1:
        return list(tree)
    return np.split(tree, offsets[1:-1])


def _block_rng(seed: int, node: int, block: int) -> np.random.Generator:
    """Counter-based generator: identical (seed, node, block) -> identical stream."""
    return np.random.default_rng(
        np.random.SeedSequence([_OBS_STREAM, int(seed) & 0xFFFFFFFFFFFFFFFF, node, block])
    )


def _draw_block(sampler: Sampler, rng: np.random.Generator):
    if sampler.batch is not None:
        return sampler.batch(rng, OBS_BLOCK)
    return _stack_leaves([sampler.sample(rng) for _ in range(OBS_BLOCK)], axis=0)


def observation_block(spec: ProblemSpec, seed: int, block: int):
    """Observations of steps block*OBS_BLOCK onward for every node, stacked
    leaf by leaf as (OBS_BLOCK, N, ...), or (OBS_BLOCK, C, ...) for leaves
    with one entry per coordinate of nodes of different dimensions."""
    return _stack_leaves([_draw_block(sampler, _block_rng(seed, node, block))
                          for node, sampler in enumerate(spec.samplers)], axis=1)


def sample_observation(spec: ProblemSpec, seed: int, node: int, t: int):
    """theta^node_t: the row the engine uses at step t, for any query order.

    Row t of node ``node`` is row t mod OBS_BLOCK of the block drawn from the
    generator of (seed, node, t // OBS_BLOCK), so the value does not depend on
    the horizon, the number of nodes or what was drawn before."""
    block, row = divmod(t, OBS_BLOCK)
    drawn = _draw_block(spec.samplers[node], _block_rng(seed, node, block))
    return tree_map(lambda leaf: leaf[row], drawn)


def objective_grads(spec: ProblemSpec, xs, ths):
    """Per-node objective gradients, one ``grad`` call per Objective instance
    (on the stacked rows of the nodes sharing it); same layout as ``spec.rows``."""
    flat = np.empty(spec.offsets[-1])
    grads = spec.rows(flat)
    rows_x = obs = None
    for obj, nodes, rows, _ in spec.objective_groups:
        if rows is None:
            grads[nodes][...] = obj.grad(xs[nodes], ths[nodes])
            continue
        if rows_x is None:
            rows_x, obs = spec.row_array(xs), NodeObservations.of(ths, spec.obs_offsets)
        spec.row_array(flat)[rows] = obj.grad(rows_x[rows], obs.rows(rows))
    return grads


def objective_sum(spec: ProblemSpec, xs, ths, lanes: int | None = None):
    """sum_i f^i(x^i, th^i) added in node order, one ``value`` call per
    Objective instance; a node evaluated by coordinate adds its rows first.

    With ``lanes``, ``spec`` is a ``ProblemSpec.tile`` of that many copies
    and the result is the (lanes,) array of each copy's own sum."""
    values = np.empty(spec.graph.n_nodes)
    rows_x = obs = None
    for obj, nodes, rows, sums in spec.objective_groups:
        if rows is None:
            values[nodes] = float(obj.value(xs[nodes], ths[nodes]))
            continue
        if rows_x is None:
            rows_x, obs = spec.row_array(xs), NodeObservations.of(ths, spec.obs_offsets)
        v = obj.value(rows_x[rows], obs.rows(rows))
        values[nodes] = v if sums is None else _sum_node_rows(v, sums)
    if lanes is not None:
        return _sum_in_order(values.reshape(lanes, -1))
    return float(_sum_in_order(values))


def objective_grad(spec: ProblemSpec, node: int, x_i, theta) -> np.ndarray:
    x_i = np.asarray(x_i, dtype=float)
    if x_i.shape != (spec.dims[node],):
        raise DimensionMismatch(f"x has shape {x_i.shape}, node {node} expects ({spec.dims[node]},)")
    return np.asarray(spec.objectives[node].grad(x_i, theta), dtype=float)


def as_neighborhood(spec: ProblemSpec) -> ProblemSpec:
    """The same problem with J^T lam computed by the generic per-node loop.

    The family is rebuilt with ``ConstraintFamily.from_per_node`` from the
    same per-node constraints, so a pairwise problem re-encoded this way
    follows the edge-loop trajectory up to floating-point summation order.
    """
    constraints = ConstraintFamily.from_per_node(spec.graph, spec.constraints.per_node)
    return replace(spec, constraints=constraints, name=spec.name + "_nbhd")


# ---------------------------------------------------------------------------
# expected objective
# ---------------------------------------------------------------------------

# draws (rows x samples) per batch_value call: a large group is evaluated in
# pieces of its stacked draws, so one call's temporaries stay near 0.5 MB while
# the draws of a 500-node problem take 40 MB
_EVAL_PIECE = 1 << 16


class ExpectedObjective:
    """F(x) = sum_i E[f^i(x^i, theta^i)], exact where the problem says how.

    Nodes sharing an Objective are evaluated like the engine step evaluates
    them (``ProblemSpec.objective_groups``). A group whose Objective has
    ``expected`` and whose samplers all give a ``law`` is evaluated exactly:
    its laws are stacked once, as (rows, ...) in the row layout of the
    group's iterate rows, and one ``expected`` call scores every row. Any
    other group is estimated with a frozen evaluation sample, independent of
    training: its draws are stacked as (rows, S, ...), and ``batch_value``
    maps the stacked rows and draws to (rows, S) per-sample values (without
    ``batch_value`` or ``Sampler.batch``, ``value`` is called per draw). The
    same draw set is reused for every query point, so differences
    F(x) - F(y) of nearby points carry far less Monte Carlo noise than the
    individual values.
    """

    def __init__(self, spec: ProblemSpec, mc_samples: int = DEFAULT_MC_SAMPLES,
                 seed: int = 0):
        self.spec = spec
        self.mc_samples = int(mc_samples)
        self._exact = []    # (expected, nodes, rows, sums, laws)
        self._batched = []  # (batch_value, nodes, rows, sums, draws)
        self._plain = []    # (node, value, draws)
        S = self.mc_samples

        def rng(node):
            return np.random.default_rng(np.random.SeedSequence([2, int(seed) & 0xFFFFFFFFFFFFFFFF, node]))

        for obj, nodes, rows, sums in spec.objective_groups:
            members = [nodes] if rows is None else _members(nodes, spec.graph.n_nodes)
            if obj.expected is not None and all(spec.samplers[i].law is not None for i in members):
                laws = spec.samplers[nodes].law if rows is None else self._stacked_laws(members)
                self._exact.append((obj.expected, nodes, rows, sums, laws))
            elif obj.batch_value is None or any(spec.samplers[i].batch is None for i in members):
                for i in members:
                    node_rng = rng(i)
                    self._plain.append((i, obj.value, [spec.samplers[i].sample(node_rng)
                                                       for _ in range(S)]))
            elif rows is None:
                self._batched.append((obj.batch_value, nodes, None, None,
                                      spec.samplers[nodes].batch(rng(nodes), S)))
            else:
                counts = [1 if spec.uniform else spec.dims[i] for i in members]
                o = list(accumulate(counts, initial=0))  # first row of each member
                draws = self._stacked_draws(members, o, rng)
                # evaluated in pieces of whole nodes with at most _EVAL_PIECE
                # rows x samples (one node's rows when they alone exceed it)
                per_piece = max(1, _EVAL_PIECE // (S * max(counts)))
                if per_piece >= len(members):
                    self._batched.append((obj.batch_value, nodes, rows, sums, draws))
                    continue
                for a in range(0, len(members), per_piece):
                    piece = members[a:a + per_piece]
                    lo, hi = o[a], o[a + len(piece)]
                    self._batched.append((obj.batch_value, *_row_layout(spec, piece),
                                          tree_map(lambda leaf: leaf[lo:hi], draws)))

    def _stacked_laws(self, members: list):
        """The laws of ``members`` stacked leaf by leaf: (n, ...) per node, or
        per coordinate (rows, 1, ...) as coordinate rows of dimension 1."""
        laws = [self.spec.samplers[i].law for i in members]
        if self.spec.uniform:
            return tree_map(lambda *leaves: np.stack(leaves), *laws)
        return tree_map(lambda *leaves: np.concatenate(leaves)[:, None], *laws)

    def _stacked_draws(self, members: list, o: list, rng):
        """The draws of ``members`` stacked as (rows, S, ...), member j's at
        rows o[j]:o[j+1]: one node's draws are written in as they come, so no
        second copy is held."""
        spec, S = self.spec, self.mc_samples
        tree = stacked = None
        for j, i in enumerate(members):
            draws = spec.samplers[i].batch(rng(i), S)
            leaves = _leaves(draws)
            if stacked is None:
                # (S, ...) per node -> one row (1, S, ...), or per coordinate
                # (S, k, ...) -> k rows of dimension 1 (k, S, 1, ...)
                tree, stacked = draws, [
                    np.empty((o[-1], S) + leaf.shape[1:] if spec.uniform
                             else (o[-1], S, 1) + leaf.shape[2:], leaf.dtype) for leaf in leaves]
            for out, leaf in zip(stacked, leaves):
                if spec.uniform:
                    out[j] = leaf
                else:
                    out[o[j]:o[j + 1], :, 0] = leaf.swapaxes(0, 1)
        rows = iter(stacked)
        return tree_map(lambda _: next(rows), tree)

    def value(self, x) -> float:
        """F at per-node vectors x (a list of vectors or ``spec.rows``): the
        one-row case of ``values``."""
        return float(self.values(stack(x)[None])[0])

    def values(self, X) -> np.ndarray:
        """F at every row of X (B, C), each a stacked iterate: every node's
        expectation (or sample mean), added in node order per row.

        Exact groups score all B rows in one ``expected`` call; Monte Carlo
        groups one row at a time. A row's value does not depend on the other
        rows, so it equals ``value`` of that row bit for bit."""
        spec = self.spec
        X = np.asarray(X, dtype=float)
        B = len(X)
        node_values = np.empty((B, spec.graph.n_nodes))
        # every row as the rows shared objectives take (spec.row_array), (B, ...)
        rows_x = X.reshape(B, spec.graph.n_nodes, -1) if spec.uniform else X[:, :, None]
        for expected, nodes, rows, sums, laws in self._exact:
            if rows is None:
                o = spec.offsets
                node_values[:, nodes] = expected(X[:, o[nodes]:o[nodes + 1]], laws)
                continue
            v = expected(rows_x[:, rows], laws)
            node_values[:, nodes] = v if sums is None else _sum_node_rows(v.T, sums).T
        if self._batched or self._plain:
            for b in range(B):
                self._sample_means(spec.rows(X[b]), node_values[b])
        return _sum_in_order(node_values)

    def _sample_means(self, x, means: np.ndarray) -> None:
        """Every Monte Carlo node's sample mean at per-node vectors x, into
        ``means``."""
        rows_x = None
        for batch_value, nodes, rows, sums, draws in self._batched:
            if rows is None:
                means[nodes] = np.mean(batch_value(np.asarray(x[nodes], dtype=float), draws))
                continue
            if rows_x is None:
                rows_x = self.spec.row_array(x)
            values = batch_value(rows_x[rows], draws)
            if sums is not None:
                values = _sum_node_rows(values, sums)
            means[nodes] = np.mean(values, axis=1)
        for node, value, draws in self._plain:
            xi = np.asarray(x[node], dtype=float)
            means[node] = np.mean([value(xi, th) for th in draws])

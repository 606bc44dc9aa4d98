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
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InfeasibleDomain, InvalidConfig, NonFiniteState
from .graph import NetworkGraph, disjoint_copies

__all__ = [
    "DomainSpec",
    "Objective",
    "Sampler",
    "ConstraintFamily",
    "ProblemSpec",
    "NodeObservations",
    "project",
    "stack_leaves",
    "coordinate_leaves",
    "sample_observation",
    "sample_rows",
    "keyed_generators",
    "observation_block",
    "objective_grads",
    "objective_sum",
    "ObjectiveGroup",
    "lane_copies",
    "ExpectedObjective",
    "DEFAULT_MC_SAMPLES",
    "OBS_BLOCK",
]

DEFAULT_MC_SAMPLES = 2000

# distinct stream tags keep observation, delay and evaluation randomness disjoint
_OBS_STREAM = 1
_EVAL_STREAM = 2

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

    def contains(self, u, tol: float | None = None) -> bool:
        """u lies in the domain up to ``tol``: by default 1e-9 for a box and,
        for a sum interval, the slack ``project`` leaves a point in
        (``_sum_tolerance``)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "box":
            tol = 1e-9 if tol is None else tol
            return bool((u >= self.lo - tol).all() and (u <= self.hi + tol).all())
        # a sum of entries near the float range may overflow: not contained
        with np.errstate(over="ignore", invalid="ignore"):
            return self._sum_contains(u, _sum_tolerance(self) if tol is None else tol)

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

    ``value`` and ``grad`` take rows x (..., p) with observation leaves that
    broadcast on the leading axes, and return (...,) values and (..., p)
    gradients: the engine passes the rows (n, p) of every node holding the
    instance with their observations stacked leaf by leaf
    (``NodeObservations.rows``), ``ExpectedObjective`` the rows (n, 1, p)
    against every row's draws (n, S, ...). ``expected``, when given, maps
    rows x (..., p) and the samplers' laws (``Sampler.law``, stacked like
    the rows) to the exact expectations E f(x, theta), one per row (...,);
    ``ExpectedObjective`` then draws no sample for these nodes.
    """

    value: callable
    grad: callable
    expected: callable | None = None


@dataclass(frozen=True)
class Sampler:
    """Per-node observation distribution.

    An observation is a flat tuple of arrays, as many at every node (``()``
    for a point mass). ``sample(rng)`` draws one; ``batch(rng, size)``, when
    given, draws a set of them: a tuple whose row r of every array is one
    observation. The engine and ``ExpectedObjective`` draw their
    observations with ``batch``, or as ``sample_rows`` does when ``batch``
    is missing. ``law``, when given,
    holds the distribution's parameters as ``Objective.expected`` reads
    them: a tuple of arrays, with one entry per coordinate when dims differ.
    ``draws(rng, n)``, when given, returns n observations stacked leaf by
    leaf, equal bit for bit to n ``sample`` calls and leaving ``rng`` in the
    same state. Stacking a draw or law that is not a tuple raises
    InvalidConfig.
    """

    sample: callable
    batch: callable | None = None
    law: object = None
    draws: callable | None = None


@dataclass(frozen=True)
class ConstraintFamily:
    """All constraints of a problem, stacked into one slack vector.

    ``slack(x, obs)`` returns the (size,) stacked slack at the stacked
    iterate x (C,) and the ``NodeObservations`` obs, and
    ``add_jt_lam(grads, lam, x, obs)`` returns the stacked gradients
    grads (C,) plus J^T lam, with J the Jacobian of the stacked slack at
    (x, obs) and lam laid out like the slack. ``tile(S)`` returns
    the family of S independent copies of the problem laid out one after the
    other (``ProblemSpec.tile``), whose kernels evaluate every copy in one
    call and give each copy's entries bit for bit as the family gives them
    alone.
    """

    size: int
    slack: callable
    add_jt_lam: callable
    tile: callable

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
        if isinstance(gamma, dict):
            missing = [e for e in graph.edges if e not in gamma]
            if missing:
                raise InvalidConfig(f"gamma table has no tolerance for edge {missing[0]}")
            gammas = np.array([gamma[e] for e in graph.edges], dtype=float)
        else:
            gammas = np.full(graph.n_edges, float(gamma))
        bad = np.flatnonzero(~(gammas >= 0))
        if bad.size:
            i, j = graph.edges[bad[0]]
            raise InvalidConfig(f"tolerance gamma[{i},{j}] must be >= 0")
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

            def edge_rows(x, obs):
                """(x_src, x_dst, th_src, th_dst) stacked over all edges; the
                slack and J^T lam at ``obs`` share its observations' gather."""
                rows = x.reshape(lanes * n, -1)
                if obs.edges is None or obs.edges[0] is not src_l:
                    obs.edges = (src_l, obs.take(src_l), obs.take(dst_l))
                return rows.take(src_l, axis=0), rows.take(dst_l, axis=0), *obs.edges[1:]

            def slack(x, obs):
                return np.asarray(value(*edge_rows(x, obs)), dtype=float) - gammas_l

            def add_jt_lam(grads, lam, x, obs):
                w = lam + lam[mirror_l]
                jac = np.asarray(grad_first(*edge_rows(x, obs)), dtype=float)
                return grads + np.add.reduceat(w[:, None] * jac, first_l, axis=0).reshape(-1)

            return slack, add_jt_lam

        return ConstraintFamily.from_lane_kernels(m, copies)

    @staticmethod
    def from_lane_kernels(size: int, kernels) -> "ConstraintFamily":
        """Family of ``size`` stacked entries whose ``kernels(S)`` returns the
        (slack, add_jt_lam) of S copies; its ``add_jt_lam`` returns a new
        array. A copy whose duals all vanish keeps its gradients as they
        are, as it would alone (adding zeros can flip a -0.0)."""
        def tile(lanes):
            slack, add = kernels(lanes)

            def add_jt_lam(grads, lam, x, obs):
                live = lam.reshape(lanes, size).any(axis=1)
                n_live = np.count_nonzero(live)
                if not n_live:
                    return grads
                out = add(grads, lam, x, obs)
                if n_live < lanes:
                    np.copyto(out, grads, where=np.repeat(~live, out.size // lanes))
                return out

            return ConstraintFamily(lanes * size, slack, add_jt_lam, tile=lambda k: tile(lanes * k))

        return tile(1)


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


# ---------------------------------------------------------------------------
# problem spec
# ---------------------------------------------------------------------------

class ObjectiveGroup(NamedTuple):
    """Nodes whose objective terms one call of their Objective evaluates:
    every node holding the instance, or a node alone with its own.

    The call takes the rows ``rows`` of ``ProblemSpec.row_array`` and
    ``nodes`` selects the member nodes (each a slice when consecutive). With
    uniform dims the rows are the nodes and ``sums`` is None; otherwise
    every coordinate is a row and ``sums`` is the plan ``_sum_node_rows``
    adds each node's rows with.
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
        """Per-node views of a stacked vector, for output: an (N, p) array
        when dims are uniform, a list of views otherwise."""
        if self.uniform:
            return flat.reshape(self.graph.n_nodes, self.dims[0])
        return np.split(flat, self.offsets[1:-1])

    def row_array(self, flat: np.ndarray) -> np.ndarray:
        """Stacked vectors (..., C) as the rows shared objectives take, as a
        view: (..., N, p) when dims are uniform, otherwise every coordinate
        as a row of dimension 1, (..., C, 1)."""
        if self.uniform:
            return flat.reshape(flat.shape[:-1] + (self.graph.n_nodes, -1))
        return flat[..., None]

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
        (lanes, C) array. The constraints are the family's ``tile``. Every
        Objective instance, a node's own included, covers its nodes of every
        copy in one call. ``optimum`` is not carried. The problem itself
        when ``lanes`` is 1."""
        if lanes == 1:
            return self
        return replace(self, graph=disjoint_copies(self.graph, lanes), dims=self.dims * lanes,
                       objectives=self.objectives * lanes, samplers=self.samplers * lanes,
                       constraints=self.constraints.tile(lanes), domains=self.domains * lanes,
                       x0=self.x0 * lanes, optimum=None)

    @cached_property
    def objective_groups(self) -> tuple:
        """One ``ObjectiveGroup`` per Objective instance, in order of first use.

        When dims differ, every node is evaluated on its coordinates as rows
        of dimension 1: every instance must then be separable by coordinate,
        with one observation entry per coordinate."""
        shared = {}
        for i, obj in enumerate(self.objectives):
            shared.setdefault(id(obj), (obj, []))[1].append(i)
        return tuple(ObjectiveGroup(obj, *_row_layout(self, nodes)) for obj, nodes in shared.values())


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

def _tuples(parts) -> list:
    """``parts`` (observations, batches of them or laws) when each is a tuple
    of as many arrays as the first; InvalidConfig otherwise, where a bare
    array would be taken apart row by row without an error."""
    # one pass in C over the parts: the engine stacks every node's block
    if not all(map(isinstance, parts, repeat(tuple))) or len(set(map(len, parts))) > 1:
        bad = next(p for p in parts if not isinstance(p, tuple) or len(p) != len(parts[0]))
        got = f"{len(bad)} arrays" if isinstance(bad, tuple) else f"a {type(bad).__name__}"
        raise InvalidConfig("observations and laws must be tuples of arrays, as many as "
                            f"the first one's: got {got}")
    return parts


def stack_leaves(parts, axis: int) -> tuple:
    """Stack observations (``_tuples``) leaf by leaf along a new ``axis``.

    A leaf whose length differs between the parts (one entry per coordinate
    of nodes of different dimensions) is concatenated along ``axis`` instead,
    coordinate after coordinate as in the stacked iterate."""
    return tuple([_stack_leaf([np.asarray(p) for p in leaf], axis) for leaf in zip(*_tuples(parts))])


def _stack_leaf(parts: list, axis: int) -> np.ndarray:
    if all(p.shape == parts[0].shape for p in parts):
        return np.stack(parts, axis=axis)
    if len({p.ndim for p in parts}) > 1:  # one entry per node at some nodes, per coordinate at others
        raise InvalidConfig("when dims differ, every observation array needs one entry per coordinate")
    return np.concatenate(parts, axis=axis)


class NodeObservations:
    """Observations of all nodes, stacked leaf by leaf.

    ``leaves`` is the tuple of the stacked arrays. A leaf has a leading node
    axis, or, when its length differs between nodes (``stack_leaves``), a
    leading coordinate axis laid out like the stacked iterate, with node i's
    coordinates at ``offsets`` (``ProblemSpec.obs_offsets``) i to i + 1.
    ``take(nodes)`` gathers nodes of node-axis leaves, and ``rows(sel)``
    gives the observations of the rows ``sel`` of ``ProblemSpec.row_array``,
    each a tuple. ``edges`` keeps a constraint family's gather.
    """

    __slots__ = ("leaves", "offsets", "edges")

    def __init__(self, leaves, offsets=None):
        self.leaves = tuple(leaves)
        self.offsets = offsets
        self.edges = None

    def take(self, nodes) -> tuple:
        """The rows ``nodes`` (an index array) of every leaf: ``take`` gathers
        rows of a 2-D leaf several times faster than fancy indexing does."""
        return tuple([leaf.take(nodes, axis=0) for leaf in self.leaves])

    def rows(self, sel) -> tuple:
        """Observations of rows ``sel`` of ``ProblemSpec.row_array``: the nodes
        ``sel``, or coordinate rows of dimension 1 (leaves (rows, 1, ...))."""
        if self.offsets is None:
            return tuple([leaf[sel] for leaf in self.leaves])
        return tuple([leaf[sel, None] for leaf in self.leaves])


# numpy's SeedSequence (numpy/random/bit_generator.pyx) hashes a key's uint32
# words into a pool of 4 words and expands the pool into PCG64's seed. Its hash
# constants run through fixed chains (c, c*m, c*m^2, ... mod 2^32) whatever the
# data, so the chains are built here once: _HASH_A for the pool (4 constants
# a word, keys of up to 12 words) and _HASH_B for ``generate_state(4, uint64)``.
_POOL = 4


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    return np.array([init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(n)], np.uint32)[:, None]


_HASH_A = _hash_chain(0x43B0D7E5, 0x931E8875, _POOL * 12 + 1)
_HASH_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHERS = [[d for d in range(_POOL) if d != s] for s in range(_POOL)]
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK128 = (1 << 128) - 1


def _hashmix(words: np.ndarray, k: int, n: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``words`` with the hash constants k..k+n-1,
    one per row of the result. uint32 arrays wrap without a warning."""
    v = (words ^ _HASH_A[k:k + n]) * _HASH_A[k + 1:k + n + 1]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ (v >> 16)


def _pool_hash(words: np.ndarray) -> list:
    """The 4 uint64 words of ``SeedSequence(key).generate_state(4, uint64)``
    of every key, a column of ``words`` (w, keys) uint32, in one pass."""
    pool = np.zeros((_POOL, words.shape[1]), np.uint32)
    pool[:len(words)] = words[:_POOL]
    pool, k = _hashmix(pool, 0, _POOL), _POOL
    for src, dst in enumerate(_OTHERS):  # every word into the 3 others
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], k, _POOL - 1))
        k += _POOL - 1
    for word in words[_POOL:]:  # words past the pool, each into all 4
        pool = _mix(pool, _hashmix(word, k, _POOL))
        k += _POOL
    out = (np.tile(pool, (2, 1)) ^ _HASH_B[:-1]) * _HASH_B[1:]
    out ^= out >> 16
    return np.ascontiguousarray(out.T).view("<u8").tolist()


def keyed_generators(stream: int, seeds, nodes, *counters: int):
    """One generator per key [stream, seed & (2^64 - 1), node, *counters] of
    every seed of ``seeds`` and node of ``nodes``, seed after seed, each in
    the state ``default_rng(SeedSequence(key))`` has, bit for bit.

    SeedSequence takes an int as its little-endian uint32 words (0 as one
    word); the keys are hashed in one numpy pass per word count. Every key
    yields the same Generator, set to the key's state: draw from it before
    taking the next."""
    n = len(nodes)
    key = np.empty((3 + len(counters), len(seeds) * n), np.uint64)
    key[0] = stream
    key[1] = np.repeat(np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds], np.uint64), n)
    key[2] = np.tile(np.asarray(nodes, np.uint64), len(seeds))
    key[3:] = np.array(counters, np.uint64).reshape(-1, 1)
    lo, hi = key.astype(np.uint32), (key >> np.uint64(32)).astype(np.uint32)
    two = hi != 0
    # one bit per part that takes two words; a sum and a set, where ``@`` and
    # ``np.unique`` would each add ~0.4 MB to a run's peak RSS on first call
    kinds = (two * (1 << np.arange(len(key)))[:, None]).sum(axis=0)
    seeded = [None] * key.shape[1]
    for kind in set(kinds.tolist()):
        cols = np.flatnonzero(kinds == kind)
        words = np.stack([w[p, cols] for p in range(len(key)) for w in (lo, hi)[:1 + two[p, cols[0]]]])
        for j, (s0, s1, q0, q1) in zip(cols.tolist(), _pool_hash(words)):
            inc = (((q0 << 64 | q1) << 1) | 1) & _MASK128
            seeded[j] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in seeded:
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def _draw(sampler: Sampler, rng: np.random.Generator, n: int):
    """n observations stacked leaf by leaf: ``batch`` when the sampler has
    one, else ``sample_rows``."""
    if sampler.batch is not None:
        return sampler.batch(rng, n)
    return sample_rows(sampler, rng, n)


def sample_rows(sampler: Sampler, rng: np.random.Generator, n: int):
    """n observations stacked leaf by leaf, drawn as n ``sample`` calls draw
    them: with ``Sampler.draws``, or by stacking the ``sample`` calls."""
    if sampler.draws is not None:
        return sampler.draws(rng, n)
    return stack_leaves([sampler.sample(rng) for _ in range(n)], axis=0)


def coordinate_leaves(spec: ProblemSpec, leaves, axis: int, n: int):
    """``leaves`` when dims are uniform, or when every leaf has ``n``
    entries, one per coordinate, along ``axis``. When dims differ every
    Objective takes coordinate rows, so any other leaf (one entry per node,
    say) raises InvalidConfig."""
    if spec.obs_offsets is not None and any(np.ndim(leaf) <= axis or np.shape(leaf)[axis] != n
                                            for leaf in leaves):
        raise InvalidConfig("when dims differ, every observation array needs one entry per coordinate")
    return leaves


def observation_block(spec: ProblemSpec, seed, block: int):
    """Observations of steps block*OBS_BLOCK onward for every node, stacked
    leaf by leaf as (OBS_BLOCK, N, ...), or (OBS_BLOCK, C, ...) for leaves
    with one entry per coordinate of nodes of different dimensions
    (``coordinate_leaves``). ``seed`` is one seed or, as ``SaddleEngine``
    takes them, every lane's: the lanes' blocks then lie side by side, lane
    after lane, (OBS_BLOCK, S*N, ...) or (OBS_BLOCK, S*C, ...)."""
    seeds = list(seed) if np.ndim(seed) else [seed]
    rngs = keyed_generators(_OBS_STREAM, seeds, range(spec.graph.n_nodes), block)
    leaves = stack_leaves([_draw(sampler, rng, OBS_BLOCK)
                           for sampler, rng in zip(spec.samplers * len(seeds), rngs)], axis=1)
    return coordinate_leaves(spec, leaves, 1, len(seeds) * spec.offsets[-1])


def sample_observation(spec: ProblemSpec, seed: int, node: int, t: int):
    """theta^node_t: the row the engine uses at step t, for any query order.

    Row t of node ``node`` is row t mod OBS_BLOCK of the block drawn from the
    generator of (seed, node, t // OBS_BLOCK), so the value does not depend on
    the horizon, the number of nodes or what was drawn before."""
    block, row = divmod(t, OBS_BLOCK)
    rng = next(keyed_generators(_OBS_STREAM, [seed], [node], block))
    (drawn,) = _tuples([_draw(spec.samplers[node], rng, OBS_BLOCK)])
    return tuple([leaf[row] for leaf in drawn])


def objective_grads(spec: ProblemSpec, x: np.ndarray, obs: NodeObservations) -> np.ndarray:
    """Stacked objective gradients (C,) at the stacked iterate x (C,) and
    the ``NodeObservations`` obs, one ``grad`` call per Objective instance
    (on the stacked rows of the nodes holding it)."""
    flat = np.empty(spec.offsets[-1])
    out, rows_x = spec.row_array(flat), spec.row_array(x)
    for obj, _, rows, _ in spec.objective_groups:
        out[rows] = obj.grad(rows_x[rows], obs.rows(rows))
    return flat


def objective_sum(spec: ProblemSpec, x: np.ndarray, obs: NodeObservations):
    """sum_i f^i(x^i, th^i) at the stacked iterate x added in node order, one
    ``value`` call per Objective instance; a node evaluated by coordinate
    adds its rows first. x may have leading axes, (..., C), which the
    observation leaves then have too: each iterate is scored against its
    own observations and the result has those axes."""
    X = x.reshape(-1, x.shape[-1])
    leaves = [leaf.reshape((len(X),) + leaf.shape[x.ndim - 1:]) for leaf in obs.leaves]

    def theta(rows):  # as NodeObservations.rows, behind the leading axis
        return tuple([leaf[:, rows] if spec.uniform else leaf[:, rows, None] for leaf in leaves])

    values = _node_values(spec, spec.row_array(X), ((obj.value, nodes, rows, sums, theta(rows))
                                                    for obj, nodes, rows, sums in spec.objective_groups))
    total = _sum_in_order(values).reshape(x.shape[:-1])
    return total if total.ndim else float(total)


def _node_values(spec: ProblemSpec, rows_x: np.ndarray, groups) -> np.ndarray:
    """(B, N) node values at B stacked iterates, from their rows (B, ...) (``ProblemSpec.row_array``):
    fn(rows_x[:, rows], theta) per (fn, nodes, rows, sums, theta) of ``groups``, coordinate rows added up."""
    out = np.empty((len(rows_x), spec.graph.n_nodes))
    for fn, nodes, rows, sums, theta in groups:
        v = fn(rows_x[:, rows], theta)
        out[:, nodes] = v if sums is None else _sum_node_rows(v.T, sums).T
    return out


# ---------------------------------------------------------------------------
# expected objective
# ---------------------------------------------------------------------------

# draws (rows x samples) per Monte Carlo ``value`` call: a large group is
# evaluated in pieces of its stacked draws, so one call's temporaries stay near
# 0.5 MB while the draws of a 500-node problem take 40 MB
_EVAL_PIECE = 1 << 16


class ExpectedObjective:
    """F(x) = sum_i E[f^i(x^i, theta^i)], exact where the problem says how.

    The nodes holding an Objective are evaluated like the engine step
    evaluates them (``ProblemSpec.objective_groups``). A group whose Objective has
    ``expected`` and whose samplers all give a ``law`` is evaluated exactly:
    its laws are stacked once, as (rows, ...) in the row layout of the
    group's iterate rows, and one ``expected`` call scores every row. Any
    other group is estimated with a frozen evaluation sample, independent of
    training: each node's S draws (``Sampler.batch``, else ``sample_rows``)
    are stacked as (rows, S, ...), and one ``value`` call scores the rows
    (rows, 1, p) against them, giving (rows, S) per-sample values. The
    same draw set is reused for every query point, so differences
    F(x) - F(y) of nearby points carry far less Monte Carlo noise than the
    individual values.
    """

    def __init__(self, spec: ProblemSpec, mc_samples: int = DEFAULT_MC_SAMPLES,
                 seed: int = 0):
        self.spec = spec
        self.mc_samples = int(mc_samples)
        self._exact = []    # (expected, nodes, rows, sums, laws)
        self._sampled = []  # (value, nodes, rows, sums, draws)
        S = self.mc_samples

        for obj, nodes, rows, sums in spec.objective_groups:
            members = _members(nodes, spec.graph.n_nodes)
            if obj.expected is not None and all(spec.samplers[i].law is not None for i in members):
                self._exact.append((obj.expected, nodes, rows, sums, self._stacked_laws(members)))
                continue
            counts = [1 if spec.uniform else spec.dims[i] for i in members]
            o = list(accumulate(counts, initial=0))  # first row of each member
            draws = self._stacked_draws(members, o, keyed_generators(_EVAL_STREAM, [seed], members))
            # evaluated in pieces of whole nodes with at most _EVAL_PIECE
            # rows x samples (one node's rows when they alone exceed it)
            per_piece = max(1, _EVAL_PIECE // (S * max(counts)))
            for a in range(0, len(members), per_piece):
                piece = members[a:a + per_piece]
                lo, hi = o[a], o[a + len(piece)]
                self._sampled.append((obj.value, *_row_layout(spec, piece),
                                      tuple([leaf[lo:hi] for leaf in draws])))

    def _stacked_laws(self, members: list):
        """The laws of ``members`` stacked leaf by leaf: (n, ...) per node, or
        per coordinate (rows, 1, ...) as coordinate rows of dimension 1."""
        spec = self.spec
        laws = _tuples([spec.samplers[i].law for i in members])
        if spec.uniform:
            return tuple([np.stack(leaves) for leaves in zip(*laws)])
        for i, law in zip(members, laws):
            coordinate_leaves(spec, law, 0, spec.dims[i])
        return tuple([np.concatenate(leaves)[:, None] for leaves in zip(*laws)])

    def _stacked_draws(self, members: list, o: list, rngs):
        """The draws of ``members`` from their generators ``rngs`` stacked as
        (rows, S, ...), member j's at rows o[j]:o[j+1]: one node's draws are
        written in as they come, so no second copy is held."""
        spec, S = self.spec, self.mc_samples
        stacked = None
        for j, (i, rng) in enumerate(zip(members, rngs)):
            draws = _draw(spec.samplers[i], rng, S)
            if stacked is None:
                # (S, ...) per node -> one row (1, S, ...), or per coordinate
                # (S, k, ...) -> k rows of dimension 1 (k, S, 1, ...)
                stacked = tuple([np.empty((o[-1], S) + leaf.shape[1:] if spec.uniform
                                          else (o[-1], S, 1) + leaf.shape[2:], leaf.dtype)
                                 for leaf in _tuples([draws])[0]])
            # each member's draws: a tuple of as many arrays as the first's,
            # one entry per coordinate when dims differ
            draws = coordinate_leaves(spec, _tuples([stacked, draws])[1], 1, o[j + 1] - o[j])
            for out, leaf in zip(stacked, draws):
                if spec.uniform:
                    out[j] = leaf
                else:
                    out[o[j]:o[j + 1], :, 0] = leaf.swapaxes(0, 1)
        return stacked

    def value(self, x) -> float:
        """F at the stacked iterate x (C,): the one-row case of ``values``."""
        return float(self.values([x])[0])

    def values(self, X) -> np.ndarray:
        """F at every row of X (B, C), each a stacked iterate: every node's
        expectation (or sample mean), added in node order per row. Any other
        shape, per-node vectors included, raises DimensionMismatch.

        Exact groups score all B rows in one ``expected`` call; Monte Carlo
        groups one row at a time. A row's value does not depend on the other
        rows, so it equals ``value`` of that row bit for bit."""
        spec, C = self.spec, int(self.spec.offsets[-1])
        try:
            X = np.asarray(X, dtype=float)
        except ValueError as exc:  # a ragged list of per-node vectors
            raise DimensionMismatch(f"expected stacked iterates of length {C}: {exc}") from exc
        if X.ndim != 2 or X.shape[1] != C:
            raise DimensionMismatch(f"expected stacked iterates of length {C}, got shape {X.shape}")
        rows_x = spec.row_array(X)
        node_values = _node_values(spec, rows_x, self._exact)
        for b in range(len(X)):
            for value, nodes, rows, sums, draws in self._sampled:
                v = value(rows_x[b, rows][:, None], draws)
                node_values[b, nodes] = np.mean(v if sums is None else _sum_node_rows(v, sums), axis=1)
        return _sum_in_order(node_values)

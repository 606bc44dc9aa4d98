"""Constrained stochastic program abstraction.

A problem couples per-node stochastic objectives over a compact convex domain
with proximity constraints between neighbors. Constraints are stored as slack
functions (constraint value minus its tolerance), so the engine treats a
constraint as satisfied-in-expectation whenever the expected slack is <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, count, repeat
from operator import attrgetter, is_
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InfeasibleDomain, InvalidConfig, NonFiniteState
from .graph import NetworkGraph, disjoint_copies, lane_copies

__all__ = [
    "DomainSpec",
    "Objective",
    "Sampler",
    "ConstraintFamily",
    "ProblemSpec",
    "NodeObservations",
    "point_terms",
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
    for a point mass). ``sample(rng)`` draws one. ``batch(rngs, size,
    nodes)``, when given, draws ``size`` observations for each node of a
    group at once: the nodes of equal dimension whose Samplers share the
    function (``ProblemSpec.sampler_groups``). ``nodes`` holds their ids, a
    node once per seed drawn, and ``rngs`` yields one generator per entry,
    in that order (one reused Generator: each is drawn from before the next
    is taken). It returns a tuple of arrays (len(nodes), size, ...): row j
    of each is node j's draws from its generator, and row r of those one
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
    (x, obs) and lam laid out like the slack. A step calls both at one
    point, so the apps' kernels compute what the two share once and keep
    it on obs (``point_terms``). ``tile(S)`` returns
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
    def from_symmetric_pairwise(graph: NetworkGraph, value, grad_first, gamma,
                                terms=None) -> "ConstraintFamily":
        """One slack value(x_i, x_j, th_i, th_j) - gamma_ij per directed edge.

        ``value(a, b, th_a, th_b)`` must satisfy value(a, b, .) == value(b, a, .)
        and ``grad_first`` must be its gradient in the first argument. Both
        take either one edge's rows a, b (p,) or every edge's stacked rows
        (E, p) with stacked observations, returning (E,) values and (E, p)
        gradients. ``terms``, when given, maps those four to the
        intermediates ``value`` and ``grad_first`` share (the consensus
        app's d = a - b and |d|), which they then take instead. Node i owns
        the entries of its sorted neighbors, so the stacked order is that of
        ``graph.edges``. The slack is one call over
        the src/dst rows of all edges; mirror symmetry makes the gradient of
        node i's Lagrangian term the sum over its edges of
        (lam_ij + lam_ji) grad_first(x_i, x_j), so J^T lam is one
        ``grad_first`` call and a per-source sum instead of the per-node
        Jacobians. The gather of the rows and ``terms`` are computed once
        per point (``point_terms``).
        """
        src, dst, mirror = graph.src, graph.dst, graph.reverse
        if isinstance(gamma, dict):
            missing = [e for e in graph.edges if e not in gamma]
            if missing:
                raise InvalidConfig(f"gamma table has no tolerance for edge {missing[0]}")
            gammas = np.array([gamma[e] for e in graph.edges], dtype=float)
        else:
            gammas = np.full(graph.n_edges, float(gamma))
        bad = (~(gammas >= 0)).nonzero()[0]
        if bad.size:
            raise InvalidConfig(f"tolerance gamma[{src[bad[0]]},{dst[bad[0]]}] must be >= 0")
        # edges are sorted by source and every node of a connected graph with
        # N >= 2 has one, so node i's edges start at first[i]
        first = np.searchsorted(src, np.arange(graph.n_nodes))
        n, m = graph.n_nodes, len(gammas)
        prepare = terms or (lambda *rows: rows)

        def copies(lanes):
            """The kernels on ``lanes`` copies: copy s's nodes shifted by s*n,
            its edges (and duals) by s*m."""
            src_l, dst_l = lane_copies(lanes, src, n), lane_copies(lanes, dst, n)
            mirror_l, first_l = lane_copies(lanes, mirror, m), lane_copies(lanes, first, m)
            gammas_l = lane_copies(lanes, gammas)

            def at_edges(x, obs):
                """``terms`` of (x_src, x_dst, th_src, th_dst) stacked over all
                edges; every point at ``obs`` shares its observations' gather."""
                rows = x.reshape(lanes * n, -1)
                if obs.edges is None or obs.edges[0] is not src_l:
                    obs.edges = (src_l, obs.take(src_l), obs.take(dst_l))
                return prepare(rows.take(src_l, axis=0), rows.take(dst_l, axis=0), *obs.edges[1:])

            def slack(x, obs):
                return np.asarray(value(*point_terms(obs, at_edges, x)), dtype=float) - gammas_l

            def add_jt_lam(grads, lam, x, obs):
                w = lam + lam[mirror_l]
                jac = np.asarray(grad_first(*point_terms(obs, at_edges, x)), dtype=float)
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
                # the ufunc reductions themselves: NaN reads live, -0.0 dead
                live = np.logical_or.reduce(lam.reshape(lanes, size), axis=1)
                if not np.logical_or.reduce(live):
                    return grads
                out = add(grads, lam, x, obs)
                if not np.logical_and.reduce(live):
                    np.copyto(out, grads, where=np.repeat(~live, out.size // lanes))
                return out

            return ConstraintFamily(lanes * size, slack, add_jt_lam, tile=lambda k: tile(lanes * k))

        return tile(1)


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
    # (problem, lanes) of a ``tile`` of that problem, whose layout it
    # derives; not an init field, so ``replace`` of a tile derives its own
    _solo: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        # compared whole in C; only a failing problem looks for its first bad node
        domain_dims = list(map(attrgetter("dim"), domains))
        if min(dims) < 1 or domain_dims != list(dims):
            i = next(i for i, d in enumerate(dims) if d < 1 or domain_dims[i] != d)
            if dims[i] < 1:
                raise DimensionMismatch(f"node {i} has no coordinates")
            raise DimensionMismatch(f"domain dim {domains[i].dim} != dims[{i}]={dims[i]}")
        if x0 is not None and len(x0) != n:
            raise DimensionMismatch(f"x0 has {len(x0)} entries for {n} nodes")
        rows = _box_start(domain, n, x0) if isinstance(domain, DomainSpec) and domain.kind == "box" else None
        if rows is not None:
            x0 = tuple(rows)
        elif x0 is None:
            x0 = tuple([project(dom, dom.center()) for dom in domains])
        else:
            x0 = tuple([project(dom, np.asarray(x, dtype=float)) for dom, x in zip(domains, x0)])
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
        return self._solo[0].uniform if self._solo else len(set(self.dims)) == 1

    @cached_property
    def offsets(self) -> np.ndarray:
        """(N+1,) start of each node's coordinates in the stacked vector, then its length."""
        if self._solo:
            solo, lanes = self._solo
            c = solo.offsets[-1]
            return np.append(lane_copies(lanes, solo.offsets[:-1], c), lanes * c)
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
        if self._solo:
            solo, lanes = self._solo
            box = solo.box_bounds
            return None if box is None else (lane_copies(lanes, box[0]), lane_copies(lanes, box[1]))
        if set(map(attrgetter("kind"), self.domains)) != {"box"}:
            return None
        return (np.concatenate(list(map(attrgetter("lo"), self.domains))),
                np.concatenate(list(map(attrgetter("hi"), self.domains))))

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
        if self._solo:
            solo, lanes = self._solo
            return tuple([lane_copies(lanes, a) for a in solo._domain_limits])
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
        if self._solo:
            solo, lanes = self._solo
            classes = [(lane_copies(lanes, nodes, solo.graph.n_nodes), coords.shape[1])
                       for nodes, coords in solo._dim_classes]
        else:
            dims = np.diff(self.offsets)
            classes = [((dims == d).nonzero()[0], d) for d in sorted(set(self.dims))]
        return [(nodes, self.offsets[nodes][:, None] + np.arange(d)) for nodes, d in classes]

    def tile(self, lanes: int) -> "ProblemSpec":
        """``lanes`` independent copies of the problem as one problem (the
        layout of a bundle of seeds): copy s holds nodes s*N..(s+1)*N-1 and
        slack entries s*M..(s+1)*M-1, so its stacked vector is row s of a
        (lanes, C) array. The constraints are the family's ``tile``. Every
        Objective instance, a node's own included, covers its nodes of every
        copy in one call. ``optimum`` is not carried. The problem itself
        when ``lanes`` is 1.

        Its layout (``offsets``, ``box_bounds``, the groups) is derived on
        first read from this problem's arrays, walking no node of the
        copies."""
        if lanes == 1:
            return self
        tiled = replace(self, graph=disjoint_copies(self.graph, lanes), dims=self.dims * lanes,
                        objectives=self.objectives * lanes, samplers=self.samplers * lanes,
                        constraints=self.constraints.tile(lanes), domains=self.domains * lanes,
                        x0=self.x0 * lanes, optimum=None)
        object.__setattr__(tiled, "_solo", (self, lanes))
        return tiled

    @cached_property
    def objective_groups(self) -> tuple:
        """One ``ObjectiveGroup`` per Objective instance, in order of first use.

        When dims differ, every node is evaluated on its coordinates as rows
        of dimension 1: every instance must then be separable by coordinate,
        with one observation entry per coordinate."""
        if self._solo:
            solo, lanes = self._solo
            return tuple([_lane_group(g, lanes, solo.graph.n_nodes, solo.offsets[-1])
                          for g in solo.objective_groups])
        return tuple([ObjectiveGroup(self.objectives[nodes[0]], *_row_layout(self, nodes))
                      for nodes in _first_use_groups(list(map(id, self.objectives)))])

    @cached_property
    def sampler_groups(self) -> tuple:
        """(batch, nodes) per group of nodes whose Samplers share one
        ``batch`` function and whose dimension is the same, in order of
        first use, with ``nodes`` their ascending ids. Nodes whose Samplers
        have no ``batch`` are grouped by dimension too, with ``batch``
        None: they are drawn one at a time with ``sample_rows``."""
        if self._solo:
            solo, lanes = self._solo
            return tuple([(batch, lane_copies(lanes, nodes, solo.graph.n_nodes))
                          for batch, nodes in solo.sampler_groups])
        batches = list(map(attrgetter("batch"), self.samplers))
        return tuple([(batches[nodes[0]], np.array(nodes))
                      for nodes in _first_use_groups(list(zip(map(id, batches), self.dims)))])


def _first_use_groups(keys: list) -> list:
    """The ascending positions of each distinct key of ``keys``, one list
    per key in order of first use."""
    if keys.count(keys[0]) == len(keys):
        return [list(range(len(keys)))]
    label = dict(zip(dict.fromkeys(keys), count()))
    codes = np.fromiter(map(label.__getitem__, keys), np.intp, len(keys))
    order = np.argsort(codes, kind="stable").tolist()
    bounds = np.append(0, np.cumsum(np.bincount(codes))).tolist()
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def _box_start(domain: DomainSpec, n: int, x0):
    """The (n, p) start of n nodes sharing the box ``domain``, clamped in
    one call: its center, or ``x0`` when it converts to such an array
    (else None, and each row is projected alone). A non-finite row raises
    as its ``project`` would."""
    if x0 is None:
        x = np.broadcast_to(domain.center(), (n, domain.dim))
    else:
        try:
            x = np.asarray(x0, dtype=float)
        except ValueError:  # rows of different lengths
            return None
        if x.shape != (n, domain.dim):
            return None
    bad = (~np.isfinite(x)).nonzero()[0]
    if bad.size:  # a center overflows on a box near the float range
        project(domain, x[bad[0]])
    return np.minimum(np.maximum(x, domain.lo), domain.hi)


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


def _lane_group(group: ObjectiveGroup, lanes: int, n: int, c: int) -> ObjectiveGroup:
    """``group`` of a problem of n nodes and c coordinates, on ``lanes``
    copies of it (``ProblemSpec.tile``): its members, rows and sums plan
    repeated copy after copy."""
    obj, nodes, rows, sums = group
    members = lane_copies(lanes, np.arange(n)[nodes], n)
    tiled = _selector(members)
    if sums is None:
        return ObjectiveGroup(obj, tiled, tiled, None)
    rows = np.arange(c)[rows]
    starts, rest = sums
    k, r = len(members) // lanes, len(rows)  # members and rows of one copy
    rows = lane_copies(lanes, rows, c)
    if isinstance(tiled, slice):
        rows = slice(int(rows[0]), int(rows[-1]) + 1)
    return ObjectiveGroup(obj, tiled, rows, (lane_copies(lanes, starts, r),
                                            [(lane_copies(lanes, m, k), lane_copies(lanes, at, r))
                                             for m, at in rest]))


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
    each a tuple. ``edges`` keeps a constraint family's gather, and
    ``terms`` what its kernels share at one point (``point_terms``).
    """

    __slots__ = ("leaves", "offsets", "edges", "terms")

    def __init__(self, leaves, offsets=None):
        self.leaves = tuple(leaves)
        self.offsets = offsets
        self.edges = self.terms = None

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


def point_terms(obs: NodeObservations, kernel, x: np.ndarray):
    """``kernel(x, obs)``, computed once per point: kept on obs for the next
    call of the same kernel at the same iterate, which is read by value, so
    an x changed in place, or any other x, computes afresh."""
    key = x.tobytes()
    if obs.terms is None or obs.terms[0] is not kernel or obs.terms[1] != key:
        obs.terms = (kernel, key, kernel(x, obs))
    return obs.terms[2]


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
    return _generators(_keyed_states(stream, seeds, nodes, *counters))


def _keyed_states(stream: int, seeds, nodes, *counters: int) -> list:
    """The PCG64 (state, inc) of every key of ``keyed_generators``, in its order."""
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
    return seeded


def _generators(states):
    """One Generator set to each PCG64 (state, inc) of ``states`` in turn."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in states:
        rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


def sample_rows(sampler: Sampler, rng: np.random.Generator, n: int):
    """n observations stacked leaf by leaf, drawn as n ``sample`` calls draw
    them: with ``Sampler.draws``, or by stacking the ``sample`` calls."""
    if sampler.draws is not None:
        return sampler.draws(rng, n)
    return stack_leaves([sampler.sample(rng) for _ in range(n)], axis=0)


def _sample_rows_batch(samplers: tuple, rngs, size: int, nodes) -> tuple:
    """The ``Sampler.batch`` of ``nodes`` when their Samplers have none:
    each node's ``sample_rows``, stacked."""
    return stack_leaves([sample_rows(samplers[i], rng, size) for i, rng in zip(nodes.tolist(), rngs)],
                        axis=0)


def coordinate_leaves(spec: ProblemSpec, leaves, axis: int, n: int):
    """``leaves`` when dims are uniform, or when every leaf has ``n``
    entries, one per coordinate, along ``axis``. When dims differ every
    Objective takes coordinate rows, so any other leaf (one entry per node,
    say) raises InvalidConfig."""
    if spec.obs_offsets is not None and any(np.ndim(leaf) <= axis or np.shape(leaf)[axis] != n
                                            for leaf in leaves):
        raise InvalidConfig("when dims differ, every observation array needs one entry per coordinate")
    return leaves


def _draw_rows(spec: ProblemSpec, stream: int, seeds: list, nodes, size: int, *counters: int) -> tuple:
    """``size`` draws of every seed of ``seeds`` at the ascending node ids
    ``nodes`` (None: every node), each node's from its generator keyed
    (stream, seed, node, *counters): per leaf (R, size, ...), a row per
    node, or per coordinate when dims differ, seed after seed. One ``batch``
    call per sampler group (``ProblemSpec.sampler_groups``) draws its nodes
    of every seed."""
    nodes = np.arange(spec.graph.n_nodes) if nodes is None else np.asarray(nodes)
    chosen = np.zeros(spec.graph.n_nodes, bool)
    chosen[nodes] = True
    states = _keyed_states(stream, seeds, nodes, *counters)
    n, lanes = len(nodes), len(seeds)
    # each node's first row, then the row count
    starts = np.arange(n + 1) if spec.uniform else np.append(0, np.cumsum(np.asarray(spec.dims)[nodes]))
    parts = []
    for batch, members in spec.sampler_groups:
        at = np.searchsorted(nodes, members[chosen[members]])  # the group's positions among nodes
        if not at.size:
            continue
        picks = lane_copies(lanes, at, n)
        rngs = _generators(states if len(at) == n else [states[j] for j in picks.tolist()])
        ids = lane_copies(lanes, nodes[at])
        drawn = batch(rngs, size, ids) if batch else _sample_rows_batch(spec.samplers, rngs, size, ids)
        (leaves,) = _tuples([drawn])
        k = int(starts[at[0] + 1] - starts[at[0]])
        if not spec.uniform:  # (m, size, k, ...) -> k coordinate rows per node
            leaves = tuple([leaf.swapaxes(1, 2).reshape((-1, size) + leaf.shape[3:])
                            for leaf in coordinate_leaves(spec, leaves, 2, k)])
        if len(at) == n:  # one group: its rows are in order
            return leaves
        parts.append((lane_copies(lanes, (starts[at][:, None] + np.arange(k)).reshape(-1), starts[-1]),
                      leaves))
    _tuples([leaves for _, leaves in parts])
    out = [np.empty((lanes * starts[-1],) + leaf.shape[1:], leaf.dtype) for leaf in parts[0][1]]
    for rows, leaves in parts:
        for whole, leaf in zip(out, leaves):
            if leaf.shape[1:] != whole.shape[1:]:
                raise InvalidConfig("every node's observation arrays need the same shapes "
                                    f"(one entry per coordinate when dims differ): got {leaf.shape[1:]} "
                                    f"and {whole.shape[1:]}")
            whole[rows] = leaf
    return tuple(out)


def observation_block(spec: ProblemSpec, seed, block: int):
    """Observations of steps block*OBS_BLOCK onward for every node, stacked
    leaf by leaf as (OBS_BLOCK, N, ...), or (OBS_BLOCK, C, ...) for leaves
    with one entry per coordinate of nodes of different dimensions
    (``coordinate_leaves``). ``seed`` is one seed or, as ``SaddleEngine``
    takes them, every lane's: the lanes' blocks then lie side by side, lane
    after lane, (OBS_BLOCK, S*N, ...) or (OBS_BLOCK, S*C, ...)."""
    seeds = list(seed) if np.ndim(seed) else [seed]
    rows = _draw_rows(spec, _OBS_STREAM, seeds, None, OBS_BLOCK, block)
    return tuple([np.ascontiguousarray(leaf.swapaxes(0, 1)) for leaf in rows])


def sample_observation(spec: ProblemSpec, seed: int, node: int, t: int):
    """theta^node_t: the row the engine uses at step t, for any query order.

    Row t of node ``node`` is row t mod OBS_BLOCK of the block drawn from the
    generator of (seed, node, t // OBS_BLOCK), so the value does not depend on
    the horizon, the number of nodes or what was drawn before."""
    block, row = divmod(t, OBS_BLOCK)
    drawn = _draw_rows(spec, _OBS_STREAM, [seed], [node], OBS_BLOCK, block)
    return tuple([leaf[0, row] if spec.uniform else leaf[:, row] for leaf in drawn])


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
    training: each node's S draws (its sampler group's ``batch``, else
    ``sample_rows``) are stacked as (rows, S, ...), and one ``value`` call
    scores the rows (rows, 1, p) against them, giving (rows, S) per-sample values. The
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
            laws = [spec.samplers[i].law for i in members]
            if obj.expected is not None and not any(map(is_, laws, repeat(None))):
                self._exact.append((obj.expected, nodes, rows, sums, self._stacked_laws(members, laws)))
                continue
            counts = [1 if spec.uniform else spec.dims[i] for i in members]
            # evaluated in pieces of whole nodes with at most _EVAL_PIECE
            # rows x samples (one node's rows when they alone exceed it); each
            # piece's draws are drawn on their own, so no second copy is held
            per_piece = max(1, _EVAL_PIECE // (S * max(counts)))
            pieces = []
            for a in range(0, len(members), per_piece):
                piece = members[a:a + per_piece]
                # (rows, S, ...), copied whole where a kernel gives views of its
                # fill, so every query reads them in order; coordinate rows
                # take dimension 1
                draws = tuple([np.ascontiguousarray(leaf) if spec.uniform else leaf[:, :, None]
                               for leaf in _draw_rows(spec, _EVAL_STREAM, [seed], piece, S)])
                pieces.append((obj.value, *_row_layout(spec, piece), draws))
            _tuples([draws for *_, draws in pieces])
            self._sampled += pieces

    def _stacked_laws(self, members: list, laws: list):
        """The laws of ``members`` stacked leaf by leaf: (n, ...) per node, or
        per coordinate (rows, 1, ...) as coordinate rows of dimension 1."""
        spec = self.spec
        _tuples(laws)
        if spec.uniform:  # np.array stacks a list of small arrays several times faster than np.stack
            return tuple([np.array(leaves) for leaves in zip(*laws)])
        for i, law in zip(members, laws):
            coordinate_leaves(spec, law, 0, spec.dims[i])
        return tuple([np.concatenate(leaves)[:, None] for leaves in zip(*laws)])

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

"""Constrained stochastic program abstraction.

A problem couples per-node stochastic objectives over a compact convex domain
with proximity constraints between neighbors. Constraints are stored as slack
functions (constraint value minus its tolerance), so the engine treats a
constraint as satisfied-in-expectation whenever the expected slack is <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import DimensionMismatch, InfeasibleDomain, NonFiniteState
from .graph import NetworkGraph, closed_neighborhood

__all__ = [
    "DomainSpec",
    "Objective",
    "Sampler",
    "NeighborhoodConstraint",
    "ConstraintFamily",
    "ProblemSpec",
    "project",
    "sample_observation",
    "objective_grad",
    "as_neighborhood",
    "ExpectedObjective",
    "DEFAULT_MC_SAMPLES",
]

DEFAULT_MC_SAMPLES = 2000

# distinct stream tags keep observation, delay and evaluation randomness disjoint
_OBS_STREAM = 1


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
            return bool(np.all(u >= self.lo - tol) and np.all(u <= self.hi + tol))
        s = u.sum()
        ok = self.c_min - tol <= s <= self.c_max + tol
        if self.nonneg:
            ok = ok and bool(np.all(u >= -tol))
        return ok


def project(domain: DomainSpec, u) -> np.ndarray:
    """Euclidean projection onto the domain.

    Box: coordinatewise clamp. Sum interval: return u when already feasible;
    otherwise shift toward the violated bound C* (uniformly when coordinates
    are unconstrained in sign, or by the KKT shift-and-clip rule when the
    nonnegativity option is set). Raises NonFiniteState on NaN or inf input.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size != domain.dim:
        raise DimensionMismatch(f"expected vector of length {domain.dim}, got shape {u.shape}")
    # a Python loop beats numpy's reductions on the short per-node vectors
    if not all(map(math.isfinite, u.tolist())):
        raise NonFiniteState(f"cannot project a non-finite vector {u}")
    if domain.kind == "box":
        return np.clip(u, domain.lo, domain.hi)

    tol = 1e-9 * max(1.0, abs(domain.c_min), abs(domain.c_max))
    if domain.contains(u, tol=tol):
        return u.copy()
    if not domain.nonneg:
        s = u.sum()
        target = domain.c_min if s < domain.c_min else domain.c_max
        return u + (target - s) / u.size

    base = np.maximum(u, 0.0)
    s = base.sum()
    if domain.c_min - tol <= s <= domain.c_max + tol:
        return base
    target = domain.c_min if s < domain.c_min else domain.c_max
    return _shift_clip_to_sum(u, target)


def _shift_clip_to_sum(u: np.ndarray, target: float) -> np.ndarray:
    # exact KKT solve of min ||y - u|| s.t. y >= 0, sum(y) = target:
    # y = (u + nu)_+ with nu chosen on the sorted breakpoint structure
    if target <= 0.0:
        return np.zeros_like(u)
    srt = np.sort(u)[::-1]
    csum = np.cumsum(srt)
    ks = np.arange(1, u.size + 1)
    nus = (target - csum) / ks
    active = srt + nus > 0.0
    k = int(np.nonzero(active)[0][-1]) + 1
    return np.maximum(u + nus[k - 1], 0.0)


# ---------------------------------------------------------------------------
# objectives, samplers, constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Objective:
    """Per-node stochastic objective f(x, theta) with gradient.

    ``batch_value``, when given, maps (x, batched-observations) to a vector of
    per-sample values and is used by Monte Carlo estimators.
    """

    value: callable
    grad: callable
    batch_value: callable | None = None


@dataclass(frozen=True)
class Sampler:
    """Per-node observation distribution.

    ``sample(rng)`` draws one observation; ``batch(rng, size)``, when given,
    draws a batched observation set consumable by Objective.batch_value.
    """

    sample: callable
    batch: callable | None = None


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
    """

    per_node: tuple
    size: int
    slack: callable
    add_jt_lam: callable

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
                    if not np.any(lam_k):
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
        and ``grad_first`` must be its gradient in the first argument. Node i
        owns the entries of its sorted neighbors, so the stacked order is that
        of ``graph.edges``. Mirror symmetry makes the gradient of node i's
        Lagrangian term (lam_ij + lam_ji) grad_first(x_i, x_j), which J^T lam
        sums edge by edge instead of through the per-node Jacobians; the slack
        is likewise one pass over the edges.
        """
        gam = dict(gamma) if isinstance(gamma, dict) else None
        per_node, edges = [], []
        for i in range(graph.n_nodes):
            nbr_gammas = [(j, gam[(i, j)] if gam is not None else float(gamma))
                          for j in graph.adjacency[i]]
            for j, g_ij in nbr_gammas:
                if g_ij < 0:
                    raise ValueError(f"tolerance gamma[{i},{j}] must be >= 0")
            per_node.append(_pairwise_block(i, nbr_gammas, value, grad_first))
            edges += [(i, j, g_ij) for j, g_ij in nbr_gammas]
        pos = {(i, j): e for e, (i, j, _) in enumerate(edges)}
        links = [[(j, pos[i, j], pos[j, i]) for j in graph.adjacency[i]]
                 for i in range(graph.n_nodes)]

        def slack(xs, ths):
            return np.array([value(xs[i], xs[j], ths[i], ths[j]) - g for i, j, g in edges])

        def add_jt_lam(grads, lam, xs, ths):
            out = []
            for i, acc in enumerate(grads):
                for j, e_ij, e_ji in links[i]:
                    w = lam[e_ij] + lam[e_ji]
                    if w != 0.0:
                        g_ij = grad_first(xs[i], xs[j], ths[i], ths[j])
                        acc = acc + w * np.asarray(g_ij, dtype=float)
                out.append(acc)
            return out

        return replace(ConstraintFamily.from_per_node(graph, per_node),
                       slack=slack, add_jt_lam=add_jt_lam)


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

@dataclass(frozen=True)
class ProblemSpec:
    """Immutable bundle of graph, objectives, samplers, constraints and domains.

    ``dims`` and ``domains`` are per-node; uniform problems may pass a single
    int / DomainSpec which is broadcast at construction via ``make``.
    """

    graph: NetworkGraph
    dims: tuple
    objectives: tuple
    samplers: tuple
    constraints: ConstraintFamily
    domains: tuple
    x0: tuple = None
    name: str = "problem"

    @staticmethod
    def make(graph, dim, objectives, samplers, constraints, domain,
             x0=None, name="problem") -> "ProblemSpec":
        n = graph.n_nodes
        dims = tuple(dim) if isinstance(dim, (tuple, list)) else (int(dim),) * n
        domains = tuple(domain) if isinstance(domain, (tuple, list)) else (domain,) * n
        objectives = tuple(objectives)
        samplers = tuple(samplers)
        if not (len(dims) == len(domains) == len(objectives) == len(samplers) == n):
            raise DimensionMismatch("per-node field lengths must equal n_nodes")
        for i in range(n):
            if domains[i].dim != dims[i]:
                raise DimensionMismatch(f"domain dim {domains[i].dim} != dims[{i}]={dims[i]}")
        if x0 is None:
            x0 = tuple(project(domains[i], domains[i].center()) for i in range(n))
        else:
            x0 = tuple(project(domains[i], np.asarray(x, dtype=float)) for i, x in enumerate(x0))
        return ProblemSpec(graph=graph, dims=dims, objectives=objectives,
                           samplers=samplers, constraints=constraints,
                           domains=domains, x0=x0, name=name)

    @property
    def dim(self) -> int:
        """Common per-node dimension p; only defined for uniform problems."""
        if len(set(self.dims)) != 1:
            raise DimensionMismatch("problem has per-node dimensions; use .dims")
        return self.dims[0]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def observation_rng(seed: int, node: int, t: int) -> np.random.Generator:
    """Counter-based generator: identical (seed, node, t) -> identical stream."""
    return np.random.default_rng(
        np.random.SeedSequence([_OBS_STREAM, int(seed) & 0xFFFFFFFFFFFFFFFF, node, t])
    )


def sample_observation(spec: ProblemSpec, seed: int, node: int, t: int):
    """Draw theta^node_t; random access, reproducible by construction."""
    return spec.samplers[node].sample(observation_rng(seed, node, t))


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
# Monte Carlo objective estimator
# ---------------------------------------------------------------------------

class ExpectedObjective:
    """F(x) estimator with a frozen evaluation sample, independent of training.

    The same draw set is reused for every query point, so differences
    F(x) - F(y) of nearby points carry far less Monte Carlo noise than the
    individual values.
    """

    def __init__(self, spec: ProblemSpec, mc_samples: int = DEFAULT_MC_SAMPLES,
                 seed: int = 0):
        self.spec = spec
        self.mc_samples = int(mc_samples)
        self._batched = []
        self._plain = []
        for node in range(spec.graph.n_nodes):
            rng = np.random.default_rng(np.random.SeedSequence([2, int(seed) & 0xFFFFFFFFFFFFFFFF, node]))
            sampler = spec.samplers[node]
            obj = spec.objectives[node]
            if sampler.batch is not None and obj.batch_value is not None:
                self._batched.append((node, obj.batch_value, sampler.batch(rng, self.mc_samples)))
            else:
                self._plain.append((node, obj.value,
                                    [sampler.sample(rng) for _ in range(self.mc_samples)]))

    def value(self, x) -> float:
        """Estimate F(x) = sum_i E[f^i(x^i, theta^i)] at per-node vectors x."""
        total = 0.0
        for node, batch_value, draws in self._batched:
            total += float(np.mean(batch_value(np.asarray(x[node], dtype=float), draws)))
        for node, value, draws in self._plain:
            xi = np.asarray(x[node], dtype=float)
            total += float(np.mean([value(xi, th) for th in draws]))
        return total

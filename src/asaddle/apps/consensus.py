"""Decentralized regression with approximate-consensus proximity constraints.

Each node fits its own linear model to a private stream while the constraint
||x^i - x^j|| <= gamma_ij keeps neighboring estimates close without forcing
them equal. Ground-truth weights are laid out so that nearby nodes are similar
but distinct, which keeps the proximity constraints active at the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import InvalidConfig
from ..graph import NetworkGraph
from ..problem import ConstraintFamily, DomainSpec, Objective, ProblemSpec, Sampler

__all__ = ["ConsensusRegressionConfig", "build_consensus_problem", "ring_weights"]


@dataclass(frozen=True)
class ConsensusRegressionConfig:
    """Per-node least squares with pairwise proximity tolerances.

    ``weights`` overrides the generated ground truth; otherwise nodes are
    placed on a circle in weight space with radius ``weight_scale`` (adjacent
    ring nodes then sit 2 sin(pi/N) * weight_scale apart).
    """

    p: int = 4
    gamma: float = 0.5
    noise_std: float = 0.25
    weight_scale: float = 1.0
    box_lo: float = -2.0
    box_hi: float = 2.0
    x0_value: float | None = None  # common starting coordinate; None = box center
    weights: tuple | None = None
    gamma_table: dict | None = field(default=None, hash=False)

    def __post_init__(self):
        if self.p < 1:
            raise InvalidConfig("p must be >= 1")
        if self.gamma < 0 or self.noise_std < 0:
            raise InvalidConfig("gamma and noise_std must be >= 0")
        if not self.box_lo < self.box_hi:
            raise InvalidConfig("box_lo must be < box_hi")


def ring_weights(n_nodes: int, p: int, scale: float) -> np.ndarray:
    """Deterministic circular layout of ground-truth weights in R^p."""
    angles = 2.0 * np.pi * np.arange(n_nodes) / max(n_nodes, 1)
    w = np.zeros((n_nodes, p))
    w[:, 0::2] = np.cos(angles)[:, None]
    if p > 1:
        w[:, 1::2] = np.sin(angles)[:, None]
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    return scale * w / np.where(norms > 0, norms, 1.0)


def _ring_optimum(cfg: ConsensusRegressionConfig, graph: NetworkGraph, w: np.ndarray):
    """Stacked minimizer of the expected problem where it has a closed form,
    else None.

    On the ring 0-1-...-(N-1)-0 with N >= 3, the default circular weights w
    with p even (so every w_i lies on one circle), one scalar gamma and a box
    holding every w_i (and so 0, their mean), the minimizer of
    sum_i (|x_i - w_i|^2 + noise^2) / 2 subject to |x_i - x_j| <= gamma on
    the edges is x_i* = r w_i, with r = min(1, gamma / chord) and
    chord = 2 |weight_scale| sin(pi/N) the distance of neighbouring w_i. It is
    a KKT point: w_{i-1} + w_{i+1} = 2 cos(2 pi/N) w_i, so the multiplier
    (1 - r) chord / (2 - 2 cos(2 pi/N)) >= 0 on every edge balances
    x_i* - w_i; and the problem is strictly convex, so it is the only one.
    """
    n = graph.n_nodes
    if (n < 3 or cfg.weights is not None or cfg.p % 2 or cfg.gamma_table is not None
            or not cfg.box_lo <= w.min() or not w.max() <= cfg.box_hi):
        return None
    # n links, among them every {i, i + 1 mod n}: the ring's and no other
    if graph.n_edges != 2 * n or not all((i + 1) % n in nbrs
                                         for i, nbrs in enumerate(graph.adjacency)):
        return None
    chord = 2.0 * abs(cfg.weight_scale) * math.sin(math.pi / n)
    r = 1.0 if chord <= cfg.gamma else cfg.gamma / chord
    return (r * w).reshape(-1)


def _regression_batch(w: np.ndarray, noise: float, rngs, size: int, nodes):
    """``Sampler.batch`` of every node: one fill of each generator with its
    ``size`` draws' z, then their noise, and y = Z w_i + noise e for all of
    them in one batched matmul (a gemv per node, as a node's Z @ w_i)."""
    p = w.shape[1]
    raw = np.empty((len(nodes), size * (p + 1)))
    for row, rng in zip(raw, rngs):
        rng.standard_normal(out=row)
    Z = raw[:, :size * p].reshape(-1, size, p)
    y = raw[:, size * p:]
    y *= noise
    y += np.matmul(Z, w[nodes][:, :, None])[..., 0]
    return Z, y


def build_consensus_problem(cfg: ConsensusRegressionConfig, graph: NetworkGraph) -> ProblemSpec:
    """Problem with f^i = 0.5 (z^T x - y)^2 and slack ||x^i - x^j|| - gamma_ij."""
    n = graph.n_nodes
    if cfg.weights is not None:
        w = np.asarray(cfg.weights, dtype=float)
        if w.shape != (n, cfg.p):
            raise InvalidConfig(f"weights must have shape ({n}, {cfg.p})")
    else:
        w = ring_weights(n, cfg.p, cfg.weight_scale)

    noise = cfg.noise_std
    batch = partial(_regression_batch, w, noise)
    samplers = []
    for i in range(n):
        w_i = w[i]

        def sample(rng, w_i=w_i):
            z = rng.standard_normal(cfg.p)
            y = float(z @ w_i + noise * rng.standard_normal())
            return (z, y)

        # the variates of ``size`` sample calls: each draw's z, then its noise
        def draws(rng, size, w_i=w_i):
            E = rng.standard_normal((size, cfg.p + 1))
            Z = E[:, :cfg.p]
            return (Z, np.vecdot(Z, w_i) + noise * E[:, cfg.p])

        samplers.append(Sampler(sample=sample, batch=batch, law=(w_i, noise * noise), draws=draws))

    # one instance for every node: only the samplers depend on the node, so
    # the engine evaluates all nodes' rows (N, p) in one call, and the
    # evaluator the rows (N, 1, p) against their draws (N, S, p), (N, S)
    def residual(x, th):
        z, y = th
        return (z * x).sum(axis=-1) - y

    def value(x, th):
        return 0.5 * residual(x, th) ** 2

    def grad(x, th):
        return th[0] * residual(x, th)[..., None]

    # z ~ N(0, I) and y = z^T w + noise: E f = (|x - w|^2 + noise^2) / 2,
    # with the law (w, noise^2) of one node (p,), () or of n rows (n, p), (n,)
    def expected(x, law):
        w, noise2 = law
        d = x - w
        return 0.5 * ((d * d).sum(axis=-1) + noise2)

    objective = Objective(value=value, grad=grad, expected=expected)

    # the slack |a - b| and its gradient share d = a - b and |d|, of one
    # pair of rows (p,) or of every edge's rows (E, p)
    def edge_terms(a, b, th_a, th_b):
        d = a - b
        return d, np.sqrt((d * d).sum(axis=-1))

    def prox(d, nrm):
        return nrm

    def prox_grad(d, nrm):
        nrm = nrm[..., None]
        # 0 is a valid subgradient of ||.|| at 0
        return np.divide(d, nrm, out=np.zeros_like(d), where=nrm > 0.0)

    gamma = cfg.gamma_table if cfg.gamma_table is not None else cfg.gamma
    constraints = ConstraintFamily.from_symmetric_pairwise(graph, prox, prox_grad, gamma, terms=edge_terms)
    domain = DomainSpec.box(np.full(cfg.p, cfg.box_lo), np.full(cfg.p, cfg.box_hi))
    x0 = None if cfg.x0_value is None else np.full((n, cfg.p), float(cfg.x0_value))
    return ProblemSpec.make(graph, cfg.p, [objective] * n, samplers, constraints, domain,
                            x0=x0, name="consensus_regression",
                            optimum=partial(_ring_optimum, cfg, graph, w), optimum_source="closed_form")

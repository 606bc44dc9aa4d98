"""Per-run record of iterates, multipliers, slacks and staleness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunTrace"]


@dataclass
class RunTrace:
    """Row-indexed history of one run; row t describes state x_t, lambda_t.

    Step-aligned arrays (length T) describe the update that produced row t+1:
    ``delayed_slack[k]`` is the slack evaluated at the resolved stale window of
    step k (the quantity entering the dual update), ``current_slack[k]`` the
    same slack at the fresh pair (x_k, theta_k), ``resolved[k]``/``staleness[k]``
    the per-node delayed indices and their lags, and ``obj_sample[k]`` the
    instantaneous objective sum f(x_k, theta_k). ``F_hat`` is the
    evaluator's F at every row, None for a run without one.
    """

    name: str
    seed: int
    T: int
    n_nodes: int
    tau_bound: int
    mode: str
    F_hat: np.ndarray | None
    obj_sample: np.ndarray
    lambda_norm: np.ndarray
    lambda_min: np.ndarray
    delayed_slack: np.ndarray
    current_slack: np.ndarray | None
    resolved: np.ndarray
    staleness: np.ndarray
    x_snapshots: dict = field(default_factory=dict)
    x_final: list = field(default_factory=list)
    lam_final: np.ndarray | None = None
    domain_residual_max: float = 0.0

    @property
    def n_rows(self) -> int:
        return self.T + 1

    def max_staleness_per_row(self) -> np.ndarray:
        """Row-aligned (T+1,) max staleness used by the step producing each row."""
        out = np.zeros(self.T + 1, dtype=int)
        if self.T:
            out[1:] = self.staleness.max(axis=1)
        return out

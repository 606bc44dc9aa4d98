"""Per-run record of iterates, multipliers, violation and staleness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunTrace", "running_violation"]


def running_violation(slack, start):
    """Clipped running sums [start + sum_{u<=t} slack_u]_+ of the steps (B, ..., M) after the running sum
    ``start`` (..., M), and the last running sum. One cumsum over ``start`` and the steps adds in the order
    of one cumsum over the whole run, so blocks give its bits; -0.0, the identity of addition, starts a run."""
    sums = np.cumsum(np.concatenate([start[None], slack]), axis=0)
    return np.maximum(sums[1:], 0.0), sums[-1]


@dataclass
class RunTrace:
    """Row-indexed history of one run; row t describes state x_t, lambda_t.

    Step-aligned arrays (length T) describe the update that produced row t+1:
    ``violation_cumclip[k]`` is sum_c [ sum_{u<=k} s_c ]_+ for the slack s at
    the resolved stale windows (the one entering the dual update),
    ``max_staleness[k]`` the largest delay step k read at, ``obj_sample[k]``
    the objective sum f(x_k, theta_k), and ``current_slack[k]`` the slack at
    (x_k, theta_k), the one (T, M) record, None unless the run asks for it.
    ``staleness_monotone``: no resolved time ever decreased (from 0);
    ``slack_finite``: every slack was finite. ``F_hat`` is the evaluator's
    F at every row, None for a run without one.
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
    violation_cumclip: np.ndarray
    max_staleness: np.ndarray
    staleness_monotone: bool
    slack_finite: bool
    current_slack: np.ndarray | None
    x_snapshots: dict = field(default_factory=dict)
    x_final: list = field(default_factory=list)
    lam_final: np.ndarray | None = None
    domain_residual_max: float = 0.0

    @property
    def n_rows(self) -> int:
        return self.T + 1

    def max_staleness_per_row(self) -> np.ndarray:
        """Row-aligned (T+1,) max staleness used by the step producing each row."""
        return np.concatenate([[0], self.max_staleness])

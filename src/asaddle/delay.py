"""Bounded-staleness model.

Asynchrony is modeled, not executed: a single deterministic loop advances the
global clock and evaluates gradients at resolved stale indices. A node's
resolved index never decreases (only the most recent received copy is kept)
and never lags the clock by more than tau_max. ``resolve`` gives the indices
of many nodes at consecutive times at once; ``StalenessBuffer`` is a per-node ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfWindow
from .problem import keyed_generators

__all__ = ["DelaySchedule", "StalenessBuffer", "resolve"]

_DELAY_STREAM = 3
_CHUNK = 4096


@dataclass
class DelaySchedule:
    """Per-node delay process tau_i(t), bounded by tau_max.

    kind "zero": always fresh (synchronous special case).
    kind "fixed": tau_i(t) = node_taus[i] (or tau_max for every node).
    kind "uniform_random": tau_i(t) ~ Uniform{0..tau_max} iid per (i, t),
    drawn from per-node substreams of ``seed`` so draws do not depend on the
    network size or on query order.
    kind "custom_table": explicit (T, n_nodes) table.
    """

    kind: str = "zero"
    tau_max: int = 0
    seed: int = 0
    node_taus: tuple | None = None
    table: np.ndarray | None = None
    _chunks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind not in ("zero", "fixed", "uniform_random", "custom_table"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.tau_max < 0:
            raise ValueError("tau_max must be >= 0")
        if self.kind == "zero":
            self.tau_max = 0
        if self.kind == "fixed" and self.node_taus is not None:
            bad = [v for v in self.node_taus if not 0 <= v <= self.tau_max]
            if bad:
                raise ValueError(f"per-node delays {bad} outside [0, tau_max]")
        if self.kind == "custom_table":
            self.table = np.asarray(self.table, dtype=int)
            if self.table.ndim != 2:
                raise ValueError("custom table must be (T, n_nodes)")
            if self.table.size and (self.table.min() < 0 or self.table.max() > self.tau_max):
                raise ValueError("custom table entries outside [0, tau_max]")

    def covered_nodes(self) -> int | None:
        """Nodes with delays of their own: a custom table's columns or the
        entries of ``node_taus``; None when every node draws alike."""
        if self.kind == "custom_table":
            return self.table.shape[1]
        return len(self.node_taus) if self.kind == "fixed" and self.node_taus is not None else None

    def tau(self, nodes, times):
        """Raw delay draws (before monotonicity clamping) of the node array ``nodes``
        at the consecutive ``times``, inside one _CHUNK-step chunk (else
        ValueError): a (times, nodes) array, one row per time."""
        nodes = np.asarray(nodes)
        times = np.asarray(times)
        if times[0] // _CHUNK != times[-1] // _CHUNK:
            raise ValueError(f"times {times[0]}..{times[-1]} span two {_CHUNK}-step chunks")
        if self.kind == "custom_table":
            if times[-1] >= self.table.shape[0]:
                raise OutOfWindow(f"custom delay table has {self.table.shape[0]} rows, "
                                  f"asked t={times[-1]}")
            return self.table[times[:, None], nodes]
        if self.kind == "uniform_random":
            table = self._block(int(times[0]) // _CHUNK, int(nodes.max(initial=0)) + 1)
            return table[nodes, times[:, None] % _CHUNK].astype(np.int64)
        if self.kind == "fixed" and self.node_taus is not None:
            return np.asarray(self.node_taus)[nodes] + np.zeros_like(times)[:, None]
        return np.full((len(times), len(nodes)), self.tau_max)  # tau_max is 0 for kind "zero"

    def _block(self, block: int, n_nodes: int) -> np.ndarray:
        """(>= n_nodes, _CHUNK) uniform draws of ``block``; row i is node i's own substream.

        Only the block last asked for is kept: the clock moves forward, and an
        earlier block, or one asked for with more nodes, is drawn again,
        identically, into one table. The table holds the draws in the
        narrowest unsigned type that takes tau_max (uint8 up to 255); each
        row is still drawn as int64, whose bits the draw's dtype decides."""
        if block not in self._chunks or len(self._chunks[block]) < n_nodes:
            self._chunks = {}  # the old chunk goes before the new one is drawn
            table = np.empty((n_nodes, _CHUNK), dtype=np.min_scalar_type(self.tau_max))
            for row, rng in zip(table, keyed_generators(_DELAY_STREAM, [self.seed], range(n_nodes), block)):
                row[:] = rng.integers(0, self.tau_max + 1, size=_CHUNK)
            self._chunks = {block: table}
        return self._chunks[block]


def resolve(schedule: DelaySchedule, times, nodes, prev) -> np.ndarray:
    """Delayed indices [t]_i = max([t-1]_i, t - tau_i(t), 0) of the node array
    ``nodes`` at the consecutive ``times``: one row per time, carried from
    ``prev``, the nodes' indices at the time before the first.

    The max with the previously resolved index enforces freshness monotonicity
    (tau_i(t) <= tau_i(t-1) + 1); the floor at 0 clips warm-up reads to the
    initial iterate.
    """
    times = np.asarray(times)
    stale = times[:, None] - schedule.tau(nodes, times)
    stale[0] = np.maximum(stale[0], prev)
    return np.maximum(np.maximum.accumulate(stale, axis=0), 0)


class StalenessBuffer:
    """Per-node ring holding the last ``depth`` values, keyed by time index."""

    def __init__(self, n_nodes: int, depth: int):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._times = [[-1] * depth for _ in range(n_nodes)]
        self._values = [[None] * depth for _ in range(n_nodes)]

    def record(self, t: int, i: int, value) -> None:
        """Store node i's value at time t, evicting the slot's older entry."""
        slot = t % self.depth
        self._times[i][slot] = t
        self._values[i][slot] = value

    def fetch(self, s: int, i: int):
        """Exact value recorded for node i at time s; OutOfWindow if evicted."""
        slot = s % self.depth
        if self._times[i][slot] != s:
            raise OutOfWindow(f"time {s} for node {i} outside retained window")
        return self._values[i][slot]

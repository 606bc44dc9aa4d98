"""Bounded-staleness model.

Asynchrony is modeled, not executed: a single deterministic loop advances the
global clock and evaluates gradients at resolved stale indices. A node's
resolved index never decreases (only the most recent received copy is kept)
and never lags the clock by more than tau_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfWindow

__all__ = ["DelaySchedule", "StalenessBuffer", "StackedBuffer", "resolve"]

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

    def tau(self, i, t):
        """Raw delay draw for node i at time t (before monotonicity clamping).

        ``i`` may be an array of node ids and ``t`` one of times inside one
        _CHUNK-step chunk (else ValueError): one (times, nodes) array back.
        """
        nodes = np.asarray(i)
        times = np.asarray(t)
        if times.ndim and times.min() // _CHUNK != times.max() // _CHUNK:
            raise ValueError(f"times {times.min()}..{times.max()} span two {_CHUNK}-step chunks")
        times = times.reshape(times.shape + (1,) * nodes.ndim)
        if self.kind == "custom_table":
            if times.max() >= self.table.shape[0]:
                raise OutOfWindow(f"custom delay table has {self.table.shape[0]} rows, "
                                  f"asked t={times.max()}")
            draws = self.table[times, nodes]
        elif self.kind == "uniform_random":
            block = int(times.max()) // _CHUNK
            draws = self._block(block, int(nodes.max(initial=0)) + 1)[nodes, times % _CHUNK]
        elif self.kind == "fixed" and self.node_taus is not None:
            draws = np.asarray(self.node_taus)[nodes] + np.zeros_like(times)
        else:  # tau_max is 0 for kind "zero"
            draws = np.full(nodes.shape, self.tau_max) + np.zeros_like(times)
        return draws if draws.ndim else int(draws)

    def _block(self, block: int, n_nodes: int) -> np.ndarray:
        """(>= n_nodes, _CHUNK) uniform draws of ``block``; row i is node i's own substream.

        Only the block last asked for is kept: the clock moves forward, and an
        earlier block is drawn again, identically, when asked for."""
        table = self._chunks.get(block)
        have = 0 if table is None else table.shape[0]
        if have < n_nodes:
            rows = [np.random.default_rng(np.random.SeedSequence(
                        [_DELAY_STREAM, int(self.seed) & 0xFFFFFFFFFFFFFFFF, i, block]
                    )).integers(0, self.tau_max + 1, size=_CHUNK)
                    for i in range(have, n_nodes)]
            table = np.stack(rows) if table is None else np.concatenate([table, np.stack(rows)])
            self._chunks = {block: table}
        return table


def resolve(schedule: DelaySchedule, t, i, prev):
    """Delayed index [t]_i = max(prev, t - tau_i(t), 0).

    The max with the previously resolved index enforces freshness monotonicity
    (tau_i(t) <= tau_i(t-1) + 1); the floor at 0 clips warm-up reads to the
    initial iterate. With arrays ``i`` and ``prev`` every listed node is
    resolved at once; with consecutive times ``t``, one row per step comes
    back, carried from ``prev`` exactly as the per-step chain.
    """
    if np.ndim(t):
        t = np.asarray(t)
        stale = t.reshape(t.shape + (1,) * np.ndim(i)) - schedule.tau(i, t)
        stale[0] = np.maximum(stale[0], prev)
        return np.maximum(np.maximum.accumulate(stale, axis=0), 0)
    if np.ndim(i):
        return np.maximum(np.maximum(prev, t - schedule.tau(i, t)), 0)
    return max(prev, t - schedule.tau(i, t), 0)


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


class StackedBuffer:
    """StalenessBuffer for all nodes at once: the last ``depth`` rows of a
    node-stacked array (leading axis: node, or coordinate), kept as one
    array indexed by (time slot, node). The engine keeps the iterates in
    one; its observations are read from their blocks by index. Its writes
    are fancy assignments, so ``record`` also takes up to ``depth`` times at once."""

    def __init__(self, depth: int, row: np.ndarray):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._times = np.full(depth, -1)
        self._rows = np.empty((depth,) + row.shape, dtype=row.dtype)
        self._cols = np.arange(row.shape[0])

    def record(self, t, row: np.ndarray) -> None:
        """Store the row of time t (rows of times t), evicting the slot's older row."""
        slot = t % self.depth
        self._times[slot] = t
        self._rows[slot] = row

    def fetch(self, times: np.ndarray) -> np.ndarray:
        """Entry k of the row recorded at times[k], for every k, in one fancy
        index; OutOfWindow if any of those rows was evicted."""
        slots = times % self.depth
        if (self._times[slots] != times).any():
            raise OutOfWindow(f"times {times} outside retained window")
        return self._rows[slots, self._cols]

"""In-memory span recorder that wraps the public names each layer is called by.

A span is (name, start, end, parent, run id). Spans are appended to flat
arrays while the program runs and summarised or written out afterwards, so a
traced call costs two clock reads and a few appends. Wrapping replaces a name
in the namespace its caller looks it up in (a module global or a class
attribute); ``installed()`` restores every original on exit, even after an
exception, so untraced runs execute the unmodified functions.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

# parent index of a span opened outside every other span
NO_PARENT = -1


class Tracer:
    """Span and counter store plus the wrap/restore machinery."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self.counters: dict[tuple[int, str], float] = {}
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to counter ``name`` of the current run id."""
        key = (self.run_id, name)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def traced(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(tracer, args, result)``
        runs once the span has closed, to record counters at this boundary."""
        nid = self._nid(name)
        name_ids, parents, runs = self.name_id, self.parent, self.run
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(tracer, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self.traced(name, fn)(*args, **kwargs)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (module global or class attribute) by a
        traced wrapper until ``restore()``."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(name, original, after))

    def restore(self) -> None:
        """Put back every wrapped name, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attr, name, after)`` target for the block."""
        try:
            for owner, attr, name, after in targets:
                self.wrap(owner, attr, name, after)
            yield self
        finally:
            self.restore()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with each span's duration and self time
        (its duration minus the durations of its direct children)."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        has_parent = parent != NO_PARENT
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "run": np.frombuffer(self.run, dtype=np.int32),
            "start": start,
            "dur": dur,
            "self": dur - child[:dur.size],
        }

    def summary(self, run_ids) -> dict:
        """Per run id in ``run_ids`` and span name: {"calls", "s" (inclusive
        time), "self_s"}; names without spans in a run are left out."""
        a = self.arrays()
        run_ids = list(run_ids)
        n = len(self.names)
        lookup = np.full(max(run_ids + [int(a["run"].max(initial=0))]) + 1, -1)
        lookup[run_ids] = np.arange(len(run_ids))
        row = lookup[a["run"]]
        mask = row >= 0
        key = row[mask] * n + a["name_id"][mask]
        size = len(run_ids) * n
        calls = np.bincount(key, minlength=size)
        total = np.bincount(key, weights=a["dur"][mask], minlength=size)
        own = np.bincount(key, weights=a["self"][mask], minlength=size)
        out = {}
        for r, run_id in enumerate(run_ids):
            out[run_id] = {
                name: {"calls": int(calls[r * n + nid]), "s": float(total[r * n + nid]),
                       "self_s": float(own[r * n + nid])}
                for nid, name in enumerate(self.names) if calls[r * n + nid]
            }
        return out

    def write(self, path: str) -> None:
        """Write every span and counter to one ``.npz`` file."""
        a = self.arrays()
        keys = sorted(self.counters)
        np.savez(path, names=np.array(self.names), name_id=a["name_id"],
                 parent=a["parent"], run=a["run"], start=a["start"],
                 end=a["start"] + a["dur"],
                 counter_run=np.array([k[0] for k in keys], dtype=np.int64),
                 counter_name=np.array([k[1] for k in keys]),
                 counter_value=np.array([self.counters[k] for k in keys]))

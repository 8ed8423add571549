"""Outside-in span tracer.

The tracer replaces a function at the name its callers look it up by (a
module attribute or a class attribute) with a wrapper that records one span
per call: name, start, end and the enclosing span. Spans live in flat
in-memory arrays until `reset`; `restore` puts every original back.

Nothing in the traced program is edited: a call made through a name that
was not wrapped (for example a function imported by name into another
module) is simply not seen, so each wrap target names the module the
callers actually read.
"""

import functools
import time
from array import array

import numpy as np

MARKER = "__perfbench_span__"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []        # span-name table; spans store an index into it
        self._name_ids = {}
        self._patches = []     # (owner, attribute, original), in install order
        self.reset()

    def reset(self):
        """Drop every recorded span (wrappers stay installed)."""
        self.name = array("i")
        self.parent = array("i")
        self.rows = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tags = {}
        self._stack = [-1]

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id, rows):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, owner, attribute, name, rows=None, tag=None):
        """Install a span-recording wrapper at `owner.attribute`.

        rows(*args, **kwargs) gives the span's row count (default 1);
        tag(*args, **kwargs) gives a label kept in `self.tags[span index]`.
        """
        original = vars(owner)[attribute]
        name_id = self.name_id(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name_id, rows(*args, **kwargs) if rows else 1)
            if tag is not None:
                self.tags[idx] = tag(*args, **kwargs)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(traced, MARKER, name)
        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self):
        """Put back every original, last installed first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def arrays(self):
        """The recorded spans as numpy arrays (name, parent, rows, start, end)."""
        return (
            np.array(self.name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.rows, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )


def is_wrapper(obj) -> bool:
    return hasattr(obj, MARKER)


class SpanTable:
    """Per-span durations and self times of one batch of recorded spans."""

    def __init__(self, tracer: Tracer):
        if len(tracer._stack) != 1:
            raise RuntimeError("span table taken while spans are still open")
        self.names = list(tracer.names)
        self.name, self.parent, self.rows, start, end = tracer.arrays()
        self.tags = dict(tracer.tags)
        self.duration = end - start
        child = np.zeros_like(self.duration)
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.duration[nested])
        # single-threaded spans nest, so children never overlap each other
        self.self_time = self.duration - child

    def ids(self, name):
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def calls(self, name) -> int:
        return int(self.ids(name).size)

    def total(self, name) -> float:
        return float(self.duration[self.ids(name)].sum())

    def self_total(self, name) -> float:
        return float(self.self_time[self.ids(name)].sum())

    def row_total(self, name) -> int:
        return int(self.rows[self.ids(name)].sum())

    def durations(self, name) -> np.ndarray:
        return self.duration[self.ids(name)]

    def children_per_span(self, parent_name, child_name) -> dict:
        """{parent span index: number of direct `child_name` children}."""
        parents = self.ids(parent_name)
        counts = dict.fromkeys(parents.tolist(), 0)
        for p in self.parent[self.ids(child_name)].tolist():
            if p in counts:
                counts[p] += 1
        return counts

"""In-memory span tracer for the benchmark's workload process.

The tracer rebinds module attributes at the layer boundaries of
``crexlab`` (for example ``crexlab.simulation.replication_rng``) to thin
wrappers, only inside the process that imports this module.  No file of
the package changes.  Each wrapped call records one span::

    (span id, name, start, end, parent span id, thread, cell id)

Spans are appended to per-thread buffers, so two pool threads never
interleave writes and each thread keeps its own parent stack.  A span of
``simulation.run_cell`` opens a new cell id; every span nested inside it
on the same thread carries that id.  Counters that are not spans (the
CPU time inside ``run_cell``) accumulate in the same per-thread buffers.

``install()`` and ``uninstall()`` swap the wrappers in and out, so a run
can alternate traced and untraced passes and measure the tracing
overhead.  ``spans()`` returns all spans as numpy arrays; ``save()``
writes them to a compressed ``.npz`` file at the end of the run.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from time import perf_counter, thread_time

import numpy as np

CELL_SPAN = "simulation.run_cell"


class _ThreadBuffer:
    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.cell = -1
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.cells = array("q")
        self.counts = {}


class Tracer:
    def __init__(self):
        self._names = []
        self._name_ids = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count()
        self._cell_ids = itertools.count()
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def patch(self, owner, attr, name, cpu=False):
        """Wrap ``owner.attr`` in a span named ``name``.

        ``name`` is a string, or a pair ``(pick, choices)`` where
        ``pick(args, kwargs)`` returns one of the names in ``choices``.
        With ``cpu`` the thread's CPU time inside
        the call, which leaves out waiting for the interpreter lock, adds
        to the counter ``<name>.cpu_s``.
        """
        original = getattr(owner, attr)
        if isinstance(name, str):
            pick, choices = None, (name,)
        else:
            pick, choices = name
        # register every name up front: the wrapper only reads the table
        nids = {choice: self._name_id(choice) for choice in choices}
        fixed = nids[choices[0]]
        cell_nid = self._name_id(CELL_SPAN)

        def traced(*args, **kwargs):
            nid = fixed if pick is None else nids[pick(args, kwargs)]
            buf = self._buffer()
            sid = next(self._span_ids)
            parent = buf.stack[-1] if buf.stack else -1
            outer_cell = buf.cell
            if nid == cell_nid:
                buf.cell = next(self._cell_ids)
            buf.stack.append(sid)
            cpu_start = thread_time() if cpu else 0.0
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                if cpu:
                    key = f"{self._names[nid]}.cpu_s"
                    buf.counts[key] = buf.counts.get(key, 0.0) + thread_time() - cpu_start
                buf.stack.pop()
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.parents.append(parent)
                buf.cells.append(buf.cell)
                buf.cell = outer_cell

        self._patches.append((owner, attr, original, traced))

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def counts(self):
        """Non-time counters summed over threads."""
        total = {}
        for buf in self._buffers:
            for key, value in buf.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def spans(self):
        """All recorded spans as a dict of equal-length numpy arrays."""

        def cat(field, dtype):
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in self._buffers]
            return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

        threads = np.concatenate(
            [np.full(len(b.ids), b.thread, dtype=np.int64) for b in self._buffers]
            or [np.empty(0, dtype=np.int64)]
        )
        return {
            "id": cat("ids", np.int64),
            "name": cat("names", np.int32),
            "start": cat("starts", np.float64),
            "end": cat("ends", np.float64),
            "parent": cat("parents", np.int64),
            "thread": threads,
            "cell": cat("cells", np.int64),
        }

    @property
    def names(self):
        return list(self._names)

    def save(self, path):
        np.savez_compressed(path, names=np.array(self._names), **self.spans())


def check_nesting(spans, names):
    """Verify that spans nest per thread and per cell; return problem strings.

    Every child lies inside its parent's interval, on the parent's thread
    and in the parent's cell; siblings do not overlap; so each span's
    wall time is its children's time plus a nonnegative self time.  Cells
    on one thread never overlap, which keeps the pool threads' spans
    apart under ``workers=2``.
    """
    problems = []
    child, parent = _child_rows(spans)
    if np.any(parent < 0):
        problems.append("span with a parent that was never recorded")
        return problems
    start, end = spans["start"], spans["end"]
    cell_name = names.index(CELL_SPAN) if CELL_SPAN in names else -1
    if np.any(spans["thread"][child] != spans["thread"][parent]):
        problems.append("child span on another thread than its parent")
    inherits = spans["name"][child] != cell_name
    if np.any(spans["cell"][child][inherits] != spans["cell"][parent][inherits]):
        problems.append("child span in another cell than its parent")
    if np.any(start[child] < start[parent]) or np.any(end[child] > end[parent]):
        problems.append("child span outside its parent's interval")
    order = np.lexsort((start[child], parent))
    same = parent[order][1:] == parent[order][:-1]
    if np.any(start[child][order][1:][same] < end[child][order][:-1][same]):
        problems.append("sibling spans overlap")
    if np.any(self_times(spans) < -1e-9):
        problems.append("children cover more than their parent's wall time")
    cells = np.flatnonzero(spans["name"] == cell_name)
    order = np.lexsort((start[cells], spans["thread"][cells]))
    same = spans["thread"][cells][order][1:] == spans["thread"][cells][order][:-1]
    if np.any(start[cells][order][1:][same] < end[cells][order][:-1][same]):
        problems.append("two cells overlap on one thread")
    return problems


def self_times(spans):
    """Wall time of each span minus the time its direct children cover."""
    dur = spans["end"] - spans["start"]
    child, parent = _child_rows(spans)
    return dur - np.bincount(parent, weights=dur[child], minlength=dur.size)


def _child_rows(spans):
    """Rows of spans that have a parent, and the row of each one's parent.

    A parent id that was never recorded maps to row -1.
    """
    ids = spans["id"]
    size = max(ids.max(initial=-1), spans["parent"].max(initial=-1)) + 1
    index = np.full(int(size), -1, dtype=np.int64)
    index[ids] = np.arange(ids.size)
    child = np.flatnonzero(spans["parent"] >= 0)
    return child, index[spans["parent"][child]]

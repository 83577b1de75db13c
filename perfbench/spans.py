"""Spans around the program's layer entry points, recorded from outside.

The benchmark wraps each layer's public entry point where its caller looks
the name up (a module attribute or a class method) and records one span
per call: name, start, end, parent span, pid, operation id and a work
weight (rows scanned, rows scored).  Spans stay in memory until the run
ends.

Worker and gateway processes are forked after :meth:`Tracer.install`, so
they inherit the wrappers and write their spans into one anonymous shared
mapping the parent created before the fork.  Nothing has to be flushed
when a child exits: the mp transport terminates its workers as soon as
their run-end stats arrive, which an exit-time flush would race against.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import mmap
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    pid: int
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int
    weight: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


_RECORD = np.dtype([
    ("pid", "i8"), ("sid", "i8"), ("parent", "i8"), ("name", "i8"),
    ("op", "i8"), ("weight", "i8"), ("start", "f8"), ("end", "f8"),
])


def _values_rows(args, kwargs) -> int:
    return len(args[2])


def _row_ids_rows(args, kwargs) -> int:
    return len(kwargs["row_ids"] if "row_ids" in kwargs else args[2])


def _matrix_rows(args, kwargs) -> int:
    return len(args[1])


#: Module-level functions, patched in the module that calls them.
FUNCTIONS = (
    ("repro.core.worker", "best_split_for_column", "splits.scan", _values_rows),
    ("repro.core.worker", "random_split_for_column", "splits.scan", _values_rows),
    ("repro.core.worker", "route_training_rows", "splits.route", None),
    ("repro.core.worker", "column_histogram", "histogram.summary", None),
    ("repro.core.worker", "build_subtree_auto", "kernel.build", _row_ids_rows),
    ("repro.core.master", "score_histogram", "histogram.score", None),
    ("repro.runtime.process", "build_threshold_book", "histogram.book", None),
)
#: Methods, patched on their classes.
METHODS = (
    ("repro.core.worker", "WorkerActor", "handle_message", "worker.handle", None),
    ("repro.core.master", "MasterActor", "handle_message", "master.handle", None),
    ("repro.data.shm", "SharedTableHandle", "create", "shm.publish", None),
    ("repro.serving.batch", "BatchPredictor", "predict_matrix", "batch.predict",
     _matrix_rows),
    ("repro.serving.batch", "BatchPredictor", "predict_proba_matrix",
     "batch.predict", _matrix_rows),
)
#: Every ``assign_*`` function the master module binds is a master.assign span.
ASSIGN_MODULE = "repro.core.master"
NAMES = tuple(sorted(
    {name for *_, name, _ in FUNCTIONS} | {m[3] for m in METHODS} | {"master.assign"}
))


class Tracer:
    """Installs the wrappers and owns the span buffer of one benchmark run."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.active = False
        self.op = 0
        self.capacity = capacity
        self._map = mmap.mmap(-1, capacity * _RECORD.itemsize)  # MAP_SHARED
        self._records = np.frombuffer(self._map, dtype=_RECORD)
        self._next = multiprocessing.get_context("fork").Value("q", 0)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def close(self) -> None:
        self.uninstall()
        del self._records
        self._map.close()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every entry point; a no-op while :attr:`active` is false."""
        for module_name, attr, name, weight in FUNCTIONS:
            self._patch(importlib.import_module(module_name), attr, name, weight)
        master = importlib.import_module(ASSIGN_MODULE)
        for attr in sorted(vars(master)):
            if attr.startswith("assign_") and callable(getattr(master, attr)):
                self._patch(master, attr, "master.assign", None)
        for module_name, cls_name, attr, name, weight in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, weight))
            else:
                wrapped = self._wrap(raw, name, weight)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr: str, name: str, weight) -> None:
        original = getattr(target, attr)
        self._patches.append((target, attr, original))
        setattr(target, attr, self._wrap(original, name, weight))

    def _wrap(self, fn, name: str, weight):
        tracer = self
        code = NAMES.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(
                    sid, parent, code, start, end,
                    weight(args, kwargs) if weight is not None else 0,
                )

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, parent, code, start, end, weight) -> None:
        with self._next.get_lock():
            slot = self._next.value
            self._next.value = slot + 1
        if slot < self.capacity:
            self._records[slot] = (
                os.getpid(), sid, parent, code, self.op, weight, start, end
            )

    # ------------------------------------------------------------------
    def collect(self) -> list[Span]:
        """Every span recorded since the last call, from every process.

        Call it only while no traced child is running.
        """
        with self._next.get_lock():
            n = self._next.value
            self._next.value = 0
        if n > self.capacity:
            raise RuntimeError(
                f"span buffer overflow: {n} spans, capacity {self.capacity}"
            )
        return [
            Span(int(r["pid"]), int(r["sid"]),
                 None if r["parent"] < 0 else int(r["parent"]),
                 NAMES[r["name"]], float(r["start"]), float(r["end"]),
                 int(r["op"]), int(r["weight"]))
            for r in self._records[:n]
        ]


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def self_seconds(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the time its child spans cover.

    Children run synchronously inside their parent on the same thread, so
    they never overlap one another and their durations add.
    """
    own = {(s.pid, s.sid): s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and (s.pid, s.parent) in own:
            own[(s.pid, s.parent)] -= s.seconds
    return own


def union_seconds(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total

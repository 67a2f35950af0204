"""Tracing from outside the package: wrap layer functions, record spans.

The benchmark installs wrappers around the public functions of each layer
(``cli``, ``protocol``, ``optics``, ``hilbert``, ``dynamics``) and restores
the originals afterwards; the package source is never edited.  A function
imported by name into another module (``from .optics import run_network``)
is replaced in every module that holds it, so calls through either name are
seen.

Three kinds of wrapper:

* ``span``: a recorded interval with a parent, for layer boundaries that are
  called at most thousands of times per op.
* ``leaf``: a hot function (hilbert state ops) aggregated per name into
  calls and self time; no span is kept per call.
* ``count``: call counts only, for the hottest functions (``amplitudes_at``)
  and for the correction-candidate generator.

Each thread keeps its own stack of open frames, so a caller's self time
excludes the time of its children on the same thread.  Spans opened in a
worker of the traced ``ThreadPoolExecutor`` take the submitting span as
their parent, and the union of those children's intervals is subtracted from
the parent's self time when the trace is summarised.  Spans stay in memory
until ``spans()`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

#: Calls per timed loop, and loops per wrapper kind, in ``wrapper_costs``.
COST_CALLS = 20000
COST_REPEATS = 5


class _ThreadState:
    __slots__ = ("ident", "stack", "spans", "leaves", "counts", "parent", "hook_s")

    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[list] = []  # open frames: [span id or None, child seconds]
        self.spans: list[tuple] = []  # (id, parent, name, start, end, child seconds)
        self.leaves: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.parent: int | None = None  # span that submitted this worker's task
        self.hook_s = 0.0  # time spent in result hooks (tracing overhead)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(st)
            return st

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def span(self, name: str, fn, on_result=None):
        """Record each call as a span; ``on_result(counts, args, result)``
        runs after the span closes and is charged to tracing overhead."""
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            parent = stack[-1][0] if stack else st.parent
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                st.spans.append((frame[0], parent, name, start, end, frame[1]))
            if on_result is not None:
                on_result(st.counts, args, result)
                hook = perf_counter() - end
                st.hook_s += hook
                if stack:
                    stack[-1][1] += hook
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Aggregate calls and self time of a hot function."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg = st.leaves.get(name)
                if agg is None:
                    agg = st.leaves[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[1]

        return wrapper

    def count(self, name: str, fn):
        """Count calls; the callee's time stays in its caller's self time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def count_yields(self, name: str, fn):
        """Count the items a generator function yields to its consumer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            for item in fn(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                yield item

        return wrapper

    def executor_class(self):
        """A ``ThreadPoolExecutor`` whose tasks inherit the submitting span."""
        tracer = self

        class TracingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                st = tracer._state()
                parent = st.stack[-1][0] if st.stack else st.parent

                def task(*a, **k):
                    worker = tracer._state()
                    saved, worker.parent = worker.parent, parent
                    try:
                        return fn(*a, **k)
                    finally:
                        worker.parent = saved

                return super().submit(task, *args, **kwargs)

        return TracingExecutor

    # ------------------------------------------------------------------
    # installing and removing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, wrapper, modules=()) -> None:
        """Replace ``owner.attr`` by ``wrapper`` in ``owner`` and in every
        module of ``modules`` that imported the same object by name."""
        original = getattr(owner, attr)
        for target in (owner, *(m for m in modules if m is not owner)):
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, key, original))
                    setattr(target, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def spans(self) -> list[dict]:
        """Closed spans with self time; self time excludes same-thread
        children and the union of the intervals of worker-thread children."""
        rows = []
        thread_of = {}
        for st in self._states:
            for sid, parent, name, start, end, child in st.spans:
                rows.append({"id": sid, "parent": parent, "name": name,
                             "thread": st.ident, "start": start, "end": end,
                             "child_s": child})
                thread_of[sid] = st.ident
        remote: dict[int, list[tuple[float, float]]] = {}
        for r in rows:
            p = r["parent"]
            if p is not None and thread_of.get(p) != r["thread"]:
                remote.setdefault(p, []).append((r["start"], r["end"]))
        for r in rows:
            covered = _union_length(remote.get(r["id"], ()), r["start"], r["end"])
            r["self_s"] = r["end"] - r["start"] - r.pop("child_s") - covered
        rows.sort(key=lambda r: r["id"])
        return rows

    def leaves(self) -> dict[str, tuple[int, float]]:
        out: dict[str, list] = {}
        for st in self._states:
            for name, (calls, self_s) in st.leaves.items():
                agg = out.setdefault(name, [0, 0.0])
                agg[0] += calls
                agg[1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for st in self._states:
            for name, n in st.counts.items():
                out[name] = out.get(name, 0) + n
        return out

    def hook_seconds(self) -> float:
        return sum(st.hook_s for st in self._states)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def wrapper_costs() -> dict[str, float]:
    """Seconds each wrapper kind adds to one call, measured on a no-op.

    Used to estimate tracing overhead from the call counts of a traced run;
    the fastest of ``COST_REPEATS`` loops is taken to cut scheduling noise.
    """
    tracer = Tracer()

    def noop():
        return None

    def best(fn) -> float:
        times = []
        for _ in range(COST_REPEATS):
            start = perf_counter()
            for _ in range(COST_CALLS):
                fn()
            times.append(perf_counter() - start)
        return min(times) / COST_CALLS

    base = best(noop)
    costs = {
        "span": best(tracer.span("noop", noop)) - base,
        "leaf": best(tracer.leaf("noop", noop)) - base,
        "count": best(tracer.count("noop", noop)) - base,
    }
    return {k: max(v, 0.0) for k, v in costs.items()}

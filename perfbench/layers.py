"""Outside-in layer trace: wraps each layer's entry points in ``repro``.

Nothing inside ``repro`` changes.  :meth:`Trace.install` replaces every
entry point of :data:`ENTRY_POINTS` at the name its caller resolves (a module
global such as ``repro.core.simulator.build_execution_plan``, or a class
attribute) with a timing wrapper, and :meth:`Trace.uninstall` puts the
originals back.  A missing name raises, so a renamed entry point fails loudly instead
of silently reading 0.

Entry kinds:

* ``span`` -- coarse calls.  Each call becomes one span (name, start, end,
  parent, thread) kept in memory and written out by :meth:`Trace.write_spans`.
* ``task`` -- calls that run on executor threads (kernels, run tables).  They
  are aggregated, not written, and are attributed to the enclosing update as
  children, so the update's self time excludes them.
* ``hot`` -- calls made thousands of times per update (COW reads and
  writes): a count, summed time and bytes per thread, no span.
* ``count`` -- a call count only.

Self time is a call's duration minus the union of the intervals its children
cover (children on other threads included) minus the summed time of its
``hot`` children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SPAN, TASK, HOT, COUNT = "span", "task", "hot", "count"

#: (layer, module, attribute path, kind): the callers of each layer resolve
#: these names at call time, so patching them intercepts every call
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("qasm.parse", "repro.qasm", "parse_qasm", SPAN),
    ("qasm.parse", "repro.service.backend", "parse_qasm", SPAN),
    ("qasm.levelize", "repro.qasm.levelize", "program_to_circuit", SPAN),
    ("circuit.edit", "repro.core.circuit", "Circuit.insert_net", SPAN),
    ("circuit.edit", "repro.core.circuit", "Circuit.remove_net", SPAN),
    ("circuit.edit", "repro.core.circuit", "Circuit.insert_gate", SPAN),
    ("circuit.edit", "repro.core.circuit", "Circuit.remove_gate", SPAN),
    ("circuit.edit", "repro.core.circuit", "Circuit.update_gate", SPAN),
    ("graph.stage_insert", "repro.core.graph", "PartitionGraph.insert_stage", SPAN),
    ("graph.stage_remove", "repro.core.graph", "PartitionGraph.remove_stage", SPAN),
    ("graph.frontier", "repro.core.graph", "PartitionGraph.affected_nodes", SPAN),
    ("exec_plan.build", "repro.core.simulator", "build_execution_plan", SPAN),
    ("exec_plan.table", "repro.core.exec_plan", "StagePlan.build_table", TASK),
    ("kernels.execute", "repro.core.kernels", "NumpyBatchBackend.execute_plan", TASK),
    ("cow.read", "repro.core.cow", "_ResolvingReader.read_range", HOT),
    ("cow.read", "repro.core.cow", "_ResolvingReader.gather", HOT),
    ("cow.resolve", "repro.core.cow", "BlockDirectory.resolve_store", COUNT),
    ("cow.write", "repro.core.cow", "BlockStore.write_range", HOT),
    ("cow.write", "repro.core.cow", "BlockStore.write_block", HOT),
    ("simulator.update", "repro.core.simulator", "QTaskSimulator.update_state", SPAN),
    ("observables.expectation", "repro.core.simulator", "QTaskSimulator.expectation", SPAN),
    ("observables.counts", "repro.core.simulator", "QTaskSimulator.counts", SPAN),
    ("observables.probabilities", "repro.core.simulator", "QTaskSimulator.probabilities", SPAN),
    ("observables.invalidate", "repro.observables.engine", "ObservablesEngine.mark_blocks_dirty", SPAN),
    ("qtask.fork", "repro.qtask", "QTask.fork", SPAN),
    ("qtask.run_shots", "repro.qtask", "QTask.run_shots", SPAN),
    ("service.lease", "repro.service.pool", "SessionPool.lease", SPAN),
)


def resolve(module: str, path: str) -> Tuple[object, str, Callable]:
    """``(owner, attribute, current value)`` of one entry point; raises if absent."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    # Look in the owner's own namespace first so that a class attribute
    # inherited from a base is patched where it is defined only once.
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if parts[-1] in vars(klass):
                return klass, parts[-1], vars(klass)[parts[-1]]
        raise AttributeError(f"{module}.{path} does not exist")
    return owner, parts[-1], getattr(owner, parts[-1])


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Frame:
    __slots__ = ("uid", "layer", "start", "parent", "children", "hot")

    def __init__(self, uid: int, layer: str, start: float, parent: Optional["_Frame"]) -> None:
        self.uid = uid
        self.layer = layer
        self.start = start
        self.parent = parent
        #: (start, end) of direct span/task children, from any thread
        self.children: List[Tuple[float, float]] = []
        #: summed time of direct hot children (same thread, never overlapping)
        self.hot = 0.0


class _ThreadStats:
    """One thread's counters: no locking on the hot path."""

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: List[_Frame] = []
        #: layer -> [calls, total seconds, self seconds, amount]; the amount
        #: is bytes for COW and kernel layers, stage plans for
        #: ``exec_plan.build`` and runs for ``exec_plan.table``
        self.layers: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []

    def add(self, layer: str, dur: float, self_time: float, amount: int = 0) -> None:
        row = self.layers.get(layer)
        if row is None:
            row = self.layers[layer] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += self_time
        row[3] += amount


class Trace:
    """Collects spans and per-layer aggregates while installed."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadStats] = []
        self._uids = iter(range(1, 1 << 62))
        self._active_updates: List[_Frame] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.origin = time.perf_counter()
        #: wrappers pass straight through while False (see :meth:`paused`)
        self.enabled = True
        #: per-update observations: (affected fraction, topology changed)
        self.updates: List[Tuple[float, bool]] = []
        self._topology_dirty: Dict[int, bool] = {}

    # -- thread-local state ----------------------------------------------------

    def _stats(self) -> _ThreadStats:
        st = getattr(self._tls, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadStats(len(self._threads))
                self._threads.append(st)
            self._tls.st = st
        return st

    def reset(self) -> None:
        """Forget everything recorded so far (keeps the wrappers installed)."""
        with self._lock:
            for st in self._threads:
                st.layers.clear()
                st.spans.clear()
            self.updates = []

    # -- frames -------------------------------------------------------------------

    def enter(self, layer: str, cross_thread: bool = False) -> _Frame:
        st = self._stats()
        if st.stack:
            parent = st.stack[-1]
        elif cross_thread and len(self._active_updates) == 1:
            parent = self._active_updates[0]
        else:
            parent = None
        frame = _Frame(next(self._uids), layer, time.perf_counter(), parent)
        st.stack.append(frame)
        return frame

    def exit(self, frame: _Frame, record_span: bool = True, amount: int = 0) -> None:
        end = time.perf_counter()
        st = self._stats()
        st.stack.pop()
        dur = end - frame.start
        self_time = max(0.0, dur - _union_length(frame.children) - frame.hot)
        st.add(frame.layer, dur, self_time, amount)
        if frame.parent is not None:
            frame.parent.children.append((frame.start, end))
        if record_span:
            st.spans.append((
                frame.layer, frame.start, end, frame.uid,
                frame.parent.uid if frame.parent is not None else 0, self_time,
            ))

    @contextlib.contextmanager
    def span(self, layer: str):
        """The benchmark's own spans (e.g. one iteration)."""
        frame = self.enter(layer)
        try:
            yield
        finally:
            self.exit(frame)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own correctness checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- wrappers -----------------------------------------------------------------

    def _wrap_span(self, layer: str, fn: Callable) -> Callable:
        trace = self
        is_update = layer == "simulator.update"
        topology = layer in ("graph.stage_insert", "graph.stage_remove")
        is_build = layer == "exec_plan.build"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.enabled:
                return fn(*args, **kwargs)
            frame = trace.enter(layer)
            if is_update:
                sim = args[0]
                changed = trace._topology_dirty.pop(id(sim.graph), False)
                with trace._lock:
                    trace._active_updates.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_update:
                    with trace._lock:
                        trace._active_updates.remove(frame)
                trace.exit(frame)
            if is_update:
                trace.updates.append((float(result.affected_fraction), changed))
            elif topology:
                trace._topology_dirty[id(args[0])] = True
            elif is_build:
                trace._stats().layers[layer][3] += result.num_stages
            return result

        return wrapper

    def _wrap_task(self, layer: str, fn: Callable) -> Callable:
        trace = self
        is_kernel = layer == "kernels.execute"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.enabled:
                return fn(*args, **kwargs)
            amount = 0
            if is_kernel:
                table = args[3] if len(args) > 3 else kwargs["table"]
                # computed, not measured: 16 B read + 16 B written per
                # output amplitude of the run table
                amount = 32 * int((table.his - table.los + 1).sum()) if table.num_runs else 0
            frame = trace.enter(layer, cross_thread=True)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                if not is_kernel and result is not None:
                    amount = result.num_runs  # run-table runs
                trace.exit(frame, record_span=False, amount=amount)
            return result

        return wrapper

    def _wrap_hot(self, layer: str, fn: Callable, write: bool) -> Callable:
        trace = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.enabled:
                return fn(*args, **kwargs)
            t0 = perf()
            result = fn(*args, **kwargs)
            dur = perf() - t0
            st = trace._stats()
            if write:
                values = args[2] if len(args) > 2 else kwargs["values"]
                nbytes = getattr(values, "nbytes", 0)
            else:
                nbytes = result.nbytes
            st.add(layer, dur, dur, nbytes)
            if st.stack:
                st.stack[-1].hot += dur
            return result

        return wrapper

    def _wrap_count(self, layer: str, fn: Callable) -> Callable:
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.enabled:
                return fn(*args, **kwargs)
            trace._stats().add(layer, 0.0, 0.0)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, entries: Sequence[Tuple[str, str, str, str]] = ENTRY_POINTS) -> None:
        """Patch every entry point; raises (and patches nothing) if one is missing."""
        resolved = [(layer, kind) + resolve(module, path) for layer, module, path, kind in entries]
        for layer, kind, owner, attr, fn in resolved:
            if kind == SPAN:
                wrapped = self._wrap_span(layer, fn)
            elif kind == TASK:
                wrapped = self._wrap_task(layer, fn)
            elif kind == HOT:
                wrapped = self._wrap_hot(layer, fn, write=attr.startswith("write"))
            else:
                wrapped = self._wrap_count(layer, fn)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    # -- results ------------------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """layer -> [calls, total s, self s, amount] summed over threads."""
        out: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for layer, row in list(st.layers.items()):
                acc = out.setdefault(layer, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += row[i]
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as Chrome trace-event JSON; returns the span count."""
        events = []
        for st in self._threads:
            for layer, start, end, uid, parent, self_time in st.spans:
                events.append({
                    "name": layer, "ph": "X", "pid": 1, "tid": st.tid,
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"id": uid, "parent": parent,
                             "self_us": round(self_time * 1e6, 3)},
                })
        events.sort(key=lambda e: e["ts"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)

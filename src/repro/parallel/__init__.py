"""Taskflow-style task-parallel runtime (pure Python).

The paper implements qTask on top of the Taskflow C++ library: static tasks
express inter-gate operation parallelism, *subflows* (dynamic tasking) express
intra-gate operation parallelism, and a work-stealing scheduler executes the
whole graph with dynamic load balancing (§III.F.1).

This package reproduces that runtime in Python:

* :class:`~repro.parallel.taskgraph.TaskGraph` / :class:`~repro.parallel.taskgraph.Task`
  -- the graph programming model (``precede`` / ``succeed`` / subflows),
* :class:`~repro.parallel.executor.WorkStealingExecutor` -- a thread-based
  work-stealing scheduler (per-worker deques, LIFO pop / FIFO steal),
* :class:`~repro.parallel.executor.SequentialExecutor` -- a deterministic
  single-threaded executor,
* :func:`~repro.parallel.parallel_for.chunk_indices` -- the block-size
  chunking of an index space.

Under the GIL, per-update tasks only added dispatch cost on every measured
workload, so :meth:`~repro.core.simulator.QTaskSimulator.update_state` runs
its stage plans in order on the calling thread.  The executors here fan out
coarse, independent work instead: shot fleets (``QTask.run_shots``),
:class:`~repro.parallel.sweep.SweepRunner` sweeps, service jobs and the
baselines' ``map`` calls.
"""

from .taskgraph import Task, TaskGraph
from .executor import Executor, SequentialExecutor, WorkStealingExecutor, make_executor
from .parallel_for import chunk_indices
from .sweep import SweepPoint, SweepResult, SweepRunner

__all__ = [
    "Task",
    "TaskGraph",
    "Executor",
    "SequentialExecutor",
    "WorkStealingExecutor",
    "make_executor",
    "chunk_indices",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
]

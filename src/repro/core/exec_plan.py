"""Batch-major execution plans: the dirty frontier as run tables.

Running each affected partition node on its own, with one Python call per
aligned block run, would mean thousands of dispatches for a deep dirty
cone.  The plan layer compiles that frontier *once* into a handful of
batch-major structures instead:

* :class:`RunSpec` -- one aligned kernel run, described as data (kind,
  amplitude range, qubit tuple, classified action / payload) rather than as
  a closure.  Stages emit these through ``Stage.emit_runs``.
* :class:`RunTable` -- the runs of one stage packed into contiguous arrays
  (``los``/``his``/``op_ids``) plus a deduplicated operation table, the
  shape a vectorised or compiled kernel backend consumes whole.
* :class:`StagePlan` -- one affected stage: its reader, whether its sync
  barrier (``prepare``) must run, and the block ranges to recompute.  For
  static stages (plain unitary/fused stages, whose runs depend on nothing
  drawn at execution time) the runs are emitted eagerly at plan-build time;
  dynamic and matrix--vector stages defer emission until after their
  ``prepare`` ran.
* :class:`ExecutionPlan` -- every stage plan of one update, in the
  partition graph's topological order.

The simulator then runs the stage plans one after another, and
:class:`~repro.core.kernels.NumpyBatchBackend` executes each stage's whole
run table in bulk.

This module is pure data/plumbing: it imports no kernels and no executor,
so the kernels in :mod:`repro.core.kernels` and the orchestration in
:mod:`repro.core.simulator` can both build on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RUN_ACTION",
    "RUN_SLICE",
    "RUN_COPY",
    "RUN_COLLAPSE",
    "RunSpec",
    "PlanOp",
    "RunTable",
    "StagePlan",
    "ExecutionPlan",
    "PlanReport",
    "build_execution_plan",
]

#: Apply a classified (diagonal/monomial/matvec) action to the range.
RUN_ACTION = 0
#: Publish a slice of a prepared full vector (matvec / superposition c_if).
RUN_SLICE = 1
#: Identity-copy the range from the stage input (condition-false c_if).
RUN_COPY = 2
#: Projective collapse of the range (measure/reset); op = (qubit, outcome,
#: scale, move).
RUN_COLLAPSE = 3


class RunSpec(NamedTuple):
    """One aligned kernel run, as data instead of a closure.

    ``op`` is the kind-specific payload: the classified action for
    :data:`RUN_ACTION`, the prepared full vector for :data:`RUN_SLICE`,
    ``None`` for :data:`RUN_COPY` and the ``(qubit, outcome, scale, move)``
    tuple for :data:`RUN_COLLAPSE`.
    """

    kind: int
    lo: int
    hi: int
    qubits: Tuple[int, ...]
    op: object


class PlanOp(NamedTuple):
    """One deduplicated operation of a run table (shared by many runs)."""

    kind: int
    qubits: Tuple[int, ...]
    op: object


class RunTable:
    """The runs of one stage packed into contiguous arrays.

    ``los``/``his`` are the inclusive amplitude bounds per run and
    ``op_ids[i]`` indexes the deduplicated :attr:`ops` table -- the batch-
    major layout kernel backends consume whole (grouping runs by operation
    lets the numpy backend execute a homogeneous group in a handful of
    stacked array ops, and gives compiled backends plain int64 arrays to
    iterate without touching Python objects).
    """

    __slots__ = ("los", "his", "op_ids", "ops")

    def __init__(
        self,
        los: np.ndarray,
        his: np.ndarray,
        op_ids: np.ndarray,
        ops: List[PlanOp],
    ) -> None:
        self.los = los
        self.his = his
        self.op_ids = op_ids
        self.ops = ops

    @classmethod
    def from_runs(cls, runs: Sequence[RunSpec]) -> "RunTable":
        n = len(runs)
        los = np.empty(n, dtype=np.int64)
        his = np.empty(n, dtype=np.int64)
        op_ids = np.empty(n, dtype=np.int32)
        ops: List[PlanOp] = []
        index: Dict[Tuple[int, int, Tuple[int, ...]], int] = {}
        for i, r in enumerate(runs):
            los[i] = r.lo
            his[i] = r.hi
            key = (r.kind, id(r.op), r.qubits)
            op_id = index.get(key)
            if op_id is None:
                op_id = index[key] = len(ops)
                ops.append(PlanOp(r.kind, r.qubits, r.op))
            op_ids[i] = op_id
        return cls(los, his, op_ids, ops)

    @property
    def num_runs(self) -> int:
        return int(self.los.shape[0])

    def groups(self) -> Iterator[Tuple[PlanOp, np.ndarray]]:
        """Yield ``(op, run_indices)`` per distinct operation, in op order."""
        for op_id, op in enumerate(self.ops):
            idx = np.flatnonzero(self.op_ids == op_id)
            if idx.size:
                yield op, idx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunTable(runs={self.num_runs}, ops={len(self.ops)})"


class StagePlan:
    """Everything one stage contributes to an update's execution plan."""

    __slots__ = (
        "stage",
        "reader",
        "has_sync",
        "block_ranges",
        "block_writes",
        "_static_runs",
        "emitted_runs",
    )

    def __init__(self, stage, reader) -> None:
        self.stage = stage
        self.reader = reader
        self.has_sync = False
        #: block ranges of the stage's affected (non-sync) partition nodes
        self.block_ranges: List[object] = []
        self.block_writes = 0
        #: runs emitted at build time for static stages; ``None`` defers
        #: emission to execution time (after ``prepare`` ran)
        self._static_runs: Optional[List[RunSpec]] = None
        #: filled in by :meth:`build_table` when the stage executes
        self.emitted_runs = 0

    def freeze_static(self) -> None:
        """Pre-emit the runs of a stage whose emission is input-independent."""
        if getattr(self.stage, "plan_static", False):
            self._static_runs = self._emit()

    def _emit(self) -> List[RunSpec]:
        runs: List[RunSpec] = []
        for br in self.block_ranges:
            runs.extend(self.stage.emit_runs(br))
        return runs

    def build_table(self) -> RunTable:
        """The stage's run table (static, or emitted now, post-``prepare``)."""
        runs = self._static_runs if self._static_runs is not None else self._emit()
        self.emitted_runs = len(runs)
        return RunTable.from_runs(runs)


class ExecutionPlan:
    """One update's worth of stage plans, in topological order."""

    __slots__ = ("stage_plans", "block_writes")

    def __init__(self, stage_plans: List[StagePlan], block_writes: int) -> None:
        self.stage_plans = stage_plans
        self.block_writes = block_writes

    @property
    def num_stages(self) -> int:
        return len(self.stage_plans)

    def total_runs(self) -> int:
        return sum(sp.emitted_runs for sp in self.stage_plans)


def build_execution_plan(
    affected: Sequence[object],
    reader_for: Callable[[object], object],
) -> ExecutionPlan:
    """Compile the affected partition nodes into one plan per stage.

    ``affected`` must be in the partition graph's topological order (stage
    seq ascending, sync nodes leading their stage -- exactly what
    ``PartitionGraph.affected_nodes`` returns).  The frontier is walked
    once: each node folds into its stage's :class:`StagePlan`.  Stage plans
    keep the order of their first node, so running them in list order is
    a correct schedule: partition edges always point from earlier to later
    stages, and partitions of one stage never depend on each other.
    """
    plans: Dict[int, StagePlan] = {}
    order: List[StagePlan] = []
    block_writes = 0
    for node in affected:
        uid = node.stage.uid
        sp = plans.get(uid)
        if sp is None:
            sp = plans[uid] = StagePlan(node.stage, reader_for(node.stage))
            order.append(sp)
        if node.is_sync:
            sp.has_sync = True
        else:
            sp.block_ranges.append(node.block_range)
            sp.block_writes += len(node.block_range)
            block_writes += len(node.block_range)
    for sp in order:
        sp.freeze_static()
    return ExecutionPlan(order, block_writes)


@dataclass(frozen=True)
class PlanReport:
    """Dispatch-overhead accounting of the plan pipeline (one session).

    The :class:`~repro.core.cow.MemoryReport` sibling for execution plans:
    how many plans were compiled, how many runs they batched and how often
    a stage table fell back to run-granular execution.  ``runs_per_plan``
    is the headline number -- the dispatch work one batched backend call
    absorbs.
    """

    plans_built: int
    runs_batched: int
    backend_fallbacks: int
    updates_planned: int
    #: per-run re-executions after an injected/environmental fault inside
    #: the run-granular fallback loop
    run_retries: int = 0
    #: whole-update re-executions after a fault escaped every lower layer
    update_retries: int = 0

    @property
    def runs_per_plan(self) -> float:
        if self.plans_built == 0:
            return 0.0
        return self.runs_batched / self.plans_built

    def as_dict(self) -> Dict[str, object]:
        return {
            "plans_built": self.plans_built,
            "runs_batched": self.runs_batched,
            "backend_fallbacks": self.backend_fallbacks,
            "updates_planned": self.updates_planned,
            "runs_per_plan": self.runs_per_plan,
            "run_retries": self.run_retries,
            "update_retries": self.update_retries,
        }

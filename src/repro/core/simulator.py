"""The qTask simulator: incremental state-vector simulation.

:class:`QTaskSimulator` observes a :class:`~repro.core.circuit.Circuit` and
maintains, across circuit modifiers, the partition task graph of §III.C-D.
Calling :meth:`QTaskSimulator.update_state` re-simulates exactly the
partitions affected by the modifiers issued since the previous update (found
by DFS from the frontier list, §III.E), compiled into one run table per
affected stage and executed in topological order on the calling thread.
Stage inputs are resolved through the simulator-owned
:class:`~repro.core.cow.BlockDirectory` (O(log W) block ownership lookups),
and each run table feeds the strided kernels in batches.  The configured
executor sizes coarse fan-out across whole sessions (shot fleets, sweeps),
not the work inside one update.

The facade class most applications use is :class:`repro.QTask`, which bundles
a circuit and a simulator behind the paper's Table-II API.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, TextIO, Tuple

import numpy as np

from ..parallel import Executor, make_executor
from ..telemetry import Telemetry
from ..telemetry import session as tsession
from . import faults
from .faults import FaultInjected
from .blocks import BlockRange, DEFAULT_BLOCK_SIZE, num_blocks, validate_block_size
from .circuit import Circuit, CircuitObserver, GateHandle, NetHandle
from .classical import OutcomeRecord
from .cow import BlockDirectory, DirectoryReader, InitialStateStore, MemoryReport
from .exceptions import CircuitError
from .exec_plan import ExecutionPlan, PlanReport, StagePlan, build_execution_plan
from .gates import Gate, compose_actions, is_superposition_gate
from .graph import PartitionGraph, PartitionNode
from .kernels import NumpyBatchBackend, execute_run, iter_table_runs
from .ops import CGate, MeasureOp, ResetOp, is_dynamic_op
from .stage import (
    ClassicallyControlledStage,
    DynamicStage,
    FusedUnitaryStage,
    MatVecStage,
    MeasureStage,
    ResetStage,
    Stage,
    UnitaryStage,
)

__all__ = ["UpdateReport", "QTaskSimulator"]

logger = logging.getLogger(__name__)

#: bounded per-run re-executions inside the run-granular fallback loop
_RUN_FAULT_RETRIES = 5

#: bounded whole-update re-executions (the outermost recovery layer)
_UPDATE_FAULT_RETRIES = 3


@dataclass
class UpdateReport:
    """What one ``update_state`` call did."""

    affected_partitions: int = 0
    total_partitions: int = 0
    executed_block_writes: int = 0
    elapsed_seconds: float = 0.0
    was_incremental: bool = False

    @property
    def affected_fraction(self) -> float:
        if self.total_partitions == 0:
            return 0.0
        return self.affected_partitions / self.total_partitions


class QTaskSimulator(CircuitObserver):
    """Incremental task-parallel simulator attached to a circuit."""

    def __init__(
        self,
        circuit: Circuit,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        executor: Optional[Executor] = None,
        num_workers: Optional[int] = None,
        fusion: bool = False,
        max_fused_qubits: int = 4,
        seed: Optional[int] = None,
        tracing: Optional[bool] = None,
    ) -> None:
        self.circuit = circuit
        self.block_size = validate_block_size(block_size)
        #: Fuse runs of consecutive non-superposition stages into single
        #: diagonal/monomial stages over the union qubit support.  Fusion
        #: relies on the net invariant (gates in one net are qubit-disjoint),
        #: so it is disabled for circuits built with
        #: ``allow_net_dependencies=True``, where within-net order is
        #: heuristic and fusing could reorder dependent gates.
        self.fusion = bool(fusion) and not circuit.allow_net_dependencies
        self.max_fused_qubits = int(max_fused_qubits)
        self.dim = 1 << circuit.num_qubits
        self.n_blocks = num_blocks(self.dim, self.block_size)
        if executor is not None and num_workers is not None:
            raise CircuitError("pass either an executor or num_workers, not both")
        self._owns_executor = executor is None
        self.executor: Executor = executor or make_executor(num_workers)

        self._backend = NumpyBatchBackend()
        self._init_telemetry(tracing=tracing)
        self._init_fault_tolerance()

        self._initial = InitialStateStore(self.dim, self.block_size)
        #: block-ownership index: block id -> stages holding it, seq-sorted.
        #: Maintained push-style by the stage stores through the partition
        #: graph's insert/remove hooks (see BlockDirectory in core.cow).
        self._directory = BlockDirectory(self._initial)
        self.graph = PartitionGraph(
            BlockRange(0, self.n_blocks - 1),
            on_stage_inserted=self._on_stage_entered,
            on_stage_removed=self._on_stage_left,
        )

        #: stages of each net, in within-net order
        self._net_stages: Dict[int, List[Stage]] = {}
        #: the (single) matvec stage of each net, when present
        self._matvec: Dict[int, MatVecStage] = {}
        #: stage owning each gate handle
        self._gate_stage: Dict[int, Stage] = {}
        #: gate handles whose gates each stage applies (member list for fused
        #: stages; single-element for unitary stages)
        self._stage_handles: Dict[int, List[GateHandle]] = {}
        #: uid of the net each stage is filed under (a fused stage is filed
        #: under the net of its most recently fused member)
        self._stage_net: Dict[int, int] = {}
        #: number of live fused stages (lets insertions skip conflict scans)
        self._num_fused = 0
        #: cached net-order index (net uid -> position) used by
        #: _global_position/_dissolve_conflicting; invalidated whenever a net
        #: is inserted or removed instead of being rebuilt on every gate.
        self._net_index: Optional[Dict[int, int]] = None
        self._net_uid_order: List[int] = []

        self.last_update: UpdateReport = UpdateReport()
        #: completed ``update_state`` calls; with the frontier set this is
        #: the state epoch fork fleets use to detect a diverged base session
        self._num_updates = 0

        #: per-trajectory classical state: measurement outcomes, classical
        #: bits and the keyed randomness that draws collapses.  Dynamic
        #: stages hold a reference to this record; forks clone their own.
        self.outcomes = OutcomeRecord(circuit.num_clbits, seed=seed)
        #: live dynamic stages, in no particular order (trajectory re-arming)
        self._dynamic_stages: Dict[int, DynamicStage] = {}

        #: dirty-block listeners: callables receiving the ids of every block
        #: (re)written by an update or orphaned by a stage removal.  The
        #: observables engine registers here so its per-block caches are
        #: invalidated by exactly the frontier the incremental update scopes.
        self._dirty_listeners: List[Callable[[Iterable[int]], None]] = []
        self._observables = None

        circuit.register_observer(self)
        self._sync_existing()

    def _init_telemetry(
        self,
        *,
        tracing: Optional[bool] = None,
        parent: Optional[Telemetry] = None,
    ) -> None:
        """One telemetry bundle per session; plan counters live in it.

        The plan-pipeline counters keep their ``self._x`` attribute names,
        but each is now a registry-owned :class:`~repro.telemetry.Counter`
        -- write sites call ``.inc()``, report sites read ``.value``, and
        the same numbers surface through ``telemetry_report()`` and the
        Prometheus dump without a second bookkeeping path.
        """
        self.telemetry = Telemetry(tracing=tracing, parent=parent)
        m = self.telemetry.metrics
        #: plan-pipeline counters (see :meth:`plan_report`)
        self._plans_built = m.counter(
            "plan.plans_built", help="stage plans compiled"
        )
        self._runs_batched = m.counter(
            "plan.runs_batched", help="block runs batched into plans"
        )
        self._updates_planned = m.counter(
            "plan.updates_planned", help="updates through the plan pipeline"
        )
        self._backend_fallbacks = m.counter(
            "recovery.backend_fallbacks",
            help="chunk executions that fell back run-granular",
        )
        self._update_seconds = m.histogram(
            "update.seconds", unit="s", help="update_state wall time"
        )
        #: event-log high-water mark when the last update began, so
        #: ``explain_last_update`` can scope "what recovery did" exactly.
        self._update_event_mark = 0

    def _init_fault_tolerance(self) -> None:
        """Per-session recovery state: the bounded-retry counters."""
        m = self.telemetry.metrics
        self._run_retries = m.counter(
            "recovery.run_retries", help="per-run fault retries"
        )
        self._update_retries = m.counter(
            "recovery.update_retries", help="whole-update fault retries"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Detach from the circuit and release the executor (if owned)."""
        self.circuit.unregister_observer(self)
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "QTaskSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _sync_existing(self) -> None:
        """Adopt gates already present in the circuit at attach time."""
        for net in self.circuit.nets():
            self._net_stages.setdefault(net.uid, [])
            for handle in net.gates:
                self.on_gate_inserted(self.circuit, handle)

    # ------------------------------------------------------------------
    # session forking (copy-on-write children)
    # ------------------------------------------------------------------

    @property
    def state_epoch(self) -> Tuple[int, bool]:
        """``(completed updates, edits pending)`` -- the session's version.

        Two observations of the same epoch with no pending edits are
        guaranteed to describe the same simulated state; fork fleets compare
        epochs to detect that their base session has diverged.
        """
        return self._num_updates, bool(self.graph.frontiers)

    def fork(self, *, executor: Optional[Executor] = None) -> "QTaskSimulator":
        """A child simulator sharing this one's computed state copy-on-write.

        The child gets its own circuit (a structural clone with fresh
        handles), its own stages, partition graph, block directory and
        observables engine -- but every stage store *adopts* the parent
        stage's blocks by reference (:meth:`BlockStore.share_from`), so
        forking costs O(stages + stored blocks) bookkeeping and zero block
        copies.  The first write a child update makes to a block rebinds the
        child's entry, leaving the parent untouched; edits on either side
        never perturb the other.

        By default the child shares the parent's executor; pass ``executor``
        to give it another (shot fleets and sweeps hand each fork a
        :class:`~repro.parallel.SequentialExecutor`).  Either way the
        executor stays the caller's: ``close()`` on the child never shuts it
        down.  Pending modifiers on this simulator are flushed first so the
        forked state is well defined; the child's gate-handle translation
        table is exposed as ``forked_gate_map`` (parent handle uid -> child
        handle).
        """
        # The forked state is "the state after all issued modifiers".
        if self.graph.frontiers or self._num_updates == 0:
            self.update_state()
        circuit, gate_map, net_map = self.circuit.clone()

        child = QTaskSimulator.__new__(QTaskSimulator)
        child.circuit = circuit
        child.block_size = self.block_size
        child.fusion = self.fusion
        child.max_fused_qubits = self.max_fused_qubits
        child.dim = self.dim
        child.n_blocks = self.n_blocks
        child._owns_executor = False
        child.executor = executor if executor is not None else self.executor
        child._backend = self._backend
        # The child gets its own registry (counters start at zero) tagged
        # with this session's id, so fleet aggregation can merge fork stats
        # back instead of losing them -- see SweepRunner.merged_metrics().
        child._init_telemetry(
            tracing=self.telemetry.tracer.enabled,
            parent=self.telemetry,
        )
        child._init_fault_tolerance()
        child._initial = InitialStateStore(child.dim, child.block_size)
        child._directory = BlockDirectory(child._initial)
        child.graph = PartitionGraph(
            BlockRange(0, child.n_blocks - 1),
            on_stage_inserted=child._on_stage_entered,
            on_stage_removed=child._on_stage_left,
        )
        child._net_stages = {net.uid: [] for net in circuit.nets()}
        child._matvec = {}
        child._gate_stage = {}
        child._stage_handles = {}
        child._stage_net = {}
        child._num_fused = self._num_fused
        child._net_index = None
        child._net_uid_order = []
        child.last_update = UpdateReport()
        child._num_updates = self._num_updates
        child._dirty_listeners = []
        child._observables = None
        # The child's trajectory starts as a verbatim copy of the parent's
        # classical state; the mirror hook below rebinds every cloned
        # dynamic stage to this record, so re-collapses stay fork-local.
        child.outcomes = self.outcomes.clone()
        child._dynamic_stages = {}

        # Mirror the parent's stages in its exact global order (the block
        # directory's seq-based resolution depends on it) and clone the
        # partition-graph topology verbatim -- O(nodes + edges), no
        # insertion scans.
        stage_map: Dict[int, Stage] = {}
        for stage in self.graph.stages:
            child_stage = stage.clone_for_fork()
            stage_map[stage.uid] = child_stage
            members = [gate_map[h.uid] for h in self._stage_handles[stage.uid]]
            child._stage_handles[child_stage.uid] = members
            for child_handle in members:
                child._gate_stage[child_handle.uid] = child_stage
            child._stage_net[child_stage.uid] = net_map[
                self._stage_net[stage.uid]
            ].uid
        child.graph.mirror_from(self.graph, stage_map)
        for net_uid, stages in self._net_stages.items():
            child_net = net_map.get(net_uid)
            if child_net is not None:
                child._net_stages[child_net.uid] = [
                    stage_map[s.uid] for s in stages
                ]
        for net_uid, stage in self._matvec.items():
            child._matvec[net_map[net_uid].uid] = stage_map[stage.uid]

        # Adopt the parent's computed blocks copy-on-write (zero copies);
        # the attached directory learns the ownership via store callbacks.
        for stage in self.graph.stages:
            stage_map[stage.uid].store.share_from(stage.store)

        # A warm observables cache is valid verbatim (identical state).
        if self._observables is not None:
            child._observables = self._observables.clone_for(child)

        child.forked_gate_map = gate_map
        circuit.register_observer(child)
        return child

    # ------------------------------------------------------------------
    # partition-graph hooks: keep the block directory in sync
    # ------------------------------------------------------------------

    def _on_stage_entered(self, stage: Stage) -> None:
        if isinstance(stage, DynamicStage):
            stage.bind_record(self.outcomes)
            if isinstance(stage, ClassicallyControlledStage):
                stage.bind_clbit_lookup(self._clbit_value_asof)
            self._dynamic_stages[stage.uid] = stage
        self._directory.attach(stage)

    def _clbit_value_asof(self, bit: int, before_seq: int) -> int:
        """The value of ``bit`` at program point ``before_seq``.

        Resolved from the recorded outcome of the latest measurement stage
        that writes ``bit`` and executes strictly before ``before_seq`` --
        never from the final classical register, whose bits a *later*
        measurement may have overwritten on a previous (partial) execution
        pass.  This is what makes incrementally re-executed c_if stages read
        the same values a from-scratch run would.
        """
        best_seq = -1
        value = 0
        for stage in self._dynamic_stages.values():
            if (
                isinstance(stage, MeasureStage)
                and stage.op.clbit == bit
                and best_seq < stage.seq < before_seq
            ):
                outcome = self.outcomes.outcome_of(stage.op.op_index)
                if outcome is not None:
                    best_seq = stage.seq
                    value = outcome
        return value

    def _on_stage_left(self, stage: Stage) -> None:
        # A departing stage's stored blocks now resolve to an *older* writer,
        # which changes the final state even when nothing re-executes (e.g.
        # removing the last gate of the circuit) -- so they are dirty now.
        self._notify_dirty(stage.store.stored_blocks())
        self._dynamic_stages.pop(stage.uid, None)
        if isinstance(stage, MeasureStage):
            # A removed measurement no longer backs its classical bit:
            # forget its outcome and fall back to the latest surviving
            # writer of the bit (0 when none), so downstream c_if stages --
            # which the removal's frontier re-executes -- read the value a
            # from-scratch run of the edited circuit would produce.
            self.outcomes.discard_op(stage.op.op_index)
            self._restore_clbit(stage.op.clbit)
        elif isinstance(stage, ResetStage):
            self.outcomes.discard_op(stage.op.op_index)
        self._directory.detach(stage)

    def _restore_clbit(self, clbit: int) -> None:
        """Rebind ``clbit`` to the last surviving measurement that wrote it."""
        value = 0
        for handle in self.circuit.gates():
            op = handle.gate
            if isinstance(op, MeasureOp) and op.clbit == clbit:
                outcome = self.outcomes.outcome_of(op.op_index)
                if outcome is not None:
                    value = outcome
        self.outcomes.set_bit(clbit, value)

    # ------------------------------------------------------------------
    # dirty-block listeners (observable caches)
    # ------------------------------------------------------------------

    def add_dirty_listener(self, listener: Callable[[Iterable[int]], None]) -> None:
        """Subscribe to dirty-block notifications (see ``_dirty_listeners``)."""
        if listener not in self._dirty_listeners:
            self._dirty_listeners.append(listener)

    def remove_dirty_listener(self, listener: Callable[[Iterable[int]], None]) -> None:
        if listener in self._dirty_listeners:
            self._dirty_listeners.remove(listener)

    def _notify_dirty(self, blocks: Iterable[int]) -> None:
        if not self._dirty_listeners:
            return
        blocks = tuple(blocks)
        if not blocks:
            return
        for listener in self._dirty_listeners:
            listener(blocks)

    # ------------------------------------------------------------------
    # CircuitObserver callbacks: maintain stages + partition graph
    # ------------------------------------------------------------------

    def on_net_inserted(self, circuit: Circuit, net: NetHandle, position: int) -> None:
        self._net_stages.setdefault(net.uid, [])
        self._net_index = None

    def on_net_removed(self, circuit: Circuit, net: NetHandle,
                       removed_gates: Sequence[GateHandle]) -> None:
        # Individual gate removals already dismantled the net's stages.
        self._net_stages.pop(net.uid, None)
        self._matvec.pop(net.uid, None)
        self._net_index = None

    def on_gate_inserted(self, circuit: Circuit, handle: GateHandle) -> None:
        net = handle.net
        self._net_stages.setdefault(net.uid, [])
        gate = handle.gate
        if is_dynamic_op(gate):
            self.outcomes.ensure_bits(circuit.num_clbits)
            stage = self._make_dynamic_stage(gate)
            self._insert_stage(handle, net, stage)
            return
        if is_superposition_gate(gate):
            stage = self._matvec.get(net.uid)
            if stage is not None:
                stage.add_gate(gate)
                self._gate_stage[handle.uid] = stage
                self._stage_handles[stage.uid].append(handle)
                if self.fusion:
                    # The gate joins a stage that executes earlier than its
                    # insertion time would suggest; fused runs downstream that
                    # pulled an earlier-net gate past this point must split.
                    self._dissolve_conflicting(stage.seq + 1, net, gate)
                self.graph.touch_stage(stage)
                return
            stage = MatVecStage([gate], circuit.num_qubits, self.block_size)
            self._matvec[net.uid] = stage
            self._insert_stage(handle, net, stage)
            return
        stage = UnitaryStage(gate, circuit.num_qubits, self.block_size)
        self._insert_stage(handle, net, stage, try_fusion=self.fusion)

    def _make_dynamic_stage(self, op) -> DynamicStage:
        """Build the stage for a measure/reset/classically-controlled op."""
        args = (self.circuit.num_qubits, self.block_size)
        if isinstance(op, MeasureOp):
            return MeasureStage(op, *args, record=self.outcomes)
        if isinstance(op, ResetOp):
            return ResetStage(op, *args, record=self.outcomes)
        if isinstance(op, CGate):
            return ClassicallyControlledStage(op, *args, record=self.outcomes)
        raise CircuitError(f"unknown dynamic operation {op!r}")

    def _heuristic_position(self, stages: List[Stage], new_stage: UnitaryStage) -> int:
        """Within-net position: matvec first, then ascending block count.

        The paper connects a net's non-superposition gates "in an increasing
        order of block count in partitions" so large partitions (which fan out
        widely) are deferred.  New stages are placed at their sorted position
        without reordering existing stages.
        """
        start = 0
        if stages and isinstance(stages[0], MatVecStage):
            start = 1
        new_count = new_stage.total_block_count()
        for i in range(start, len(stages)):
            other = stages[i]
            if isinstance(other, UnitaryStage) and other.total_block_count() > new_count:
                return i
        return len(stages)

    def _insert_stage(
        self,
        handle: GateHandle,
        net: NetHandle,
        stage: Stage,
        *,
        try_fusion: bool = False,
    ) -> None:
        within, position = self._place(net, stage, handle.gate)
        if try_fusion and position > 0:
            candidate = self.graph.stage_at(position - 1)
            if self._fuse_into(candidate, handle, net, position):
                return
        self._net_stages[net.uid].insert(within, stage)
        self.graph.insert_stage(stage, position)
        self._gate_stage[handle.uid] = stage
        self._stage_handles[stage.uid] = [handle]
        self._stage_net[stage.uid] = net.uid

    def _place(self, net: NetHandle, stage: Stage, gate: Gate) -> Tuple[int, int]:
        """Within-net and global insertion slots for ``stage``.

        With fusion enabled, any fused stage at or after the chosen slot that
        holds a member from an earlier net overlapping ``gate``'s qubits is
        dissolved first (the member must execute before ``gate`` but no longer
        would), and the slot is recomputed against the new layout.
        """
        while True:
            stages = self._net_stages.setdefault(net.uid, [])
            if isinstance(stage, MatVecStage):
                within = 0  # the matvec stage always leads its net
            elif isinstance(stage, DynamicStage):
                # Dynamic ops are qubit- and clbit-disjoint from their net
                # mates (the extended net invariant), so appending keeps the
                # block-count heuristic of the unitary stages untouched.
                within = len(stages)
            else:
                within = self._heuristic_position(stages, stage)
            position = self._global_position(net, within)
            if not self.fusion or not self._dissolve_conflicting(position, net, gate):
                return within, position

    # ------------------------------------------------------------------
    # stage fusion (runs of consecutive non-superposition gates)
    # ------------------------------------------------------------------

    def _fuse_into(
        self,
        candidate: Stage,
        handle: GateHandle,
        net: NetHandle,
        position: int,
    ) -> bool:
        """Fuse ``handle``'s gate into the immediately preceding stage.

        The fused stage takes the candidate's slot in the global order (the
        two are adjacent, so composing their actions preserves the execution
        order) and is filed under the new gate's net, which keeps every
        earlier-net member ahead of all later insertion points.
        """
        if not isinstance(candidate, UnitaryStage):
            return False
        gate = handle.gate
        if len(set(candidate.qubits) | set(gate.qubits)) > self.max_fused_qubits:
            return False
        action, union_qubits = compose_actions(
            candidate.action, candidate.qubits, gate.action(), gate.qubits
        )
        members = list(self._stage_handles[candidate.uid]) + [handle]
        fused = FusedUnitaryStage(
            [h.gate for h in members],
            self.circuit.num_qubits,
            self.block_size,
            action=action,
            qubits=union_qubits,
        )
        cand_net_uid = self._stage_net.pop(candidate.uid)
        cand_list = self._net_stages[cand_net_uid]
        # A candidate from another net can only precede slot `position` when
        # this net contributes nothing before it, so the fused stage leads
        # this net's list; otherwise it takes the candidate's own index.
        index = cand_list.index(candidate) if cand_net_uid == net.uid else 0
        cand_list.remove(candidate)
        self._stage_handles.pop(candidate.uid)
        self.graph.remove_stage(candidate)
        self._net_stages[net.uid].insert(index, fused)
        self.graph.insert_stage(fused, position - 1)
        for h in members:
            self._gate_stage[h.uid] = fused
        self._stage_handles[fused.uid] = members
        self._stage_net[fused.uid] = net.uid
        if not isinstance(candidate, FusedUnitaryStage):
            self._num_fused += 1
        return True

    def _dissolve_conflicting(self, position: int, net: NetHandle, gate: Gate) -> bool:
        """Dissolve fused stages at/after ``position`` that ``gate`` invalidates.

        A fused stage downstream of the insertion slot may hold a member from
        a net *earlier* than ``net``; if that member shares qubits with
        ``gate`` it must execute before it, which the fused placement no
        longer guarantees.  Returns True when anything was dissolved.
        """
        if not self._num_fused:
            return False
        candidates = [
            s
            for s in self.graph.stages_after(position)
            if isinstance(s, FusedUnitaryStage)
        ]
        if not candidates:
            return False
        qubits = set(gate.qubits)
        net_positions = self._net_positions()
        net_pos = net_positions[net.uid]
        conflicting: List[FusedUnitaryStage] = []
        for stage in candidates:
            for h in self._stage_handles[stage.uid]:
                if qubits.intersection(h.gate.qubits) and (
                    net_positions[h.net.uid] < net_pos
                ):
                    conflicting.append(stage)
                    break
        for stage in conflicting:
            if stage.uid in self._stage_handles:  # not already dissolved
                self._dissolve(stage)
        return bool(conflicting)

    def _dissolve(
        self, stage: FusedUnitaryStage, skip: Optional[GateHandle] = None
    ) -> None:
        """Replace a fused stage with individual stages for its members.

        Each member is re-inserted through the normal placement path of its
        own net (no re-fusion), so net-order semantics are restored exactly.
        """
        handles = self._stage_handles.pop(stage.uid)
        net_uid = self._stage_net.pop(stage.uid)
        self._net_stages[net_uid].remove(stage)
        self._num_fused -= 1
        self.graph.remove_stage(stage)
        for h in handles:
            self._gate_stage.pop(h.uid, None)
        for h in handles:
            if h is skip:
                continue
            single = UnitaryStage(h.gate, self.circuit.num_qubits, self.block_size)
            self._insert_stage(h, h.net, single)

    def _net_positions(self) -> Dict[int, int]:
        """Net uid -> circuit position, rebuilt only after net insert/remove."""
        cache = self._net_index
        if cache is None:
            self._net_uid_order = [n.uid for n in self.circuit.nets()]
            cache = {uid: i for i, uid in enumerate(self._net_uid_order)}
            self._net_index = cache
        return cache

    def _global_position(self, net: NetHandle, within: int) -> int:
        idx = self._net_positions().get(net.uid)
        if idx is None:
            # net not found (should not happen): append at the end
            return sum(len(s) for s in self._net_stages.values()) + within
        net_stages = self._net_stages
        pos = 0
        for uid in self._net_uid_order[:idx]:
            stages = net_stages.get(uid)
            if stages:
                pos += len(stages)
        return pos + within

    def on_gate_updated(
        self, circuit: Circuit, handle: GateHandle, old_gate: Gate
    ) -> None:
        """A gate was retuned in place: keep its stage, mark it dirty.

        The stage object, its store, and the partition-graph topology all
        survive a retune whenever the new parameters preserve the action's
        classification and partition layout (the overwhelmingly common case
        in variational sweeps: ``rz``/``rx``/``cp`` angle changes).  Only the
        stage's own partitions join the frontier; the incremental update then
        re-simulates exactly the downstream cone -- the same scope a newly
        inserted gate would have, without any graph surgery.

        When the retune *does* change the classification (e.g. ``rx(pi)``
        <-> ``rx(pi/2)`` crossing the permutation/superposition boundary) or
        the layout (angles collapsing a gate to the identity), the stage is
        rebuilt through the ordinary remove+insert observer path; the gate
        handle keeps its identity either way.
        """
        stage = self._gate_stage.get(handle.uid)
        if stage is None:
            return
        new_gate = handle.gate
        if isinstance(stage, MatVecStage):
            if is_superposition_gate(new_gate) and stage.retune_gate(
                old_gate, new_gate
            ):
                self.graph.touch_stage(stage)
                return
        elif isinstance(stage, FusedUnitaryStage):
            members = self._stage_handles[stage.uid]
            if not is_superposition_gate(new_gate) and stage.recompose(
                [h.gate for h in members]
            ):
                self.graph.touch_stage(stage)
                return
        else:
            if stage.retune(new_gate):
                self.graph.touch_stage(stage)
                return
        # Classification or partition layout changed: rebuild this gate's
        # stage via the remove+insert path.  The removal path must see the
        # *old* gate (matvec stages look members up by value).
        handle.gate = old_gate
        self.on_gate_removed(circuit, handle)
        handle.gate = new_gate
        self.on_gate_inserted(circuit, handle)

    def on_gate_removed(self, circuit: Circuit, handle: GateHandle) -> None:
        stage = self._gate_stage.pop(handle.uid, None)
        if stage is None:
            return
        net = handle.net
        if isinstance(stage, FusedUnitaryStage):
            # Removing one member splits the run back into single-gate stages.
            self._dissolve(stage, skip=handle)
            return
        if isinstance(stage, MatVecStage):
            stage.remove_gate(handle.gate)
            members = self._stage_handles.get(stage.uid)
            if members is not None and handle in members:
                members.remove(handle)
            if not stage.is_empty:
                self.graph.touch_stage(stage)
                return
            self._matvec.pop(net.uid, None)
        stages = self._net_stages.get(net.uid, [])
        if stage in stages:
            stages.remove(stage)
        self._stage_handles.pop(stage.uid, None)
        self._stage_net.pop(stage.uid, None)
        self.graph.remove_stage(stage)

    # ------------------------------------------------------------------
    # trajectories (dynamic circuits)
    # ------------------------------------------------------------------

    @property
    def num_dynamic_stages(self) -> int:
        """Live measure/reset/classically-controlled stages."""
        return len(self._dynamic_stages)

    def reset_trajectory(self, seed=None) -> None:
        """Re-arm every dynamic operation for a fresh trajectory.

        Clears the outcome record (reseeding its keyed randomness with
        ``seed``) and marks every dynamic stage -- including its sync
        barrier, where outcomes are drawn -- as a frontier, so the next
        :meth:`update_state` re-collapses from the first measurement onward
        while the unitary prefix stays cached (copy-on-write makes the
        re-collapse exactly as incremental as a gate update at the same
        depth).  This is the primitive :meth:`repro.QTask.run_shots` drives
        once per shot on its forked sessions.
        """
        self.outcomes.reseed(seed)
        for stage in self._dynamic_stages.values():
            self.graph.touch_stage_full(stage)

    # ------------------------------------------------------------------
    # state update (full or incremental)
    # ------------------------------------------------------------------

    def update_state(self) -> UpdateReport:
        """Re-simulate every partition affected by modifiers since last call.

        Copy-on-write stage stores hold only the blocks each stage writes,
        which is what makes the scoped update sound: a partition outside the
        frontier keeps reading the same resolved blocks as before.
        """
        tel = self.telemetry
        self._update_event_mark = tel.events.last_seq
        prev = tsession.activate(tel)
        try:
            if tel.tracer.enabled:
                with tel.tracer.span("update") as span:
                    report = self._update_state_impl()
                    span.set("affected", report.affected_partitions)
                    span.set("block_writes", report.executed_block_writes)
                    span.set("update", self._num_updates - 1)
            else:
                report = self._update_state_impl()
            self._update_seconds.observe(report.elapsed_seconds)
            return report
        finally:
            tsession.deactivate(prev)

    def _update_state_impl(self) -> UpdateReport:
        start = time.perf_counter()
        affected = self.graph.affected_nodes()
        total_nodes = self.graph.num_nodes()
        report = UpdateReport(
            affected_partitions=len(affected),
            total_partitions=total_nodes,
            was_incremental=self._num_updates > 0,
        )
        if affected:
            report.executed_block_writes = self._execute_with_recovery(affected)
            if self._dirty_listeners:
                dirty: Set[int] = set()
                for node in affected:
                    if not node.is_sync:
                        dirty.update(node.block_range.blocks())
                self._notify_dirty(dirty)
        self.graph.clear_frontiers()
        report.elapsed_seconds = time.perf_counter() - start
        self.last_update = report
        self._num_updates += 1
        return report

    def _execute_with_recovery(self, affected: List[PartitionNode]) -> int:
        """Run ``_execute`` inside the fault envelope.

        The armed scope is what lets an installed :class:`FaultPlan` fire
        inside this update (and nowhere else).  The bounded retry is the
        outermost recovery layer: stage outputs are deterministic overwrites
        of their own stores, so re-executing the whole affected cone is
        always safe -- provided the classical state is first rolled back to
        the attempt boundary, because a re-executed collapse would otherwise
        advance its keyed stream one extra draw and fork the trajectory away
        from a clean run's.  Anything the per-run and chunk-level layers
        could not absorb lands here before giving up.
        """
        if faults.ACTIVE is None:
            return self._execute(affected)
        with faults.armed():
            attempt = 0
            rollback = self.outcomes.snapshot()
            while True:
                try:
                    return self._execute(affected)
                except FaultInjected as exc:
                    attempt += 1
                    if attempt > _UPDATE_FAULT_RETRIES:
                        raise
                    self.outcomes.restore(rollback)
                    self._update_retries.inc()
                    tsession.emit_event(
                        "trajectory.rollback", update=self._num_updates
                    )
                    tsession.emit_event(
                        "update.retry", attempt=attempt, reason=str(exc)
                    )
                    logger.warning(
                        "update attempt %d failed (%s); re-executing the "
                        "affected cone",
                        attempt,
                        exc,
                    )

    def _reader_for(self, stage: Stage) -> DirectoryReader:
        """The stage-input view: everything written strictly before ``stage``."""
        return DirectoryReader(self._directory, stage.seq)

    def _execute(self, affected: List[PartitionNode]) -> int:
        """Compile the frontier into one plan per stage and run it in order.

        Stage plans arrive in topological order (stage seq ascending, sync
        nodes first), so running them one after another on the calling
        thread honours every partition-graph edge.  Each stage runs its
        ``prepare`` when its sync barrier is affected, materialises its run
        table and hands the whole table to :class:`NumpyBatchBackend`.
        """
        tel = self.telemetry
        if tel.tracer.enabled:
            with tel.tracer.span("plan.build") as pspan:
                plan = build_execution_plan(affected, self._reader_for)
                pspan.set("stages", plan.num_stages)
                pspan.set("runs", plan.total_runs())
        else:
            plan = build_execution_plan(affected, self._reader_for)
        for sp in plan.stage_plans:
            if sp.has_sync:
                with tel.tracer.span("stage.prepare", {"stage": sp.stage.label()}):
                    sp.stage.prepare(sp.reader)
            table = sp.build_table()
            if table.num_runs:
                self._run_plan_chunk(sp, table)

        self._plans_built.inc(plan.num_stages)
        self._runs_batched.inc(plan.total_runs())
        self._updates_planned.inc()

        return plan.block_writes

    def _run_plan_chunk(self, sp: StagePlan, chunk) -> None:
        if self.telemetry.tracer.enabled:
            amps = int((chunk.his - chunk.los + 1).sum()) if chunk.num_runs else 0
            with self.telemetry.tracer.span(
                "run.chunk",
                {
                    "stage": sp.stage.label(),
                    "runs": chunk.num_runs,
                    "amps": amps,
                },
            ):
                self._execute_chunk(sp, chunk)
        else:
            self._execute_chunk(sp, chunk)

    def _execute_chunk(self, sp: StagePlan, chunk) -> None:
        try:
            self._backend.execute_plan(sp.reader, sp.stage.store, chunk)
        except FaultInjected as exc:
            # Chunk writes are deterministic overwrites, so re-executing the
            # chunk run-granular in-process is always safe.
            self._backend_fallbacks.inc()
            tsession.emit_event(
                "chunk.fallback",
                stage=sp.stage.label(),
                reason=f"{type(exc).__name__}: {exc}",
            )
            logger.warning(
                "stage table failed (%s); falling back to run-granular "
                "execution",
                exc,
            )
            self._run_chunk_fallback(sp, chunk)

    def _run_chunk_fallback(self, sp: StagePlan, chunk) -> None:
        """Run-granular chunk execution with bounded per-run fault retries.

        Each run is retried in place on an injected fault (it redraws the
        site streams, so retries converge); past the bound the fault
        propagates to the update-level retry.
        """
        for spec in iter_table_runs(chunk):
            attempt = 0
            while True:
                try:
                    execute_run(sp.reader, sp.stage.store, spec)
                    break
                except FaultInjected:
                    attempt += 1
                    if attempt > _RUN_FAULT_RETRIES:
                        raise
                    self._run_retries.inc()
                    tsession.emit_event(
                        "run.retry",
                        stage=sp.stage.label(),
                        attempt=attempt,
                    )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _full_chain(self) -> DirectoryReader:
        """A reader over the final state (all stages applied)."""
        return DirectoryReader(self._directory, sys.maxsize)

    def state_reader(self):
        """A block-resolving :class:`StateReader` over the final state.

        The reader serves the state as of the last ``update_state`` call
        through the COW block resolution (O(1) construction in directory
        mode), which is how the observables engine reads amplitudes without
        materialising the full vector.
        """
        return self._full_chain()

    def state(self) -> np.ndarray:
        """The full state vector after the last ``update_state`` call."""
        return self._full_chain().full_vector()

    def amplitude(self, basis_state: int) -> complex:
        if not 0 <= basis_state < self.dim:
            raise IndexError(f"basis state {basis_state} out of range")
        chain = self._full_chain()
        return complex(chain.read_range(basis_state, basis_state)[0])

    def probabilities(self) -> np.ndarray:
        amps = self.state()
        return (amps.conj() * amps).real

    def probability(self, basis_state: int) -> float:
        a = self.amplitude(basis_state)
        return float((a.conjugate() * a).real)

    def norm(self) -> float:
        """The state's 2-norm, accumulated block-wise.

        Uses the observables engine's per-block probability masses (cached
        in its sampling tree and invalidated by the dirty frontier) instead
        of materialising the full ``probabilities()`` array.
        """
        return float(math.sqrt(self.observables.total_probability()))

    # -- observables --------------------------------------------------------

    @property
    def observables(self):
        """The lazily created observables engine bound to this simulator.

        One engine per simulator; its per-block caches subscribe to the
        dirty-block notifications and therefore stay consistent across
        incremental updates.
        """
        if self._observables is None:
            from ..observables.engine import ObservablesEngine

            self._observables = ObservablesEngine(self)
        return self._observables

    def expectation(self, observable) -> float:
        """``<psi|H|psi>`` of a Hermitian Pauli observable, block-wise.

        ``observable`` is a :class:`~repro.observables.PauliSum`,
        :class:`~repro.observables.PauliString` or label string.
        """
        return self.observables.expectation(observable)

    def sample(self, shots: int, *, seed: Optional[int] = None) -> np.ndarray:
        """Draw ``shots`` basis-state samples from ``|psi|^2``."""
        return self.observables.sample(shots, seed=seed)

    def counts(self, shots: int, *, seed: Optional[int] = None) -> Dict[str, int]:
        """Measurement histogram ``{bitstring: count}`` over ``shots`` draws."""
        return self.observables.counts(shots, seed=seed)

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Outcome distribution of measuring a subset of qubits."""
        return self.observables.marginal_probabilities(qubits)

    def memory_report(self) -> MemoryReport:
        """Logical COW storage accounting across every stage store.

        Returns a :class:`~repro.core.cow.MemoryReport` whose
        ``allocated_bytes`` counts only the blocks stages actually
        materialised, ``dense_bytes`` what one dense vector per stage would
        cost, and ``savings_fraction`` the headroom between the two (the
        §III.F.3 copy-on-write saving).
        """
        return MemoryReport.from_stores(s.store for s in self.graph.stages)

    def plan_report(self) -> PlanReport:
        """Dispatch-overhead accounting of the plan pipeline.

        The :meth:`memory_report` sibling for execution plans: plans
        compiled, runs batched into them and how often a stage table fell
        back to run-granular execution after a fault.
        """
        return PlanReport(
            plans_built=self._plans_built.value,
            runs_batched=self._runs_batched.value,
            backend_fallbacks=self._backend_fallbacks.value,
            updates_planned=self._updates_planned.value,
            run_retries=self._run_retries.value,
            update_retries=self._update_retries.value,
        )

    def statistics(self) -> Dict[str, object]:
        """Counters describing the simulator's current incremental state.

        Combines the partition-graph shape (``num_stages``, ``num_nodes``,
        ``num_edges``, ``num_frontiers``) with the configuration knobs
        (block size/workers/fusion) and the
        outcome of the most recent update (affected partitions, elapsed
        seconds), so benchmark rows and debugging sessions can snapshot one
        dict instead of poking internals.
        """
        stats = self.graph.stats().as_dict()
        stats.update(
            {
                "block_size": self.block_size,
                "num_updates": self._num_updates,
                "num_workers": self.executor.num_workers,
                "fusion": self.fusion,
                "num_fused_stages": self._num_fused,
                "num_dynamic_stages": self.num_dynamic_stages,
                "cached_observable_partials": (
                    self._observables.cached_partials
                    if self._observables is not None
                    else 0
                ),
                "last_affected_partitions": self.last_update.affected_partitions,
                "last_elapsed_seconds": self.last_update.elapsed_seconds,
            }
        )
        stats.update(self.plan_report().as_dict())
        self._refresh_gauges(stats)
        return stats

    def _refresh_gauges(self, stats: Dict[str, object]) -> None:
        """Mirror point-in-time statistics into the registry as gauges.

        Counters already live in the registry; the graph shape and the
        last-update outcome are point-in-time readings, so they surface as
        gauges -- refreshed on every ``statistics()`` /
        ``telemetry_report()`` call rather than written on the hot path.
        """
        m = self.telemetry.metrics
        m.gauge("graph.num_stages").set(stats["num_stages"])
        m.gauge("graph.num_nodes").set(stats["num_nodes"])
        m.gauge("graph.num_edges").set(stats["num_edges"])
        m.gauge("graph.num_frontiers").set(stats["num_frontiers"])
        m.gauge("update.count").set(stats["num_updates"])
        m.gauge("update.last_affected_partitions").set(
            stats["last_affected_partitions"]
        )
        m.gauge("update.last_elapsed_seconds", unit="s").set(
            stats["last_elapsed_seconds"]
        )

    def explain_last_update(self) -> str:
        """A human-readable account of the most recent ``update_state``.

        Renders the update report and -- the part no counter can answer --
        the time-ordered recovery events
        (faults, retries, fallbacks) that fired during the update.
        """
        report = self.last_update
        lines = [
            f"update #{self._num_updates - 1}"
            if self._num_updates else "no update yet",
            (
                f"  affected {report.affected_partitions}"
                f"/{report.total_partitions} partitions"
                f" ({report.affected_fraction:.1%}),"
                f" {report.executed_block_writes} block writes,"
                f" {report.elapsed_seconds * 1e3:.2f} ms"
            ),
        ]
        events = self.telemetry.events.events(since=self._update_event_mark)
        if events:
            lines.append(f"  recovery events ({len(events)}):")
            base = events[0].time
            for e in events:
                detail = ", ".join(
                    f"{k}={v}" for k, v in e.fields.items()
                )
                lines.append(
                    f"    +{(e.time - base) * 1e3:8.2f} ms  {e.kind}"
                    + (f"  [{detail}]" if detail else "")
                )
        else:
            lines.append("  recovery events: none")
        return "\n".join(lines)

    def dump_graph(self, stream: TextIO) -> None:
        """Write the current partition task graph in DOT format."""
        self.graph.dump(stream)

"""Unit tests for the batched kernel backend and its plan statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.kernels import NumpyBatchBackend, iter_table_runs
from repro.core.simulator import QTaskSimulator

from ..conftest import RunGranularBackend, reference_state


def _simulator(levels, num_qubits=6, **kwargs):
    circuit = Circuit(num_qubits)
    circuit.from_levels(levels)
    kwargs.setdefault("block_size", 4)
    return QTaskSimulator(circuit, **kwargs)


def _mixed_levels(num_qubits=6):
    """Superposition + diagonal + monomial + entangling: every run kind."""
    levels = [
        [Gate("h", (q,)) for q in range(num_qubits)],
        [Gate("rz", (q,), (0.3 + 0.1 * q,)) for q in range(num_qubits)],
        [Gate("x", (0,)), Gate("y", (1,))],
    ]
    for q in range(num_qubits - 1):
        levels.append([Gate("cx", (q, q + 1))])
    return levels


# ---------------------------------------------------------------------------
# iter_table_runs
# ---------------------------------------------------------------------------


def test_iter_table_runs_roundtrip():
    from repro.core.exec_plan import RUN_ACTION, RunSpec, RunTable

    op = object()
    runs = [RunSpec(RUN_ACTION, 4 * i, 4 * i + 3, (0,), op) for i in range(3)]
    table = RunTable.from_runs(runs)
    assert list(iter_table_runs(table)) == runs


# ---------------------------------------------------------------------------
# failure-safe execution: an injected chunk fault degrades, never corrupts
# ---------------------------------------------------------------------------


class _FragileBackend(NumpyBatchBackend):
    def execute_plan(self, reader, store, table):
        raise RuntimeError("boom")


class TestFailureSafety:
    def test_failure_safe_backend_falls_back_per_run(self):
        sim = _simulator(_mixed_levels())
        sim._backend = RunGranularBackend()
        sim.update_state()
        np.testing.assert_allclose(
            sim.state(), reference_state(6, _mixed_levels()), atol=1e-10, rtol=0
        )
        assert sim.plan_report().backend_fallbacks > 0

    def test_non_failure_safe_backend_propagates(self):
        # only injected faults are recoverable: a genuine kernel bug surfaces
        sim = _simulator(_mixed_levels())
        sim._backend = _FragileBackend()
        with pytest.raises(RuntimeError, match="boom"):
            sim.update_state()


# ---------------------------------------------------------------------------
# plan statistics surface
# ---------------------------------------------------------------------------


class TestPlanStatistics:
    def test_counters_accumulate_across_updates(self):
        sim = _simulator(_mixed_levels())
        sim.update_state()
        first = sim.plan_report()
        assert first.updates_planned == 1
        assert first.plans_built > 0
        assert first.runs_batched >= first.plans_built
        handle = sim.circuit.gates()[6]  # an rz of the second level
        sim.circuit.update_gate(handle, 1.234)
        sim.update_state()
        second = sim.plan_report()
        assert second.updates_planned == 2
        assert second.plans_built > first.plans_built

    def test_statistics_merges_plan_report(self):
        sim = _simulator(_mixed_levels())
        sim.update_state()
        stats = sim.statistics()
        report = sim.plan_report().as_dict()
        for key in ("plans_built", "runs_batched", "runs_per_plan"):
            assert stats[key] == report[key]

    def test_fork_inherits_backend(self):
        sim = _simulator(_mixed_levels())
        sim.update_state()
        child = sim.fork()
        assert child._backend is sim._backend
        assert child.plan_report().updates_planned == 0

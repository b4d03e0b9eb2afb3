"""Execution-path parity: batched plans and per-run kernels compute the same states.

The plan pipeline must be a pure execution-strategy change: for any circuit,
any knob combination (fusion, copy-on-write, block size) and any modifier
sequence, the batched ``numpy`` path, the run-granular ``legacy`` path (every
chunk routed through the per-run fallback) and the dense oracle must agree to
1e-10.
"""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest

from repro import QTask
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator

from .conftest import (
    BACKENDS,
    circuit_levels,
    install_backend,
    random_levels,
    reference_state,
)

ATOL = 1e-10

# knob combinations exercising every structural code path the plan layer
# interacts with: fusion (FusedUnitaryStage emission) and block sizes from
# sub-gate to whole-state
KNOB_COMBOS = [
    pytest.param(dict(fusion=False, block_size=4), id="defaults-bs4"),
    pytest.param(dict(fusion=True, block_size=4), id="fusion-bs4"),
    pytest.param(dict(fusion=False, block_size=16), id="defaults-bs16"),
]


def _build(levels, num_qubits, backend, knobs) -> QTaskSimulator:
    circuit = Circuit(num_qubits)
    circuit.from_levels(levels)
    sim = QTaskSimulator(circuit, **knobs)
    install_backend(sim, backend)
    return sim


# ---------------------------------------------------------------------------
# static circuits: every path == dense across every knob combo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("knobs", KNOB_COMBOS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_random_circuit_matches_dense(backend, knobs):
    num_qubits = 6
    rng = random.Random(20260807)
    levels = random_levels(rng, num_qubits, 8)
    sim = _build(levels, num_qubits, backend, knobs)
    sim.update_state()
    expected = reference_state(num_qubits, levels)
    np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
    if backend == "legacy":
        # every chunk really ran run-granular
        assert sim.plan_report().backend_fallbacks > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_insert_matches_dense(backend):
    num_qubits = 5
    rng = random.Random(7)
    levels = random_levels(rng, num_qubits, 5)
    sim = _build(levels, num_qubits, backend, dict(block_size=4))
    sim.update_state()
    # grow the circuit after the first update: the dirty frontier is a
    # suffix cone, so plans now cover a strict subset of the stages
    net = sim.circuit.insert_net()
    sim.circuit.insert_gate("cx", net, 0, num_qubits - 1)
    net2 = sim.circuit.insert_net()
    sim.circuit.insert_gate("rz", net2, 2, params=[0.917])
    sim.update_state()
    expected = reference_state(num_qubits, circuit_levels(sim.circuit))
    np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)


# ---------------------------------------------------------------------------
# update_gate retunes: the variational workload the batching targets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "knobs",
    [
        pytest.param(dict(block_size=4), id="defaults"),
        pytest.param(dict(block_size=4, fusion=True), id="fusion"),
        pytest.param(dict(block_size=8), id="bs8"),
    ],
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_retune_sequence_matches_dense(backend, knobs):
    num_qubits = 5
    circuit = Circuit(num_qubits)
    levels = []
    for layer in range(3):
        levels.append([Gate("h", (q,)) for q in range(num_qubits)])
        levels.append(
            [Gate("rz", (q,), (0.1 + 0.2 * layer + 0.05 * q,)) for q in range(num_qubits)]
        )
        levels.append([Gate("cx", (q, q + 1)) for q in range(0, num_qubits - 1, 2)])
    circuit.from_levels(levels)
    sim = QTaskSimulator(circuit, **knobs)
    install_backend(sim, backend)
    sim.update_state()
    handles = [h for h in circuit.gates() if h.gate.name == "rz"]
    rng = random.Random(3)
    for _ in range(3):
        for h in rng.sample(handles, 4):
            circuit.update_gate(h, rng.uniform(0, 2 * np.pi))
        sim.update_state()
        expected = reference_state(num_qubits, circuit_levels(circuit))
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)


# ---------------------------------------------------------------------------
# dynamic circuits: identical trajectories on every path
# ---------------------------------------------------------------------------


def _dynamic_session(seed, backend, **knobs) -> QTask:
    knobs.setdefault("block_size", 4)
    ckt = QTask(3, num_clbits=2, seed=seed, **knobs)
    n1, n2, n3, n4, n5 = (ckt.insert_net() for _ in range(5))
    ckt.insert_gate("h", n1, 0)
    ckt.insert_gate("cx", n2, 0, 1)
    ckt.insert_gate("ry", n2, 2, params=[0.77])
    ckt.measure(n3, 0, 0)
    ckt.c_if("x", n4, 2, condition=((0,), 1))
    ckt.reset(n4, 1)
    ckt.measure(n5, 2, 1)
    install_backend(ckt.simulator, backend)
    return ckt


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dynamic_trajectory_matches_legacy(backend, seed):
    ref = _dynamic_session(seed, "legacy")
    ref.update_state()
    got = _dynamic_session(seed, backend)
    got.update_state()
    assert got.outcomes.get_bit(0) == ref.outcomes.get_bit(0)
    assert got.outcomes.get_bit(1) == ref.outcomes.get_bit(1)
    np.testing.assert_allclose(got.state(), ref.state(), atol=ATOL, rtol=0)
    assert np.linalg.norm(got.state()) == pytest.approx(1.0, abs=1e-9)
    got.close()
    ref.close()


# ---------------------------------------------------------------------------
# COW forks: children on either path agree with their own dense oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_forked_sessions_match_dense(backend):
    num_qubits = 5
    rng = random.Random(99)
    levels = random_levels(rng, num_qubits, 6)
    sim = _build(levels, num_qubits, backend, dict(block_size=4))
    sim.update_state()
    handles = [h for h in sim.circuit.gates() if h.gate.params]
    if not handles:
        net = sim.circuit.insert_net()
        handles = [sim.circuit.insert_gate("rz", net, 0, params=[0.4])]
        sim.update_state()
    child = sim.fork()
    mirrored = child.circuit.gates()[sim.circuit.gates().index(handles[0])]
    child.circuit.update_gate(mirrored, 2.468)
    child.update_state()
    np.testing.assert_allclose(
        child.state(),
        reference_state(num_qubits, circuit_levels(child.circuit)),
        atol=ATOL,
        rtol=0,
    )
    # the parent's state is untouched by the child's retune
    np.testing.assert_allclose(
        sim.state(),
        reference_state(num_qubits, circuit_levels(sim.circuit)),
        atol=ATOL,
        rtol=0,
    )


# ---------------------------------------------------------------------------
# executor interplay: updates run in order on the calling thread
# ---------------------------------------------------------------------------


def test_plan_chunking_on_work_stealing_pool():
    """A session handed a 4-worker pool still matches the dense reference."""
    from repro.parallel import WorkStealingExecutor

    num_qubits = 6
    levels = random_levels(random.Random(5), num_qubits, 8)
    executor = WorkStealingExecutor(4)
    try:
        circuit = Circuit(num_qubits)
        circuit.from_levels(levels)
        sim = QTaskSimulator(circuit, block_size=4, executor=executor)
        sim.update_state()
        expected = reference_state(num_qubits, levels)
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
    finally:
        executor.close()


def test_update_runs_every_stage_table_on_the_calling_thread(monkeypatch):
    """In a 2-worker session, every batched kernel call of an update runs
    on the thread that called ``update_state``."""
    from repro.core.kernels import NumpyBatchBackend

    threads = []
    original = NumpyBatchBackend.execute_plan

    def spy(self, reader, store, table):
        threads.append(threading.get_ident())
        return original(self, reader, store, table)

    monkeypatch.setattr(NumpyBatchBackend, "execute_plan", spy)
    num_qubits = 6
    levels = random_levels(random.Random(7), num_qubits, 8)
    circuit = Circuit(num_qubits)
    circuit.from_levels(levels)
    with QTaskSimulator(circuit, block_size=4, num_workers=2) as sim:
        sim.update_state()
        net = circuit.insert_net()
        circuit.insert_gate("rz", net, 1, params=[0.3])
        sim.update_state()
        expected = reference_state(num_qubits, circuit_levels(circuit))
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
    assert len(threads) > 1
    assert set(threads) == {threading.get_ident()}

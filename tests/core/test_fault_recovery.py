"""Chaos integration tests: injected faults never corrupt computed states.

Every recovery layer is exercised end to end against the seeded fault
plans from ``repro.core.faults``:

* per-run retries and the chunk fallback (``run_retries``),
* whole-update retries with trajectory rollback (``update_retries``).

The invariant throughout: with faults firing at every site, the final
state still equals the dense reference to 1e-10 and every recovery action
is visible in ``statistics()``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import faults
from repro.core.circuit import Circuit
from repro.core.faults import FaultInjected, FaultPlan
from repro.core.simulator import QTaskSimulator

from ..conftest import (
    BACKENDS,
    circuit_levels,
    install_backend,
    random_levels,
    reference_state,
)

ATOL = 1e-10


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Restore whatever plan (chaos-mode or none) surrounded each test."""
    previous = faults.install(None)
    yield
    faults.install(previous)


def _build_sim(num_qubits, levels, *, num_workers=2, **knobs):
    circuit = Circuit(num_qubits)
    circuit.from_levels(levels)
    return QTaskSimulator(circuit, num_workers=num_workers, **knobs)


# ---------------------------------------------------------------------------
# chaos parity: every site firing, state still exact
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_chaos_parity_against_dense(backend):
    """p=0.05 at every recoverable site; final states match dense to 1e-10."""
    num_qubits = 6
    rng = random.Random(20260807)
    levels = random_levels(rng, num_qubits, 6)
    sim = _build_sim(num_qubits, levels, block_size=4)
    install_backend(sim, backend)
    plan = FaultPlan(seed=1, probability=0.05)
    faults.install(plan)
    try:
        sim.update_state()
        # incremental updates under fire: grow the circuit, then retune
        net = sim.circuit.insert_net()
        sim.circuit.insert_gate("cx", net, 0, num_qubits - 1)
        sim.update_state()
        net2 = sim.circuit.insert_net()
        handle = sim.circuit.insert_gate("rz", net2, 2, params=[0.917])
        sim.update_state()
        sim.circuit.update_gate(handle, 1.234)
        sim.update_state()
        expected = reference_state(num_qubits, circuit_levels(sim.circuit))
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
        # the plan was really consulted inside the armed update scopes
        assert plan.stats(), "no fault site was ever evaluated"
    finally:
        faults.uninstall()
        sim.close()


def test_chaos_parity_high_rate_numpy():
    """Even at p=0.2 the layered retries converge to the exact state."""
    num_qubits = 5
    rng = random.Random(99)
    levels = random_levels(rng, num_qubits, 5)
    sim = _build_sim(num_qubits, levels, block_size=4)
    plan = FaultPlan(seed=3, probability=0.2)
    faults.install(plan)
    try:
        sim.update_state()
        expected = reference_state(num_qubits, levels)
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
        assert plan.total_injected() > 0
    finally:
        faults.uninstall()
        sim.close()


def test_chaos_replay_is_deterministic():
    """Same seed, same circuit: identical injection schedule both runs.

    Single worker: full-schedule replay equality requires a deterministic
    site-evaluation *order*, which concurrent executor threads do not
    provide (they guarantee a deterministic multiset per evaluation order,
    not a fixed interleaving)."""

    def run_once():
        rng = random.Random(4)
        levels = random_levels(rng, 5, 4)
        sim = _build_sim(5, levels, block_size=4, num_workers=1)
        plan = FaultPlan(seed=17, probability=0.15)
        faults.install(plan)
        try:
            sim.update_state()
            return plan.stats(), sim.state().copy()
        finally:
            faults.uninstall()
            sim.close()

    stats_a, state_a = run_once()
    stats_b, state_b = run_once()
    assert stats_a == stats_b
    np.testing.assert_array_equal(state_a, state_b)


# ---------------------------------------------------------------------------
# recovery visibility: every layer surfaces its counters in statistics()
# ---------------------------------------------------------------------------


def test_run_retries_visible_in_statistics():
    """A scripted publish fault falls back to run-granular and retries."""
    rng = random.Random(12)
    levels = random_levels(rng, 5, 4)
    # One worker, so the second scripted fault lands in the fallback of the
    # chunk that took the first rather than in a concurrent chunk.
    sim = _build_sim(5, levels, block_size=4, num_workers=1)
    faults.install(FaultPlan(script=[("cow.publish", 1), ("cow.publish", 2)]))
    try:
        sim.update_state()
        stats = sim.statistics()
        assert stats["backend_fallbacks"] >= 1
        assert stats["run_retries"] >= 1
        expected = reference_state(5, levels)
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
    finally:
        faults.uninstall()
        sim.close()


def test_unrecoverable_fault_storm_raises_fault_injected():
    """With p=1 at the kernel site every retry layer exhausts and the
    original fault surfaces (it is never silently swallowed)."""
    rng = random.Random(14)
    levels = random_levels(rng, 4, 3)
    sim = _build_sim(4, levels, block_size=4)
    faults.install(FaultPlan(probabilities={"kernel.run": 1.0}))
    try:
        with pytest.raises(FaultInjected):
            sim.update_state()
    finally:
        faults.uninstall()
        sim.close()


# ---------------------------------------------------------------------------
# trajectory stability: retries must not fork dynamic-circuit randomness
# ---------------------------------------------------------------------------


def _dynamic_session(seed):
    from repro import QTask

    session = QTask(3, block_size=4, num_workers=1, seed=seed)
    c = session.add_classical_register("c", 2)
    net1 = session.insert_net()
    for q in range(3):
        session.insert_gate("h", net1, q)
    net2 = session.insert_net()
    session.measure(net2, 0, c[0])
    net3 = session.insert_net()
    session.c_if("x", net3, 2, condition=(c, 1))
    net4 = session.insert_net()
    session.measure(net4, 2, c[1])
    return session, c


def test_retries_do_not_fork_trajectories():
    """A chaos run of a dynamic circuit must observe the *same* trajectory
    as a fault-free run with the same seed: every retry layer rolls the
    classical state back before re-drawing, so injected faults are
    invisible in the outcomes."""
    clean, c_clean = _dynamic_session(seed=5)
    try:
        clean.update_state()
        clean_state = clean.state().copy()
        clean_value = clean.classical_value(c_clean)
    finally:
        clean.close()

    chaotic, c_chaos = _dynamic_session(seed=5)
    faults.install(FaultPlan(seed=8, probabilities={"kernel.run": 0.3}))
    try:
        chaotic.update_state()
        stats = chaotic.statistics()
        assert faults.active_plan().total_injected() > 0
        np.testing.assert_allclose(
            chaotic.state(), clean_state, atol=ATOL, rtol=0
        )
        assert chaotic.classical_value(c_chaos) == clean_value
    finally:
        faults.uninstall()
        chaotic.close()


def test_update_level_retry_preserves_trajectory():
    """A scripted fault storm deep enough to exhaust the run-level retries
    escalates to a whole-update re-execution -- which rolls back the keyed
    streams and redraws the identical outcomes."""
    clean, c_clean = _dynamic_session(seed=6)
    try:
        clean.update_state()
        clean_state = clean.state().copy()
        clean_value = clean.classical_value(c_clean)
    finally:
        clean.close()

    chaotic, c_chaos = _dynamic_session(seed=6)
    # a contiguous block of scripted kernel.run failures: the batched
    # chunk fails once, then one run fails 6x in a row in the fallback
    # (exhausting _RUN_FAULT_RETRIES), and the fault lands at the
    # update-level retry
    faults.install(FaultPlan(script=[("kernel.run", i) for i in range(1, 8)]))
    try:
        chaotic.update_state()
        stats = chaotic.statistics()
        assert stats["update_retries"] == 1
        np.testing.assert_allclose(
            chaotic.state(), clean_state, atol=ATOL, rtol=0
        )
        assert chaotic.classical_value(c_chaos) == clean_value
    finally:
        faults.uninstall()
        chaotic.close()


# ---------------------------------------------------------------------------
# chunk fallback: a faulting batched chunk completes run-granular
# ---------------------------------------------------------------------------


def test_kernel_fault_storm_completes_through_chunk_fallback():
    """Consecutive ``kernel.run`` faults fail the batched chunk and the
    first run-granular attempts; the chunk completes through the per-run
    retries, and the next update runs batched again."""
    rng = random.Random(15)
    levels = random_levels(rng, 5, 6)
    sim = _build_sim(5, levels, block_size=4, num_workers=1)
    faults.install(FaultPlan(script=[("kernel.run", i) for i in range(1, 4)]))
    try:
        sim.update_state()
        stats = sim.statistics()
        assert faults.active_plan().total_injected() == 3
        assert stats["backend_fallbacks"] == 1
        assert stats["run_retries"] == 2
        assert stats["update_retries"] == 0
        expected = reference_state(5, levels)
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
        net = sim.circuit.insert_net()
        sim.circuit.insert_gate("h", net, 0)
        sim.update_state()
        assert sim.statistics()["backend_fallbacks"] == 1
        expected = reference_state(5, circuit_levels(sim.circuit))
        np.testing.assert_allclose(sim.state(), expected, atol=ATOL, rtol=0)
    finally:
        faults.uninstall()
        sim.close()

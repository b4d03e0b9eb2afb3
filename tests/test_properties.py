"""Property-based end-to-end tests of the incrementality invariants.

The central invariant of qTask: after any sequence of circuit modifiers,
``update_state`` must leave the simulator in exactly the state a from-scratch
simulation of the current circuit would produce, and the state must stay
normalised.  Hypothesis drives random circuits and random modifier sequences
through the full stack to check this.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator

from .conftest import circuit_levels, reference_state

# -- strategies -------------------------------------------------------------

_SINGLE = ["h", "x", "y", "z", "s", "t", "sdg"]
_PARAM = ["rx", "ry", "rz"]
_TWO = ["cx", "cz", "swap"]


@st.composite
def gate_strategy(draw, num_qubits):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        name = draw(st.sampled_from(_SINGLE))
        q = draw(st.integers(0, num_qubits - 1))
        return Gate(name, (q,))
    if kind == 1:
        name = draw(st.sampled_from(_PARAM))
        q = draw(st.integers(0, num_qubits - 1))
        theta = draw(st.floats(0.0, 6.28, allow_nan=False))
        return Gate(name, (q,), (theta,))
    name = draw(st.sampled_from(_TWO))
    q1 = draw(st.integers(0, num_qubits - 1))
    q2 = draw(st.integers(0, num_qubits - 1).filter(lambda x: x != q1))
    return Gate(name, (q1, q2))


@st.composite
def levels_strategy(draw, num_qubits, max_levels=5):
    n_levels = draw(st.integers(1, max_levels))
    levels = []
    for _ in range(n_levels):
        level = []
        used = set()
        for _ in range(draw(st.integers(0, num_qubits))):
            g = draw(gate_strategy(num_qubits))
            if used.intersection(g.qubits):
                continue
            used.update(g.qubits)
            level.append(g)
        if level:
            levels.append(level)
    return levels or [[Gate("h", (0,))]]


@st.composite
def modifier_strategy(draw):
    """A modifier instruction interpreted against the live circuit."""
    kind = draw(st.sampled_from(["remove", "insert", "insert", "remove_net"]))
    return {
        "kind": kind,
        "pick": draw(st.integers(0, 10_000)),
        "gate_seed": draw(st.integers(0, 10_000)),
    }


def _apply_modifier(circuit: Circuit, mod, num_qubits: int) -> None:
    import random

    rng = random.Random(mod["gate_seed"])
    if mod["kind"] == "remove":
        gates = circuit.gates()
        if gates:
            circuit.remove_gate(gates[mod["pick"] % len(gates)])
    elif mod["kind"] == "remove_net":
        nets = [n for n in circuit.nets() if n.gates]
        if len(nets) > 1:
            circuit.remove_net(nets[mod["pick"] % len(nets)])
    else:
        nets = circuit.nets()
        if not nets:
            nets = [circuit.insert_net()]
        net = nets[mod["pick"] % len(nets)]
        used = net.qubits_in_use()
        free = [q for q in range(num_qubits) if q not in used]
        if not free:
            net = circuit.insert_net()
            free = list(range(num_qubits))
        q = free[mod["gate_seed"] % len(free)]
        name = ["h", "x", "t", "rz", "z"][mod["gate_seed"] % 5]
        params = (0.5 + mod["gate_seed"] % 7,) if name == "rz" else ()
        circuit.insert_gate(name, net, q, params=params)


COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(**COMMON_SETTINGS)
@given(
    num_qubits=st.integers(2, 5),
    levels=st.data(),
    log_block=st.integers(0, 6),
)
def test_full_simulation_matches_reference(num_qubits, levels, log_block):
    lv = levels.draw(levels_strategy(num_qubits))
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=1 << log_block, num_workers=1)
    ckt.from_levels(lv)
    sim.update_state()
    np.testing.assert_allclose(sim.state(), reference_state(num_qubits, lv), atol=1e-9)
    assert abs(sim.norm() - 1.0) < 1e-9
    sim.close()


@settings(**COMMON_SETTINGS)
@given(
    num_qubits=st.integers(2, 5),
    data=st.data(),
)
def test_incremental_always_matches_from_scratch(num_qubits, data):
    """The headline invariant: incremental == from-scratch after any modifiers."""
    lv = data.draw(levels_strategy(num_qubits))
    mods = data.draw(st.lists(modifier_strategy(), min_size=1, max_size=6))
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=4, num_workers=1)
    ckt.from_levels(lv)
    sim.update_state()
    for mod in mods:
        _apply_modifier(ckt, mod, num_qubits)
        sim.update_state()
        expected = reference_state(num_qubits, circuit_levels(ckt))
        np.testing.assert_allclose(sim.state(), expected, atol=1e-9)
        assert abs(sim.norm() - 1.0) < 1e-9
    sim.close()


@settings(**COMMON_SETTINGS)
@given(num_qubits=st.integers(2, 4), data=st.data(), workers=st.sampled_from([1, 3]))
def test_parallel_and_sequential_execution_agree(num_qubits, data, workers):
    lv = data.draw(levels_strategy(num_qubits))
    ckt_a, ckt_b = Circuit(num_qubits), Circuit(num_qubits)
    sim_seq = QTaskSimulator(ckt_a, block_size=2, num_workers=1)
    sim_par = QTaskSimulator(ckt_b, block_size=2, num_workers=workers)
    ckt_a.from_levels(lv)
    ckt_b.from_levels(lv)
    sim_seq.update_state()
    sim_par.update_state()
    np.testing.assert_allclose(sim_seq.state(), sim_par.state(), atol=1e-9)
    sim_seq.close()
    sim_par.close()

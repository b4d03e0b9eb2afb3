"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np
import pytest

import layers
import oracle
import workloads

from repro import QTask
from repro.baselines.dense import DenseReferenceSimulator

CIRCUITS = sorted(Path(workloads.CIRCUITS).glob("*.qasm"))


@pytest.mark.parametrize("path", CIRCUITS, ids=lambda p: p.stem)
def test_oracle_matches_references(path):
    text = path.read_text()
    prog = oracle.parse_qasm(text)
    got = oracle.simulate(prog.num_qubits, prog.ops)
    session = QTask.from_qasm(text)
    if prog.num_qubits <= 11:
        # DenseReferenceSimulator builds 2^n x 2^n operators: 11 qubits is
        # the largest that stays quick
        ref = DenseReferenceSimulator(session.circuit)
        ref.update_state()
        assert np.max(np.abs(got - ref.state())) <= 1e-12
    session.update_state()
    assert np.max(np.abs(got - session.state())) <= 1e-10
    session.close()


def test_oracle_gate_conventions_match_dense_reference():
    # Every gate the oracle knows, on asymmetric qubit orders and angles.
    rng = random.Random(7)
    one = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx"]
    param = {"rx": 1, "ry": 1, "rz": 1, "p": 1, "u1": 1, "u2": 2, "u3": 3}
    two = {"cx": 0, "cy": 0, "cz": 0, "ch": 0, "swap": 0, "crx": 1, "cry": 1,
           "crz": 1, "cp": 1, "rzz": 1, "rxx": 1}
    three = ["ccx", "ccz", "cswap"]
    n = 4
    ops = [("h", (q,), ()) for q in range(n)] + [("ry", (q,), (0.3 + q,)) for q in range(n)]
    for name in one:
        ops.append((name, (rng.randrange(n),), ()))
    for name, k in param.items():
        ops.append((name, (rng.randrange(n),), tuple(rng.uniform(-3, 3) for _ in range(k))))
    for name, k in two.items():
        ops.append((name, tuple(rng.sample(range(n), 2)), tuple(rng.uniform(-3, 3) for _ in range(k))))
    for name in three:
        ops.append((name, tuple(rng.sample(range(n), 3)), ()))
    s = QTask(n)
    for name, qubits, params in ops:
        s.insert_gate(name, s.insert_net(), *qubits, params=params)
    ref = DenseReferenceSimulator(s.circuit)
    ref.update_state()
    assert np.max(np.abs(oracle.simulate(n, ops) - ref.state())) <= 1e-12
    s.close()


def test_oracle_outcome_distribution_of_a_dynamic_circuit():
    prog = oracle.parse_qasm(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
        "h q[0];\nmeasure q[0] -> c[0];\nif(c==1) x q[1];\nmeasure q[1] -> c[1];\n"
    )
    dist = oracle.outcome_distribution(prog)
    assert dist.keys() == {"00", "11"}
    assert math.isclose(dist["00"], 0.5) and math.isclose(dist["11"], 0.5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(name):
    cls = workloads.WORKLOADS[name]
    assert cls(3).digest() == cls(3).digest()
    assert cls(3).digest() != cls(4).digest()


def test_every_entry_point_resolves():
    for layer, module, path, kind in layers.ENTRY_POINTS:
        owner, attr, fn = layers.resolve(module, path)
        assert callable(fn), (layer, module, path)


def test_a_missing_entry_point_fails_loudly():
    trace = layers.Trace()
    with pytest.raises(AttributeError):
        trace.install([("x", "repro.core.graph", "PartitionGraph.no_such_method", layers.SPAN)])


def test_trace_sees_every_layer_of_an_update_and_uninstalls():
    from repro.core.graph import PartitionGraph

    original = PartitionGraph.affected_nodes
    w = workloads.QaoaGradient(1)
    trace = layers.Trace()
    trace.install()
    try:
        import repro

        w.setup(repro)
        trace.reset()
        res = w.run(seconds=0.0, min_iters=0, cap_s=60.0, count=3, trace=trace)
    finally:
        trace.uninstall()
        w.close()
    assert res["failed"] == 0
    tot = trace.totals()
    for layer in ("iteration", "circuit.edit", "graph.frontier", "exec_plan.build",
                  "kernels.execute", "cow.read", "cow.write", "simulator.update",
                  "observables.expectation"):
        assert tot[layer][0] > 0, layer
    # self time never exceeds the total
    assert all(row[2] <= row[1] + 1e-9 for row in tot.values())
    assert PartitionGraph.affected_nodes is original

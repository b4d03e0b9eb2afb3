"""End-to-end tracing: an update's spans nest under it.

The acceptance scenario for the telemetry subsystem: a traced incremental
update on a deep cascade must export a valid chrome-trace JSON whose
``run.chunk`` spans nest under ``update`` and run on the thread that called
``update_state``, even in a session sized with two workers.
"""

import json
import threading

import numpy as np
import pytest

from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator
from repro.qtask import QTask

_CASCADE = ["rz", "x", "rz", "y"]


def build_cascade(num_qubits, num_stages, *, block_size, **kwargs):
    ckt = Circuit(num_qubits)
    levels = [[Gate("h", (q,)) for q in range(num_qubits)]]
    for i in range(num_stages):
        name = _CASCADE[i % len(_CASCADE)]
        params = (0.1 + 0.001 * i,) if name == "rz" else ()
        levels.append([Gate(name, (i % 3,), params)])
    ckt.from_levels(levels)
    return ckt, QTaskSimulator(ckt, block_size=block_size, **kwargs)


def test_traced_cascade_nests_spans_on_the_updating_thread(tmp_path):
    """120 stages, a 2-worker session, a valid export."""
    ckt, sim = build_cascade(
        10, 120, block_size=16, num_workers=2, tracing=True,
    )
    try:
        sim.update_state()
        handle = next(h for h in ckt.gates() if h.gate.name == "rz")
        ckt.update_gate(handle, 0.7)
        sim.update_state()

        spans = sim.telemetry.tracer.spans()
        by_name = {}
        for r in spans:
            by_name.setdefault(r.name, []).append(r)
        assert {"update", "plan.build", "run.chunk"} <= set(by_name)

        updates = {r.span_id: r for r in by_name["update"]}
        assert len(updates) == 2  # full build + incremental retune
        for build in by_name["plan.build"]:
            assert build.parent_id in updates
            assert build.attrs["stages"] >= 1
        for chunk in by_name["run.chunk"]:
            assert chunk.parent_id in updates
            assert chunk.attrs["runs"] >= 1
            assert chunk.attrs["amps"] >= 1
            # a chunk's time lies inside its parent update's window
            parent = updates[chunk.parent_id]
            assert parent.start <= chunk.start
            assert chunk.start + chunk.duration <= (
                parent.start + parent.duration + 1e-6
            )

        # every chunk ran on the thread that called update_state
        me = threading.get_ident()
        assert {r.thread_id for r in by_name["run.chunk"]} == {me}
        assert {r.thread_id for r in by_name["update"]} == {me}

        # the export is valid chrome-trace JSON mirroring those spans
        path = str(tmp_path / "cascade.json")
        trace = sim.telemetry.tracer.export_chrome_trace(path)
        with open(path, "r", encoding="utf-8") as fh:
            assert json.load(fh)["traceEvents"]
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(spans)
        assert min(e["ts"] for e in slices) == 0.0
    finally:
        sim.close()


def test_telemetry_report_is_consistent_with_statistics():
    ckt = QTask(6, num_workers=2, tracing=True)
    net = ckt.insert_net()
    for q in ckt.qubits():
        ckt.insert_gate("h", net, q)
    ckt.update_state()
    net2 = ckt.insert_net()
    ckt.insert_gate("cx", net2, 0, 1)
    ckt.update_state()
    try:
        stats = ckt.simulator.statistics()
        report = ckt.telemetry_report()
        assert report["session_id"] == ckt.telemetry.session_id
        # the update latency histogram saw exactly one observation per update
        upd = report["histograms"]["update.seconds"]
        assert upd["count"] == stats["num_updates"] == 2
        assert upd["unit"] == "s"
        assert 0 < upd["min"] <= upd["p50"] <= upd["p95"] <= upd["max"]
        assert upd["sum"] == pytest.approx(upd["count"] * upd["mean"])
        # counters mirror the statistics() keys they replaced
        assert report["counters"]["plan.plans_built"] == stats["plans_built"]
        assert report["counters"]["plan.runs_batched"] == stats["runs_batched"]
        assert report["gauges"]["update.count"] == stats["num_updates"]
        assert report["gauges"]["graph.num_stages"] == stats["num_stages"]
        assert report["spans"]["enabled"] is True
        assert report["spans"]["recorded"] > 0
    finally:
        ckt.close()


def test_forked_sessions_keep_their_own_tagged_registry():
    parent = QTask(5, num_workers=2)
    net = parent.insert_net()
    for q in parent.qubits():
        parent.insert_gate("h", net, q)
    parent.update_state()
    child = parent.fork()
    try:
        base_plans = parent.simulator.statistics()["plans_built"]
        cnet = child.insert_net()
        child.insert_gate("x", cnet, 0)
        child.update_state()
        ctel = child.simulator.telemetry
        ptel = parent.simulator.telemetry
        assert ctel.session_id != ptel.session_id
        assert ctel.parent_session_id == ptel.session_id
        assert ctel.metrics.session_id == ctel.session_id
        # the child's work landed in the child's registry, not the parent's
        assert ctel.metrics.get("plan.plans_built").value >= 1
        assert parent.simulator.statistics()["plans_built"] == base_plans
    finally:
        child.close()
        parent.close()


def test_sweep_runner_merges_fleet_metrics():
    from repro.parallel.sweep import SweepRunner

    ckt = QTask(5, num_workers=2)
    net = ckt.insert_net()
    for q in ckt.qubits():
        ckt.insert_gate("h", net, q)
    theta = ckt.insert_net()
    handle = ckt.insert_gate("rz", theta, 0, params=[0.1])
    ckt.update_state()

    with SweepRunner(ckt, [handle], observable="Z" * 5) as runner:
        results = runner.run([(0.2,), (0.4,), (0.6,), (0.8,)])
        assert len(results) == 4
        merged = runner.merged_metrics()
        base = ckt.simulator.telemetry.metrics
        assert merged.session_id == base.session_id
        fleet_updates = sum(
            child.simulator.telemetry.metrics.get("plan.updates_planned").value
            for child, _ in runner._forks
        )
        assert fleet_updates >= 4  # the sweep points ran on forks
        assert merged.counter("plan.updates_planned").value == (
            base.counter("plan.updates_planned").value + fleet_updates
        )
        # merging is a pure read: live registries are untouched
        assert base.counter("plan.updates_planned").value < (
            merged.counter("plan.updates_planned").value
        )
    ckt.close()

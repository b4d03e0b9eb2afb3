"""Golden-keys contract for ``QTaskSimulator.statistics()``.

``statistics()`` was reimplemented on top of the telemetry registry; this
pins the exact key set (and a few value invariants) so the migration --
and any future one -- cannot silently drop or rename a key downstream
dashboards grab by name.
"""

import pytest

from repro.qtask import QTask

#: the statistics() contract for a default (threaded) session
GOLDEN_KEYS = {
    "backend_fallbacks",
    "block_size",
    "cached_observable_partials",
    "fusion",
    "last_affected_partitions",
    "last_elapsed_seconds",
    "num_dynamic_stages",
    "num_edges",
    "num_frontiers",
    "num_fused_stages",
    "num_nodes",
    "num_stages",
    "num_updates",
    "num_workers",
    "plans_built",
    "run_retries",
    "runs_batched",
    "runs_per_plan",
    "update_retries",
    "updates_planned",
}


@pytest.fixture()
def session():
    ckt = QTask(5)
    net = ckt.insert_net()
    for q in ckt.qubits():
        ckt.insert_gate("h", net, q)
    ckt.update_state()
    yield ckt
    ckt.close()


def test_statistics_keys_are_exactly_the_golden_set(session):
    assert set(session.simulator.statistics()) == GOLDEN_KEYS


def test_statistics_values_reflect_the_registry_counters(session):
    stats = session.simulator.statistics()
    assert stats["num_updates"] == 1
    assert stats["plans_built"] == 1
    assert stats["updates_planned"] == 1
    assert stats["runs_batched"] >= 1
    assert stats["runs_per_plan"] == pytest.approx(
        stats["runs_batched"] / stats["plans_built"]
    )
    assert stats["run_retries"] == 0
    assert stats["update_retries"] == 0
    assert stats["backend_fallbacks"] == 0
    assert stats["last_elapsed_seconds"] > 0.0
    # every plain count is a real int, not a Counter/Gauge leaking through
    for key in (
        "plans_built", "runs_batched", "updates_planned",
        "run_retries", "update_retries", "backend_fallbacks", "num_updates",
    ):
        assert isinstance(stats[key], int), key


def test_statistics_keys_stable_across_updates(session):
    net = session.insert_net()
    session.insert_gate("cx", net, 0, 1)
    session.update_state()
    assert set(session.simulator.statistics()) == GOLDEN_KEYS
    assert session.simulator.statistics()["num_updates"] == 2

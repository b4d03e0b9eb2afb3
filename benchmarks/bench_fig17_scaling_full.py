"""Figure 17: full-simulation runtime vs. number of worker threads.

Sweeps the worker count for qTask and the Qulacs-like baseline on the paper's
scaling circuits.  qTask runs each update in order on the calling thread,
so its per-update time no longer depends on the worker count; only the
Qulacs-like baseline spreads its gate chunks over the workers.  In CPython
the GIL bounds that speedup; the benchmark records whatever curve the
machine produces.
"""

import os

import pytest

from repro.bench.workloads import full_simulation

from conftest import FIGURE_CIRCUITS, HEAD_TO_HEAD, circuit_id, make_factory

WORKER_COUNTS = [1, 2, 4, min(8, os.cpu_count() or 8)]


@pytest.mark.parametrize("entry", FIGURE_CIRCUITS, ids=circuit_id)
@pytest.mark.parametrize("simulator", HEAD_TO_HEAD)
@pytest.mark.parametrize("workers", sorted(set(WORKER_COUNTS)))
def test_fig17_full_simulation_scaling(benchmark, levels_cache, entry, simulator, workers):
    name, qubits = entry
    n, levels = levels_cache(name, qubits)
    factory = make_factory(simulator, num_workers=workers)

    def run():
        return full_simulation(n, levels, factory, circuit_name=name)

    benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    benchmark.extra_info["circuit"] = name
    benchmark.extra_info["workers"] = workers

"""Figure 18: incremental-simulation runtime vs. number of worker threads.

Same thread sweep as Fig. 17 but over a mixed insertion/removal workload
(the paper collects 50 incremental iterations; 15 keep the suite fast).  As
in Fig. 17, qTask's per-update time no longer depends on the worker count:
each update runs in order on the calling thread.
"""

import os

import pytest

from repro.bench.workloads import mixed_sweep

from conftest import FIGURE_CIRCUITS, HEAD_TO_HEAD, circuit_id, make_factory

WORKER_COUNTS = sorted({1, 2, min(8, os.cpu_count() or 8)})
ITERATIONS = 15


@pytest.mark.parametrize("entry", FIGURE_CIRCUITS, ids=circuit_id)
@pytest.mark.parametrize("simulator", HEAD_TO_HEAD)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fig18_incremental_scaling(benchmark, levels_cache, entry, simulator, workers):
    name, qubits = entry
    n, levels = levels_cache(name, qubits)
    factory = make_factory(simulator, num_workers=workers)

    def run():
        return mixed_sweep(n, levels, factory, iterations=ITERATIONS, seed=4,
                           circuit_name=name)

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["circuit"] = name
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["iterations"] = ITERATIONS

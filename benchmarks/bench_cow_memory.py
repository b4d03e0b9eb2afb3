"""§IV.F ablation: memory impact of copy-on-write block storage.

Runs the level-by-level incremental protocol on the COW engine.  The timing
is reported by pytest-benchmark; the peak logical memory of the stores and
the dense footprint of the same stages (one full vector each, what storage
without copy-on-write holds) are attached as ``extra_info`` so the 20-50%
savings claim of §IV.F can be checked from the benchmark JSON.
"""

import pytest

from repro.bench.adapters import SimulatorFactory
from repro.bench.workloads import levelwise_incremental

from conftest import make_factory

CIRCUITS = [("qft", 10), ("adder", None), ("ising", None)]


def _id(entry):
    name, qubits = entry
    return name if qubits is None else f"{name}[{qubits}q]"


@pytest.mark.parametrize("entry", CIRCUITS, ids=_id)
def test_cow_memory(benchmark, levels_cache, entry):
    name, qubits = entry
    n, levels = levels_cache(name, qubits)
    base = make_factory("qTask", num_workers=1)
    created = []

    def build(circuit):
        created.append(base.create(circuit))
        return created[-1]

    factory = SimulatorFactory(base.name, build)

    def run():
        created.clear()
        return levelwise_incremental(n, levels, factory, circuit_name=name)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["circuit"] = name
    benchmark.extra_info["peak_memory_bytes"] = result.peak_allocated_bytes
    benchmark.extra_info["dense_bytes"] = created[0].impl.memory_report().dense_bytes

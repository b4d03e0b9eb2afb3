"""§IV.F ablation: memory impact of the copy-on-write block optimization.

Runs the level-by-level incremental workload and reports the peak logical
memory of qTask's per-stage stores next to what one dense vector per stage
would hold (``MemoryReport.dense_bytes``, the footprint of storage without
copy-on-write).  The paper reports 20-50% savings from COW; the same
comparison is produced here for any catalog circuit.

Run directly::

    python -m repro.bench.memory --circuit qft
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..circuits import build_levels
from .adapters import SimulatorAdapter, SimulatorFactory, qtask_factory
from .workloads import levelwise_incremental

__all__ = ["CowComparison", "cow_memory_comparison", "main"]


@dataclass
class CowComparison:
    """Peak memory with and without copy-on-write for one circuit."""

    circuit: str
    qubits: int
    with_cow_bytes: int
    without_cow_bytes: int
    with_cow_seconds: float

    @property
    def savings_fraction(self) -> float:
        if self.without_cow_bytes == 0:
            return 0.0
        return 1.0 - self.with_cow_bytes / self.without_cow_bytes


def cow_memory_comparison(
    circuit: str = "qft",
    *,
    block_size: int = 256,
    num_qubits: Optional[int] = None,
    max_levels: Optional[int] = None,
) -> CowComparison:
    """Peak COW memory of a level-by-level run against its dense footprint.

    Levels only ever add stages, so the dense footprint of the final graph
    is the peak a store holding every stage's full vector would reach.
    """
    qubits, levels = build_levels(circuit, num_qubits=num_qubits)
    if max_levels is not None:
        levels = levels[:max_levels]
    factory = qtask_factory(block_size=block_size, name="qTask-cow")
    created: List[SimulatorAdapter] = []

    def build(c):
        created.append(factory.create(c))
        return created[-1]

    result = levelwise_incremental(
        qubits, levels, SimulatorFactory(factory.name, build), circuit_name=circuit
    )
    return CowComparison(
        circuit=circuit,
        qubits=qubits,
        with_cow_bytes=result.peak_allocated_bytes,
        without_cow_bytes=created[0].impl.memory_report().dense_bytes,
        with_cow_seconds=result.total_seconds,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuit", default="qft")
    parser.add_argument("--qubits", type=int, default=None)
    parser.add_argument("--block-size", type=int, default=256)
    parser.add_argument("--max-levels", type=int, default=None)
    args = parser.parse_args(argv)

    cmp = cow_memory_comparison(
        args.circuit,
        block_size=args.block_size,
        num_qubits=args.qubits,
        max_levels=args.max_levels,
    )
    print(f"circuit            : {cmp.circuit} ({cmp.qubits} qubits)")
    print(f"peak memory (COW)  : {cmp.with_cow_bytes / 2**20:.2f} MiB")
    print(f"peak memory (dense): {cmp.without_cow_bytes / 2**20:.2f} MiB")
    print(f"savings            : {cmp.savings_fraction * 100:.1f}%")
    print(f"runtime (COW)      : {cmp.with_cow_seconds * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Deep-circuit incremental update vs. the dense floor.

The block directory (``repro.core.cow.BlockDirectory``) resolves every block
read with an O(log W) ownership lookup (W = writers of the block) instead of
walking all S earlier stage stores.  Its payoff grows with circuit *depth*:
in a deep circuit most blocks were last written far in the past.  This
benchmark prices the directory-backed incremental update against the
cheapest full re-simulation of the same circuit,
:class:`~repro.baselines.StridedDenseSimulator`; ``speedup_vs_floor`` =
``floor_ms / directory_ms_per_update`` (higher is better, above 1 the
incremental update wins).

The workload is the synthesis-loop pattern of the paper's incremental
experiments (Figs. 14-18): a deep cascade of controlled-phase gates on the
high qubits (each stage materialises only the top blocks, leaving the rest
copy-on-write-inherited from far upstream), followed by repeated *tail
edits* -- insert an X mixer gate on the top qubit, update, remove it, update.
Each inserted gate spans every data block, so the incremental update has to
resolve the whole depth of the store history.

Timing covers ``update_state`` only.  Results are verified: ``state()`` and
a sample of ``amplitude()`` calls must agree with the floor to 1e-10.

Run directly for a table plus machine-readable JSON::

    python benchmarks/bench_chain_depth.py [--qubits 14] [--stages 400]
        [--block-size 64] [--cycles 30] [--out BENCH_chain_depth.json]

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_chain_depth.py
"""

import argparse
import json
import random
import statistics
import sys
import time

import numpy as np

from repro.baselines import StridedDenseSimulator
from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.core.simulator import QTaskSimulator


def build_deep_circuit(num_qubits, num_stages, *, block_size, num_workers=1,
                       seed=7):
    """A ``num_stages``-deep cascade of cp gates on the top three qubits."""
    ckt = Circuit(num_qubits)
    sim = QTaskSimulator(ckt, block_size=block_size, num_workers=num_workers)
    rng = random.Random(seed)
    high = list(range(num_qubits - 3, num_qubits))
    for i in range(num_stages):
        a, b = rng.sample(high, 2)
        ckt.append_level([Gate("cp", (a, b), (0.1 + 0.001 * i,))])
    return ckt, sim


def run_once(num_qubits=14, num_stages=400, block_size=64, cycles=30):
    """Full build + timed tail-edit cycles, each priced against the floor."""
    ckt, sim = build_deep_circuit(num_qubits, num_stages, block_size=block_size)
    floor = StridedDenseSimulator(ckt)
    try:
        t0 = time.perf_counter()
        sim.update_state()
        full = time.perf_counter() - t0
        floor.update_state()  # warm-up: keep first-call costs out of floor_ms

        update_time = 0.0
        floor_time = 0.0
        state_diff = 0.0
        top = num_qubits - 1
        for _ in range(cycles):
            net = ckt.insert_net()
            handle = ckt.insert_gate(Gate("x", (top,)), net)
            for edit in range(2):
                t0 = time.perf_counter()
                sim.update_state()
                update_time += time.perf_counter() - t0
                t0 = time.perf_counter()
                floor.update_state()
                floor_time += time.perf_counter() - t0
                state_diff = max(
                    state_diff, float(np.abs(sim.state() - floor.state()).max())
                )
                if edit == 0:
                    ckt.remove_gate(handle)
                    ckt.remove_net(net)

        rng = random.Random(11)
        sample = [rng.randrange(sim.dim) for _ in range(32)]
        amps = np.array([sim.amplitude(i) for i in sample])
        amp_diff = float(np.abs(amps - floor.state()[sample]).max())
        stats = sim.statistics()
    finally:
        sim.close()
    updates = 2 * cycles
    directory_ms = 1e3 * update_time / updates
    floor_ms = 1e3 * floor_time / updates
    return {
        "benchmark": "chain_depth",
        "num_qubits": num_qubits,
        "num_stages": num_stages,
        "block_size": block_size,
        "edit_cycles": cycles,
        "incremental_updates": updates,
        "directory_update_seconds": update_time,
        "directory_ms_per_update": directory_ms,
        "directory_full_seconds": full,
        "floor_ms": floor_ms,
        "speedup_vs_floor": (
            floor_ms / directory_ms if directory_ms > 0 else float("inf")
        ),
        "state_max_abs_diff": state_diff,
        "amplitude_max_abs_diff": amp_diff,
        "graph_stats": stats,
    }


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - direct script execution only
    pytest = None

if pytest is not None:

    def test_deep_incremental_update(benchmark):
        def run():
            return run_once(12, 200, block_size=64, cycles=10)[
                "directory_update_seconds"
            ]

        benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


# ---------------------------------------------------------------------------
# direct execution: speedup table + JSON
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=14)
    parser.add_argument("--stages", type=int, default=400)
    parser.add_argument("--block-size", type=int, default=64)
    parser.add_argument("--cycles", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions; the median speedup is reported")
    parser.add_argument("--out", default="BENCH_chain_depth.json",
                        help="path for the machine-readable JSON result")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="PASS threshold on the median speedup_vs_floor")
    args = parser.parse_args(argv)

    runs = [
        run_once(args.qubits, args.stages, args.block_size, args.cycles)
        for _ in range(args.repeats)
    ]
    median = statistics.median(r["speedup_vs_floor"] for r in runs)
    result = dict(min(runs, key=lambda r: abs(r["speedup_vs_floor"] - median)))
    result["speedup_runs"] = [r["speedup_vs_floor"] for r in runs]
    result["speedup_vs_floor"] = median
    result["min_speedup_target"] = args.min_speedup
    for key in ("state_max_abs_diff", "amplitude_max_abs_diff"):
        result[key] = max(r[key] for r in runs)

    equal = (result["state_max_abs_diff"] <= 1e-10
             and result["amplitude_max_abs_diff"] <= 1e-10)
    passed = equal and median >= args.min_speedup
    result["passed"] = passed

    print(f"{'path':<16} {'updates':>8} {'ms/update':>10}")
    print(f"{'directory':<16} {result['incremental_updates']:>8} "
          f"{result['directory_ms_per_update']:>10.3f}")
    print(f"{'strided dense':<16} {result['incremental_updates']:>8} "
          f"{result['floor_ms']:>10.3f}")
    print(f"speedup vs floor: {median:.2f}x (runs: "
          + ", ".join(f"{s:.2f}x" for s in result["speedup_runs"])
          + f"; target >= {args.min_speedup:.1f}x)")
    print(f"state/amplitude max |diff|: {result['state_max_abs_diff']:.2e} / "
          f"{result['amplitude_max_abs_diff']:.2e} (must be <= 1e-10)")
    print("PASS" if passed else "FAIL")

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return passed


if __name__ == "__main__":
    sys.exit(0 if main() else 1)

"""Smoke tests for the per-table / per-figure experiment drivers.

These run each driver on tiny circuits so the whole evaluation pipeline is
exercised by the regular test suite; the real (larger) runs live in
``benchmarks/`` and in the ``python -m repro.bench.*`` entry points.
"""

import pytest

from repro.bench.adapters import qtask_factory, qulacs_like_factory
from repro.bench.blocksize import figure19_blocksize
from repro.bench.figures import (
    default_factories,
    figure14_insertions,
    figure15_removals,
    figure16_mixed,
)
from repro.bench.memory import cow_memory_comparison
from repro.bench.scaling import figure17_full_scaling, figure18_incremental_scaling
from repro.bench.table3 import QUICK_SUBSET, run_circuit_row, run_table3
from repro.circuits import build_levels
from repro.core.circuit import Circuit
from repro.core.simulator import QTaskSimulator

TINY_FACTORIES = [
    qtask_factory(block_size=16, num_workers=1),
    qulacs_like_factory(num_workers=1),
]


def test_quick_subset_is_part_of_catalog():
    from repro.circuits import CATALOG
    assert set(QUICK_SUBSET) <= set(CATALOG)


def test_run_circuit_row_produces_all_columns():
    row = run_circuit_row("simons", TINY_FACTORIES)
    assert row.qubits == 6
    assert set(row.results) == {"qTask", "Qulacs-like"}
    for full_s, inc_s, mem in row.results.values():
        assert full_s > 0 and inc_s > 0 and mem >= 0
    full_speedup, inc_speedup = row.speedup_over("Qulacs-like")
    assert full_speedup > 0 and inc_speedup > 0


def test_run_table3_filters_by_qubits_and_levels():
    rows = run_table3(circuits=["simons", "qaoa"], num_workers=1, block_size=16,
                      max_levels=6)
    assert [r.circuit for r in rows] == ["simons", "qaoa"]
    for row in rows:
        assert row.gates > 0


def test_figure14_insertions_series_are_cumulative():
    series = figure14_insertions("simons", factories=TINY_FACTORIES,
                                 levels_per_iteration=2)
    assert {s.label for s in series} == {"qTask", "Qulacs-like"}
    for s in series:
        ys = s.ys()
        assert all(b >= a - 1e-9 for a, b in zip(ys, ys[1:])), "cumulative must grow"


def test_figure15_removals_series_have_iteration_zero():
    series = figure15_removals("simons", factories=TINY_FACTORIES)
    for s in series:
        assert s.points[0].x == 0
        assert len(s.points) >= 2


def test_figure16_mixed_series_length():
    series = figure16_mixed("simons", factories=TINY_FACTORIES, iterations=5)
    for s in series:
        assert len(s.points) == 5


def test_default_factories_pair():
    factories = default_factories(num_workers=1)
    assert [f.name for f in factories] == ["qTask", "Qulacs-like"]


def test_figure17_and_18_scaling_shapes():
    s17 = figure17_full_scaling("simons", max_workers=2, block_size=16)
    s18 = figure18_incremental_scaling("simons", max_workers=2, block_size=16,
                                       iterations=3)
    for series in (s17, s18):
        assert {s.label for s in series} == {"qTask", "Qulacs-like"}
        for s in series:
            assert [p.x for p in s.points] == [1, 2]
            assert all(p.y > 0 for p in s.points)


def test_figure19_blocksize_sweep():
    full, inc = figure19_blocksize("simons", log_block_sizes=[1, 3, 5],
                                   num_workers=1, iterations=3)
    assert full.xs() == [1, 3, 5]
    assert inc.xs() == [1, 3, 5]
    assert all(y > 0 for y in full.ys() + inc.ys())


def test_cow_memory_comparison_reports_savings():
    cmp = cow_memory_comparison("simons", block_size=8)
    assert cmp.without_cow_bytes >= cmp.with_cow_bytes > 0
    assert 0.0 <= cmp.savings_fraction < 1.0
    # the dense figure is the same circuit's one-vector-per-stage footprint
    qubits, levels = build_levels("simons")
    circuit = Circuit(qubits)
    circuit.from_levels(levels)
    with QTaskSimulator(circuit, block_size=8, num_workers=1) as sim:
        sim.update_state()
        assert cmp.without_cow_bytes == sim.memory_report().dense_bytes


def test_driver_mains_run(capsys):
    """The CLI entry points execute end to end on tiny inputs."""
    from repro.bench import blocksize, figures, memory, scaling, table3

    assert table3.main(["--circuits", "simons", "--workers", "1"]) == 0
    assert figures.main(["--figure", "15", "--circuit", "simons"]) == 0
    assert scaling.main(["--figure", "17", "--circuit", "simons",
                         "--max-workers", "2"]) == 0
    assert blocksize.main(["--circuit", "simons", "--min-log", "2",
                           "--max-log", "3", "--iterations", "2"]) == 0
    assert memory.main(["--circuit", "simons"]) == 0
    out = capsys.readouterr().out
    assert "qTask" in out

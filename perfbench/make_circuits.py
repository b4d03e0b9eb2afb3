"""Regenerate the frozen OpenQASM inputs under ``perfbench/circuits/``.

The benchmark reads its circuits from these committed files, so a later
change to the generators in ``repro.circuits`` cannot silently change what
the benchmark measures.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_circuits.py

and commit the result only when the inputs are meant to change.
"""

from __future__ import annotations

from pathlib import Path

from repro.circuits.catalog import build_benchmark
from repro.qasm import to_qasm

#: (catalog name, qubits): the first seven are the qasm-full rotation, sized
#: so each full simulation costs roughly the same (80-140 ms on a 2-CPU x86
#: host at numpy defaults); multiplier_35-12 is the synthesis-edits circuit
CIRCUITS = [
    ("bv", 14),
    ("seca", 10),
    ("qf21", 10),
    ("adder", 11),
    ("qpe", 10),
    ("qft", 9),
    ("multiplier_35", 9),
    ("multiplier_35", 12),
]


def main() -> None:
    out = Path(__file__).resolve().parent / "circuits"
    out.mkdir(exist_ok=True)
    for name, qubits in CIRCUITS:
        text = to_qasm(build_benchmark(name, num_qubits=qubits))
        (out / f"{name}-{qubits}.qasm").write_text(text)


if __name__ == "__main__":
    main()

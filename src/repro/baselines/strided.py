"""Strided in-place dense baseline: the honest full re-simulation floor.

The state lives in one flat ``complex128`` vector viewed as an
``n``-dimensional ``[2] * n`` tensor (axis ``n - 1 - q`` carries qubit
``q``).  A diagonal gate multiplies its phase tensor into a ``moveaxis``
view of the state in place; any other gate is one ``tensordot`` of its
``[2] * 2k`` tensor with the gate axes, moved back into place.  There is no
per-amplitude index arithmetic and no Python per block, so this is the
cheapest full re-simulation numpy can do -- the denominator incremental
updates are judged against.

It deliberately shares no code with :mod:`repro.core.kernels` (only the gate
matrices from :mod:`repro.core.gates`), so it cannot inherit a kernel bug
from the engine it measures.  Dynamic operations run through the shared
:class:`~repro.baselines.base.BaselineSimulator` collapse.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.gates import Gate
from .base import BaselineSimulator

__all__ = ["StridedDenseSimulator"]


class StridedDenseSimulator(BaselineSimulator):
    """Full re-simulation with reshape + ``tensordot`` / in-place diagonals."""

    name = "strided-dense"

    def _gate_axes(self, gate: Gate) -> List[int]:
        # A gate matrix reshaped to [2] * 2k in C order lists its local bits
        # most-significant first, and local bit j belongs to qubits[j].
        n = self.circuit.num_qubits
        return [n - 1 - q for q in reversed(gate.qubits)]

    def _apply_gate(self, state: np.ndarray, gate: Gate) -> np.ndarray:
        n = self.circuit.num_qubits
        k = len(gate.qubits)
        matrix = np.asarray(gate.matrix(), dtype=np.complex128)
        axes = self._gate_axes(gate)
        psi = state.reshape([2] * n)
        phases = np.diagonal(matrix)
        if np.count_nonzero(matrix) == np.count_nonzero(phases):
            view = np.moveaxis(psi, axes, list(range(k)))
            view *= phases.reshape([2] * k + [1] * (n - k))
            return state
        out = np.tensordot(
            matrix.reshape([2] * (2 * k)), psi, axes=(list(range(k, 2 * k)), axes)
        )
        return np.ascontiguousarray(
            np.moveaxis(out, list(range(k)), axes)
        ).reshape(-1)

    def _apply_circuit(self, state: np.ndarray) -> np.ndarray:
        for net in self.circuit.nets():
            for handle in net.gates:
                state = self._apply_operation(state, handle.gate)
        return state

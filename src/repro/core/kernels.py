"""Vectorised numpy kernels for gate application on index ranges.

These kernels are the computational payload of qTask's partition tasks.  Each
kernel computes the *output* amplitudes of a contiguous index range ``[lo,
hi]`` of one stage from a *reader* exposing the stage input.  Because output
ranges of different tasks are disjoint, tasks can run in parallel without
locks; the heavy lifting is done by numpy (which releases the GIL), matching
the hpc-parallel guidance of vectorising inner loops instead of iterating in
Python.

Three families of kernels mirror the paper's gate classification (§III.C):

* ``diagonal`` -- scale amplitudes in place,
* ``monomial`` -- gather amplitudes along a generalized permutation,
* ``matvec``  -- dense matrix--vector fallback for superposition gates.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence, Tuple

import numpy as np

from . import faults
from .exec_plan import (
    RUN_ACTION,
    RUN_COLLAPSE,
    RUN_COPY,
    RUN_SLICE,
    PlanOp,
    RunSpec,
    RunTable,
)
from .gates import (
    DiagonalAction,
    MatVecAction,
    MonomialAction,
    extract_local,
    replace_local,
)

__all__ = [
    "StateReader",
    "ArrayReader",
    "extract_local",
    "replace_local",
    "apply_diagonal_range",
    "apply_monomial_range",
    "apply_matvec_range",
    "apply_action_range",
    "apply_action_run",
    "apply_gate_dense",
    "apply_matrix_dense",
    "measured_masses",
    "collapse_run",
    "execute_run",
    "iter_table_runs",
    "NumpyBatchBackend",
]

_DTYPE = np.complex128


class StateReader(Protocol):
    """Anything that can serve gate-input amplitudes.

    Implemented by :class:`~repro.core.cow.DirectoryReader` and
    :class:`ArrayReader`.
    """

    def read_range(self, lo: int, hi: int) -> np.ndarray: ...

    def gather(self, indices: np.ndarray) -> np.ndarray: ...

    def full_vector(self) -> np.ndarray: ...


class ArrayReader:
    """Adapt a plain ndarray to the :class:`StateReader` protocol."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = np.asarray(state, dtype=_DTYPE)

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        return self.state[lo : hi + 1]

    def gather(self, indices: np.ndarray) -> np.ndarray:
        return self.state[np.asarray(indices, dtype=np.int64)]

    def full_vector(self) -> np.ndarray:
        return np.array(self.state, copy=True)


# ---------------------------------------------------------------------------
# Range kernels (the bit helpers extract_local/replace_local live in .gates
# and are re-exported here for backward compatibility)
# ---------------------------------------------------------------------------


def _range_alignment(lo: int, n: int) -> int:
    """``log2(n)`` when ``[lo, lo+n)`` is an aligned power-of-two range, else -1.

    Every in-tree call site applies kernels one data block at a time, so the
    range is a whole (power-of-two, aligned) block: every state-index bit at
    or above ``log2(n)`` is then *constant* across the range and the
    per-amplitude local-index pattern repeats with the period set by the
    highest gate qubit below ``log2(n)``.  The strided fast paths exploit
    this to replace full-size ``arange``/``extract_local``/``replace_local``
    index arithmetic with one small per-period table.
    """
    if n <= 0 or n & (n - 1) or lo % n:
        return -1
    return n.bit_length() - 1


def _local_pattern(
    lo: int, nb: int, qubits: Sequence[int]
) -> Tuple[int, np.ndarray]:
    """Period and per-period local indices of ``qubits`` over an aligned range.

    Bits of qubits at or above ``nb`` are constant (taken from ``lo``); the
    remaining low qubits make the pattern repeat every ``2**(max_low+1)``
    amplitudes.
    """
    low = [q for q in qubits if q < nb]
    period = (1 << (max(low) + 1)) if low else 1
    base = np.arange(lo, lo + period, dtype=np.int64)
    return period, extract_local(base, qubits)


def apply_diagonal_range(
    reader: StateReader,
    lo: int,
    hi: int,
    qubits: Sequence[int],
    action: DiagonalAction,
) -> np.ndarray:
    """Output amplitudes of ``[lo, hi]`` for a diagonal gate."""
    src = np.asarray(reader.read_range(lo, hi), dtype=_DTYPE)
    phases = np.asarray(action.phases, dtype=_DTYPE)
    n = hi - lo + 1
    nb = _range_alignment(lo, n)
    if nb >= 0:
        # Strided fast path: one small phase table broadcasts over the range.
        period, local = _local_pattern(lo, nb, qubits)
        if period == 1:
            return src * phases[local[0]]
        return (src.reshape(-1, period) * phases[local]).reshape(-1)
    idx = np.arange(lo, hi + 1, dtype=np.int64)
    return src * phases[extract_local(idx, qubits)]


def apply_monomial_range(
    reader: StateReader,
    lo: int,
    hi: int,
    qubits: Sequence[int],
    action: MonomialAction,
) -> np.ndarray:
    """Output amplitudes of ``[lo, hi]`` for a generalized-permutation gate.

    The output amplitude at global index ``j`` with local index ``l`` is
    ``factors[perm^-1(l)] * input[replace(j, perm^-1(l))]``; the source index
    always lies inside the same gate orbit, which partitions are closed under,
    so the reads stay within the partition's index span.
    """
    perm = np.asarray(action.perm, dtype=np.int64)
    factors = np.asarray(action.factors, dtype=_DTYPE)
    dim = perm.shape[0]
    inv = np.empty(dim, dtype=np.int64)
    inv[perm] = np.arange(dim, dtype=np.int64)

    n = hi - lo + 1
    nb = _range_alignment(lo, n)
    if nb >= 0:
        period, local_out = _local_pattern(lo, nb, qubits)
        local_src = inv[local_out]
        pattern = replace_local(
            np.arange(lo, lo + period, dtype=np.int64), qubits, local_src
        )
        # The source bits above the period are constant whenever the
        # permutation maps the constant high-qubit bits to a single value;
        # the sources then tile the aligned mirror range [start, start+n)
        # and one contiguous read plus a small in-row gather suffices.
        start = int(pattern[0]) & ~(period - 1)
        offsets = pattern - start
        if np.all((offsets >= 0) & (offsets < period)):
            row_factors = factors[local_src]
            src = np.asarray(
                reader.read_range(start, start + n - 1), dtype=_DTYPE
            )
            if period == 1:
                return src * row_factors[0]
            return (src.reshape(-1, period)[:, offsets] * row_factors).reshape(-1)

    idx = np.arange(lo, hi + 1, dtype=np.int64)
    local_out = extract_local(idx, qubits)
    local_src = inv[local_out]
    src_idx = replace_local(idx, qubits, local_src)
    return reader.gather(src_idx) * factors[local_src]


def apply_matvec_range(
    reader: StateReader,
    lo: int,
    hi: int,
    qubits: Sequence[int],
    matrix: np.ndarray,
) -> np.ndarray:
    """Output amplitudes of ``[lo, hi]`` for a dense (superposition) gate.

    ``out[j] = sum_l  M[local(j), l] * in[replace(j, l)]`` -- i.e. the rows of
    the full transformation matrix restricted to the output range, exactly the
    role of the paper's MxV partitions, without materialising the 2^n x 2^n
    matrix.
    """
    m = np.asarray(matrix, dtype=_DTYPE)
    dim = m.shape[0]
    idx = np.arange(lo, hi + 1, dtype=np.int64)
    local_out = extract_local(idx, qubits)
    out = np.zeros(idx.shape[0], dtype=_DTYPE)
    for l_in in range(dim):
        col = m[local_out, l_in]
        nz = np.abs(col) > 0.0
        if not np.any(nz):
            continue
        src_idx = replace_local(idx, qubits, np.full_like(idx, l_in))
        out += col * reader.gather(src_idx)
    return out


def apply_action_range(
    reader: StateReader,
    lo: int,
    hi: int,
    qubits: Sequence[int],
    action,
) -> np.ndarray:
    """Dispatch on the classified action type."""
    if isinstance(action, DiagonalAction):
        return apply_diagonal_range(reader, lo, hi, qubits, action)
    if isinstance(action, MonomialAction):
        return apply_monomial_range(reader, lo, hi, qubits, action)
    if isinstance(action, MatVecAction):
        return apply_matvec_range(reader, lo, hi, qubits, action.matrix)
    raise TypeError(f"unknown action type {type(action)!r}")


def apply_action_run(
    reader: StateReader,
    store,
    lo: int,
    hi: int,
    qubits: Sequence[int],
    action,
) -> None:
    """Compute ``[lo, hi]`` and publish the result into ``store`` zero-copy.

    This is the run-granular entry point used by batched block-run tasks:
    one kernel invocation covers a whole aligned run of blocks (keeping the
    strided fast paths, which only need the range to be an aligned power of
    two) and the freshly allocated output is handed to
    ``BlockStore.write_range(..., copy=False)``, so the store keeps views of
    the kernel output instead of copying it block by block.
    """
    out = apply_action_range(reader, lo, hi, qubits, action)
    store.write_range(lo, out, copy=False)


def execute_run(reader: StateReader, store, spec: RunSpec) -> None:
    """Execute one :class:`~repro.core.exec_plan.RunSpec` against a store.

    The run-granular counterpart of :class:`NumpyBatchBackend`: its
    inhomogeneous groups and the simulator's per-chunk fault fallback both
    funnel through here, so batched and per-run execution share the exact
    kernels.
    """
    if faults.ACTIVE is not None:
        faults.fire("kernel.run")
    kind = spec.kind
    if kind == RUN_ACTION:
        apply_action_run(reader, store, spec.lo, spec.hi, spec.qubits, spec.op)
    elif kind == RUN_SLICE:
        # op is a prepared full vector, rebound (never mutated) by the next
        # prepare() -- its slices are safe to publish zero-copy.
        store.write_range(spec.lo, spec.op[spec.lo : spec.hi + 1], copy=False)
    elif kind == RUN_COPY:
        # read_range returns a fresh array, safe to adopt zero-copy
        store.write_range(
            spec.lo, reader.read_range(spec.lo, spec.hi), copy=False
        )
    elif kind == RUN_COLLAPSE:
        qubit, outcome, scale, move = spec.op
        collapse_run(
            reader, store, spec.lo, spec.hi, qubit, outcome, scale, move=move
        )
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown run kind {kind!r}")


# ---------------------------------------------------------------------------
# Projective-collapse kernels (dynamic circuits: measure / reset)
# ---------------------------------------------------------------------------


def measured_masses(
    reader: StateReader, qubit: int, dim: int, block_size: int
) -> Tuple[float, float]:
    """Unnormalised probability masses ``(p0, p1)`` of measuring ``qubit``.

    Accumulated block by block through the COW block resolution -- the same
    per-block probability masses the observables engine's sampling tree and
    parity kernels are built on -- so a measurement's ``prepare`` never
    materialises the full ``2^n`` vector.  For qubits at or above the block
    width the bit is constant per block and a block contributes its whole
    mass to one side; below it, one reshape splits each block's probability
    rows into the two halves.
    """
    block_len = min(dim, block_size)
    n_blocks = dim // block_len
    p0 = 0.0
    p1 = 0.0
    nb_bits = block_len.bit_length() - 1
    if qubit >= nb_bits:
        for b in range(n_blocks):
            lo = b * block_len
            amps = np.asarray(
                reader.read_range(lo, lo + block_len - 1), dtype=_DTYPE
            )
            mass = float(np.real(np.vdot(amps, amps)))
            if (lo >> qubit) & 1:
                p1 += mass
            else:
                p0 += mass
        return p0, p1
    period = 1 << (qubit + 1)
    half = 1 << qubit
    for b in range(n_blocks):
        lo = b * block_len
        amps = np.asarray(reader.read_range(lo, lo + block_len - 1), dtype=_DTYPE)
        probs = (amps.conj() * amps).real.reshape(-1, period)
        p0 += float(probs[:, :half].sum())
        p1 += float(probs[:, half:].sum())
    return p0, p1


def collapse_run(
    reader: StateReader,
    store,
    lo: int,
    hi: int,
    qubit: int,
    outcome: int,
    scale: float,
    *,
    move: bool = False,
) -> None:
    """Collapse ``[lo, hi]`` onto ``qubit == outcome`` and publish zero-copy.

    With ``move=False`` (measurement) amplitudes whose ``qubit`` bit equals
    ``outcome`` are scaled by ``1/sqrt(p_outcome)`` and everything else is
    zeroed.  With ``move=True`` (reset) the surviving amplitudes are
    additionally relocated to the ``qubit = 0`` subspace, so the qubit ends
    in |0> whatever was measured.  Aligned power-of-two runs where the qubit
    bit is constant skip the index arithmetic entirely (and runs that
    collapse to zero never read their input at all).
    """
    n = hi - lo + 1
    nb = _range_alignment(lo, n)
    if nb >= 0 and qubit >= nb:
        bit = (lo >> qubit) & 1
        if not move:
            if bit == outcome:
                out = np.asarray(reader.read_range(lo, hi), dtype=_DTYPE) * scale
            else:
                out = np.zeros(n, dtype=_DTYPE)
        else:
            if bit == 0:
                src_lo = lo | (outcome << qubit)
                out = (
                    np.asarray(
                        reader.read_range(src_lo, src_lo + n - 1), dtype=_DTYPE
                    )
                    * scale
                )
            else:
                out = np.zeros(n, dtype=_DTYPE)
        store.write_range(lo, out, copy=False)
        return
    idx = np.arange(lo, hi + 1, dtype=np.int64)
    bits = (idx >> qubit) & 1
    if not move:
        src = np.asarray(reader.read_range(lo, hi), dtype=_DTYPE)
        out = np.where(bits == outcome, src * scale, 0.0 + 0.0j)
    else:
        out = np.zeros(n, dtype=_DTYPE)
        keep = bits == 0
        src_idx = idx[keep] | (outcome << qubit)
        out[keep] = reader.gather(src_idx) * scale
    store.write_range(lo, out, copy=False)


# ---------------------------------------------------------------------------
# Dense full-vector kernels (used by the baselines and the matvec fast path)
# ---------------------------------------------------------------------------


def apply_matrix_dense(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply a k-qubit unitary to a dense state vector via tensor reshaping.

    This is the classic statevector-simulator kernel (Qulacs/qsim style): view
    the state as an n-dimensional tensor, move the gate axes to the front,
    contract with the gate matrix, and move them back.  It is used by the
    baseline simulators and by qTask's superposition stages.
    """
    psi = np.asarray(state, dtype=_DTYPE).reshape([2] * num_qubits)
    k = len(qubits)
    # Axis j of the reshaped tensor corresponds to qubit (num_qubits - 1 - j):
    # the state index's most-significant bit is the first axis.
    axes = [num_qubits - 1 - q for q in qubits]
    perm = axes + [a for a in range(num_qubits) if a not in axes]
    psi_t = np.transpose(psi, perm)
    rest = psi_t.shape[k:]
    mat = np.asarray(matrix, dtype=_DTYPE)
    # Local index bit j corresponds to qubits[j]; axis order after transpose is
    # qubits[0], qubits[1], ... so axis j carries local bit j, and flattening
    # axes 0..k-1 in C order makes qubits[0] the *slowest* varying bit.  Build
    # the tensor form of the matrix accordingly.
    tensor = mat.reshape([2] * (2 * k))
    # tensor indices: (out bit k-1 ... out bit 0, in bit k-1 ... in bit 0) when
    # reshaped in C order from a (2^k, 2^k) matrix whose index bit j is local
    # bit j (bit 0 = fastest).  We need out/in axes ordered to match psi_t's
    # axis order (local bit 0 first), i.e. reverse each group.
    tensor = np.transpose(
        tensor,
        list(range(k - 1, -1, -1)) + list(range(2 * k - 1, k - 1, -1)),
    )
    contracted = np.tensordot(tensor, psi_t, axes=(list(range(k, 2 * k)), list(range(k))))
    out = np.transpose(
        contracted.reshape([2] * k + list(rest)), np.argsort(perm)
    )
    return out.reshape(-1)


def apply_gate_dense(state: np.ndarray, gate, num_qubits: int) -> np.ndarray:
    """Apply a :class:`repro.core.gates.Gate` to a dense state vector."""
    return apply_matrix_dense(state, gate.matrix(), gate.qubits, num_qubits)


# ---------------------------------------------------------------------------
# Batch-major execution of compiled run tables
# ---------------------------------------------------------------------------
#
# The simulator hands one RunTable (the runs of one stage, or a chunk of
# them) at a time to ``NumpyBatchBackend.execute_plan(reader, store,
# table)``.  Runs of one table write disjoint ranges, so they may be
# reordered or batched; reads go through the block-resolving reader either
# way, so batched and run-granular execution observe the same stage input
# and produce bit-identical output.


def iter_table_runs(table: RunTable) -> Iterator[RunSpec]:
    """The rows of a run table as :class:`RunSpec` values, in table order."""
    los, his, op_ids, ops = table.los, table.his, table.op_ids, table.ops
    for i in range(los.shape[0]):
        op = ops[op_ids[i]]
        yield RunSpec(op.kind, int(los[i]), int(his[i]), op.qubits, op.op)


class NumpyBatchBackend:
    """Vectorised-numpy execution of run tables, grouped by action.

    Homogeneous groups -- same classified action, same run length, every
    gate qubit below the run alignment (so the per-period local pattern is
    identical across runs) -- execute as a handful of stacked array ops:
    one ``(runs, n)`` source matrix, one broadcast multiply (plus one
    in-period gather for monomial actions), one view-publishing write per
    run.  Anything inhomogeneous falls back to the per-run reference loop,
    keeping output bit-identical to run-granular execution by construction.
    """

    def execute_plan(self, reader: StateReader, store, table: RunTable) -> None:
        for op, idx in table.groups():
            los = table.los[idx]
            his = table.his[idx]
            if op.kind == RUN_ACTION and isinstance(op.op, DiagonalAction):
                self._diagonal_group(reader, store, op, los, his)
            elif op.kind == RUN_ACTION and isinstance(op.op, MonomialAction):
                self._monomial_group(reader, store, op, los, his)
            else:
                for lo, hi in zip(los, his):
                    execute_run(
                        reader,
                        store,
                        RunSpec(op.kind, int(lo), int(hi), op.qubits, op.op),
                    )

    @staticmethod
    def _stack_alignment(
        los: np.ndarray, n: int, qubits: Sequence[int]
    ) -> int:
        """Shared alignment ``nb`` when the runs can stack, else -1.

        Stacking requires every run of the group to be an aligned power-of-
        two range of the same length with all gate qubits below the
        alignment -- then the per-period local pattern (and with it the
        phase/gather table) is the same for every run.
        """
        nb = _range_alignment(int(los[0]), n)
        if nb < 0 or (qubits and max(qubits) >= nb):
            return -1
        if np.any(los % n != 0):
            return -1
        return nb

    def _fallback(self, reader, store, op: PlanOp, los, his, sel) -> None:
        for j in sel:
            execute_run(
                reader,
                store,
                RunSpec(op.kind, int(los[j]), int(his[j]), op.qubits, op.op),
            )

    def _read_stack(self, reader, los, sel, n: int) -> np.ndarray:
        src = np.empty((sel.shape[0], n), dtype=_DTYPE)
        for i, j in enumerate(sel):
            lo = int(los[j])
            src[i] = reader.read_range(lo, lo + n - 1)
        return src

    def _diagonal_group(self, reader, store, op: PlanOp, los, his) -> None:
        qubits = op.qubits
        action = op.op
        phases = np.asarray(action.phases, dtype=_DTYPE)
        lengths = his - los + 1
        for n in np.unique(lengths):
            sel = np.flatnonzero(lengths == n)
            n = int(n)
            nb = self._stack_alignment(los[sel], n, qubits)
            if nb < 0 or sel.shape[0] < 2:
                self._fallback(reader, store, op, los, his, sel)
                continue
            period, local = _local_pattern(int(los[sel[0]]), nb, qubits)
            row = phases[local]
            src = self._read_stack(reader, los, sel, n)
            if period == 1:
                out = src * row[0]
            else:
                out = (src.reshape(sel.shape[0], -1, period) * row).reshape(
                    sel.shape[0], n
                )
            for i, j in enumerate(sel):
                store.write_range(int(los[j]), out[i], copy=False)

    def _monomial_group(self, reader, store, op: PlanOp, los, his) -> None:
        qubits = op.qubits
        action = op.op
        perm = np.asarray(action.perm, dtype=np.int64)
        factors = np.asarray(action.factors, dtype=_DTYPE)
        lengths = his - los + 1
        for n in np.unique(lengths):
            sel = np.flatnonzero(lengths == n)
            n = int(n)
            nb = self._stack_alignment(los[sel], n, qubits)
            if nb < 0 or sel.shape[0] < 2:
                self._fallback(reader, store, op, los, his, sel)
                continue
            # With every gate qubit below the alignment the source pattern
            # stays inside each run (start == lo), so one in-period gather
            # plus one broadcast multiply covers the whole stack.
            inv = np.empty(perm.shape[0], dtype=np.int64)
            inv[perm] = np.arange(perm.shape[0], dtype=np.int64)
            lo0 = int(los[sel[0]])
            period, local_out = _local_pattern(lo0, nb, qubits)
            local_src = inv[local_out]
            pattern = replace_local(
                np.arange(lo0, lo0 + period, dtype=np.int64), qubits, local_src
            )
            offsets = pattern - lo0
            if not np.all((offsets >= 0) & (offsets < period)):
                # defensive: cannot happen with qubits < nb, but never batch
                # a run the per-run fast path would route through a gather
                self._fallback(reader, store, op, los, his, sel)
                continue
            row_factors = factors[local_src]
            src = self._read_stack(reader, los, sel, n)
            if period == 1:
                out = src * row_factors[0]
            else:
                stacked = src.reshape(sel.shape[0], -1, period)
                out = (stacked[:, :, offsets] * row_factors).reshape(
                    sel.shape[0], n
                )
            for i, j in enumerate(sel):
                store.write_range(int(los[j]), out[i], copy=False)

"""Incremental observables: expectations, marginals and shot sampling.

:class:`ObservablesEngine` answers measurement queries about a simulator's
*current* state (the one produced by the last ``update_state``) without ever
materialising the full ``2^n`` vector:

* ``expectation(obs)`` evaluates ``<psi|H|psi>`` term by term, block by
  block.  Z-only (diagonal) terms read per-block probabilities and bit-parity
  signs; terms with X/Y factors are monomial actions evaluated with the very
  strided kernels the simulator uses for permutation gates
  (:func:`repro.core.kernels.apply_action_range`), reading the state through
  the COW block resolution.
* ``sample(shots)`` / ``counts(shots)`` draw measurement shots via a lazily
  maintained Fenwick prefix-sum tree over per-block probability masses
  (:class:`repro.observables.sampling.PrefixSumTree`).
* ``marginal_probabilities(qubits)`` folds per-block probabilities onto a
  qubit subset with one bincount per block.

All per-block results -- the (term, block) partial expectations and the
per-block probability masses feeding the sampling tree -- are cached, and the
cache is invalidated by exactly the dirty frontier the incremental update
already computes: the simulator reports every block (re)written by an update
or orphaned by a stage removal through its dirty-listener hook, and only
those entries are recomputed on the next query.  A parameter-retune sweep
that touches the tail of a circuit therefore re-evaluates only the partials
its dirty blocks invalidated.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.blocks import block_bounds
from ..core.gates import extract_local
from ..core.kernels import ArrayReader, StateReader, apply_action_range
from .pauli import PauliLike, PauliString, PauliSum, as_pauli_sum
from .sampling import PrefixSumTree

__all__ = ["ObservablesEngine", "dense_expectation", "statevector_counts"]

_TermKey = Tuple[Tuple[int, str], ...]


def _parity_signs(lo: int, hi: int, z_qubits: Sequence[int]) -> np.ndarray:
    """``(-1)^popcount(i & z_mask)`` for every index in ``[lo, hi]``."""
    idx = np.arange(lo, hi + 1, dtype=np.int64)
    parity = np.zeros(idx.shape[0], dtype=np.int64)
    for q in z_qubits:
        parity ^= (idx >> q) & 1
    return 1.0 - 2.0 * parity


def _term_partial(
    term: PauliString,
    reader: StateReader,
    lo: int,
    hi: int,
    *,
    psi: Optional[np.ndarray] = None,
    probs: Optional[np.ndarray] = None,
    action=None,
) -> complex:
    """``sum_{i in [lo, hi]} conj(psi_i) * (P psi)_i`` for a unit-coefficient P.

    ``psi``/``probs``/``action`` are optional precomputed ingredients so a
    multi-term evaluation can share one amplitude read (and one probability
    vector) per block across every term.
    """
    if psi is None:
        psi = np.asarray(reader.read_range(lo, hi), dtype=np.complex128)
    if term.is_identity or term.is_diagonal:
        if probs is None:
            probs = (psi.conj() * psi).real
        if term.is_identity:
            return complex(probs.sum())
        return complex(np.dot(probs, _parity_signs(lo, hi, term.support)))
    out = apply_action_range(
        reader, lo, hi, term.support, term.action() if action is None else action
    )
    return complex(np.vdot(psi, out))


class ObservablesEngine:
    """Measurement queries over one simulator's COW-resolved state.

    Created lazily by :attr:`repro.core.simulator.QTaskSimulator.observables`
    (one engine per simulator); direct construction is useful in tests.
    """

    def __init__(self, simulator) -> None:
        self.simulator = simulator
        self.dim = simulator.dim
        self.block_size = simulator.block_size
        self.n_blocks = simulator.n_blocks
        #: (term key, block) -> partial expectation of the unit-coefficient term
        self._term_partials: Dict[_TermKey, Dict[int, complex]] = {}
        #: term key -> its X/Y flip mask restricted to the *block-id* bits:
        #: the partial for block b reads amplitudes from block b ^ mask, so a
        #: dirty block d also invalidates the partial of d ^ mask.
        self._term_block_flip: Dict[_TermKey, int] = {}
        #: per-block probability masses, lazily pushed into the Fenwick tree
        self._tree = PrefixSumTree(self.n_blocks)
        self._stale_blocks: Set[int] = set(range(self.n_blocks))
        simulator.add_dirty_listener(self.mark_blocks_dirty)

    # -- invalidation (driven by the simulator's dirty frontier) -----------

    def mark_blocks_dirty(self, blocks: Iterable[int]) -> None:
        """Drop every cached per-block result for ``blocks``.

        The simulator calls this with the union of block ranges (re)written
        by an incremental update plus the blocks orphaned by stage removals;
        everything else stays cached.
        """
        blocks = set(blocks)
        if not blocks:
            return
        self._stale_blocks.update(blocks)
        for key, partials in self._term_partials.items():
            # An X/Y term's partial for block b is computed from amplitudes
            # in the flip-partner block b ^ mask, so a dirty block also
            # invalidates its partner's cached partial (mask 0 for Z-only
            # terms: the partial is block-local).
            mask = self._term_block_flip[key]
            for b in blocks:
                partials.pop(b, None)
                if mask:
                    partials.pop(b ^ mask, None)

    def invalidate(self) -> None:
        """Drop every cached result (all blocks stale)."""
        self._term_partials.clear()
        self._term_block_flip.clear()
        self._stale_blocks = set(range(self.n_blocks))

    def clone_for(self, simulator) -> "ObservablesEngine":
        """A new engine for ``simulator`` seeded with this engine's caches.

        Used by session forking: at fork time the child's state is identical
        to the parent's, so every cached (term, block) partial and per-block
        probability mass is valid verbatim.  The clone is fully independent
        afterwards -- it registers its own dirty listener on ``simulator``
        and each side's edits invalidate only its own cache.
        """
        clone = ObservablesEngine(simulator)
        clone._term_partials = {
            key: dict(partials) for key, partials in self._term_partials.items()
        }
        clone._term_block_flip = dict(self._term_block_flip)
        clone._tree.build(self._tree.values())
        clone._stale_blocks = set(self._stale_blocks)
        return clone

    @property
    def cached_partials(self) -> int:
        """Number of live (term, block) cache entries (for statistics)."""
        return sum(len(p) for p in self._term_partials.values())

    # -- expectation values -------------------------------------------------

    def expectation_value(self, observable: PauliLike) -> complex:
        """``<psi|H|psi>`` as a complex number (complex coefficients allowed).

        Evaluation is *block-major*: each block's amplitudes (and, for
        diagonal terms, its probability vector) are read once and shared
        across every term of the sum, so a k-term Hamiltonian costs one COW
        block resolution per block, not k.
        """
        obs = as_pauli_sum(observable)
        reader = self.simulator.state_reader()
        caches: Dict[_TermKey, Dict[int, complex]] = {}
        for term in obs.terms:
            caches[term.key] = self._term_cache(term)
        actions = {
            term.key: term.action()
            for term in obs.terms
            if not (term.is_identity or term.is_diagonal)
        }
        total = 0.0 + 0.0j
        totals: Dict[_TermKey, complex] = {t.key: 0.0 + 0.0j for t in obs.terms}
        for b in range(self.n_blocks):
            lo, hi = block_bounds(b, self.block_size, self.dim)
            psi: Optional[np.ndarray] = None
            probs: Optional[np.ndarray] = None
            for term in obs.terms:
                cache = caches[term.key]
                partial = cache.get(b)
                if partial is None:
                    if psi is None:
                        psi = np.asarray(
                            reader.read_range(lo, hi), dtype=np.complex128
                        )
                    if probs is None and (term.is_identity or term.is_diagonal):
                        probs = (psi.conj() * psi).real
                    partial = _term_partial(
                        term, reader, lo, hi,
                        psi=psi, probs=probs, action=actions.get(term.key),
                    )
                    cache[b] = partial
                totals[term.key] += partial
        for term in obs.terms:
            total += term.coefficient * totals[term.key]
        return total

    def _term_cache(self, term: PauliString) -> Dict[int, complex]:
        cache = self._term_partials.setdefault(term.key, {})
        if term.key not in self._term_block_flip:
            block_len = min(self.dim, self.block_size)
            self._term_block_flip[term.key] = term.flip_mask() // block_len
        return cache

    def expectation(self, observable: PauliLike) -> float:
        """``<psi|H|psi>`` for a Hermitian observable (the real part).

        Per-(term, block) partials are cached across calls and invalidated
        by the incremental update's dirty frontier, so re-evaluating the same
        Hamiltonian after a localised circuit edit only recomputes the blocks
        that actually changed.
        """
        return float(self.expectation_value(observable).real)

    # -- probabilities ------------------------------------------------------

    def _block_probs(self, block: int, reader: StateReader) -> np.ndarray:
        lo, hi = block_bounds(block, self.block_size, self.dim)
        amps = np.asarray(reader.read_range(lo, hi), dtype=np.complex128)
        return (amps.conj() * amps).real

    def _refresh_tree(self, reader: StateReader) -> None:
        stale = self._stale_blocks
        if not stale:
            return
        if len(stale) > self.n_blocks // 2:
            sums = np.array(
                [
                    float(self._block_probs(b, reader).sum())
                    if b in stale
                    else self._tree.value(b)
                    for b in range(self.n_blocks)
                ]
            )
            self._tree.build(sums)
        else:
            for b in stale:
                self._tree.set(b, float(self._block_probs(b, reader).sum()))
        self._stale_blocks.clear()

    def block_probability(self, block: int) -> float:
        """Total probability mass inside one data block."""
        if not 0 <= block < self.n_blocks:
            raise IndexError(f"block {block} out of range [0, {self.n_blocks})")
        if block not in self._stale_blocks:
            return self._tree.value(block)
        return float(self._block_probs(block, self.simulator.state_reader()).sum())

    def total_probability(self) -> float:
        """``sum_i |psi_i|^2`` accumulated block-wise (the squared norm)."""
        self._refresh_tree(self.simulator.state_reader())
        return self._tree.total()

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Outcome distribution of measuring ``qubits`` (qubits[0] = bit 0).

        Returns an array of length ``2^k``; entry ``m`` is the probability
        that qubit ``qubits[j]`` reads bit ``j`` of ``m``.  Accumulated with
        one weighted bincount per block.
        """
        qs = tuple(int(q) for q in qubits)
        if len(set(qs)) != len(qs):
            raise ValueError(f"duplicate qubits in marginal: {qubits}")
        n = self.dim.bit_length() - 1
        for q in qs:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range for {n} qubits")
        k = len(qs)
        out = np.zeros(1 << k, dtype=np.float64)
        reader = self.simulator.state_reader()
        for b in range(self.n_blocks):
            lo, hi = block_bounds(b, self.block_size, self.dim)
            probs = self._block_probs(b, reader)
            local = extract_local(np.arange(lo, hi + 1, dtype=np.int64), qs)
            out += np.bincount(local, weights=probs, minlength=1 << k)
        return out

    # -- shot sampling ------------------------------------------------------

    def sample(self, shots: int, *, seed: Optional[int] = None) -> np.ndarray:
        """Draw ``shots`` basis-state indices from ``|psi|^2``.

        Each draw binary-searches the per-block Fenwick tree for its block
        and then a within-block cumulative sum for its index, so only the
        blocks actually hit by draws are materialised.
        """
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        rng = np.random.default_rng(seed)
        reader = self.simulator.state_reader()
        self._refresh_tree(reader)
        total = self._tree.total()
        if total <= 0.0:
            raise ValueError("cannot sample from a zero-norm state")
        draws = rng.random(shots) * total
        blocks, residuals = self._tree.find(draws)
        out = np.empty(shots, dtype=np.int64)
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        boundaries = np.flatnonzero(np.diff(sorted_blocks)) + 1
        starts = np.concatenate(([0], boundaries)) if shots else np.empty(0, np.int64)
        ends = np.concatenate((boundaries, [shots])) if shots else starts
        for s, e in zip(starts, ends):
            b = int(sorted_blocks[s])
            cum = np.cumsum(self._block_probs(b, reader))
            sel = order[s:e]
            local = np.searchsorted(cum, residuals[sel], side="right")
            local = np.minimum(local, cum.shape[0] - 1)
            out[sel] = b * self.block_size + local
        return out

    def counts(
        self, shots: int, *, seed: Optional[int] = None
    ) -> Dict[str, int]:
        """Measurement histogram ``{bitstring: count}`` over ``shots`` draws.

        Bitstrings follow the usual convention: leftmost character is the
        highest qubit.
        """
        n = self.dim.bit_length() - 1
        samples = self.sample(shots, seed=seed)
        values, freqs = np.unique(samples, return_counts=True)
        return {
            format(int(v), f"0{n}b"): int(c) for v, c in zip(values, freqs)
        }


# ---------------------------------------------------------------------------
# Dense helpers (baselines and ground-truth checks)
# ---------------------------------------------------------------------------


def dense_expectation(state: np.ndarray, observable: PauliLike) -> float:
    """``<psi|H|psi>`` of a dense state vector (baseline/ground-truth path).

    Evaluates each term with the same classified-action kernels as the
    block-wise engine but over the whole vector at once, so baselines are
    A/B-comparable with qTask on observable workloads.
    """
    obs = as_pauli_sum(observable)
    psi = np.asarray(state, dtype=np.complex128).reshape(-1)
    reader = ArrayReader(psi)
    hi = psi.shape[0] - 1
    total = 0.0 + 0.0j
    for term in obs.terms:
        total += term.coefficient * _term_partial(term, reader, 0, hi)
    return float(total.real)


def statevector_counts(
    state: np.ndarray, shots: int, *, seed: Optional[int] = None
) -> Dict[str, int]:
    """Measurement histogram of a dense state vector (baseline path)."""
    psi = np.asarray(state, dtype=np.complex128).reshape(-1)
    probs = (psi.conj() * psi).real
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    n = psi.shape[0].bit_length() - 1
    samples = rng.choice(psi.shape[0], size=shots, p=probs)
    values, freqs = np.unique(samples, return_counts=True)
    return {format(int(v), f"0{n}b"): int(c) for v, c in zip(values, freqs)}

"""Copy-on-write (COW) block storage for per-stage state vectors.

qTask keeps one state vector per gate stage (the paper calls this *per-net
state vector management*, §III.F.2) so that incremental update can restart
from any intermediate result.  Storing every vector densely would be very
expensive, so each stage only materialises the blocks its partitions actually
write; every other block is implicitly inherited from the closest preceding
stage that wrote it (ultimately the |0...0> initial state).  This is the
*copy-on-write data optimization* of §III.F.3.

Blocks are resolved through :class:`BlockDirectory` +
:class:`DirectoryReader`: a simulator-owned index mapping each block id to
the ordered list of stage *owners* that have materialised it.  "Which store
owns block b as of stage k?" is a binary search over b's writers (O(log W),
W = writers of b) instead of an O(S) walk over every earlier stage, and
building a per-stage reader is O(1).  The directory is maintained
incrementally by the stores themselves on every write that adds a block
(stores carry an optional back-reference installed by
:meth:`BlockDirectory.attach`); a store never drops a block, so an owner
leaves the index only when :meth:`BlockDirectory.detach` removes it.

Directory entries are kept sorted by the owner's ``seq`` (its position in the
global stage order).  Stage insertion/removal renumbers seqs, but never
changes the *relative* order of surviving stages, so the per-block sorted
lists stay sorted without any fix-up; removal purges the departing owner's
entries via :meth:`BlockDirectory.detach`.

Writes are single-copy: ``write_block`` copies at most once (``np.asarray``'s
dtype conversion already produces owned memory), and both ``write_block`` and
``write_range`` accept ``copy=False`` for freshly allocated kernel outputs so
publishing a computed run into the store is zero-copy (the store keeps views
of the kernel's output array).

Session forking extends the copy-on-write idea *across* simulators:
:meth:`BlockStore.share_from` adopts every block of another store by
reference (the arrays are marked read-only -- published blocks are immutable
by contract, stores rebind rather than mutate).  The origin store refcounts
each exported block (:attr:`BlockStore.exported_block_refs`), and the first
write to an adopted block in the sharing store simply rebinds the dict entry
to the freshly computed array and drops the reference -- copy-on-first-write
with zero copies at fork time.  :class:`MemoryReport` splits the accounting
into owned and shared bytes so a fleet of forked sessions can demonstrate
sublinear memory growth.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import faults
from .blocks import BlockRange, block_bounds, num_blocks, validate_block_size

__all__ = [
    "BlockStore",
    "InitialStateStore",
    "BlockDirectory",
    "DirectoryReader",
    "MemoryReport",
]

_DTYPE = np.complex128


class BlockStore:
    """Sparse per-stage storage of state-vector blocks.

    Only blocks written by this stage's partitions are present; everything
    else resolves to an earlier store through the :class:`BlockDirectory`.
    """

    def __init__(self, dim: int, block_size: int) -> None:
        self.dim = int(dim)
        self.block_size = validate_block_size(block_size)
        self.n_blocks = num_blocks(self.dim, self.block_size)
        self._blocks: Dict[int, np.ndarray] = {}
        # Every block has the same length: dim is a power of two, so it is
        # either a multiple of the block size or smaller than one block.
        # Precomputing it keeps the hot write path free of per-call
        # block_bounds arithmetic.
        self._block_len = min(self.dim, self.block_size)
        #: optional :class:`BlockDirectory` back-reference (see attach())
        self._directory: Optional["BlockDirectory"] = None
        self._dir_owner: Optional[object] = None
        #: blocks adopted from another store (block id -> origin store);
        #: rebinding such a block on first write releases the origin's ref
        self._shared: Dict[int, "BlockStore"] = {}
        #: per-block count of live references other stores hold to blocks
        #: exported by :meth:`share_from` (mutated under ``_export_lock``:
        #: forked sessions release refs from worker threads)
        self._export_refs: Dict[int, int] = {}
        self._export_lock = threading.Lock()

    # -- cross-store sharing (session forking) ----------------------------

    def share_from(self, other: "BlockStore") -> int:
        """Adopt every block of ``other`` as a shared copy-on-write reference.

        The arrays are shared, not copied: both stores reference the same
        (read-only) memory until this store's first write to a block rebinds
        its entry.  ``other`` refcounts each exported block so memory
        attribution stays honest while forks diverge.  Returns the number of
        blocks adopted.
        """
        if other.dim != self.dim or other.block_size != self.block_size:
            raise ValueError(
                "can only share blocks between stores of identical dim "
                f"and block size, got ({other.dim}, {other.block_size}) "
                f"vs ({self.dim}, {self.block_size})"
            )
        blocks = self._blocks
        new_blocks: List[int] = []
        shared_ids: List[int] = []
        for b, arr in other._blocks.items():
            # Published blocks are immutable by contract (kernels allocate
            # fresh outputs and stores rebind); enforce it for shared memory.
            arr.setflags(write=False)
            if b not in blocks:
                new_blocks.append(b)
            self._release_shared(b)
            blocks[b] = arr
            self._shared[b] = other
            shared_ids.append(b)
        other._export_retain(shared_ids)
        if new_blocks and self._directory is not None:
            self._directory._on_write_many(self._dir_owner, new_blocks)
        return len(shared_ids)

    def _export_retain(self, blocks: Sequence[int]) -> None:
        if not blocks:
            return
        with self._export_lock:
            refs = self._export_refs
            for b in blocks:
                refs[b] = refs.get(b, 0) + 1

    def _export_release(self, block: int) -> None:
        with self._export_lock:
            n = self._export_refs.get(block, 0) - 1
            if n <= 0:
                self._export_refs.pop(block, None)
            else:
                self._export_refs[block] = n

    def _release_shared(self, block: int) -> None:
        """Drop the shared marker of ``block`` (it is being rebound/removed)."""
        if not self._shared:
            return
        origin = self._shared.pop(block, None)
        if origin is not None:
            origin._export_release(block)

    @property
    def shared_block_count(self) -> int:
        """Blocks currently referencing another store's memory."""
        return len(self._shared)

    def shared_bytes(self) -> int:
        """Bytes of :meth:`allocated_bytes` that are shared, not owned."""
        blocks = self._blocks
        return sum(blocks[b].nbytes for b in self._shared)

    def exported_block_refs(self) -> Dict[int, int]:
        """Live per-block reference counts held by sharing stores."""
        with self._export_lock:
            return dict(self._export_refs)

    @property
    def num_exported_blocks(self) -> int:
        with self._export_lock:
            return len(self._export_refs)

    # -- write side -------------------------------------------------------

    def write_block(self, block: int, values: np.ndarray, *, copy: bool = True) -> None:
        """Store the full contents of ``block``.

        By default the values are copied into store-owned memory (at most one
        copy: a dtype conversion already yields a fresh array).  Pass
        ``copy=False`` only for freshly allocated arrays the caller will never
        touch again -- the store then adopts ``values`` (or a view of it)
        without copying.
        """
        # The publish fault site fires before any store mutation, so a
        # failed publish leaves the store exactly as it was and the run
        # that produced ``values`` can simply re-execute.
        if faults.ACTIVE is not None:
            faults.fire("cow.publish")
        arr = np.asarray(values, dtype=_DTYPE)
        if arr.shape != (self._block_len,):
            raise ValueError(
                f"block {block} expects {self._block_len} amplitudes, "
                f"got shape {arr.shape}"
            )
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range [0, {self.n_blocks})")
        blocks = self._blocks
        is_new = block not in blocks
        self._release_shared(block)
        if copy and np.may_share_memory(arr, values):
            arr = arr.copy()
        blocks[block] = arr
        if is_new and self._directory is not None:
            self._directory._on_write(self._dir_owner, block)

    def write_range(self, lo: int, values: np.ndarray, *, copy: bool = True) -> None:
        """Write a block-aligned contiguous range starting at index ``lo``.

        With ``copy=False`` the per-block entries are *views* of ``values``
        (the zero-copy publish path for kernel outputs); the caller must not
        mutate ``values`` afterwards.  With ``copy=True`` the range is copied
        once as a whole, never block by block.  Directory notification is
        batched: one update covers every newly owned block of the range.
        """
        # Fires before any mutation; see write_block.
        if faults.ACTIVE is not None:
            faults.fire("cow.publish")
        if lo % self.block_size != 0:
            raise ValueError(f"range start {lo} is not block aligned")
        arr = np.asarray(values, dtype=_DTYPE)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D amplitude range, got shape {arr.shape}")
        if copy and np.may_share_memory(arr, values):
            arr = arr.copy()
        size = self._block_len
        n = arr.shape[0]
        if n % size != 0:
            raise ValueError(
                f"range of {n} amplitudes is not a whole number of "
                f"{size}-amplitude blocks"
            )
        first = lo // self.block_size
        last = first + n // size - 1
        if not (0 <= first and last < self.n_blocks):
            raise ValueError(
                f"blocks [{first}, {last}] out of range [0, {self.n_blocks})"
            )
        blocks = self._blocks
        new_blocks: List[int] = []
        block = first
        for offset in range(0, n, size):
            if block not in blocks:
                new_blocks.append(block)
            self._release_shared(block)
            blocks[block] = arr[offset : offset + size]
            block += 1
        if new_blocks and self._directory is not None:
            self._directory._on_write_many(self._dir_owner, new_blocks)

    # -- read side --------------------------------------------------------

    def has_block(self, block: int) -> bool:
        return block in self._blocks

    def get_block(self, block: int) -> Optional[np.ndarray]:
        return self._blocks.get(block)

    def stored_blocks(self) -> Tuple[int, ...]:
        return tuple(sorted(self._blocks))

    # -- accounting -------------------------------------------------------

    @property
    def num_stored_blocks(self) -> int:
        return len(self._blocks)

    def allocated_bytes(self) -> int:
        return sum(b.nbytes for b in self._blocks.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockStore(dim={self.dim}, B={self.block_size}, "
            f"stored={self.num_stored_blocks}/{self.n_blocks})"
        )


class InitialStateStore(BlockStore):
    """The |0...0> initial state, materialised lazily block by block.

    Block 0 holds amplitude 1 at index 0; all other blocks are zero.  The
    store never allocates memory unless a block is explicitly requested, so an
    empty circuit costs (almost) nothing.
    """

    def __init__(self, dim: int, block_size: int) -> None:
        super().__init__(dim, block_size)

    def has_block(self, block: int) -> bool:  # every block is defined here
        return 0 <= block < self.n_blocks

    def get_block(self, block: int) -> np.ndarray:
        if not 0 <= block < self.n_blocks:
            raise IndexError(f"block {block} out of range [0, {self.n_blocks})")
        cached = self._blocks.get(block)
        if cached is not None:
            return cached
        lo, hi = block_bounds(block, self.block_size, self.dim)
        arr = np.zeros(hi - lo + 1, dtype=_DTYPE)
        if block == 0:
            arr[0] = 1.0
        self._blocks[block] = arr
        return arr

    def read_dense(self, lo: int, hi: int) -> np.ndarray:
        """Amplitudes of ``[lo, hi]`` in one allocation, without caching blocks.

        Readers that resolve a long run of never-written blocks to the
        initial state use this instead of per-block :meth:`get_block` calls,
        which would materialise (and cache) one zero array per block.
        Blocks already materialised in the cache (tests preload custom
        initial states there) overlay the implicit |0...0>.
        """
        out = np.zeros(hi - lo + 1, dtype=_DTYPE)
        if lo == 0:
            out[0] = 1.0
        for b, arr in self._blocks.items():
            blo, bhi = block_bounds(b, self.block_size, self.dim)
            if bhi < lo or blo > hi:
                continue
            s = max(lo, blo)
            e = min(hi, bhi)
            out[s - lo : e - lo + 1] = arr[s - blo : e - blo + 1]
        return out

    def allocated_bytes(self) -> int:
        # The initial state is conceptually free; cached zero blocks are an
        # implementation detail and excluded from the accounting.
        return 0


class _ResolvingReader:
    """The read side of block resolution.

    Subclasses provide ``dim``/``block_size``/``n_blocks`` attributes and a
    single ``resolve_store`` method; range reads, gathers and full-vector
    materialisation derive from it.  Range reads batch maximal same-owner
    block runs: a run of never-written blocks becomes one dense zero
    allocation (:meth:`InitialStateStore.read_dense`).
    """

    __slots__ = ()

    def resolve_store(self, block: int) -> BlockStore:
        """The store holding the current contents of ``block``."""
        raise NotImplementedError

    def resolve_block(self, block: int) -> np.ndarray:
        got = self.resolve_store(block).get_block(block)
        assert got is not None
        return got

    def _check_range(self, lo: int, hi: int) -> None:
        if lo < 0 or hi >= self.dim or lo > hi:
            raise ValueError(f"invalid index range [{lo}, {hi}] for dim {self.dim}")

    def owner_runs(
        self, first: int, last: int
    ) -> Iterator[Tuple[BlockStore, int, int]]:
        """Maximal runs ``(store, first_block, last_block)`` of same-owner blocks."""
        run_store: Optional[BlockStore] = None
        run_first = first
        for b in range(first, last + 1):
            store = self.resolve_store(b)
            if store is not run_store:
                if run_store is not None:
                    yield run_store, run_first, b - 1
                run_store, run_first = store, b
        if run_store is not None:
            yield run_store, run_first, last

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Return amplitudes for the inclusive index range ``[lo, hi]``."""
        self._check_range(lo, hi)
        block_size = self.block_size
        first = lo // block_size
        last = hi // block_size
        parts: List[np.ndarray] = []
        for store, rf, rl in self.owner_runs(first, last):
            if isinstance(store, InitialStateStore):
                # whole run in one allocation, no per-block zero caching
                rlo = max(lo, rf * block_size)
                rhi = min(hi, (rl + 1) * block_size - 1, self.dim - 1)
                parts.append(store.read_dense(rlo, rhi))
                continue
            for b in range(rf, rl + 1):
                blk = store.get_block(b)
                blo, bhi = block_bounds(b, block_size, self.dim)
                s = max(lo, blo) - blo
                e = min(hi, bhi) - blo
                parts.append(blk[s : e + 1])
        if len(parts) == 1:
            return np.array(parts[0], copy=True)
        return np.concatenate(parts)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Fancy-indexed read of arbitrary amplitude indices."""
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty(idx.shape, dtype=_DTYPE)
        if idx.size == 0:
            return out
        blocks = idx // self.block_size
        order = np.argsort(blocks, kind="stable")
        sorted_idx = idx[order]
        sorted_blocks = blocks[order]
        boundaries = np.flatnonzero(np.diff(sorted_blocks)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [idx.size]))
        for s, e in zip(starts, ends):
            b = int(sorted_blocks[s])
            blk = self.resolve_block(b)
            local = sorted_idx[s:e] - b * self.block_size
            out[order[s:e]] = blk[local]
        return out

    def full_vector(self) -> np.ndarray:
        """Materialise the whole state vector (mostly for queries/tests)."""
        return self.read_range(0, self.dim - 1)


class BlockDirectory:
    """Index of block ownership across all stages of one simulator.

    For every block id the directory keeps the list of *owners* (objects
    exposing ``.seq`` and ``.store``, in practice stages) whose store
    currently holds that block, sorted by ``seq``.  Resolution "as of"
    sequence ``k`` is a binary search for the rightmost owner with
    ``seq < k``; blocks nobody wrote fall back to the initial state.

    Maintenance is push-based: :meth:`attach` installs a back-reference on
    the owner's store, whose ``write_block``/``write_range``/``share_from``
    then report newly held blocks.  Entries survive stage re-sequencing because
    insertion/removal never reorders surviving stages relative to each
    other, so seq-sorted lists stay sorted under renumbering.

    Mutations take a lock; lookups are lock-free, which is safe because an
    update runs its stages in topological order, so every write of a block
    lands before any read that must see it.
    """

    def __init__(self, initial: BlockStore) -> None:
        self.initial = initial
        self.dim = initial.dim
        self.block_size = initial.block_size
        self.n_blocks = initial.n_blocks
        self._writers: Dict[int, List[object]] = {}
        self._lock = threading.Lock()

    # -- owner lifecycle --------------------------------------------------

    def attach(self, owner) -> None:
        """Start tracking ``owner.store`` (adopting any blocks it holds)."""
        store = owner.store
        store._directory = self
        store._dir_owner = owner
        for b in store.stored_blocks():
            self._on_write(owner, b)

    def detach(self, owner) -> None:
        """Stop tracking ``owner.store`` and purge its entries."""
        store = owner.store
        store._directory = None
        store._dir_owner = None
        with self._lock:
            for b in store.stored_blocks():
                lst = self._writers.get(b)
                if lst is not None and owner in lst:
                    lst.remove(owner)

    # -- store callbacks --------------------------------------------------

    @staticmethod
    def _bisect_seq(lst: List[object], seq: int) -> int:
        """Index of the first owner with ``.seq >= seq`` (bisect_left by seq).

        Hand-rolled because :func:`bisect.bisect_left` only grew ``key=`` in
        Python 3.10 and this package supports 3.9.
        """
        lo, hi = 0, len(lst)
        while lo < hi:
            mid = (lo + hi) >> 1
            if lst[mid].seq < seq:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _insert_sorted(self, lst: List[object], owner) -> None:
        # Fast path: owners usually arrive in seq order (stage execution,
        # fork adoption), making the insert a plain append.
        if not lst or lst[-1].seq < owner.seq:
            lst.append(owner)
            return
        lst.insert(self._bisect_seq(lst, owner.seq), owner)

    def _on_write(self, owner, block: int) -> None:
        with self._lock:
            lst = self._writers.get(block)
            if lst is None:
                lst = self._writers[block] = []
            if owner not in lst:
                self._insert_sorted(lst, owner)

    def _on_write_many(self, owner, blocks: Sequence[int]) -> None:
        writers = self._writers
        with self._lock:
            for block in blocks:
                lst = writers.get(block)
                if lst is None:
                    writers[block] = [owner]
                elif owner not in lst:
                    self._insert_sorted(lst, owner)

    # -- resolution -------------------------------------------------------

    def resolve_store(self, block: int, before_seq: int) -> BlockStore:
        """The store owning ``block`` as of stage sequence ``before_seq``.

        O(log W) in the number of writers of the block; falls back to the
        initial-state store when no stage with ``seq < before_seq`` holds it.
        Stores never drop a block, so every listed writer holds it.
        """
        lst = self._writers.get(block)
        if lst:
            lo = self._bisect_seq(lst, before_seq)
            if lo:
                return lst[lo - 1].store
        return self.initial

    def writers_of(self, block: int) -> Tuple[object, ...]:
        """The current owners of ``block`` in seq order (for introspection)."""
        return tuple(self._writers.get(block, ()))


class DirectoryReader(_ResolvingReader):
    """A :class:`StateReader` view of a directory "as of" one stage.

    Construction is O(1) and every block lookup is an O(log W) directory
    resolution.  ``before_seq`` is exclusive: a stage reads the output of
    stages strictly before it.
    """

    __slots__ = ("directory", "before_seq", "dim", "block_size", "n_blocks")

    def __init__(self, directory: BlockDirectory, before_seq: int) -> None:
        self.directory = directory
        self.before_seq = before_seq
        self.dim = directory.dim
        self.block_size = directory.block_size
        self.n_blocks = directory.n_blocks

    def resolve_store(self, block: int) -> BlockStore:
        return self.directory.resolve_store(block, self.before_seq)


@dataclass(frozen=True)
class MemoryReport:
    """Logical memory accounting of a simulator's COW stores.

    ``allocated_bytes`` counts every block the stores reference;
    ``shared_bytes`` is the part referencing another session's memory
    (blocks adopted by :meth:`BlockStore.share_from` and not yet rewritten),
    so ``owned_bytes`` is the marginal footprint of this session -- the
    number a fleet of forked sessions sums to show sublinear memory growth.
    """

    num_stores: int
    stored_blocks: int
    total_blocks: int
    allocated_bytes: int
    dense_bytes: int
    shared_blocks: int = 0
    shared_bytes: int = 0

    @property
    def owned_bytes(self) -> int:
        """Bytes owned outright (allocated minus shared-with-a-parent)."""
        return self.allocated_bytes - self.shared_bytes

    @property
    def savings_fraction(self) -> float:
        """Fraction of dense (non-COW) storage avoided, in [0, 1]."""
        if self.dense_bytes == 0:
            return 0.0
        return 1.0 - self.allocated_bytes / self.dense_bytes

    @property
    def allocated_gib(self) -> float:
        return self.allocated_bytes / 2**30

    @staticmethod
    def from_stores(stores: Iterable[BlockStore]) -> "MemoryReport":
        stores = list(stores)
        stored = sum(s.num_stored_blocks for s in stores)
        total = sum(s.n_blocks for s in stores)
        alloc = sum(s.allocated_bytes() for s in stores)
        dense = sum(s.dim * np.dtype(_DTYPE).itemsize for s in stores)
        shared = sum(s.shared_block_count for s in stores)
        shared_b = sum(s.shared_bytes() for s in stores)
        return MemoryReport(
            num_stores=len(stores),
            stored_blocks=stored,
            total_blocks=total,
            allocated_bytes=alloc,
            dense_bytes=dense,
            shared_blocks=shared,
            shared_bytes=shared_b,
        )

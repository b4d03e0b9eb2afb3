"""Chunking helper for parallel-for loops.

The paper describes intra-gate operation parallelism as "a parallel-for with
chunk size equal to our block size" (§III.C).  :func:`chunk_indices` splits
an index space into those chunks; callers map their work over the chunks
with an executor.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["chunk_indices"]


def chunk_indices(total: int, chunk: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``(start, stop)`` chunks of size ``chunk``."""
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    return [(s, min(total, s + chunk)) for s in range(0, total, chunk)]

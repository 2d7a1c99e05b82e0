"""Columnar pair mining: the frequent pairs of a trace in one numpy pass.

The paper's matcher needs only pair mining (§IV-A): the frequent pairs
of the previous interval.  :func:`mine_pairs` returns exactly what
``apriori(transactions_from_arrays(arrivals, blocks, window_ms),
min_support, max_size=2)`` returns -- the same itemsets, supports,
transaction count and ``min_support`` -- without building a
transaction list or touching a pair in Python:

1. :func:`~repro.mining.transactions.window_runs` sorts the reads by
   arrival (stable) and numbers their transactions with the builder's
   own windowing formula;
2. blocks are coded by dense rank (so negative and huge ids stay
   exact) and each ``(transaction, block)`` cell is kept once -- a
   transaction is a set;
3. inside each transaction the cells are rank-sorted, so every cell
   pairs with each later cell of its transaction: ``repeat``/``cumsum``
   index arithmetic lists those pairs and ``np.unique`` counts them.

A pair's support never exceeds either item's, so counting every pair
and keeping those at ``min_support`` is Apriori's level-2 result; the
columns come out in :meth:`~repro.mining.itemsets.ItemsetCounts.pairs`
order.  The identity is pinned by a hypothesis property against
``apriori`` (``tests/mining/test_pair_kernel_identity.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.mining.itemsets import ItemsetCounts
from repro.mining.transactions import window_runs
from repro.traces.records import Trace

__all__ = ["mine_pairs", "mine_trace_pairs"]


def mine_pairs(arrivals_ms: Sequence[float], blocks: Sequence[int],
               window_ms: float, min_support: int = 1) -> ItemsetCounts:
    """Frequent singletons and pairs of ``window_ms`` transactions.

    Equal to ``apriori(transactions_from_arrays(arrivals_ms, blocks,
    window_ms), min_support, max_size=2)``; the result is
    column-backed (:meth:`ItemsetCounts.from_columns`).  It holds one
    code per in-window pair occurrence (``g(g-1)/2`` for a window of
    ``g`` distinct blocks), exact in ``int64`` below 2**31 reads.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    blk, txn = window_runs(arrivals_ms, blocks, window_ms)
    n_txns = int(txn[-1]) + 1 if len(txn) else 0
    ids, rank = np.unique(blk, return_inverse=True)
    m = max(ids.size, 1)
    txn, item = np.divmod(np.unique(txn * m + rank), m)
    item_support = np.bincount(item, minlength=ids.size)

    # cell i pairs with every later cell of its transaction
    size = np.bincount(txn)
    later = np.repeat(np.cumsum(size), size) - np.arange(item.size) - 1
    left = np.repeat(np.arange(item.size), later)
    start = np.repeat(np.cumsum(later) - later, later)
    right = left + 1 + np.arange(left.size) - start
    codes, support = np.unique(item[left] * m + item[right],
                               return_counts=True)
    a, b = np.divmod(codes, m)

    frequent = item_support >= min_support
    keep = support >= min_support
    a, b, support = ids[a[keep]], ids[b[keep]], support[keep]
    order = np.lexsort((b, a, -support))
    return ItemsetCounts.from_columns(
        ids[frequent], item_support[frequent],
        a[order], b[order], support[order],
        n_transactions=n_txns, min_support=min_support)


def mine_trace_pairs(trace: Trace, window_ms: float,
                     min_support: int = 1) -> ItemsetCounts:
    """:func:`mine_pairs` over a trace's reads (as in the paper)."""
    reads = trace.reads_only()
    return mine_pairs(reads.arrival_ms, reads.block, window_ms,
                      min_support)

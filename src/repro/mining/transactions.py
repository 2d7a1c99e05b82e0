"""Building transaction databases from traces (paper §IV-A).

"We first investigate the trace of the storage system and determine the
data blocks that are requested within a short time interval T."  Each
``T``-window of the trace becomes one transaction: the *set* of
distinct blocks requested in that window.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.traces.records import Trace

__all__ = ["transactions_from_trace", "transactions_from_arrays",
           "window_index", "window_runs"]

Transaction = FrozenSet[int]


def window_index(arrivals_ms: np.ndarray, base_ms: float,
                 window_ms: float) -> np.ndarray:
    """The ``window_ms`` window of each arrival, counted from ``base_ms``.

    The one windowing formula of the package: the batch builder, the
    pair kernel (:mod:`repro.mining.pairs`) and the streaming windower
    all call it, so they agree on every arrival, edges included.
    """
    return ((arrivals_ms - base_ms) / window_ms + 1e-9).astype(np.int64)


def window_runs(arrivals_ms: Sequence[float], blocks: Sequence[int],
                window_ms: float) -> Tuple[np.ndarray, np.ndarray]:
    """Arrival-sorted blocks and the transaction each one falls in.

    Requests are stably sorted by arrival and windowed from the first
    arrival; consecutive requests in the same window form one
    transaction, numbered from 0.  Returns ``(blocks, txn)``, both
    ``int64`` and aligned.
    """
    if window_ms <= 0:
        raise ValueError("window_ms must be positive")
    arr = np.asarray(arrivals_ms, dtype=np.float64)
    blk = np.asarray(blocks, dtype=np.int64)
    if len(arr) != len(blk):
        raise ValueError("arrivals and blocks must align")
    if len(arr) == 0:
        return blk.reshape(0), np.zeros(0, dtype=np.int64)
    order = np.argsort(arr, kind="stable")
    arr, blk = arr[order], blk[order]
    win = window_index(arr, arr[0], window_ms)
    txn = np.zeros(len(win), dtype=np.int64)
    np.cumsum(win[1:] != win[:-1], out=txn[1:])
    return blk, txn


def transactions_from_arrays(arrivals_ms: Sequence[float],
                             blocks: Sequence[int],
                             window_ms: float) -> List[Transaction]:
    """Group ``blocks`` into transactions by ``window_ms`` windows.

    Windows are aligned to the first arrival; empty windows produce no
    transaction; duplicate blocks inside a window collapse (sets).
    """
    blk, txn = window_runs(arrivals_ms, blocks, window_ms)
    if len(blk) == 0:
        return []
    bounds = [0] + (np.flatnonzero(txn[1:] != txn[:-1]) + 1).tolist() \
        + [len(blk)]
    items = blk.tolist()
    return [frozenset(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def transactions_from_trace(trace: Trace,
                            window_ms: float) -> List[Transaction]:
    """Transactions of a :class:`Trace` (reads only, as in the paper)."""
    reads = trace.reads_only()
    return transactions_from_arrays(reads.arrival_ms, reads.block,
                                    window_ms)

"""Stacked FCFS evaluation: many constant-rate queues in one numpy pass.

On the paper's default array every module is a deterministic
constant-rate FCFS server, so a queue's completion times are the
Lindley recurrence

.. math::

    c_i = \\max(u_i, c_{i-1}) + s_i

with ``u_i`` the issue times and ``s_i`` the service times.  Sweeps
evaluate hundreds of such queues -- trials x intervals x modules -- so
this module stacks them: all independent FCFS queues are concatenated
into one ragged array (`issue`, `offsets` in CSR style) and the
recurrence runs over the whole stack at once -- one busy-period
location pass, one verification pass, one accumulate loop over busy
periods.  A single queue is the one-stream case (``offsets = [0,
n]``).

Exactness contract
------------------
Results are **bit-identical** to the scalar recurrence (and therefore
to the DES).  The textbook vectorization ``c_i = S_i + max_{j<=i}(u_j
- S_{j-1})`` (``S`` the running service sum) re-associates the
floating-point additions, so it is used only to *locate* busy
periods; each busy period is then replayed with ``np.add.accumulate``
-- strict left-to-right addition, the event loop's exact operation
sequence -- and the located boundaries are verified against the exact
completions, falling back to the per-stream sequential recurrence
wherever a boundary moved.  The locator may be sloppy (it shifts
streams by large constants to run one global cumulative maximum); the
verifier is not.

Per-item service times are supported (mixed read/write queues): within
a busy period the recurrence is still plain repeated addition
``c_i = c_{i-1} + s_i``, so the same accumulate trick stays exact.

:func:`played_metrics` is the other half of sweep cost: per-cell
request metrics folded with numpy instead of per-request Python
loops, reproducing the reference loop's float additions exactly
(``np.add.accumulate`` again -- not ``np.sum``, whose pairwise
reassociation could drift a rounded golden digit).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "stacked_fcfs_completion_times",
    "stream_offsets",
    "sequential_sum",
    "played_metrics",
]


def stream_offsets(stream_ids, n_streams: int):
    """Group items into concatenated streams (CSR layout).

    Parameters
    ----------
    stream_ids:
        Per-item stream index (e.g. the device a request was issued
        to), in issue order.
    n_streams:
        Total stream count.

    Returns
    -------
    (order, offsets):
        ``order`` stably sorts items by stream (preserving per-stream
        FIFO order); ``offsets`` has length ``n_streams + 1`` with
        stream ``s`` occupying ``order[offsets[s]:offsets[s+1]]``.
    """
    ids = np.ascontiguousarray(stream_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids, minlength=n_streams)
    offsets = np.zeros(n_streams + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return order, offsets


def _locate_starts(u: np.ndarray, svc: np.ndarray,
                   offsets: np.ndarray) -> np.ndarray:
    """Candidate busy-period start flags for every stacked stream.

    Uses the closed-form locator ``c_i = S_i + max_{j<=i}(u_j -
    S_{j-1})`` (``S`` the running service sum) evaluated with one
    global cumulative maximum: each stream is shifted by a constant
    large enough to dominate the previous streams' keys, which makes
    the global ``np.maximum.accumulate`` segment-local.  The shifts
    cost precision -- acceptable because every boundary is verified
    against the exact completions afterwards.
    """
    n = u.size
    lengths = np.diff(offsets)
    starts = np.zeros(n, dtype=bool)
    starts[offsets[:-1][lengths > 0]] = True
    if n == 1 or np.all(lengths <= 1):
        return starts  # single item or all-singleton streams
    cs = np.cumsum(svc)
    base = np.repeat(cs[offsets[:-1][lengths > 0]] -
                     svc[offsets[:-1][lengths > 0]], lengths[lengths > 0])
    run = cs - base                      # within-stream inclusive cumsum
    key = u - (run - svc)                # u_j - S_{j-1}
    span = float(np.max(key) - np.min(key)) + 1.0
    if not np.isfinite(span):
        span = 1.0
    stream_of = np.repeat(np.arange(offsets.size - 1,
                                    dtype=np.float64)[lengths > 0],
                          lengths[lengths > 0])
    shifted = np.maximum.accumulate(key + stream_of * span)
    approx = (shifted - stream_of * span) + run
    starts[1:] |= u[1:] > approx[:-1]
    starts[offsets[:-1][lengths > 0]] = True
    return starts


def _accumulate(u: np.ndarray, svc: np.ndarray,
                starts: np.ndarray) -> np.ndarray:
    """Exact completions given busy-period starts (variable service).

    Within a busy period the recurrence degenerates to
    ``c_a = u_a + s_a; c_i = c_{i-1} + s_i`` -- reproduced exactly by
    ``np.add.accumulate``'s strict left-to-right accumulation.
    """
    n = u.size
    out = np.empty(n, dtype=np.float64)
    bounds = np.flatnonzero(starts)
    ends = np.append(bounds[1:], n)
    single = (ends - bounds) == 1
    lone = bounds[single]
    out[lone] = u[lone] + svc[lone]
    for a, b in zip(bounds[~single], ends[~single]):
        seg = svc[a:b].copy()
        seg[0] = u[a] + svc[a]
        np.add.accumulate(seg, out=out[a:b])
    return out


def _sequential_var(u: np.ndarray, svc: np.ndarray) -> np.ndarray:
    """Reference scalar recurrence with per-item service (exact)."""
    out = np.empty_like(u)
    prev = -np.inf
    for i in range(u.size):
        t = u[i]
        prev = (t if t > prev else prev) + svc[i]
        out[i] = prev
    return out


def stacked_fcfs_completion_times(issue_ms, offsets,
                                  service_ms) -> np.ndarray:
    """Completion times for a whole stack of independent FCFS streams.

    Parameters
    ----------
    issue_ms:
        Concatenated nondecreasing-within-stream issue times.
    offsets:
        ``n_streams + 1`` stream boundaries (CSR style), e.g. from
        :func:`stream_offsets`.
    service_ms:
        Scalar (homogeneous) or per-item service times.

    Returns
    -------
    numpy.ndarray
        Stacked completions, each stream bit-identical to the scalar
        recurrence (:func:`_sequential_var`) on that stream alone.
    """
    u = np.ascontiguousarray(issue_ms, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("issue times must be one-dimensional")
    offs = np.ascontiguousarray(offsets, dtype=np.intp)
    n = u.size
    if offs.size < 2 or offs[0] != 0 or offs[-1] != n or \
            np.any(np.diff(offs) < 0):
        raise ValueError("offsets must be a CSR boundary array")
    if n == 0:
        return np.empty(0, dtype=np.float64)
    svc = np.asarray(service_ms, dtype=np.float64)
    if svc.ndim == 0:
        svc = np.full(n, float(svc))
    elif svc.shape != u.shape:
        raise ValueError("per-item service must align with issue times")
    if np.any(svc < 0):
        raise ValueError("service times must be >= 0")
    interior = np.ones(n, dtype=bool)
    interior[offs[:-1][np.diff(offs) > 0]] = False
    if np.any(u[interior] < u[np.flatnonzero(interior) - 1]):
        raise ValueError("issue times must be nondecreasing per stream")
    starts = _locate_starts(u, svc, offs)
    out = _accumulate(u, svc, starts)
    # Verify every located boundary against the exact completions;
    # re-run streams where ulp drift (or the locator's shifts) moved
    # one.  starts[i] must equal (u[i] > out[i-1]) at interior items.
    idx = np.flatnonzero(interior)
    bad = idx[(u[idx] > out[idx - 1]) != starts[idx]]
    if bad.size:
        for s in np.unique(np.searchsorted(offs, bad, side="right") - 1):
            a, b = offs[s], offs[s + 1]
            out[a:b] = _sequential_var(u[a:b], svc[a:b])
    return out


def sequential_sum(values) -> float:
    """Left-to-right float sum, identical to Python's ``sum`` loop.

    ``np.add.accumulate`` performs the same strict sequential
    additions the reference per-request loops do; ``np.sum``'s
    pairwise reassociation would not.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.add.accumulate(arr)[-1])


def played_metrics(played: Sequence, guarantee_ms: float,
                   ) -> Tuple[float, float, float, float]:
    """Degraded-mode cell metrics over one play-through, in bulk.

    Returns ``(avg_ms, pct_delayed, failed, violation_rate)`` exactly
    as the reference per-request loops compute them (the faults
    experiment's row shape): served = not rejected and not failed;
    violations = failures + guarantee misses among served;
    percentages over served + failed.
    """
    n = len(played)
    if n == 0:
        return 0.0, 0.0, 0.0, 0.0
    rejected = np.fromiter((p.rejected for p in played), dtype=bool,
                           count=n)
    failed = np.fromiter((p.failed for p in played), dtype=bool,
                         count=n)
    served = ~rejected & ~failed
    response = np.fromiter(
        (p.io.response_ms if s else 0.0
         for p, s in zip(played, served)), dtype=np.float64, count=n)
    delayed = np.fromiter((p.delayed for p in played), dtype=bool,
                          count=n)
    n_served = int(np.count_nonzero(served))
    n_failed = int(np.count_nonzero(failed))
    considered = n_served + n_failed
    violations = n_failed + int(np.count_nonzero(
        served & (response > guarantee_ms + 1e-9)))
    avg_ms = (sequential_sum(response[served]) / n_served
              if n_served else 0.0)
    pct_delayed = (100.0 * int(np.count_nonzero(delayed & served))
                   / considered if considered else 0.0)
    rate = violations / considered if considered else 0.0
    return avg_ms, pct_delayed, float(n_failed), rate

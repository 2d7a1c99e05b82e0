"""I/O-driver response-time accounting.

The paper compares allocation schemes "with respect to their I/O driver
response times, which is defined as the time between sending the I/O
request and receiving the corresponding response" (§V-C1).  This module
accumulates those samples and reports the avg / std / max rows of
Table III as well as per-interval series for Figures 8-10 and 12.

Storage is *bounded*: instead of keeping every sample in a Python
list, :class:`ResponseStats` folds samples into a mergeable log-bucket
histogram (:class:`repro.obs.metrics.Histogram`) plus exact streaming
moments (error-free Shewchuk accumulation of ``x - K`` and
``(x - K)**2``, shifted by the first recorded sample ``K`` so
constant-latency runs report a standard deviation of exactly zero).

The state contract, which the identity tests and determinism probes
hash through :meth:`ResponseStats.state`:

* A recording's state is a function of its sample multiset plus its
  first recorded sample ``K``.  The DES and the vectorized fast path
  record the same samples, so they expose bit-identical statistics.
* Counts, the histogram, min/max and the exact sums (delay and
  histogram sums) do not depend on how samples are grouped or merged.
* The moments of a *merged* object carry rounded re-shift terms
  (:meth:`ResponseStats.merge`), so avg/std of a merge may differ in
  the last ulp from one recording of the concatenated samples.  The
  same merge tree always gives the same state.

Recording stays cheap on the hot path: :meth:`ResponseStats.record`
only appends to a pending buffer; folding happens on first read or
when the buffer reaches :data:`FOLD_THRESHOLD`.
:class:`IntervalSeries` goes further and keeps no per-interval object
at all until one is read: it appends samples to columns and reduces
them from one sorted table.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import ExactSum, Histogram

__all__ = ["ResponseStats", "IntervalSeries", "FOLD_THRESHOLD"]

#: fold the pending sample buffer into the histogram/moments once it
#: reaches this many entries (bounds memory without changing results:
#: the fold state is order- and grouping-independent)
FOLD_THRESHOLD = 32768


class ResponseStats:
    """Streaming response-time statistics (bounded memory).

    Samples are recorded via :meth:`record` (scalar) or
    :meth:`record_array` (vectorized); summaries read from the folded
    histogram-plus-moments state, never from a stored sample list.
    Percentiles other than 0 and 100 are therefore log-bucket
    estimates (within one bucket width, ~3.9 % relative); avg, std,
    max, min and the delay accounting remain exact.
    """

    __slots__ = ("n_total", "n_delayed", "_pending", "_hist",
                 "_shift", "_m1", "_m2", "_delay_sum")

    def __init__(self):
        self.n_total = 0
        self.n_delayed = 0
        self._pending: List[float] = []
        self._hist: Optional[Histogram] = None
        self._shift: Optional[float] = None
        self._m1 = ExactSum()
        self._m2 = ExactSum()
        self._delay_sum = ExactSum()

    # -- recording -------------------------------------------------------
    def record(self, response_ms: float, delay_ms: float = 0.0) -> None:
        """Record one completed request.

        Parameters
        ----------
        response_ms:
            Time from (re)issue to completion.
        delay_ms:
            Admission delay before issue; > 0 marks the request as
            *delayed* for the Figure 8(c,d) accounting.
        """
        self._pending.append(response_ms)
        self.n_total += 1
        if delay_ms > 0:
            self._delay_sum.add(delay_ms)
            self.n_delayed += 1
        if len(self._pending) >= FOLD_THRESHOLD:
            self._fold()

    def record_array(self, responses: np.ndarray,
                     delays: Optional[np.ndarray] = None) -> None:
        """Vectorized record: ``responses`` (and aligned ``delays``,
        where positive entries mark delayed requests)."""
        arr = np.ascontiguousarray(responses, dtype=np.float64)
        if arr.size == 0:
            return
        self._pending.extend(arr.tolist())
        self.n_total += int(arr.size)
        if delays is not None:
            d = np.ascontiguousarray(delays, dtype=np.float64)
            d = d[d > 0]
            self.n_delayed += int(d.size)
            for value in d.tolist():
                self._delay_sum.add(value)
        if len(self._pending) >= FOLD_THRESHOLD:
            self._fold()

    def _fold(self) -> None:
        if not self._pending:
            return
        arr = np.asarray(self._pending, dtype=np.float64)
        self._pending = []
        if self._hist is None:
            self._hist = Histogram()
        self._hist.record_array(arr)
        if self._shift is None:
            self._shift = float(arr[0])
        centred = arr - self._shift
        self._m1.add_many(centred.tolist())
        self._m2.add_many((centred * centred).tolist())

    # -- summary ---------------------------------------------------------
    @property
    def avg(self) -> float:
        self._fold()
        if self.n_total == 0 or self._shift is None:
            return 0.0
        return self._shift + self._m1.value / self.n_total

    @property
    def std(self) -> float:
        self._fold()
        if self.n_total == 0:
            return 0.0
        mean_centred = self._m1.value / self.n_total
        var = self._m2.value / self.n_total - mean_centred * mean_centred
        return math.sqrt(var) if var > 0 else 0.0

    @property
    def max(self) -> float:
        self._fold()
        return self._hist.max if self._hist is not None else 0.0

    @property
    def min(self) -> float:
        self._fold()
        return self._hist.min if self._hist is not None else 0.0

    def histogram(self) -> Optional[Histogram]:
        """The folded response-time histogram (None when empty)."""
        self._fold()
        return self._hist

    def percentile(self, q: float) -> float:
        """Response-time percentile ``q`` in [0, 100].

        Exact at 0 and 100 (tracked min/max); elsewhere a log-bucket
        estimate within one bucket width of the sample percentile.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        self._fold()
        if self._hist is None:
            return 0.0
        return self._hist.quantile(q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def avg_delay(self) -> float:
        """Mean delay over *delayed* requests only (paper Fig 8c)."""
        if self.n_delayed == 0:
            return 0.0
        return self._delay_sum.value / self.n_delayed

    @property
    def pct_delayed(self) -> float:
        """Percentage of requests that were delayed (paper Fig 8d)."""
        return 100.0 * self.n_delayed / self.n_total if self.n_total else 0.0

    def summary(self) -> Dict[str, float]:
        """The Table III row for this run."""
        return {"avg": self.avg, "std": self.std, "max": self.max,
                "avg_delay": self.avg_delay,
                "pct_delayed": self.pct_delayed, "n": float(self.n_total)}

    # -- identity / merging ---------------------------------------------
    def state(self) -> Tuple:
        """Full comparable state.

        Two stats objects that recorded the same multiset of samples
        with the same first sample -- in any later order and fold
        chunking, through either playback engine -- have equal state;
        the fastpath identity tests and the determinism probes
        compare/hash exactly this.  After a :meth:`merge` the moments
        also hold the rounded re-shift terms, so a merged object need
        not equal one recording of the concatenated samples.
        """
        self._fold()
        return (self.n_total, self.n_delayed, self._shift,
                self._m1.value, self._m2.value, self._delay_sum.value,
                self._hist.state() if self._hist is not None else None)

    def merge(self, other: "ResponseStats") -> None:
        """Fold another stats object in (used by interval roll-ups and
        the parallel runner's cross-process aggregation).

        Counts, histogram and delay sum merge exactly.  The moments
        keep this side's shift ``K``; when the other side's shift
        differs by ``d``, three rounded terms re-shift its moments:
        ``n*d`` onto the first and ``2*d*v`` plus ``n*d*d`` onto the
        second (``v`` is the other side's rounded first moment).
        """
        other._fold()
        self._fold()
        self.n_total += other.n_total
        self.n_delayed += other.n_delayed
        self._delay_sum.merge(other._delay_sum)
        if other._hist is None:
            return
        if self._hist is None:
            self._hist = Histogram()
        self._hist.merge(other._hist)
        n = other.n_total
        if self._shift is None:
            self._shift = other._shift
            self._m1.merge(other._m1)
            self._m2.merge(other._m2)
            return
        # re-shift the other side's moments from its K to ours:
        #   sum(x - Ks)   = sum(x - Ko) + n * (Ko - Ks)
        #   sum((x-Ks)^2) = sum((x-Ko)^2) + 2d*sum(x-Ko) + n*d^2
        delta = (other._shift - self._shift) \
            if other._shift is not None else 0.0
        self._m1.merge(other._m1)
        self._m2.merge(other._m2)
        if delta:
            self._m1.add(n * delta)
            self._m2.add(2.0 * delta * other._m1.value)
            self._m2.add(n * delta * delta)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (length ``len(counts) + 1``) of segment sizes."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _assemble(x: np.ndarray, delays: np.ndarray, shift: float,
              m1_terms: np.ndarray, m2_terms: np.ndarray,
              ) -> ResponseStats:
    """A folded :class:`ResponseStats` with the given samples and
    moment terms: its state is what recording ``x`` with shift
    ``shift`` (plus any merges behind the terms) would give."""
    st = ResponseStats()
    st.n_total = int(x.size)
    delayed = delays[delays > 0]
    st.n_delayed = int(delayed.size)
    st._delay_sum.add_many(delayed.tolist())
    st._hist = Histogram()
    st._hist.record_array(x)
    st._shift = float(shift)
    st._m1.add_many(m1_terms.tolist())
    st._m2.add_many(m2_terms.tolist())
    return st


class _Table:
    """Sealed samples of an :class:`IntervalSeries`, sorted by interval.

    Per interval ``i`` (ascending ``ids``): ``n[i]`` samples in
    ``x``/``delay``/``c`` from ``starts[i]``, shift ``K[i]``, and the
    re-shift terms merges added to its first (``e1``) and second
    (``e2``) moment, in CSR form.  ``c`` is each sample's centred
    value ``x - K`` against the shift of the series it was recorded
    in, so interval ``i``'s moment terms are ``c``, ``c*c`` plus its
    ``e1``/``e2`` segments.  Tables are never modified in place.
    """

    __slots__ = ("ids", "n", "K", "x", "delay", "c", "e1", "e2",
                 "starts", "e1_starts", "e2_starts")

    def __init__(self, ids, n, K, x, delay, c, e1, e1_n, e2, e2_n):
        self.ids, self.n, self.K = ids, n, K
        self.x, self.delay, self.c = x, delay, c
        self.e1, self.e2 = e1, e2
        self.starts = _offsets(n)
        self.e1_starts = _offsets(e1_n)
        self.e2_starts = _offsets(e2_n)

    @classmethod
    def from_samples(cls, intervals: np.ndarray, x: np.ndarray,
               delay: np.ndarray, base: Optional["_Table"]) -> "_Table":
        """Samples in record order, centred on each interval's first
        sample -- or on ``base``'s shift where ``base`` already holds
        the interval, as recording more into it would."""
        order = np.argsort(intervals, kind="stable")
        intervals, x, delay = intervals[order], x[order], delay[order]
        first = np.flatnonzero(np.r_[True, intervals[1:] != intervals[:-1]])
        ids = intervals[first]
        n = np.diff(np.r_[first, intervals.size])
        K = x[first]
        if base is not None:
            pos = np.minimum(np.searchsorted(base.ids, ids),
                             base.ids.size - 1)
            held = base.ids[pos] == ids
            K[held] = base.K[pos[held]]
        none = np.zeros(ids.size, dtype=np.int64)
        return cls(ids, n, K, x, delay, x - np.repeat(K, n),
                   np.zeros(0), none, np.zeros(0), none)

    def first_moments(self, idx: np.ndarray) -> np.ndarray:
        """Correctly rounded first moment of each interval in ``idx``
        (what ``ResponseStats._m1.value`` would read)."""
        if idx.size == 0:
            return np.zeros(0)
        c, e1 = self.c.tolist(), self.e1.tolist()
        s, es = self.starts.tolist(), self.e1_starts.tolist()
        return np.array([math.fsum(c[s[i]:s[i + 1]] + e1[es[i]:es[i + 1]])
                         for i in idx.tolist()], dtype=np.float64)

    def stats(self, i: int) -> ResponseStats:
        seg = slice(self.starts[i], self.starts[i + 1])
        c = self.c[seg]
        e1 = self.e1[self.e1_starts[i]:self.e1_starts[i + 1]]
        e2 = self.e2[self.e2_starts[i]:self.e2_starts[i + 1]]
        return _assemble(self.x[seg], self.delay[seg], self.K[i],
                         np.concatenate([c, e1]),
                         np.concatenate([c * c, e2]))

    def overall(self) -> ResponseStats:
        """All intervals folded as ``ResponseStats.merge`` folds them in
        ascending interval order: the first interval's shift, and the
        re-shift terms for every interval whose shift differs."""
        d = self.K - self.K[0]
        fix = np.flatnonzero(d != 0)
        d = d[fix]
        nd = self.n[fix] * d
        return _assemble(
            self.x, self.delay, self.K[0],
            np.concatenate([self.c, self.e1, nd]),
            np.concatenate([self.c * self.c, self.e2,
                            (2.0 * d) * self.first_moments(fix),
                            nd * d]))

    def merge(self, other: "_Table") -> "_Table":
        """``other``'s intervals folded into ours, interval by interval,
        as ``ResponseStats.merge`` folds them: our samples first, our
        shift kept, and re-shift terms where both hold an interval and
        the shifts differ."""
        ids = np.union1d(self.ids, other.ids)
        pa = np.searchsorted(ids, self.ids)
        pb = np.searchsorted(ids, other.ids)
        K = np.empty(ids.size, dtype=np.float64)
        K[pb] = other.K
        K[pa] = self.K
        d = other.K - K[pb]  # zero where only ``other`` holds it
        fix = np.flatnonzero(d != 0)
        d = d[fix]
        nd = other.n[fix] * d
        at = pb[fix]
        (x, delay, c), n = _regroup(
            ids.size, (pa, self.n, (self.x, self.delay, self.c)),
            (pb, other.n, (other.x, other.delay, other.c)))
        (e1,), e1_n = _regroup(
            ids.size, (pa, np.diff(self.e1_starts), (self.e1,)),
            (pb, np.diff(other.e1_starts), (other.e1,)),
            (at, 1, (nd,)))
        (e2,), e2_n = _regroup(
            ids.size, (pa, np.diff(self.e2_starts), (self.e2,)),
            (pb, np.diff(other.e2_starts), (other.e2,)),
            (at, 1, ((2.0 * d) * other.first_moments(fix),)),
            (at, 1, (nd * d,)))
        return _Table(ids, n, K, x, delay, c, e1, e1_n, e2, e2_n)


def _regroup(size: int, *parts) -> Tuple[List[np.ndarray], np.ndarray]:
    """Concatenate CSR columns, grouped by union position.

    Each part is ``(positions, counts, columns)``: segment ``j`` of
    its columns holds ``counts[j]`` entries of interval
    ``positions[j]``.  Entries stay in part order inside an interval.
    Returns the regrouped columns and the per-interval counts.
    """
    key = np.concatenate([np.repeat(at, counts) for at, counts, _ in parts])
    order = np.argsort(key, kind="stable")
    columns = [np.concatenate(col)[order]
               for col in zip(*(cols for _, _, cols in parts))]
    return columns, np.bincount(key, minlength=size)


class IntervalSeries:
    """Per-interval response statistics (Figures 8-12 series).

    Each completed request is attributed to an interval index; the
    series then exposes aligned per-interval arrays.

    Storage is columnar: :meth:`record` and :meth:`record_array` append
    ``(interval, response, delay)`` samples, and the first read seals
    them into one table sorted (stably) by interval.  Every read is a
    reduction of that table that reproduces, bit for bit, the state
    of a dict of per-interval :class:`ResponseStats` fed the same
    calls: :meth:`overall` equals merging them in ascending interval
    order, :meth:`merge` equals merging interval by interval.
    Per-interval :class:`ResponseStats` are built only when read
    (:meth:`stats`, :meth:`series`, :meth:`state`) and cached until
    the next record or merge; they are read snapshots -- record into
    the series, not into them.
    """

    def __init__(self):
        #: unsealed samples in record order: record() lists, then
        #: record_array() chunks
        self._intervals: List[int] = []
        self._responses: List[float] = []
        self._delays: List[float] = []
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._table: Optional[_Table] = None
        self._snapshots: Dict[int, ResponseStats] = {}

    # -- recording -------------------------------------------------------
    def record(self, interval: int, response_ms: float,
               delay_ms: float = 0.0) -> None:
        self._intervals.append(interval)
        self._responses.append(response_ms)
        self._delays.append(delay_ms)

    def record_array(self, intervals, responses: np.ndarray,
                     delays: Optional[np.ndarray] = None) -> None:
        """Vectorized :meth:`record`: aligned ``intervals``,
        ``responses`` and optional ``delays`` (positive entries mark
        delayed requests)."""
        x = np.array(responses, dtype=np.float64).ravel()
        iv = np.array(intervals, dtype=np.int64).ravel()
        d = np.zeros(x.size) if delays is None \
            else np.array(delays, dtype=np.float64).ravel()
        if not iv.size == d.size == x.size:
            raise ValueError("intervals, responses and delays must align")
        if x.size == 0:
            return
        self._flush_lists()
        self._chunks.append((iv, x, d))

    def _flush_lists(self) -> None:
        if self._intervals:
            self._chunks.append((
                np.array(self._intervals, dtype=np.int64),
                np.array(self._responses, dtype=np.float64),
                np.array(self._delays, dtype=np.float64)))
            self._intervals, self._responses, self._delays = [], [], []

    def _sealed(self) -> Optional[_Table]:
        """The table, with every sample recorded so far folded in."""
        self._flush_lists()
        if self._chunks:
            iv, x, d = (np.concatenate(col) for col in zip(*self._chunks))
            self._chunks = []
            fresh = _Table.from_samples(iv, x, d, self._table)
            self._table = fresh if self._table is None \
                else self._table.merge(fresh)
            self._snapshots = {}
        return self._table

    # -- reading ---------------------------------------------------------
    def intervals(self) -> List[int]:
        table = self._sealed()
        return table.ids.tolist() if table is not None else []

    def stats(self, interval: int) -> ResponseStats:
        """Read snapshot of one interval (empty when it has no sample)."""
        table = self._sealed()
        st = self._snapshots.get(interval)
        if st is not None:
            return st
        if table is None:
            return ResponseStats()
        i = int(np.searchsorted(table.ids, interval))
        if i == table.ids.size or table.ids[i] != interval:
            return ResponseStats()
        st = self._snapshots[interval] = table.stats(i)
        return st

    def series(self, attr: str) -> Tuple[List[int], List[float]]:
        """``(interval_indices, values)`` for a ResponseStats attribute."""
        idx = self.intervals()
        return idx, [getattr(self.stats(i), attr) for i in idx]

    def overall(self) -> ResponseStats:
        """Merge all intervals into one summary (a fresh object)."""
        table = self._sealed()
        return table.overall() if table is not None else ResponseStats()

    def merge(self, other: "IntervalSeries") -> None:
        """Fold another series in, interval by interval.

        Each interval merges as :meth:`ResponseStats.merge` does: the
        counts, histogram and exact sums equal one recording of both
        sides' samples, while the moments keep this side's shift and
        gain re-shift terms.  A cluster roll-up therefore depends on
        the merge order only through the last ulp of avg/std, and is
        deterministic for a fixed order.
        """
        theirs = other._sealed()
        if theirs is None:
            return
        ours = self._sealed()
        self._table = theirs if ours is None else ours.merge(theirs)
        self._snapshots = {}

    def state(self) -> Tuple:
        """Comparable signature over all intervals (see
        :meth:`ResponseStats.state`)."""
        return tuple((i, self.stats(i).state())
                     for i in self.intervals())

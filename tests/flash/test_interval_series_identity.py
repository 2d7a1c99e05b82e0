"""The columnar :class:`IntervalSeries` against the per-interval one.

The reference below is the dict-of-:class:`ResponseStats` series the
columnar table replaced, built on the production ``ResponseStats``:
one stats object per interval, ``overall()`` merging them in ascending
interval order, ``merge()`` merging interval by interval.  Every read
of the columnar series must equal it (``==`` on floats is deliberate;
only the sign of a zero min/max is not pinned).

The windowed router-sync depth scan of
:func:`repro.obs.series.module_interval_series` is checked the same
way against the full scan it replaced.
"""

from types import SimpleNamespace
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.metrics import FOLD_THRESHOLD, IntervalSeries, \
    ResponseStats
from repro.obs.series import ModuleSeries, module_interval_series
from tests.support.builders import crash_schedule, online_player, \
    trace_pair

ATTRS = ("avg", "max", "p99", "pct_delayed")


class ReferenceSeries:
    """The per-interval ``ResponseStats`` series, as it was."""

    def __init__(self):
        self._stats: Dict[int, ResponseStats] = {}

    def _at(self, interval: int) -> ResponseStats:
        st = self._stats.get(interval)
        if st is None:
            st = self._stats[interval] = ResponseStats()
        return st

    def record(self, interval, response_ms, delay_ms=0.0):
        self._at(interval).record(response_ms, delay_ms)

    def record_array(self, intervals, responses, delays=None):
        intervals = np.asarray(intervals)
        for i in np.unique(intervals).tolist():
            sel = intervals == i
            self._at(i).record_array(
                np.asarray(responses)[sel],
                None if delays is None else np.asarray(delays)[sel])

    def intervals(self):
        return sorted(self._stats)

    def stats(self, interval):
        return self._stats.get(interval, ResponseStats())

    def series(self, attr):
        idx = self.intervals()
        return idx, [getattr(self._stats[i], attr) for i in idx]

    def overall(self):
        merged = ResponseStats()
        for i in self.intervals():
            merged.merge(self._stats[i])
        return merged

    def merge(self, other):
        for i, st in other._stats.items():
            self._at(i).merge(st)

    def state(self):
        return tuple((i, self._stats[i].state()) for i in self.intervals())


def assert_same(series: IntervalSeries, ref: ReferenceSeries) -> None:
    assert series.intervals() == ref.intervals()
    assert series.overall().state() == ref.overall().state()
    assert series.state() == ref.state()
    for i in ref.intervals():
        assert series.stats(i).state() == ref.stats(i).state()
    for attr in ATTRS:
        assert series.series(attr) == ref.series(attr)


# -- strategies -------------------------------------------------------------

responses = st.one_of(
    # repeats: many samples equal the interval's shift K
    st.sampled_from([0.132507, 0.265014, 1e-3, 0.0, -0.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
delays = st.one_of(st.just(0.0), st.sampled_from([0.05, 0.133]),
                   st.floats(min_value=0.0, max_value=2.0))
samples = st.lists(st.tuples(st.integers(-4, 12), responses, delays),
                   max_size=120)


def recorded(data, chunking):
    """The same samples into a columnar and a reference series:
    runs of ``record`` calls and ``record_array`` chunks, as
    ``chunking`` cuts them."""
    series, ref = IntervalSeries(), ReferenceSeries()
    start = 0
    for cut, vectorized in chunking:
        chunk = data[start:start + cut]
        start += cut
        if vectorized and chunk:
            iv, x, d = (list(col) for col in zip(*chunk))
            series.record_array(iv, x, d)
            ref.record_array(iv, x, d)
        else:
            for i, x, d in chunk:
                series.record(i, x, d)
                ref.record(i, x, d)
    for i, x, d in data[start:]:
        series.record(i, x, d)
        ref.record(i, x, d)
    return series, ref


chunkings = st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                     max_size=6)


# -- recording --------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(samples, chunkings)
def test_recording_matches_reference(data, chunking):
    assert_same(*recorded(data, chunking))


@settings(max_examples=40, deadline=None)
@given(samples, samples)
def test_recording_after_a_read(first, second):
    """A read seals the table; later records keep each interval's
    shift and drop the cached snapshots."""
    series, ref = recorded(first, [])
    assert_same(series, ref)
    for i, x, d in second:
        series.record(i, x, d)
        ref.record(i, x, d)
    assert_same(series, ref)


@settings(max_examples=30, deadline=None)
@given(samples)
def test_record_array_without_delays(data):
    series, ref = IntervalSeries(), ReferenceSeries()
    if data:
        iv, x, _ = (list(col) for col in zip(*data))
        series.record_array(iv, x)
        ref.record_array(iv, x)
    assert_same(series, ref)


def test_interval_above_fold_threshold():
    rng = np.random.default_rng(3)
    n = FOLD_THRESHOLD + 8000
    iv = np.where(rng.random(n) < 0.95, 5, rng.integers(-2, 9, n))
    x = np.round(rng.exponential(0.2, n), 3)
    d = np.where(rng.random(n) < 0.2, rng.random(n), 0.0)
    series, ref = IntervalSeries(), ReferenceSeries()
    series.record_array(iv[:100], x[:100], d[:100])
    ref.record_array(iv[:100], x[:100], d[:100])
    for i, xi, di in zip(iv[100:].tolist(), x[100:].tolist(),
                         d[100:].tolist()):
        series.record(i, xi, di)
        ref.record(i, xi, di)
    assert series.stats(5).n_total > FOLD_THRESHOLD
    assert_same(series, ref)


def test_empty_series():
    series = IntervalSeries()
    assert series.intervals() == []
    assert series.state() == ()
    assert series.series("avg") == ([], [])
    assert series.overall().state() == ResponseStats().state()
    assert series.stats(3).state() == ResponseStats().state()
    series.record_array([], [])
    series.merge(IntervalSeries())
    assert series.overall().state() == ResponseStats().state()


def test_stats_is_a_read_snapshot():
    series = IntervalSeries()
    series.record(2, 0.5)
    assert series.stats(7).n_total == 0
    assert series.intervals() == [2]  # reading did not register 7
    before = series.stats(2)
    series.record(2, 0.25, 0.1)
    after = series.stats(2)
    assert after is not before
    assert (after.n_total, after.n_delayed) == (2, 1)


def test_record_array_rejects_misaligned_columns():
    with pytest.raises(ValueError):
        IntervalSeries().record_array([0, 1], [0.1, 0.2], [0.0])
    with pytest.raises(ValueError):
        IntervalSeries().record_array([0], [0.1, 0.2])


# -- merge trees ------------------------------------------------------------

def _leaves(datas):
    return [recorded(data, []) for data in datas]


def _merged(*children):
    series, ref = IntervalSeries(), ReferenceSeries()
    for child, child_ref in children:
        series.merge(child)
        ref.merge(child_ref)
    return series, ref


@settings(max_examples=40, deadline=None)
@given(st.lists(samples, min_size=2, max_size=2))
def test_two_level_merge_both_orders(datas):
    a, b = _leaves(datas)
    assert_same(*_merged(a, b))
    assert_same(*_merged(b, a))


@settings(max_examples=40, deadline=None)
@given(st.lists(samples, min_size=4, max_size=4), samples)
def test_three_level_merge_both_orders(datas, extra):
    a, b, c, d = _leaves(datas)
    left, right = _merged(a, b), _merged(c, d)
    for tree in (_merged(left, right), _merged(right, left)):
        assert_same(*tree)
    # into a series holding unsealed records of its own
    series, ref = recorded(extra, [])
    for child, child_ref in (_merged(d, c), _merged(b, a)):
        series.merge(child)
        ref.merge(child_ref)
    assert_same(series, ref)
    # the merged children are unchanged by being merged
    assert_same(*left)
    assert_same(*right)


@settings(max_examples=30, deadline=None)
@given(st.lists(samples, min_size=2, max_size=2), samples)
def test_record_after_merge(datas, more):
    series, ref = _merged(*_leaves(datas))
    assert_same(series, ref)
    for i, x, d in more:
        series.record(i, x, d)
        ref.record(i, x, d)
    assert_same(series, ref)


# -- windowed router-sync depth scan ----------------------------------------

def reference_module_interval_series(played, n_devices, interval_ms):
    """The full-scan module series: every boundary from 0."""
    series = ModuleSeries(interval_ms=interval_ms, n_devices=n_devices)
    issued, started = {}, {}
    last_boundary = 0
    seen = False
    for pr in played:
        io = pr.io
        if pr.rejected or getattr(io, "failed", False) \
                or io.device < 0 or io.completed_at <= 0:
            continue
        seen = True
        d = io.device
        s, c = io.started_at, io.completed_at
        first = int(s / interval_ms + 1e-9)
        for k in range(first, int(np.ceil(c / interval_ms - 1e-9))):
            lo = k * interval_ms
            overlap = min(c, lo + interval_ms) - max(s, lo)
            if overlap > 0:
                series.busy_ms[(d, k)] = \
                    series.busy_ms.get((d, k), 0.0) + overlap
        last_boundary = max(last_boundary, int(c / interval_ms - 1e-9))
        issued.setdefault(d, []).append(io.issued_at)
        started.setdefault(d, []).append(s)
    if not seen:
        return series
    boundaries = np.arange(last_boundary + 1, dtype=np.float64) \
        * interval_ms
    for d in sorted(issued):
        arr_in = np.sort(np.asarray(issued[d], dtype=np.float64))
        arr_out = np.sort(np.asarray(started[d], dtype=np.float64))
        depth = (np.searchsorted(arr_in, boundaries, side="right")
                 - np.searchsorted(arr_out, boundaries, side="right"))
        for k, n in enumerate(depth):
            if n > 0:
                series.depth[(d, k)] = int(n)
    return series


def _same_module_series(played, n_devices, interval_ms):
    got = module_interval_series(played, n_devices, interval_ms)
    want = reference_module_interval_series(played, n_devices,
                                            interval_ms)
    assert got.rows() == want.rows()
    assert (got.interval_ms, got.n_devices) == \
        (want.interval_ms, want.n_devices)


_PLAYED = {}


def _played(seed: int):
    """A crash-faulted online playback (with queueing) per seed."""
    if seed not in _PLAYED:
        arrivals, blocks = trace_pair(per_interval=12, n=900, seed=seed)
        _, played = online_player(
            faults=crash_schedule(4, at=float(arrivals[300]))).play(
                list(arrivals), list(blocks))
        _PLAYED[seed] = played
    return _PLAYED[seed]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from([0.133, 0.05, 0.4]))
def test_windowed_depth_scan_on_played_slices(seed, lo, hi, interval_ms):
    """Router sync scans ``played[mark:]``: a slice that starts (and
    here also ends) mid-run."""
    played = _played(seed)
    a, b = sorted((int(lo * len(played)), int(hi * len(played))))
    _same_module_series(played[a:b + 1], 9, interval_ms)


_request = st.builds(
    lambda t, wait, service, device, rejected, failed: SimpleNamespace(
        rejected=rejected,
        io=SimpleNamespace(device=device, issued_at=t,
                           started_at=t + wait,
                           completed_at=t + wait + service,
                           failed=failed)),
    st.one_of(st.floats(0.0, 30.0),
              st.integers(0, 200).map(lambda k: k * 0.133)),
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    st.one_of(st.just(0.132507), st.floats(0.0, 1.0)),
    st.integers(-1, 3), st.booleans(), st.booleans())


@settings(max_examples=60, deadline=None)
@given(st.lists(_request, max_size=40), st.sampled_from([0.133, 0.3]))
def test_windowed_depth_scan_on_synthetic_requests(played, interval_ms):
    """Boundary-aligned issue times, zero waits and all-filtered
    slices included."""
    _same_module_series(played, 4, interval_ms)

"""The vectorized constant-latency fast path vs the event loop.

The acceptance bar is *float-exactness*: every completion time the
closed form produces must equal the DES value bit for bit, across
hundreds of randomized traces.  ``==`` on floats below is deliberate.
Single-queue completions come from the one stacked Lindley kernel
(:func:`repro.flash.batch.stacked_fcfs_completion_times`), whose
one-stream case is checked against the scalar recurrence here.
"""

import numpy as np
import pytest

from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.experiments.common import play_original
from repro.flash.batch import _sequential_var, \
    stacked_fcfs_completion_times
from repro.flash.driver import (
    BatchTracePlayer,
    OnlineTracePlayer,
    select_engine,
    supports_fast_playback,
)
from repro.flash.params import MSR_SSD_PARAMS
from repro.traces.records import Trace

READ = MSR_SSD_PARAMS.read_ms
T = 0.133


def fcfs_completion_times(issue_ms, service_ms):
    """One FCFS queue: the stacked kernel's one-stream case."""
    u = np.asarray(issue_ms, dtype=np.float64)
    return stacked_fcfs_completion_times(u, [0, len(u)], service_ms)


class TestSupportsFastPlayback:
    def test_plain_config_supported(self):
        assert supports_fast_playback()

    def test_any_hook_disqualifies(self):
        assert not supports_fast_playback(module_factory=object())
        assert not supports_fast_playback(ftl_factory=object())
        assert not supports_fast_playback(priority_queues=True)

    def test_select_engine(self):
        assert select_engine("auto") == ("fast", "")
        assert select_engine("auto", ftl_factory=object()) \
            == ("des", "ftl_factory")
        assert select_engine("des") == ("des", "forced")
        with pytest.raises(ValueError):
            select_engine("bogus")
        with pytest.raises(ValueError):
            select_engine("fast", module_factory=object())


class TestFcfsCompletionTimes:
    def test_validation(self):
        with pytest.raises(ValueError):
            fcfs_completion_times([[0.0]], 1.0)
        with pytest.raises(ValueError):
            fcfs_completion_times([1.0, 0.5], 1.0)
        with pytest.raises(ValueError):
            fcfs_completion_times([0.0], -1.0)

    def test_empty(self):
        assert fcfs_completion_times([], 1.0).size == 0

    def test_idle_server(self):
        # Far-apart arrivals: every request starts immediately.
        u = np.array([0.0, 10.0, 25.0])
        np.testing.assert_array_equal(
            fcfs_completion_times(u, 1.0), u + 1.0)

    def test_saturated_server(self):
        # Simultaneous arrivals: pure head-of-line queueing.
        c = fcfs_completion_times(np.zeros(5), READ)
        expected = np.add.accumulate(np.full(5, READ))
        np.testing.assert_array_equal(c, expected)

    def test_matches_scalar_recurrence_randomized(self):
        rng = np.random.default_rng(42)
        for trial in range(120):
            n = int(rng.integers(1, 200))
            # Mix regimes: idle, critically loaded, saturated.
            spacing = rng.choice([0.1, 1.0, 3.0]) * READ
            u = np.sort(rng.uniform(0, n * spacing, size=n))
            if trial % 3 == 0:  # inject exact ties and boundary hits
                u = np.round(u / READ) * READ
                u.sort()
            c_fast = fcfs_completion_times(u, READ)
            c_ref = _sequential_var(u, np.full(n, READ))
            np.testing.assert_array_equal(c_fast, c_ref)

    def test_zero_service_time(self):
        u = np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(
            fcfs_completion_times(u, 0.0), u)


def random_parts(rng, n_devices):
    """1-3 trace parts with bursty random arrivals on random devices."""
    parts = []
    for _ in range(int(rng.integers(1, 4))):
        n = int(rng.integers(5, 60))
        u = np.sort(rng.uniform(0, n * rng.choice([0.3, 1.0, 3.0])
                                * READ, size=n))
        dev = rng.integers(0, n_devices, size=n)
        parts.append(Trace.from_arrays(u, dev, device=dev))
    return parts


class TestPlayOriginalFastVsDes:
    def test_float_exact_on_randomized_traces(self):
        # The headline property: 200 randomized traces, bit-identical
        # per-part response samples from both engines.
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_devices = int(rng.integers(2, 14))
            parts = random_parts(rng, n_devices)
            fast = play_original(parts, n_devices, engine="fast")
            des = play_original(parts, n_devices, engine="des")
            assert fast.intervals() == des.intervals()
            for i in fast.intervals():
                assert fast.stats(i).state() == des.stats(i).state()
                assert fast.stats(i).n_total == des.stats(i).n_total

    def test_empty_trace(self):
        fast = play_original([], 5, engine="fast")
        assert fast.intervals() == []


def played_key(p):
    io = p.io
    return (p.index, p.interval, p.delayed, p.rejected, io.device,
            io.issued_at, io.enqueued_at, io.started_at,
            io.completed_at)


class TestOnlinePlayerFastVsDes:
    @pytest.fixture(scope="class")
    def alloc(self):
        return DesignTheoreticAllocation.from_parameters(9, 3)

    def both(self, alloc, arrivals, buckets, reads=None, **kwargs):
        outs = []
        for engine in ("fast", "des"):
            player = OnlineTracePlayer(alloc, T, engine=engine,
                                       **kwargs)
            series, played = player.play(arrivals, buckets, reads)
            outs.append((series, played))
        return outs

    def random_trace(self, rng, alloc, n, writes=False):
        arrivals = np.sort(rng.uniform(0, 8 * T, size=n)).tolist()
        buckets = [int(b) for b in
                   rng.integers(0, alloc.n_buckets, size=n)]
        reads = ([bool(r) for r in rng.random(n) > 0.25]
                 if writes else None)
        return arrivals, buckets, reads

    def test_engines_agree_randomized(self, alloc):
        rng = np.random.default_rng(7)
        for trial in range(15):
            arrivals, buckets, reads = self.random_trace(
                rng, alloc, int(rng.integers(10, 80)),
                writes=trial % 2 == 1)
            (fs, fp), (ds, dp) = self.both(alloc, arrivals, buckets,
                                           reads)
            assert [played_key(p) for p in fp] \
                == [played_key(p) for p in dp]
            for i in fs.intervals():
                assert fs.stats(i).state() == ds.stats(i).state()

    def test_engines_agree_reject_policy(self, alloc):
        rng = np.random.default_rng(11)
        arrivals, buckets, _ = self.random_trace(rng, alloc, 60)
        (_, fp), (_, dp) = self.both(alloc, arrivals, buckets,
                                     overflow="reject")
        assert [played_key(p) for p in fp] \
            == [played_key(p) for p in dp]
        assert any(p.rejected for p in fp)

    def test_ftl_forces_des(self, alloc):
        player = OnlineTracePlayer(alloc, T, ftl_factory=lambda: None)
        assert player.engine == "des"


class TestBatchPlayerFastVsDes:
    def test_engines_agree_randomized(self):
        alloc = DesignTheoreticAllocation.from_parameters(9, 3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(10, 60))
            arrivals = np.sort(rng.uniform(0, 6 * T, size=n)).tolist()
            buckets = [int(b) for b in
                       rng.integers(0, alloc.n_buckets, size=n)]
            outs = []
            for engine in ("fast", "des"):
                player = BatchTracePlayer(alloc, T, engine=engine)
                series, played = player.play(arrivals, buckets)
                outs.append((series, played))
            (fs, fp), (ds, dp) = outs
            assert [played_key(p) for p in fp] \
                == [played_key(p) for p in dp]
            for i in fs.intervals():
                assert fs.stats(i).state() == ds.stats(i).state()

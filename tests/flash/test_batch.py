"""The stacked Lindley kernel: bit-identity and shape handling.

Every stream is checked against the scalar recurrence
(``_sequential_var``); the DES cross-checks live in
``tests/flash/test_fastpath.py``.
"""

import numpy as np
import pytest

from repro.flash import batch
from repro.flash.batch import (
    _sequential_var,
    played_metrics,
    sequential_sum,
    stacked_fcfs_completion_times,
    stream_offsets,
)


def fcfs_completion_times(u, svc):
    """Scalar-recurrence reference for one constant-service stream."""
    return _sequential_var(u, np.full(u.size, svc))


def _ragged(rng, n_streams, max_len=40, horizon=20.0):
    lens = rng.integers(0, max_len, size=n_streams)
    offsets = np.zeros(n_streams + 1, dtype=np.intp)
    np.cumsum(lens, out=offsets[1:])
    u = (np.concatenate([np.sort(rng.uniform(0, horizon, size=n))
                         for n in lens])
         if offsets[-1] else np.empty(0))
    return u, offsets


class TestStackedKernel:
    def test_matches_per_stream_kernel_scalar_service(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            u, offsets = _ragged(rng, int(rng.integers(1, 10)))
            svc = float(rng.uniform(0.01, 2.0))
            out = stacked_fcfs_completion_times(u, offsets, svc)
            ref = (np.concatenate(
                [fcfs_completion_times(u[a:b], svc)
                 for a, b in zip(offsets[:-1], offsets[1:])])
                if u.size else np.empty(0))
            assert np.array_equal(out, ref)

    def test_matches_scalar_recurrence_per_item_service(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            u, offsets = _ragged(rng, int(rng.integers(1, 8)))
            svc = rng.choice([0.132507, 0.4, 1.1], size=u.size)
            out = stacked_fcfs_completion_times(u, offsets, svc)
            for a, b in zip(offsets[:-1], offsets[1:]):
                prev = -np.inf
                for i in range(a, b):
                    t = u[i]
                    prev = (t if t > prev else prev) + svc[i]
                    assert out[i] == prev

    def test_near_tie_boundaries_stay_exact(self):
        # u exactly equal to the previous completion: NOT a new busy
        # period (strict >), the classic ulp trap for the locator
        s = 0.132507
        u = np.array([0.0, s, 2 * s, 10.0, 10.0 + s])
        offsets = np.array([0, 3, 5])
        ref = np.concatenate([fcfs_completion_times(u[:3], s),
                              fcfs_completion_times(u[3:], s)])
        out = stacked_fcfs_completion_times(u, offsets, s)
        assert np.array_equal(out, ref)

    def test_empty_and_singleton_streams(self):
        u = np.array([1.0, 3.0])
        offsets = np.array([0, 0, 1, 1, 2, 2])
        out = stacked_fcfs_completion_times(u, offsets, 0.5)
        assert np.array_equal(out, np.array([1.5, 3.5]))
        assert stacked_fcfs_completion_times(
            np.empty(0), np.array([0, 0]), 0.5).size == 0

    def test_rejects_bad_offsets_and_order(self):
        with pytest.raises(ValueError):
            stacked_fcfs_completion_times(
                np.array([1.0]), np.array([0, 2]), 0.1)
        with pytest.raises(ValueError):
            stacked_fcfs_completion_times(
                np.array([2.0, 1.0]), np.array([0, 2]), 0.1)
        # decreasing across a stream boundary is fine
        out = stacked_fcfs_completion_times(
            np.array([2.0, 1.0]), np.array([0, 1, 2]), 0.1)
        assert np.array_equal(out, np.array([2.1, 1.1]))
        with pytest.raises(ValueError):
            stacked_fcfs_completion_times(np.zeros((1, 1)), [0, 1], 0.1)

    def test_misplaced_boundary_falls_back_to_sequential(self, monkeypatch):
        # A locator that misses every busy-period start (the ulp-drift
        # failure mode, exaggerated) must be caught by the verifier and
        # the affected streams replayed by the scalar recurrence.
        def sloppy(u, svc, offsets):
            starts = np.zeros(u.size, dtype=bool)
            starts[offsets[:-1][np.diff(offsets) > 0]] = True
            return starts

        monkeypatch.setattr(batch, "_locate_starts", sloppy)
        u = np.array([0.0, 5.0, 5.1, 0.0, 0.05, 9.0])
        offsets = np.array([0, 3, 6])
        svc = np.array([0.2, 0.2, 0.2, 0.1, 0.4, 0.1])
        out = stacked_fcfs_completion_times(u, offsets, svc)
        ref = np.concatenate([_sequential_var(u[:3], svc[:3]),
                              _sequential_var(u[3:], svc[3:])])
        assert np.array_equal(out, ref)

    def test_stream_offsets_groups_fifo(self):
        ids = [2, 0, 2, 1, 0, 2]
        order, offsets = stream_offsets(ids, 4)
        assert list(offsets) == [0, 2, 3, 6, 6]
        assert list(order) == [1, 4, 3, 0, 2, 5]  # stable per stream


class TestSequentialSum:
    def test_matches_python_sum_exactly(self):
        rng = np.random.default_rng(7)
        values = list(rng.uniform(0, 1, size=1000))
        assert sequential_sum(values) == sum(values)
        assert sequential_sum([]) == 0.0


class TestPlayedMetrics:
    class _IO:
        def __init__(self, response_ms):
            self.response_ms = response_ms

    class _PR:
        def __init__(self, response, rejected=False, failed=False,
                     delayed=False):
            self.io = TestPlayedMetrics._IO(response)
            self.rejected = rejected
            self.failed = failed
            self.delayed = delayed

    def test_matches_reference_loops(self):
        rng = np.random.default_rng(3)
        guarantee = 0.132507
        played = [self._PR(float(rng.uniform(0, 0.4)),
                           rejected=bool(rng.random() < 0.1),
                           failed=bool(rng.random() < 0.1),
                           delayed=bool(rng.random() < 0.3))
                  for _ in range(500)]
        served = [p for p in played if not p.rejected and not p.failed]
        failed = sum(1 for p in played if p.failed)
        violations = failed + sum(
            1 for p in served
            if p.io.response_ms > guarantee + 1e-9)
        considered = len(served) + failed
        expect = (
            sum(p.io.response_ms for p in served) / len(served),
            100.0 * sum(1 for p in served if p.delayed) / considered,
            float(failed),
            violations / considered,
        )
        assert played_metrics(played, guarantee) == expect

    def test_empty_and_all_rejected(self):
        assert played_metrics([], 0.1) == (0.0, 0.0, 0.0, 0.0)
        played = [self._PR(0.2, rejected=True) for _ in range(5)]
        assert played_metrics(played, 0.1) == (0.0, 0.0, 0.0, 0.0)

"""Unit tests for bounded-degree assignment (the Dinic reference)."""

import numpy as np
import pytest

from repro.graph.matching import bounded_degree_assignment
from repro.retrieval.maxflow import maxflow_retrieval


class TestBoundedDegree:
    def test_empty_items(self):
        assert bounded_degree_assignment([], 3, 1) == []

    def test_zero_capacity_infeasible(self):
        assert bounded_degree_assignment([[0]], 1, 0) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            bounded_degree_assignment([[0]], 1, -1)

    def test_bin_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            bounded_degree_assignment([[5]], 2, 1)

    def test_empty_candidates_infeasible(self):
        assert bounded_degree_assignment([[0], []], 2, 1) is None

    def test_simple_feasible(self):
        a = bounded_degree_assignment([[0, 1], [0, 1]], 2, 1)
        assert sorted(a) == [0, 1]

    def test_respects_candidates(self):
        a = bounded_degree_assignment([[1], [0]], 2, 1)
        assert a == [1, 0]

    def test_infeasible_overload(self):
        # three items all restricted to bin 0, capacity 2
        assert bounded_degree_assignment([[0], [0], [0]], 1, 2) is None

    def test_duplicate_candidates_tolerated(self):
        a = bounded_degree_assignment([[0, 0, 1]], 2, 1)
        assert a[0] in (0, 1)

    def test_capacity_bound_respected(self):
        cands = [[0, 1, 2]] * 6
        a = bounded_degree_assignment(cands, 3, 2)
        assert a is not None
        for b in range(3):
            assert a.count(b) <= 2

    def test_needs_augmenting_path(self):
        # Greedy first-fit would fail; flow must reroute.
        cands = [[0], [0, 1], [1, 2]]
        a = bounded_degree_assignment(cands, 3, 1)
        assert a == [0, 1, 2]


class TestPerBinCapacity:
    def test_per_bin_bounds_respected(self):
        a = bounded_degree_assignment([[0, 1]] * 3, 2, [2, 1])
        assert a is not None
        assert a.count(0) <= 2 and a.count(1) <= 1

    def test_zero_capacity_bin_is_avoided(self):
        assert bounded_degree_assignment([[0, 1], [0, 1]], 2,
                                         [0, 2]) == [1, 1]

    def test_infeasible_when_the_only_bin_is_short(self):
        assert bounded_degree_assignment([[0], [0]], 2, [1, 5]) is None

    def test_all_zero_capacities_infeasible(self):
        assert bounded_degree_assignment([[0, 1]], 2, [0, 0]) is None
        assert bounded_degree_assignment([], 2, [0, 0]) == []

    def test_bad_capacity_sequences_rejected(self):
        with pytest.raises(ValueError):
            bounded_degree_assignment([[0]], 2, [1])
        with pytest.raises(ValueError):
            bounded_degree_assignment([[0]], 2, [1, -1])

    def test_uniform_sequence_equals_scalar_capacity(self):
        # Same network, same edge order: Dinic returns the very same
        # assignment whether the capacity is spelled once or per bin.
        rng = np.random.default_rng(5)
        for _ in range(60):
            n_bins = int(rng.integers(2, 8))
            cands = [[int(d) for d in rng.choice(
                n_bins, size=int(rng.integers(1, min(4, n_bins + 1))),
                replace=False)]
                for _ in range(int(rng.integers(0, 12)))]
            cap = int(rng.integers(0, 3))
            want = bounded_degree_assignment(cands, n_bins, cap)
            assert bounded_degree_assignment(
                cands, n_bins, [cap] * n_bins) == want
            assert bounded_degree_assignment(
                cands, n_bins, np.int64(cap)) == want


class TestMinCapacity:
    """The smallest uniform capacity admitting a full assignment is
    ``maxflow_retrieval``'s access count; the Dinic reference confirms
    it is feasible and minimal."""

    @staticmethod
    def min_capacity(cands, n_bins):
        schedule = maxflow_retrieval(cands, n_bins)
        cap = schedule.accesses
        assert bounded_degree_assignment(cands, n_bins, cap) is not None
        if cap > 0:
            assert bounded_degree_assignment(cands, n_bins,
                                             cap - 1) is None
        return cap, list(schedule.assignment)

    def test_empty(self):
        assert self.min_capacity([], 3) == (0, [])

    def test_trivial_lower_bound_achieved(self):
        cap, a = self.min_capacity([[0, 1], [0, 1]], 2)
        assert cap == 1
        assert sorted(a) == [0, 1]

    def test_forced_above_lower_bound(self):
        # 2 items, 2 bins, but both restricted to bin 0.
        cap, a = self.min_capacity([[0], [0]], 2)
        assert cap == 2
        assert a == [0, 0]

    def test_all_items_assigned_within_cap(self):
        cands = [[i % 3, (i + 1) % 3] for i in range(7)]
        cap, a = self.min_capacity(cands, 3)
        assert len(a) == 7
        assert max(a.count(b) for b in range(3)) == cap
        assert cap == 3  # ceil(7/3)

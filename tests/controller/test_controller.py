"""Integration tests for the live controller
(:mod:`repro.controller.controller`) and its strategies."""

import numpy as np
import pytest

from repro import obs
from repro.controller import (
    ControllerConfig,
    FIMReplan,
    ReplicationController,
    StaticPlacement,
)
from repro.core.planner import SLO
from repro.experiments.common import play_workload
from repro.experiments.fig8 import make_parts
from repro.faults import FaultSchedule
from repro.mining.apriori import apriori
from repro.mining.matching import FIMBlockMatcher
from repro.mining.transactions import transactions_from_trace
from repro.traces.records import Trace


def request_key(pr):
    return (pr.index, pr.interval, pr.delayed, pr.rejected,
            pr.io.response_ms, pr.io.total_ms)


@pytest.fixture(scope="module")
def parts():
    return make_parts("exchange", 0.25, 4, seed=11)


class TestIdentityContract:
    """Unbudgeted + fault-free controller == offline play_workload."""

    def test_deterministic_qos(self, parts):
        offline = play_workload(parts, n_devices=9, seed=3)
        live = ReplicationController(
            ControllerConfig(n_devices=9, seed=3)).run(parts)
        assert live.match_rates == offline.match_rates
        assert live.part_of_request == offline.part_of_request
        assert [request_key(p) for p in live.report.requests] == \
            [request_key(p) for p in offline.report.requests]
        assert live.report.guarantee_ms == offline.report.guarantee_ms

    def test_statistical_qos(self, parts):
        offline = play_workload(parts, n_devices=9, epsilon=0.05,
                                seed=3)
        live = ReplicationController(ControllerConfig(
            n_devices=9, epsilon=0.05, seed=3)).run(parts)
        assert [request_key(p) for p in live.report.requests] == \
            [request_key(p) for p in offline.report.requests]

    def test_workload_run_view(self, parts):
        live = ReplicationController(
            ControllerConfig(n_devices=9)).run(parts)
        run = live.workload_run()
        assert run.match_rates == live.match_rates
        assert run.per_part_series().overall().n_total > 0


def shuffled_parts(n_parts=3, n=400, seed=3):
    """Parts whose requests are not in arrival order (each part still
    lies after the previous one)."""
    rng = np.random.default_rng(seed)
    parts = []
    for p in range(n_parts):
        arrivals = 10.0 * p + np.sort(rng.uniform(0.0, 5.0, n))
        blocks = rng.integers(0, 30, n)
        order = rng.permutation(n)
        parts.append(Trace.from_arrays(arrivals[order], blocks[order]))
    return parts


class TestBoundaryMining:
    """Each boundary mines the previous part exactly as the offline
    loop does: the pairs of its arrival-sorted reads."""

    @pytest.mark.parametrize("support", [1, 2])
    def test_audit_counts_equal_batch_apriori(self, parts, support):
        live = ReplicationController(ControllerConfig(
            n_devices=9, min_support=support)).run(parts)
        for record in live.audit:
            prev = parts[record.part - 1]
            want = apriori(transactions_from_trace(prev, 0.133),
                           support, max_size=2)
            assert record.n_transactions == want.n_transactions
            assert record.n_itemsets == len(want)

    def test_shuffled_arrivals_match_offline(self):
        parts = shuffled_parts()
        offline = play_workload(parts, n_devices=9, seed=3)
        live = ReplicationController(
            ControllerConfig(n_devices=9, seed=3)).run(parts)
        assert offline.match_rates[1:] == [1.0, 1.0]
        assert live.match_rates == offline.match_rates
        assert [request_key(p) for p in live.report.requests] == \
            [request_key(p) for p in offline.report.requests]


class TestNonFiniteArrivals:
    """A NaN or infinite arrival is refused loudly, never dropped
    from the report."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_controller_and_offline_loop_raise(self, parts, bad):
        arrivals = parts[-1].arrival_ms.copy()
        arrivals[5] = bad
        broken = list(parts)
        broken[-1] = Trace.from_arrays(arrivals, parts[-1].block)
        with pytest.raises(ValueError, match="finite"):
            ReplicationController(
                ControllerConfig(n_devices=9)).run(broken)
        with pytest.raises(ValueError, match="finite"):
            play_workload(broken, n_devices=9)


class TestStaticBaseline:
    def test_never_migrates(self, parts):
        live = ReplicationController(
            ControllerConfig(n_devices=9),
            strategy=StaticPlacement()).run(parts)
        assert live.total_migration_cost == 0
        assert live.match_rates == [0.0] * len(parts)
        assert all(not a.replanned for a in live.audit)


class TestBudget:
    def test_budget_caps_moves_per_boundary(self, parts):
        live = ReplicationController(ControllerConfig(
            n_devices=9, migration_budget=5)).run(parts)
        assert all(a.deltas_applied <= 5 for a in live.audit)
        assert any(a.deltas_deferred > 0 for a in live.audit)
        unlimited = ReplicationController(
            ControllerConfig(n_devices=9)).run(parts)
        assert live.total_migration_cost \
            < unlimited.total_migration_cost

    def test_audit_trail_shape(self, parts):
        live = ReplicationController(
            ControllerConfig(n_devices=9)).run(parts)
        assert len(live.audit) == len(parts) - 1
        for record, part_idx in zip(live.audit, range(1, len(parts))):
            assert record.part == part_idx
            assert record.replanned
            assert record.n_transactions > 0
            assert record.migration_cost == record.deltas_applied * 3


class TestFaultAwareness:
    def test_never_replans_onto_dead_modules(self, parts):
        schedule = FaultSchedule.crashes([0, 1])
        live = ReplicationController(
            ControllerConfig(n_devices=9),
            faults=schedule).run(parts)
        assert all(a.excluded == (0, 1) for a in live.audit)
        # deltas onto design blocks touching dead devices were vetoed
        # (per-delta target checks live in the planner unit tests)
        assert any(a.deltas_blocked > 0 for a in live.audit)

    def test_faulted_run_still_deterministic(self, parts):
        schedule = FaultSchedule.crashes([2])
        runs = []
        for _ in range(2):
            live = ReplicationController(
                ControllerConfig(n_devices=9),
                faults=schedule).run(parts)
            runs.append([request_key(p)
                         for p in live.report.requests])
        assert runs[0] == runs[1]


class TestAdaptiveEpsilon:
    def test_requires_statistical_mode(self):
        with pytest.raises(ValueError, match="epsilon"):
            ControllerConfig(adapt_target_delayed_pct=2.0)

    def test_epsilon_adapts_across_boundaries(self, parts):
        live = ReplicationController(ControllerConfig(
            n_devices=9, epsilon=0.05,
            adapt_target_delayed_pct=2.0)).run(parts)
        epsilons = [a.epsilon for a in live.audit]
        assert len(set(epsilons)) > 1 or epsilons[0] != 0.05


class TestConfig:
    def test_from_slo_picks_cheapest_plan(self):
        config = ControllerConfig.from_slo(
            SLO(response_ms=0.4, requests_per_ms=20.0),
            epsilon=0.01)
        assert config.epsilon == 0.01
        assert config.accesses is not None
        controller = ReplicationController(config)
        assert controller.qos.n_devices == config.n_devices

    def test_from_slo_infeasible(self):
        with pytest.raises(ValueError, match="no feasible"):
            ControllerConfig.from_slo(
                SLO(response_ms=0.01, requests_per_ms=1e9))

    def test_validation(self):
        with pytest.raises(ValueError, match="min_support"):
            ControllerConfig(min_support=0)
        with pytest.raises(ValueError, match="fim_window_ms"):
            ControllerConfig(fim_window_ms=0.0)


class TestStrategies:
    def test_fim_replan_history_window(self, parts):
        matcher = FIMBlockMatcher(ReplicationController(
            ControllerConfig(n_devices=9)).qos.allocation)
        strategy = FIMReplan(matcher, history=2, decay=0.5)
        live = ReplicationController(
            ControllerConfig(n_devices=9),
            strategy=strategy).run(parts)
        assert any(a.deltas_applied > 0 for a in live.audit)

    def test_fim_replan_validation(self):
        matcher = FIMBlockMatcher(ReplicationController(
            ControllerConfig(n_devices=9)).qos.allocation)
        with pytest.raises(ValueError, match="history"):
            FIMReplan(matcher, history=0)
        with pytest.raises(ValueError, match="decay"):
            FIMReplan(matcher, decay=1.5)


class TestObservability:
    def test_controller_counters_and_ledger(self, parts):
        with obs.observed() as session:
            ReplicationController(ControllerConfig(
                n_devices=9, epsilon=0.05)).run(parts)
        payload = session.to_payload()
        counters = payload["request"]["metrics"]["counters"]
        assert counters["controller.boundary"] == len(parts) - 1
        assert counters["controller.replan"] == len(parts) - 1
        assert counters["controller.delta_applied"] > 0
        assert counters["qos.requests"] > 0

    def test_outputs_unchanged_under_observation(self, parts):
        plain = ReplicationController(
            ControllerConfig(n_devices=9)).run(parts)
        with obs.observed():
            observed = ReplicationController(
                ControllerConfig(n_devices=9)).run(parts)
        assert [request_key(p) for p in plain.report.requests] == \
            [request_key(p) for p in observed.report.requests]

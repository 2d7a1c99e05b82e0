"""Tests for :mod:`repro.flash.admitpath`, the segmented admission
kernel, and its wiring into :class:`~repro.flash.driver.\
OnlineStreamSession`.

The kernel's contract is byte-identity with the scalar reference loop;
the deep equivalence sweeps live in the property suite and the
``admission`` determinism probe.  This file pins the mechanics: plan
shape and ordering, every demotion reason, mid-stream state export,
and the engine-resolution reporting.
"""

import numpy as np
import pytest

from repro.flash import admitpath
from repro.flash.admitpath import (
    DemotionRequired,
    VectorAdmissionWindow,
    supports_vector_admission,
)
from repro.flash.driver import OnlineTracePlayer, engine_tally

from tests.support.builders import crash_schedule, design_alloc


def window(limit=3, overflow="delay", interval_ms=0.4):
    return VectorAdmissionWindow(interval_ms, limit, overflow)


def feed(win, times, base=0):
    arr = np.asarray(times, dtype=np.float64)
    win.feed(arr, np.arange(base, base + arr.size, dtype=np.int64))


class TestSupportMatrix:
    def test_counting_admission_is_eligible(self):
        ok, reason = supports_vector_admission("counting", 0.0, None)
        assert ok and reason == ""

    @pytest.mark.parametrize("admission,epsilon,budgets,expected", [
        ("exact", 0.0, None, "exact_admission"),
        ("counting", 0.05, None, "statistical"),
        ("counting", 0.0, {"app": 5}, "tenant_budgets"),
    ])
    def test_ineligible_reasons(self, admission, epsilon, budgets,
                                expected):
        ok, reason = supports_vector_admission(admission, epsilon,
                                               budgets)
        assert not ok and reason == expected

    def test_disabled_switch(self):
        with admitpath.disabled():
            ok, reason = supports_vector_admission("counting", 0.0,
                                                   None)
            assert not ok and reason == "disabled"
        assert supports_vector_admission("counting", 0.0, None)[0]


class TestPlanShape:
    def test_within_budget_all_admitted(self):
        win = window(limit=5)
        feed(win, [0.0, 0.1, 0.2, 0.5, 0.6])
        plan = win.take(None)
        assert plan.order.tolist() == [0, 1, 2, 3, 4]
        assert plan.admitted.all()
        assert plan.starts.all()
        assert plan.n_admitted == 5
        assert plan.n_delayed == 0 and plan.n_rejected == 0

    def test_overflow_delay_spills_to_next_interval(self):
        win = window(limit=2)
        feed(win, [0.0, 0.01, 0.02, 0.03])
        plan = win.take(None)
        # two admitted in interval 0; the spill replays at the t=0.4
        # boundary in arrival order
        assert plan.n_admitted == 4
        assert plan.n_delayed == 2
        spilled = plan.times.tolist()[2:]
        assert spilled == [0.4, 0.4]
        assert plan.intervals.tolist() == [0, 0, 1, 1]
        # the boundary batch is simultaneous: one start, one follower
        assert plan.starts.tolist() == [True, True, True, False]

    def test_overflow_reject_marks_entries(self):
        win = window(limit=2, overflow="reject")
        feed(win, [0.0, 0.01, 0.02, 0.03])
        plan = win.take(None)
        assert plan.n_rejected == 2
        assert plan.admitted.tolist() == [True, True, False, False]

    def test_take_until_is_strictly_before(self):
        win = window(limit=5)
        feed(win, [0.0, 0.2, 0.4])
        plan = win.take(0.4)
        # advance(until) serves strictly-before arrivals only
        assert plan.order.tolist() == [0, 1]
        assert win.n_pending == 1
        rest = win.take(None)
        assert rest.order.tolist() == [2]


class TestDemotion:
    def test_sub_tolerance_gap_demotes(self):
        win = window(limit=5)
        feed(win, [0.1, 0.1 + 5e-13])
        with pytest.raises(DemotionRequired) as exc:
            win.take(None)
        assert exc.value.reason == "time_resolution"

    def test_out_of_order_feed_demotes(self):
        win = window(limit=5)
        feed(win, [0.9])
        assert win.take(None) is not None
        feed(win, [0.1], base=1)  # earlier than a served interval
        with pytest.raises(DemotionRequired) as exc:
            win.take(None)
        assert exc.value.reason == "out_of_order"

    def test_export_state_mid_interval(self):
        win = window(limit=2)
        feed(win, [0.0, 0.01, 0.02, 0.5])
        win.take(0.45)
        state = win.export_state()
        assert state["interval"] == 1
        assert state["count"] == 1  # the spill consumed one slot
        assert state["times"].tolist() == [0.5]

    def test_session_demotes_on_writes_and_matches_scalar(self):
        arrivals = [i * 0.05 for i in range(40)]
        buckets = [i % 36 for i in range(40)]
        reads = [i != 25 for i in range(40)]

        def run():
            player = OnlineTracePlayer(design_alloc(), interval_ms=0.4)
            session = player.session()
            session.feed(arrivals[:20], buckets[:20])
            session.feed(arrivals[20:], buckets[20:],
                         reads=reads[20:])
            return session, session.drain()

        session, (series, played) = run()
        assert session.admission_kernel == "scalar"
        assert session.admission_fallback_reason == "writes"
        with admitpath.disabled():
            _, (series_ref, played_ref) = run()
        assert [(p.index, p.io.completed_at) for p in played] == \
            [(p.index, p.io.completed_at) for p in played_ref]


class TestSessionReporting:
    def test_vector_session_reports_and_tallies(self):
        before = engine_tally().get("admission.vector", 0)
        session = OnlineTracePlayer(design_alloc(),
                                    interval_ms=0.4).session()
        assert session.admission_kernel == "vector"
        assert session.admission_fallback_reason == ""
        assert engine_tally()["admission.vector"] == before + 1

    def test_des_session_stays_scalar(self):
        session = OnlineTracePlayer(design_alloc(), interval_ms=0.4,
                                    engine="des").session()
        assert session.admission_kernel == "scalar"
        assert session.admission_fallback_reason == "des_engine"

    def test_exact_admission_stays_scalar(self):
        session = OnlineTracePlayer(design_alloc(), interval_ms=0.4,
                                    admission="exact").session()
        assert session.admission_kernel == "scalar"
        assert session.admission_fallback_reason == "exact_admission"


class TestBulkSpan:
    """Singleton placement in the plan walk (per-mask memo, idle
    first-replica shortcut) against the scalar loop."""

    def run_pair(self, arrivals, buckets, **kw):
        player = OnlineTracePlayer(design_alloc(), interval_ms=0.4,
                                   **kw)
        session = player.session()
        session.feed(arrivals, buckets)
        _, played = session.drain()
        with admitpath.disabled():
            player = OnlineTracePlayer(design_alloc(),
                                       interval_ms=0.4, **kw)
            _, ref = player.play(arrivals, buckets)
        key = [(p.index, p.interval, p.delayed, p.rejected,
                p.io.device, p.io.issued_at, p.io.started_at,
                p.io.completed_at, p.io.failed) for p in played]
        ref_key = [(p.index, p.interval, p.delayed, p.rejected,
                    p.io.device, p.io.issued_at, p.io.started_at,
                    p.io.completed_at, p.io.failed) for p in ref]
        assert key == ref_key
        return played

    def test_contended_first_replica_takes_reference_arithmetic(self):
        # every request hits the same bucket, so the first live
        # replica is busy for most of them -- the slow arm must
        # reproduce _pick's first-idle-then-first-minimal choice
        arrivals = [i * 0.01 for i in range(64)]
        self.run_pair(arrivals, [0] * 64)

    def test_mask_change_mid_span(self):
        # a crash in the middle of an uncongested run switches the
        # placement memo's mask; placement flips replicas exactly there
        arrivals = [i * 0.25 for i in range(80)]
        buckets = [i % 36 for i in range(80)]
        played = self.run_pair(arrivals, buckets,
                               faults=crash_schedule(0, 4, at=5.0))
        assert any(p.io.device in (0, 4) for p in played[:16])
        later = [p for p in played if p.io.arrival >= 5.0]
        assert all(p.io.device not in (0, 4) for p in later)

    def test_all_replicas_masked_is_unavailable(self):
        # crash every module: the plan walk must emit the same
        # unavailable rows as the scalar loop
        played = self.run_pair([0.6, 0.85], [0, 1],
                               faults=crash_schedule(*range(9),
                                                     at=0.5))
        assert all(p.io.failed for p in played)


class TestResultCacheCoupling:
    def test_toggle_reaches_runtime_token(self):
        from repro.runner.cache import runtime_token

        assert runtime_token()["admission_kernel"] is True
        with admitpath.disabled():
            assert runtime_token()["admission_kernel"] is False

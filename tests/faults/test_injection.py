"""Driver-level fault injection: masking, failover, degraded writes."""

import pytest

from repro.faults import FaultEvent, FaultSchedule
from repro.flash.driver import BatchTracePlayer, select_engine
from repro.flash.params import MSR_SSD_PARAMS
from tests.support.builders import (
    crash_schedule,
    design_alloc,
    online_player,
)

READ = MSR_SSD_PARAMS.read_ms


def _round_robin(alloc, n=120, gap=0.3):
    arrivals = [i * gap for i in range(n)]
    buckets = [i % alloc.n_buckets for i in range(n)]
    return arrivals, buckets


def _engines(faults, engine="auto"):
    """The engine both players resolve to under ``faults``."""
    alloc = design_alloc()
    return {BatchTracePlayer(alloc, 0.133, engine=engine,
                             faults=faults).engine_selected,
            online_player(alloc, faults=faults,
                          engine=engine).engine_selected}


class TestEngineFallback:
    def test_faulty_configs_keep_fast_path(self):
        # Fault schedules are materialised before playback, so the
        # replay engine handles them without falling back to the DES.
        assert _engines(crash_schedule(0)) == {"fast"}

    def test_empty_schedule_keeps_fast_path(self):
        assert _engines(FaultSchedule.none()) == {"fast"}
        assert _engines(None) == {"fast"}

    def test_fast_accepts_faults(self):
        assert _engines(crash_schedule(0), engine="fast") == {"fast"}

    def test_module_factory_still_falls_back(self):
        player = online_player(faults=crash_schedule(0),
                               module_factory=object())
        assert player.engine_selected == "des"
        assert player.fallback_reason == "module_factory"
        with pytest.raises(ValueError):
            select_engine("fast", module_factory=object())


class TestFailureAwareScheduling:
    @pytest.mark.parametrize("engine", ["fast", "des"])
    def test_exact_admission_fails_bucket_with_no_live_replica(
            self, engine):
        # every replica of bucket 0 is dead from t = 0: exact admission
        # denies it in every interval, so delaying it would requeue it
        # forever; it must fail as unavailable while bucket 1 is served
        alloc = design_alloc()
        dead = alloc.devices_for(0)
        player = online_player(alloc, faults=crash_schedule(*dead),
                               admission="exact", engine=engine)
        _, played = player.play([0.0, 0.0], [0, 1])
        by_bucket = {p.io.bucket: p for p in played}
        assert len(played) == 2
        assert by_bucket[0].failed and not by_bucket[0].rejected
        assert by_bucket[0].io.fail_reason == "unavailable"
        assert not by_bucket[1].failed

    def test_dead_module_never_serves(self):
        alloc = design_alloc()
        player = online_player(alloc, faults=crash_schedule(0, 4))
        _, played = player.play(*_round_robin(alloc))
        served = [p for p in played if not p.rejected and not p.failed]
        assert served
        assert all(p.io.device not in (0, 4) for p in served)

    def test_down_window_masks_only_while_active(self):
        alloc = design_alloc()
        faults = FaultSchedule([FaultEvent("down", 0, 0.0, 10.0)])
        player = online_player(alloc, faults=faults)
        _, played = player.play(*_round_robin(alloc, n=200))
        before = [p for p in played
                  if p.io.issued_at < 10.0 and not p.failed]
        after = [p for p in played if p.io.issued_at >= 10.0]
        assert all(p.io.device != 0 for p in before)
        assert any(p.io.device == 0 for p in after)

    def test_survivors_still_meet_guarantee(self):
        # c = 3 absorbs one crash without any violation
        alloc = design_alloc()
        player = online_player(alloc, faults=crash_schedule(2))
        _, played = player.play(*_round_robin(alloc))
        assert all(not p.failed for p in played)
        served = [p for p in played if not p.rejected]
        assert max(p.io.response_ms for p in served) \
            == pytest.approx(READ)

    def test_all_replicas_dead_fails_request(self):
        alloc = design_alloc()
        block = alloc.devices_for(0)
        player = online_player(alloc, faults=crash_schedule(*block))
        arrivals, buckets = [0.0], [0]
        _, played = player.play(arrivals, buckets)
        assert played[0].failed
        assert played[0].io.fail_reason == "unavailable"


class TestReadErrorFailover:
    def test_certain_errors_fail_over_to_replica(self):
        alloc = design_alloc()
        faults = FaultSchedule(
            [FaultEvent("read_error", m, 0.0, 1e9, prob=1.0)
             for m in range(4)])
        player = online_player(alloc, faults=faults)
        _, played = player.play(*_round_robin(alloc, n=60))
        recovered = [p for p in played
                     if not p.failed and p.io.retries > 0]
        assert recovered
        assert all(p.io.faulted for p in recovered)

    def test_slow_window_stretches_service(self):
        alloc = design_alloc()
        faults = FaultSchedule(
            [FaultEvent("slow", m, 0.0, 1e9, factor=4.0)
             for m in range(9)])
        player = online_player(alloc, faults=faults)
        _, played = player.play([0.0], [0])
        assert played[0].io.response_ms >= 4.0 * READ


class TestDegradedWrites:
    def test_write_skips_dead_replica_and_flags_master(self):
        alloc = design_alloc()
        block = alloc.devices_for(0)
        player = online_player(alloc, faults=crash_schedule(block[0]))
        _, played = player.play([0.0], [0], reads=[False])
        w = played[0]
        assert not w.failed
        assert w.io.faulted

    def test_write_with_no_live_replica_fails(self):
        alloc = design_alloc()
        block = alloc.devices_for(0)
        player = online_player(alloc, faults=crash_schedule(*block))
        _, played = player.play([0.0], [0], reads=[False])
        assert played[0].failed


class TestBatchPlayerMasking:
    def test_batch_masks_dead_modules(self):
        alloc = design_alloc()
        player = BatchTracePlayer(alloc, interval_ms=0.4,
                                  params=MSR_SSD_PARAMS,
                                  faults=crash_schedule(1))
        _, played = player.play(*_round_robin(alloc))
        served = [p for p in played if not p.rejected and not p.failed]
        assert served
        assert all(p.io.device != 1 for p in served)

"""Tests for :class:`repro.flash.driver.OnlineStreamSession`.

The session is the one-shot play loop made re-entrant, so the load-
bearing property is *chunking invariance*: however the trace is split
into ``feed``/``advance`` steps, the drained result must be
byte-identical to a single ``play`` call.
"""

import pytest

from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.faults import FaultEvent, FaultSchedule
from repro.flash.driver import OnlineTracePlayer

ALLOC = DesignTheoreticAllocation.from_parameters(9, 3)


def make_trace(n=240, gap=0.11):
    arrivals = [i * gap for i in range(n)]
    buckets = [(i * 7) % ALLOC.n_buckets for i in range(n)]
    return arrivals, buckets


def played_key(played):
    return [(p.index, p.interval, p.delayed, p.rejected,
             p.io.response_ms, p.io.total_ms) for p in played]


def series_key(series):
    return [(i, series.stats(i).n_total, series.stats(i).state())
            for i in series.intervals()]


def make_player(**kw):
    kw.setdefault("interval_ms", 0.4)
    return OnlineTracePlayer(ALLOC, **kw)


class TestChunkingInvariance:
    @pytest.mark.parametrize("n_chunks", [1, 2, 5, 11])
    def test_chunked_feed_equals_play(self, n_chunks):
        arrivals, buckets = make_trace()
        series_ref, played_ref = make_player().play(arrivals, buckets)

        session = make_player().session()
        size = max(1, len(arrivals) // n_chunks)
        for start in range(0, len(arrivals), size):
            chunk = slice(start, start + size)
            if start:
                # serve everything strictly before the chunk starts
                session.advance(arrivals[start])
            session.feed(arrivals[chunk], buckets[chunk])
        series, played = session.drain()
        assert played_key(played) == played_key(played_ref)
        assert series_key(series) == series_key(series_ref)

    def test_boundary_coincident_arrivals_batch_across_chunks(self):
        # two arrivals at the same timestamp split across chunks must
        # still be admitted as one batch (advance is strictly-before)
        arrivals = [0.0, 0.5, 0.5, 1.0]
        buckets = [0, 1, 2, 3]
        _, played_ref = make_player().play(arrivals, buckets)
        session = make_player().session()
        session.feed(arrivals[:2], buckets[:2])
        session.advance(0.5)
        assert session.n_pending == 1  # the t=0.5 arrival waits
        session.feed(arrivals[2:], buckets[2:])
        _, played = session.drain()
        assert played_key(played) == played_key(played_ref)

    def test_overflow_requeues_cross_chunks(self):
        # a burst far over the interval budget delays requests into
        # later intervals; re-queues must interleave with arrivals fed
        # later exactly as in the one-shot run
        arrivals = [0.01 * i for i in range(60)]
        buckets = [i % ALLOC.n_buckets for i in range(60)]
        _, played_ref = make_player().play(arrivals, buckets)
        session = make_player().session()
        session.feed(arrivals[:30], buckets[:30])
        session.advance(arrivals[30])
        session.feed(arrivals[30:], buckets[30:])
        _, played = session.drain()
        assert played_key(played) == played_key(played_ref)

    def test_faulted_fast_session_equals_play(self):
        schedule = FaultSchedule.crashes([0])
        arrivals, buckets = make_trace(n=120)
        player = make_player(faults=schedule)
        assert player.engine_selected == "fast"
        _, played_ref = player.play(arrivals, buckets)
        session = make_player(faults=schedule).session()
        session.feed(arrivals[:60], buckets[:60])
        session.advance(arrivals[60])
        session.feed(arrivals[60:], buckets[60:])
        _, played = session.drain()
        assert played_key(played) == played_key(played_ref)


class TestFaultedReplayOwnership:
    """A faulted fast session serves its requests through its own
    replay, whatever else runs on the same player meanwhile."""

    SLOW = FaultSchedule([FaultEvent("slow", m, 0.0, 50.0, factor=3.0)
                          for m in range(ALLOC.n_devices)])

    def test_play_during_open_session_keeps_its_requests(self):
        arrivals, buckets = make_trace(n=300)
        _, played_ref = make_player(faults=self.SLOW).play(arrivals,
                                                          buckets)
        player = make_player(faults=self.SLOW)
        session = player.session()
        session.feed(arrivals[:150], buckets[:150])
        session.advance(arrivals[150])
        _, played_other = player.play(arrivals, buckets)
        session.feed(arrivals[150:], buckets[150:])
        _, played = session.drain()
        assert played_key(played) == played_key(played_ref)
        assert played_key(played_other) == played_key(played_ref)
        assert all(p.io.device >= 0 for p in played)

    def test_drain_releases_the_replay(self):
        session = make_player(faults=self.SLOW).session()
        assert session._replay is not None
        session.feed([0.0, 0.1], [0, 1])
        session.drain()
        assert session._replay is None


class TestDESSession:
    def test_des_feed_all_then_drain_matches_fast(self):
        arrivals, buckets = make_trace(n=120)
        des = make_player(engine="des").session()
        des.feed(arrivals, buckets)
        series_des, played_des = des.drain()
        fast = make_player(engine="fast").session()
        fast.feed(arrivals, buckets)
        series_fast, played_fast = fast.drain()
        assert played_key(played_des) == played_key(played_fast)
        assert series_key(series_des) == series_key(series_fast)

    def test_des_advance_raises(self):
        session = make_player(engine="des").session()
        session.feed([0.0], [0])
        with pytest.raises(RuntimeError, match="fast engine"):
            session.advance(1.0)


class TestLifecycle:
    def test_mid_stream_observation(self):
        arrivals, buckets = make_trace(n=40, gap=0.5)
        session = make_player().session()
        session.feed(arrivals[:20], buckets[:20])
        assert len(session) == 20
        session.advance(arrivals[20])
        assert session.n_pending == 0
        assert len(session.played) == 20  # served, inspectable now
        session.feed(arrivals[20:], buckets[20:])
        session.drain()

    def test_drain_twice_raises(self):
        session = make_player().session()
        session.feed([0.0], [0])
        session.drain()
        with pytest.raises(RuntimeError, match="drained"):
            session.drain()

    def test_feed_after_drain_raises(self):
        session = make_player().session()
        session.drain()
        with pytest.raises(RuntimeError, match="drained"):
            session.feed([0.0], [0])
        with pytest.raises(RuntimeError, match="drained"):
            session.advance(1.0)

    def test_feed_validation(self):
        session = make_player().session()
        with pytest.raises(ValueError, match="align"):
            session.feed([0.0, 1.0], [0])
        with pytest.raises(ValueError, match="reads"):
            session.feed([0.0], [0], reads=[True, False])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("engine", ["fast", "des"])
    def test_feed_rejects_non_finite_arrivals(self, bad, engine):
        session = make_player(engine=engine).session()
        with pytest.raises(ValueError, match="finite"):
            session.feed([0.0, bad, 1.0], [0, 1, 2])
        assert len(session) == 0 and session.n_pending == 0
        with pytest.raises(ValueError, match="finite"):
            make_player(engine=engine).play([bad], [0])

    def test_tenant_session_requires_apps(self):
        player = make_player(tenant_budgets={"a": 5})
        session = player.session()
        with pytest.raises(ValueError, match="apps"):
            session.feed([0.0], [0])
        session.feed([0.0], [0], apps=["a"])
        _, played = session.drain()
        assert len(played) == 1

"""Trace players: feed block-request traces through the flash array.

Two drivers mirror the paper's two retrieval modes:

* :class:`BatchTracePlayer` -- interval-based design-theoretic
  retrieval (§III-C, used for Table III): requests are aligned to
  interval boundaries, each interval's batch is scheduled as a whole,
  and every request is issued at the interval start.
* :class:`OnlineTracePlayer` -- online retrieval (§IV-B, used for
  Figures 8-10 and 12): requests are served as they arrive, FCFS,
  with admission control deciding between *serve now*, *delay until a
  replica is idle* (deterministic QoS), *queue on the earliest-finish
  replica* (statistical QoS with ``Q < ε``), or *delay to the next
  interval* (budget overflow).

Both drivers support two interchangeable playback engines (see
:func:`select_engine`): the DES, which executes the actual service
through the simulated flash array, and a closed-form *fast* engine.
Both players keep a busy-until mirror to make placement decisions;
with deterministic service times the mirror is exact, so on
homogeneous constant-latency configurations the fast engine reads the
completion times straight off the mirror (the Lindley recurrence, see
:func:`supports_fast_playback`) instead of stepping the event loop.
The engines are bit-for-bit identical where both apply -- enforced by
property tests and the determinism probes -- and ``"auto"`` falls back
to the DES whenever an FTL or a custom module type makes service times
state-dependent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.allocation.base import AllocationScheme
from repro.core.admission import (
    DeterministicAdmission,
    ExactAdmission,
    StatisticalAdmission,
)
from repro.flash import admitpath
from repro.flash.array import FlashArray, IORequest
from repro.flash.metrics import IntervalSeries
from repro.flash.params import FlashParams
from repro.retrieval.design_theoretic import design_theoretic_retrieval
from repro.retrieval.policy import combined_retrieval
from repro.sim import Environment

__all__ = ["BatchTracePlayer", "OnlineTracePlayer",
           "OnlineStreamSession", "PlayedRequest",
           "select_engine", "supports_fast_playback", "engine_tally",
           "reset_engine_tally"]


#: process-wide tally of engine selections and fallback reasons --
#: purely diagnostic (benches report fast-path coverage from it);
#: never read by any simulation code
_ENGINE_TALLY: Dict[str, int] = {}


def engine_tally() -> Dict[str, int]:
    """Snapshot of engine selections since the last reset.

    Keys are ``"fast"``, ``"des"`` and ``"fallback.<reason>"`` for
    playback-engine picks, plus ``"admission.vector"`` /
    ``"admission.scalar"`` / ``"admission.demoted"`` and
    ``"admission.fallback.<reason>"`` for the admission-kernel path
    each streaming session resolved to; consumed by
    ``tools/bench_runner.py`` to report fast-path coverage instead of
    guessing.
    """
    return dict(_ENGINE_TALLY)


def reset_engine_tally() -> None:
    _ENGINE_TALLY.clear()


def _tally_engine(engine: str, reason: str) -> None:
    _ENGINE_TALLY[engine] = _ENGINE_TALLY.get(engine, 0) + 1
    if reason:
        key = f"fallback.{reason}"
        _ENGINE_TALLY[key] = _ENGINE_TALLY.get(key, 0) + 1
    if obs.ACTIVE:
        obs.SESSION.on_engine(engine, reason)


def _tally_admission(kind: str, reason: str) -> None:
    """Record one session's admission-kernel resolution.

    ``kind`` is ``"vector"`` (the :mod:`repro.flash.admitpath`
    segmented kernel), ``"scalar"`` (the reference loop) or
    ``"demoted"`` (a vector session that fell back mid-stream);
    ``reason`` names the fallback, mirroring the engine tally.
    """
    key = f"admission.{kind}"
    _ENGINE_TALLY[key] = _ENGINE_TALLY.get(key, 0) + 1
    if reason:
        key = f"admission.fallback.{reason}"
        _ENGINE_TALLY[key] = _ENGINE_TALLY.get(key, 0) + 1


def supports_fast_playback(module_factory=None, ftl_factory=None,
                           priority_queues: bool = False) -> bool:
    """True when playback is computable in closed form.

    The paper's default array is the degenerate queueing regime: every
    module is a deterministic constant-rate FCFS server, so a request's
    completion is the Lindley recurrence ``c_i = max(u_i, c_{i-1}) +
    s`` -- which the busy-until mirror (and, for bulk queues,
    :func:`repro.flash.batch.stacked_fcfs_completion_times`) evaluates
    exactly, without stepping the event loop.  Any hook that makes
    per-request service time depend on *hidden simulation state* -- a
    custom module type (``module_factory``: HDD seek/rotation,
    channel-bus geometry), an FTL whose garbage collection stalls the
    module, or priority scheduling -- disqualifies the closed form;
    the drivers then run the DES.

    Fault schedules (crashes, down windows, latency degradation, read
    errors) do **not**: a schedule is fully materialised before
    playback, so faulted service is a pure function of the submission
    order and the schedule, replayed event-free by
    :class:`repro.flash.faulted.FaultedReplay`.
    """
    return (module_factory is None and ftl_factory is None
            and not priority_queues)


def select_engine(engine: str, module_factory=None, ftl_factory=None,
                  priority_queues: bool = False) -> Tuple[str, str]:
    """Pick the playback engine; returns ``(engine, fallback_reason)``.

    ``"auto"`` (the default everywhere) selects the closed-form fast
    path whenever the configuration is eligible (see
    :func:`supports_fast_playback`) and the DES otherwise; ``"fast"``
    insists and raises on ineligible configurations; ``"des"`` always
    steps the event loop.  Both engines produce bit-identical results
    on eligible configurations -- enforced by the property tests and
    the ``fastpath``/``faults`` determinism probes.

    Fault schedules (:mod:`repro.faults`) -- empty *or* non-empty --
    keep the fast engine, so they take no part in the choice.  Only
    state-dependent service hooks fall back, and the returned
    ``fallback_reason`` names which one (``"module_factory"``,
    ``"ftl_factory"``, ``"priority_queues"``, or ``"forced"`` when the
    caller demanded ``"des"``; empty string when the fast path runs).
    """
    if engine not in ("auto", "des", "fast"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "des":
        return "des", "forced"
    eligible = supports_fast_playback(module_factory=module_factory,
                                      ftl_factory=ftl_factory,
                                      priority_queues=priority_queues)
    if eligible:
        return "fast", ""
    if engine == "fast":
        raise ValueError(
            "fast playback requires homogeneous constant-latency FCFS "
            "modules (no module_factory, no ftl_factory, no priority "
            "queues); fault schedules are fine")
    if module_factory is not None:
        return "des", "module_factory"
    if ftl_factory is not None:
        return "des", "ftl_factory"
    return "des", "priority_queues"


def _collect_series(played: Sequence["PlayedRequest"]) -> IntervalSeries:
    # Observability sees every played request here -- the one pass both
    # engines share -- so instrumented metrics/spans are derived from
    # the same bit-identical timestamps regardless of engine.
    session = obs.SESSION if obs.ACTIVE else None
    series = IntervalSeries()
    for pr in played:
        if session is not None:
            session.observe_request(pr)
        if pr.rejected or pr.failed:
            # Never-served requests carry no meaningful response time;
            # the QoS layer accounts them separately (rejection counts,
            # degraded-mode ledger entries).
            continue
        series.record(pr.interval, pr.io.response_ms,
                      pr.io.delay_ms if pr.delayed else 0.0)
    return series


def _finish_play(played: List["PlayedRequest"], n_devices: int,
                 interval_ms: float,
                 ) -> Tuple[IntervalSeries, List["PlayedRequest"]]:
    """Shared play() epilogue: stats collection plus, when enabled,
    the per-module utilisation/queue-depth series."""
    series = _collect_series(played)
    if obs.ACTIVE:
        obs.SESSION.record_module_series(played, n_devices, interval_ms)
    return series, played


@dataclass
class PlayedRequest:
    """Bookkeeping for one request after a play-through."""

    io: IORequest
    interval: int
    delayed: bool
    #: index of the request in the caller's input arrays
    index: int = -1
    #: True when admission rejected the request outright (reject
    #: policy); the request was never served
    rejected: bool = False

    @property
    def failed(self) -> bool:
        """True when the fault layer lost the request (dead module,
        read retries exhausted, no live replica).  A property rather
        than a field because failure is discovered in DES time, after
        the :class:`PlayedRequest` is appended."""
        return self.io.failed

    @property
    def response_ms(self) -> float:
        return self.io.response_ms

    @property
    def delay_ms(self) -> float:
        return self.io.delay_ms


def _unavailable_io(arrival: float, bucket: int, t: float,
                    is_read: bool = True) -> IORequest:
    """An :class:`IORequest` failed at dispatch: no live replica."""
    io = IORequest(arrival=arrival, bucket=bucket, is_read=is_read)
    io.failed = True
    io.fail_reason = "unavailable"
    io.faulted = True
    io.issued_at = t
    io.completed_at = t
    if obs.ACTIVE:
        obs.SESSION.on_fault("unavailable")
    return io


def _group_by_interval(arrivals: Sequence[float], interval_ms: float,
                       ) -> Dict[int, List[int]]:
    groups: Dict[int, List[int]] = {}
    for i, t in enumerate(arrivals):
        idx = int(t / interval_ms + 1e-9)
        groups.setdefault(idx, []).append(i)
    return groups


class BatchTracePlayer:
    """Interval-aligned playback with batch (design-theoretic) retrieval.

    Parameters
    ----------
    allocation:
        Bucket -> replica devices mapping.
    interval_ms:
        The QoS interval ``T``.
    retrieval:
        ``"combined"`` (DTR + max-flow fallback, §III-C, default) or
        ``"guarantee"`` (plain DTR targeting the guarantee level
        ``M(b)``, the Table II semantics).
    engine:
        ``"auto"`` (closed-form fast path when eligible, else DES),
        ``"des"`` or ``"fast"`` -- see :func:`select_engine`.
    faults:
        Optional :class:`repro.faults.FaultSchedule`.  Dead and down
        modules are masked out of every batch's candidate sets at the
        batch instant (failure-aware retrieval); buckets with no live
        replica fail as ``"unavailable"``.  Faulted playback replays
        on the fast engine, byte-identical to the DES.
    """

    def __init__(self, allocation: AllocationScheme, interval_ms: float,
                 retrieval: str = "combined",
                 params=None, module_factory=None,
                 engine: str = "auto", faults=None):
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if retrieval not in ("combined", "guarantee", "greedy"):
            raise ValueError(f"unknown retrieval mode {retrieval!r}")
        self.allocation = allocation
        self.interval_ms = interval_ms
        self.retrieval = retrieval
        self.params = params
        #: optional custom module constructor (e.g. HDDModule for the
        #: flash-vs-HDD motivation ablation)
        self.module_factory = module_factory
        self.faults = faults
        self.engine, self.fallback_reason = select_engine(
            engine, module_factory=module_factory)

    @property
    def engine_selected(self) -> str:
        """The engine this player's configuration resolved to."""
        return self.engine

    def _schedule(self, candidates, carry):
        """Device assignment for one interval batch.

        ``carry[d]`` is the backlog on device ``d`` in service-time
        units at the batch instant; all modes are queue-aware so one
        slow interval does not silently cascade into the next.
        """
        n = self.allocation.n_devices
        if self.retrieval == "greedy":
            # The baseline I/O driver: arrival-order, least-loaded
            # replica (counting backlog).  No remapping, no max-flow.
            loads = list(carry)
            assignment = []
            for cands in candidates:
                best = min(cands, key=lambda d: loads[d])
                loads[best] += 1
                assignment.append(best)
            from repro.retrieval.schedule import RetrievalSchedule
            return RetrievalSchedule(tuple(assignment), n)
        if self.retrieval == "guarantee" and all(c <= 0 for c in carry):
            return design_theoretic_retrieval(
                candidates, n, guarantee_level=True,
                replication=self.allocation.replication)
        if all(c <= 0 for c in carry):
            return combined_retrieval(candidates, n)
        from repro.retrieval.maxflow import maxflow_retrieval_with_carry
        return maxflow_retrieval_with_carry(candidates, n, carry)

    def play(self, arrivals: Sequence[float], buckets: Sequence[int],
             reads: Optional[Sequence[bool]] = None,
             ) -> Tuple[IntervalSeries, List[PlayedRequest]]:
        """Play a trace; returns per-interval stats and per-request detail.

        ``arrivals[i]`` is the arrival time (ms) of a request for
        ``buckets[i]``.  Requests arriving inside an interval are issued
        at the *next* interval boundary (the alignment rule of §IV);
        requests arriving exactly at a boundary belong to the interval
        that starts there.

        The batch player is read-only (as are all the paper's batch
        experiments); mixed read/write traces go through
        :class:`OnlineTracePlayer`.
        """
        if len(arrivals) != len(buckets):
            raise ValueError("arrivals and buckets must align")
        if reads is not None and not all(reads):
            raise ValueError("BatchTracePlayer is read-only; use "
                             "OnlineTracePlayer for writes")
        _tally_engine(self.engine, self.fallback_reason)
        played: List[PlayedRequest] = []
        if self.engine == "fast":
            # The busy-until recurrence IS the module behaviour when
            # service times are constant, so the DES adds nothing --
            # same scheduling decisions, same floats.  Under a fault
            # schedule the loop is unchanged (the mirror is
            # fault-independent by construction) and service runs
            # through :class:`repro.flash.faulted.FaultedReplay`.
            params = self.params or FlashParams()
            service = params.read_ms
            replay = None
            if self.faults is not None and len(self.faults):
                from repro.flash.faulted import FaultedReplay

                replay = FaultedReplay(self.faults,
                                       self.allocation.n_devices, params)

            def issue(io, dev, batch_time, busy):
                if replay is not None:
                    # Batch issues have no failover (as in the DES
                    # batch driver): candidates stay None.
                    replay.submit_read(io, dev, batch_time, batch_time)
                    return
                io.device = dev
                io.issued_at = batch_time
                io.enqueued_at = batch_time
                io.started_at = max(busy, batch_time)
                io.completed_at = io.started_at + service

            for _ in self._batches(arrivals, buckets, service, issue,
                                   played):
                pass
            if replay is not None:
                replay.run()
        else:
            env = Environment()
            array = FlashArray(env, self.allocation.n_devices,
                               self.params,
                               module_factory=self.module_factory,
                               faults=self.faults)
            batches = self._batches(
                arrivals, buckets, array.params.read_ms,
                lambda io, dev, batch_time, busy: array.issue(io, dev),
                played)

            def run():
                for batch_time in batches:
                    if batch_time > env.now:
                        yield env.timeout_until(batch_time)

            env.process(run())
            env.run()
        return _finish_play(played, self.allocation.n_devices,
                            self.interval_ms)

    def _batches(self, arrivals, buckets, service: float, issue,
                 played: List[PlayedRequest]):
        """The interval-batch loop both engines share.

        A generator: it yields each batch instant *before* issuing
        the batch, so the DES can advance its clock there, then
        masks, schedules and hands every placed request to
        ``issue(io, dev, batch_time, busy)`` (``busy`` = the device's
        busy-until before this request) -- the only step in which
        the engines differ.
        """
        groups = _group_by_interval(arrivals, self.interval_ms)
        busy_until = [0.0] * self.allocation.n_devices
        for idx in sorted(groups):
            member = groups[idx]
            start = idx * self.interval_ms
            # Alignment: mid-interval arrivals wait for the next
            # boundary.  Boundary-aligned arrivals go at their own.
            batch_time = start
            if any(arrivals[i] > start + 1e-9 for i in member):
                batch_time = (idx + 1) * self.interval_ms
            yield batch_time
            # Failure-aware retrieval: dead/down modules leave the
            # candidate sets at the batch instant.
            masked = self.faults.masked_at(batch_time) \
                if self.faults is not None else None
            live_member: List[int] = []
            cands = []
            for i in member:
                cs = self.allocation.devices_for(int(buckets[i]))
                if masked:
                    live = tuple(d for d in cs if d not in masked)
                    if not live:
                        io = _unavailable_io(float(arrivals[i]),
                                             int(buckets[i]),
                                             batch_time)
                        played.append(PlayedRequest(
                            io=io, interval=idx, index=i,
                            delayed=False))
                        continue
                    cs = live
                live_member.append(i)
                cands.append(cs)
            if not live_member:
                continue
            carry = [max(0.0, b - batch_time) / service
                     for b in busy_until]
            schedule = self._schedule(cands, carry)
            for i, dev in zip(live_member, schedule.assignment):
                io = IORequest(arrival=float(arrivals[i]),
                               bucket=int(buckets[i]))
                issue(io, dev, batch_time, busy_until[dev])
                busy_until[dev] = max(busy_until[dev],
                                      batch_time) + service
                played.append(PlayedRequest(
                    io=io, interval=idx, index=i,
                    delayed=batch_time > io.arrival + 1e-9))


class OnlineTracePlayer:
    """Online FCFS playback with admission control (§IV-B, §V-D/E).

    Parameters
    ----------
    allocation:
        Bucket -> replica devices mapping.
    interval_ms:
        The QoS interval ``T`` (admission budget granularity and the
        response-time guarantee).
    epsilon:
        ``0`` for deterministic QoS; ``> 0`` enables statistical
        admission, which requires ``probabilities``.
    probabilities:
        Sampled ``{k: P_k}`` table (statistical mode only).
    accesses:
        Access budget ``M`` per interval (default 1, as in the paper's
        real-trace experiments where ``T`` fits one access).
    admission:
        ``"counting"`` (the paper's controllers: the deterministic
        ``S``-cap or the statistical ``Q < ε`` rule, default) or
        ``"exact"`` -- per-interval feasibility via a warm-started
        matching (:class:`repro.core.admission.ExactAdmission`), which
        admits every interval the array can provably serve instead of
        stopping at the worst-case bound.  Exact admission is a
        deterministic-QoS refinement: it requires ``epsilon == 0`` and
        no tenant budgets.
    """

    def __init__(self, allocation: AllocationScheme, interval_ms: float,
                 epsilon: float = 0.0,
                 probabilities: Optional[Dict[int, float]] = None,
                 accesses: int = 1, params=None,
                 ftl_factory=None,
                 tenant_budgets: Optional[Dict[str, int]] = None,
                 overflow: str = "delay",
                 module_factory=None,
                 engine: str = "auto",
                 admission: str = "counting",
                 faults=None):
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if epsilon > 0 and probabilities is None:
            raise ValueError("statistical mode requires probabilities")
        if overflow not in ("delay", "reject"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        if admission not in ("counting", "exact"):
            raise ValueError(f"unknown admission mode {admission!r}")
        if admission == "exact" and epsilon > 0:
            raise ValueError(
                "exact admission is a deterministic-QoS refinement; "
                "use epsilon == 0")
        if admission == "exact" and tenant_budgets is not None:
            raise ValueError(
                "exact admission does not support tenant budgets")
        self.allocation = allocation
        self.interval_ms = interval_ms
        self.epsilon = epsilon
        self.probabilities = probabilities or {}
        self.accesses = accesses
        self.params = params
        self.ftl_factory = ftl_factory
        #: optional per-application budgets (paper §III-A); when set,
        #: play() requires the aligned ``apps`` argument and enforces
        #: both the system limit and each tenant's declared size.
        self.tenant_budgets = tenant_budgets
        #: what happens to budget overflow: "delay" pushes the request
        #: to the next interval (paper's choice in §V-D, since
        #: cancelling may break applications); "reject" drops it --
        #: "it can either be rejected or delayed" (§III-A1).
        self.overflow = overflow
        #: optional custom module constructor (e.g. HDDModule).  NOTE:
        #: the busy-until mirror assumes deterministic service times;
        #: with variable-latency modules the mirror is only a
        #: heuristic and the deterministic guarantee does not hold --
        #: which is the point of the HDD counterfactual.
        self.module_factory = module_factory
        self.admission = admission
        #: optional :class:`repro.faults.FaultSchedule`.  Dead/down
        #: modules are masked out of candidate sets at dispatch time,
        #: the driver fails over to the next live replica (with the
        #: schedule's retry/backoff policy) when an issued request
        #: comes back failed, and writes go to the live replicas only.
        #: Faulted playback keeps the fast engine: the busy-until
        #: mirror drives placement exactly as in the DES (it is never
        #: updated from fault outcomes) and service replays through
        #: :class:`repro.flash.faulted.FaultedReplay`.
        self.faults = faults
        self.engine, self.fallback_reason = select_engine(
            engine, module_factory=module_factory,
            ftl_factory=ftl_factory)

    @property
    def engine_selected(self) -> str:
        """The engine this player's configuration resolved to."""
        return self.engine

    def _make_admission(self):
        if self.admission == "exact":
            excluded = ()
            if self.faults is not None:
                # Modules dead from the start never serve anything;
                # exact admission matches over the live array only.
                excluded = tuple(sorted(
                    m for m in range(self.allocation.n_devices)
                    if self.faults.is_dead(m, 0.0)))
            return ExactAdmission(self.allocation, self.accesses,
                                  excluded=excluded)
        if self.epsilon > 0:
            return StatisticalAdmission(
                self.probabilities, self.epsilon,
                self.allocation.replication, self.accesses)
        return DeterministicAdmission(self.allocation.replication,
                                      self.accesses)

    def play(self, arrivals: Sequence[float], buckets: Sequence[int],
             reads: Optional[Sequence[bool]] = None,
             apps: Optional[Sequence[str]] = None,
             ) -> Tuple[IntervalSeries, List[PlayedRequest]]:
        """Play a trace online; returns per-interval stats and detail.

        ``reads[i]`` False marks a write: it is applied to *every* live
        replica (replication consistency), counts ``c`` units against
        the interval budget, and completes when the slowest replica
        finishes.  With ``ftl_factory`` set, garbage-collection erases
        stall the affected module, which is exactly the read/write
        interference the write ablation measures.

        ``apps[i]`` names the issuing application; required when the
        player was built with ``tenant_budgets`` and used to enforce
        each tenant's declared per-interval request size on top of the
        system limit.
        """
        if len(arrivals) != len(buckets):
            raise ValueError("arrivals and buckets must align")
        if reads is not None and len(reads) != len(buckets):
            raise ValueError("reads must align with buckets")
        if self.tenant_budgets is not None:
            if apps is None or len(apps) != len(buckets):
                raise ValueError(
                    "tenant budgets require an aligned apps sequence")
        _tally_engine(self.engine, self.fallback_reason)
        session = OnlineStreamSession(self)
        session.feed(arrivals, buckets, reads=reads, apps=apps)
        return session.drain()

    def session(self) -> "OnlineStreamSession":
        """Open a long-running streaming session on this player.

        The session owns all play-loop state (admission window, device
        mirror, pending heap), so a caller can :meth:`~OnlineStream\
Session.feed` the trace chunk by chunk, :meth:`~OnlineStreamSession.\
advance` the clock to an interval boundary, act on what it saw
        (e.g. hand the next chunk a new placement), and keep feeding --
        traffic never stops.  Feeding the whole trace at once and
        draining is exactly :meth:`play`.
        """
        _tally_engine(self.engine, self.fallback_reason)
        return OnlineStreamSession(self)


class OnlineStreamSession:
    """One long-running play-through of an :class:`OnlineTracePlayer`.

    Owns every piece of state the online driver threads through a
    trace -- the admission window, the tenant budgets, the busy-until
    device mirror, the pending-request heap and the played-request
    log -- so that a caller can interleave *feeding* traffic with
    *acting* on what has been served so far:

    >>> session = player.session()              # doctest: +SKIP
    >>> session.feed(chunk.arrivals, chunk.buckets)  # doctest: +SKIP
    >>> session.advance(next_chunk_start)       # doctest: +SKIP
    >>> series, played = session.drain()        # doctest: +SKIP

    ``feed`` + ``drain`` over the whole trace is byte-identical to
    :meth:`OnlineTracePlayer.play` -- the loop below *is* the play
    loop, merely re-entrant.  Identity across chunkings holds because
    the pending heap orders entries by ``(time, origin, sequence)``
    where origin 0 marks fed arrivals (in feed order) and origin 1
    marks budget-overflow re-queues (in re-queue order): at equal
    timestamps, arrivals beat re-queues regardless of how late the
    arrival was fed, exactly as the one-shot heap ordered them.

    Incremental :meth:`advance` is a fast-engine feature (the
    :mod:`repro.controller` loop); the DES drains in one
    :meth:`drain` call, where the event loop runs to completion.
    """

    def __init__(self, player: OnlineTracePlayer):
        self.player = player
        self.fast = player.engine == "fast"
        if self.fast:
            self.env = None
            self.array = None
            self.params = player.params or FlashParams()
        else:
            self.env = Environment()
            self.array = FlashArray(self.env,
                                    player.allocation.n_devices,
                                    player.params,
                                    ftl_factory=player.ftl_factory,
                                    module_factory=player.module_factory,
                                    faults=player.faults)
            self.params = self.array.params
        #: faulted fast engine: placement is final at dispatch (the
        #: mirror ignores fault outcomes, as in the DES) and this
        #: replay serves the submitted queues in :meth:`drain`
        self._replay = None
        if self.fast and player.faults is not None and len(player.faults):
            from repro.flash.faulted import FaultedReplay

            self._replay = FaultedReplay(
                player.faults, player.allocation.n_devices, self.params)
        self.admission = player._make_admission()
        self.tenant = None
        if player.tenant_budgets is not None:
            from repro.core.tenancy import TenantAdmission

            self.tenant = TenantAdmission(player.tenant_budgets,
                                          player.allocation.replication,
                                          player.accesses)
        self.service = self.params.read_ms
        self.busy_until = [0.0] * player.allocation.n_devices
        self.played: List[PlayedRequest] = []
        #: request columns, growing with every feed()
        self.arrivals: List[float] = []
        self.buckets: List[int] = []
        self.is_read: List[bool] = []
        self.apps: Optional[List[str]] = \
            None if player.tenant_budgets is None else []
        #: pending heap: (effective_time, origin, seq, index);
        #: origin 0 = fed arrival (seq = feed order), origin 1 =
        #: budget-overflow re-queue (seq = re-queue order)
        self.heap: List[Tuple[float, int, int, int]] = []
        self._requeues = 0
        self._current_interval = -1
        self._drained = False
        #: vectorized admission kernel (fast engine, counting
        #: admission, ε = 0, no tenant budgets); ``None`` keeps the
        #: scalar reference loop.  ``admission_kernel`` /
        #: ``admission_fallback_reason`` report the resolution the
        #: same way ``engine_selected`` / ``fallback_reason`` do.
        self._vec = None
        #: (fault-mask segment, bucket) -> live candidate tuple
        #: (empty when every replica is masked); see _run_plan
        self._live_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self.admission_kernel = "scalar"
        self.admission_fallback_reason = "des_engine"
        if self.fast:
            ok, reason = admitpath.supports_vector_admission(
                player.admission, player.epsilon,
                player.tenant_budgets)
            if ok:
                self._vec = admitpath.VectorAdmissionWindow(
                    player.interval_ms, self.admission.limit,
                    player.overflow)
                self.admission_kernel = "vector"
                self.admission_fallback_reason = ""
            else:
                self.admission_fallback_reason = reason
        _tally_admission(self.admission_kernel,
                         self.admission_fallback_reason)

    def __len__(self) -> int:
        """Requests fed so far."""
        return len(self.arrivals)

    @property
    def n_pending(self) -> int:
        """Requests fed (or re-queued) but not yet processed."""
        if self._vec is not None:
            return self._vec.n_pending
        return len(self.heap)

    # -- feeding -----------------------------------------------------------
    def feed(self, arrivals: Sequence[float], buckets: Sequence[int],
             reads: Optional[Sequence[bool]] = None,
             apps: Optional[Sequence[str]] = None) -> None:
        """Append a chunk of traffic to the stream.

        Chunks must be fed in arrival order *between* calls (the heap
        orders within a chunk); an arrival earlier than a timestamp
        already processed by :meth:`advance` raises.  A NaN or infinite
        arrival raises ``ValueError`` before anything is queued: every
        online path feeds through here, so none can drop such a
        request from its report.
        """
        if self._drained:
            raise RuntimeError("session already drained")
        if len(arrivals) != len(buckets):
            raise ValueError("arrivals and buckets must align")
        times = np.ascontiguousarray(arrivals, dtype=np.float64)
        if not np.isfinite(times).all():
            raise ValueError("arrivals must be finite")
        if reads is not None and len(reads) != len(buckets):
            raise ValueError("reads must align with buckets")
        if self.tenant is not None:
            if apps is None or len(apps) != len(buckets):
                raise ValueError(
                    "tenant budgets require an aligned apps sequence")
        if self._vec is not None and reads is not None \
                and not all(reads):
            # Writes cost ``replication`` budget units and fan out to
            # every replica -- inherently scalar; rebuild the heap and
            # continue on the reference loop.
            self._demote("writes")
        ids = np.asarray(buckets).astype(np.int64, copy=False).tolist()
        base = len(self.arrivals)
        n = len(ids)
        if self._vec is not None:
            self.arrivals.extend(times.tolist())
            self.buckets.extend(ids)
            self.is_read.extend([True] * n)
            self._vec.feed(times, np.arange(base, base + n,
                                            dtype=np.int64))
            return
        flags = [True] * n if reads is None \
            else np.asarray(reads, dtype=bool).tolist()
        for seq, t, b, r in zip(range(base, base + n), times.tolist(),
                                ids, flags):
            self.arrivals.append(t)
            self.buckets.append(b)
            self.is_read.append(r)
            heapq.heappush(self.heap, (t, 0, seq, seq))
        if self.apps is not None:
            self.apps.extend(apps)

    # -- processing --------------------------------------------------------
    def interval_of(self, t: float) -> int:
        return int(t / self.player.interval_ms + 1e-9)

    def process_now(self, t: float) -> None:
        """One wake-up: admit and place everything due at ``t``.

        Shared verbatim by both engines, so the only difference
        between them is who serves the requests -- the DES modules
        or the (provably identical) busy-until arithmetic.
        """
        player = self.player
        # Roll the admission window forward.
        idx = self.interval_of(t)
        while self._current_interval < idx:
            self.admission.start_interval()
            if self.tenant is not None:
                self.tenant.start_interval()
            self._current_interval += 1
        # Gather the batch of simultaneous arrivals.
        batch: List[int] = []
        while self.heap and self.heap[0][0] <= t + 1e-12:
            _, _, _, orig = heapq.heappop(self.heap)
            batch.append(orig)
        admitted: List[int] = []
        admitted_writes: List[int] = []
        for orig in batch:
            cost = 1 if self.is_read[orig] else \
                player.allocation.replication
            if self.tenant is not None:
                granted = bool(self.tenant.offer(self.apps[orig], cost))
            elif player.admission == "exact":
                granted = bool(self.admission.offer_bucket(
                    int(self.buckets[orig]), self.is_read[orig]))
            else:
                granted = bool(self.admission.offer(cost))
            if granted:
                if obs.ACTIVE:
                    obs.SESSION.on_admission("admitted")
                if self.is_read[orig]:
                    admitted.append(orig)
                else:
                    admitted_writes.append(orig)
            elif player.overflow == "reject":
                if obs.ACTIVE:
                    obs.SESSION.on_admission("rejected")
                io = IORequest(
                    arrival=float(self.arrivals[orig]),
                    bucket=int(self.buckets[orig]),
                    is_read=self.is_read[orig])
                self.played.append(PlayedRequest(
                    io=io, interval=idx, index=orig,
                    delayed=False, rejected=True))
            elif player.admission == "exact" and \
                    not self.admission.candidates_for(self.buckets[orig]):
                # Every replica is dead from the start, so no later
                # interval can admit it either: delaying would requeue
                # it forever.  It fails as unavailable instead.
                self.played.append(PlayedRequest(
                    io=_unavailable_io(float(self.arrivals[orig]),
                                       int(self.buckets[orig]), t,
                                       is_read=self.is_read[orig]),
                    interval=idx, index=orig, delayed=False))
            else:
                # Budget overflow: delay to the next interval.
                if obs.ACTIVE:
                    obs.SESSION.on_admission("delayed")
                next_start = (idx + 1) * player.interval_ms
                heapq.heappush(self.heap, (next_start, 1,
                                           self._requeues, orig))
                self._requeues += 1
        if admitted:
            self._dispatch(admitted, t, idx)
        for orig in admitted_writes:
            self._issue_write(orig, t, idx)

    def advance(self, until_ms: float) -> None:
        """Process every pending request strictly before ``until_ms``.

        The cut is exclusive (with the driver's timestamp tolerance):
        entries at or after ``until_ms`` stay pending, so feeding the
        next chunk and advancing again batches boundary-coincident
        arrivals exactly as the one-shot play loop would.  Fast engine
        only -- the DES runs its event loop once, in :meth:`drain`.
        """
        if not self.fast:
            raise RuntimeError(
                "incremental advance requires the fast engine; the "
                "DES drains in one step")
        if self._drained:
            raise RuntimeError("session already drained")
        if self._vec is not None:
            self._advance_vector(until_ms)
            if self._vec is not None:
                return
        while self.heap and self.heap[0][0] < until_ms - 1e-12:
            self.process_now(self.heap[0][0])

    # -- vectorized admission path -----------------------------------------
    def _advance_vector(self, until_ms: Optional[float]) -> None:
        """Classify-and-dispatch everything due before ``until_ms``.

        The segmented kernel (:mod:`repro.flash.admitpath`) computes
        the whole chunk's admission decisions in one pass; dispatch
        then walks the plan batch by batch with the scalar loop's
        exact placement arithmetic.  When the kernel cannot guarantee
        byte-identity (sub-tolerance timestamp gaps, out-of-order
        feeds) the session demotes: the pending set is rebuilt into
        the reference heap and processing continues scalar.
        """
        try:
            plan = self._vec.take(until_ms)
        except admitpath.DemotionRequired as exc:
            self._demote(exc.reason)
            return
        if plan is not None:
            self._run_plan(plan)

    def _demote(self, reason: str) -> None:
        """Fall back to the scalar loop mid-stream, exactly.

        Pending arrivals become ``(t, 0, seq, seq)`` heap entries (the
        feed sequence *is* the column index) and the delayed-spill
        carry becomes ``(boundary, 1, requeue, index)`` entries in
        spill order, reproducing the heap the scalar loop would have
        built; the admission window resumes mid-interval via
        :meth:`~repro.core.admission.DeterministicAdmission.resume`.
        """
        state = self._vec.export_state()
        self._vec = None
        self.admission_kernel = "scalar"
        self.admission_fallback_reason = reason
        _tally_admission("demoted", reason)
        heap = self.heap
        for t, seq in zip(state["times"].tolist(),
                          state["indices"].tolist()):
            heap.append((t, 0, seq, seq))
        carry = state["carry"].tolist()
        for j, idx in enumerate(carry):
            heap.append((state["carry_time"], 1, j, idx))
        self._requeues = len(carry)
        heapq.heapify(heap)
        self._current_interval = state["interval"]
        if state["interval"] >= 0:
            self.admission.resume(state["count"])

    def _run_plan(self, plan) -> None:
        """Dispatch one :class:`~repro.flash.admitpath.AdmissionPlan`.

        One walk over the plan, batch by batch, through the scalar
        loop's placement code: rejected entries are appended first,
        multi-request batches go through the shared :meth:`_dispatch`
        (combined retrieval), and singleton batches through its
        ``_pick``/``_issue_one`` step.
        Singletons skip ``_dispatch``'s per-request masking: the fault
        mask of every entry resolves with one ``searchsorted`` over the
        plan's time column, and each bucket's live candidates are
        memoized per mask.  ``offer_conflict`` cannot arise here
        (vector mode requires ε = 0, where conflicts always hold the
        request).
        """
        if obs.ACTIVE:
            session = obs.SESSION
            if plan.n_admitted:
                session.on_admission("admitted", plan.n_admitted)
            if plan.n_delayed:
                session.on_admission("delayed", plan.n_delayed)
            if plan.n_rejected:
                session.on_admission("rejected", plan.n_rejected)
        n = len(plan)
        if n == 0:
            return
        player = self.player
        arrivals = self.arrivals
        bucket_col = self.buckets
        played = self.played
        faults = player.faults
        devices_for = player.allocation.devices_for
        issue, pick = self._issue_one, self._pick
        live_cache = self._live_cache
        order = plan.order.tolist()
        times = plan.times.tolist()
        intervals = plan.intervals.tolist()
        admitted = plan.admitted.tolist()
        bounds = np.flatnonzero(plan.starts).tolist()
        bounds.append(n)
        if faults is not None:
            pts, masks = faults.mask_segments()
            mask_idx = np.searchsorted(np.asarray(pts, dtype=np.float64),
                                       plan.times, side="right").tolist()
        else:
            mask_idx, masks = [0] * n, (frozenset(),)
        for a, b in zip(bounds[:-1], bounds[1:]):
            t = times[a]
            itv = intervals[a]
            while a < b and not admitted[a]:
                orig = order[a]
                played.append(PlayedRequest(
                    IORequest(arrivals[orig], bucket_col[orig]), itv,
                    False, orig, True))
                a += 1
            if b - a > 1:
                self._dispatch(order[a:b], t, itv)
                continue
            if a == b:
                continue
            orig = order[a]
            bkt = bucket_col[orig]
            ki = mask_idx[a]
            live = live_cache.get((ki, bkt))
            if live is None:
                live = devices_for(bkt)
                if masks[ki]:
                    live = tuple(d for d in live if d not in masks[ki])
                live_cache[ki, bkt] = live
            if not live:  # every replica masked: unavailable
                played.append(PlayedRequest(
                    _unavailable_io(arrivals[orig], bkt, t), itv,
                    False, orig))
                continue
            issue(orig, pick(live, t), t, itv, candidates=live)

    # -- placement ---------------------------------------------------------
    def _dispatch(self, admitted: List[int], t: float, idx: int) -> None:
        """Place an admitted batch of simultaneous requests.

        With a fault schedule, dead/down modules leave every candidate
        set first (failure-aware retrieval); a request whose replicas
        are all masked fails as ``"unavailable"`` without touching the
        array.
        """
        player = self.player
        masked = player.faults.masked_at(t) \
            if player.faults is not None else None
        live_admitted: List[int] = []
        cands = []
        for i in admitted:
            cs = player.allocation.devices_for(self.buckets[i])
            if masked:
                live = tuple(d for d in cs if d not in masked)
                if not live:
                    io = _unavailable_io(self.arrivals[i],
                                         self.buckets[i], t)
                    self.played.append(PlayedRequest(
                        io=io, interval=idx, index=i, delayed=False))
                    continue
                cs = live
            live_admitted.append(i)
            cands.append(cs)
        if not live_admitted:
            return
        if len(live_admitted) > 1:
            # Simultaneous arrivals are scheduled together (§IV-B).
            schedule = combined_retrieval(cands,
                                          player.allocation.n_devices)
            chosen = list(schedule.assignment)
        else:
            chosen = [self._pick(cands[0], t)]
        for orig, dev, cs in zip(live_admitted, chosen, cands):
            self._issue_one(orig, dev, t, idx, candidates=cs)

    def _pick(self, candidates: Sequence[int], t: float) -> int:
        busy_until = self.busy_until
        for d in candidates:
            if busy_until[d] <= t + 1e-12:
                return d
        return min(candidates, key=lambda d: busy_until[d])

    def _issue_one(self, orig: int, dev: int, t: float, idx: int,
                   candidates: Optional[Sequence[int]] = None) -> None:
        io = IORequest(arrival=self.arrivals[orig],
                       bucket=self.buckets[orig])
        busy_until = self.busy_until
        service = self.service
        wait = busy_until[dev] - t
        guarantee = self.player.accesses * service
        # A queued request still meets the guarantee while
        # wait + service <= M * service; only waits beyond that are
        # QoS-relevant conflicts.  (With M = 1 any wait conflicts,
        # which is the paper's real-trace setting.)
        conflict = wait + service > guarantee + 1e-12
        admit_queued = False
        if conflict and self.player.epsilon > 0:
            # Statistical QoS: knowingly violate the guarantee for this
            # request (it queues) as long as the violation mass Q stays
            # below epsilon (see StatisticalAdmission.offer_conflict).
            admit_queued = bool(self.admission.offer_conflict())
        if conflict and not admit_queued:
            # Deterministic QoS (or epsilon budget exhausted): hold the
            # request until the device is idle, then issue -- response
            # time stays one service time and the wait is accounted as
            # admission delay (Fig 8c/d).
            issue_at = busy_until[dev]
            delayed = True
        else:
            # Serve now; within-guarantee queueing (or an admitted
            # conflict) absorbs the wait into the response (Fig 10b).
            issue_at = t
            delayed = io.arrival + 1e-9 < t  # delayed by budget earlier
        started = max(busy_until[dev], issue_at)
        busy_until[dev] = started + service
        if self.array is None:
            if self._replay is not None:
                self._replay.submit_read(io, dev, issue_at, t,
                                         candidates=candidates)
            else:
                # Fast engine: with constant service times the
                # busy-until mirror *is* the module, so fill the
                # timestamps directly (same max, same single addition
                # as the service loop).
                io.device = dev
                io.issued_at = issue_at
                io.enqueued_at = issue_at
                io.started_at = started
                io.completed_at = busy_until[dev]
        else:
            self.array.env.process(
                self._issue_process(io, dev, issue_at, candidates))
        self.played.append(PlayedRequest(io=io, interval=idx, index=orig,
                                         delayed=delayed))

    def _issue_process(self, io: IORequest, dev: int, issue_at: float,
                       candidates: Optional[Sequence[int]] = None):
        """Issue one read; under faults, fail over across replicas.

        The healthy path is a single issue-and-wait, unchanged.  With
        a fault schedule, a failed attempt (dead module, read retries
        exhausted) is retried on the next live untried replica after
        the schedule's backoff; ``issued_at`` keeps the *first* issue
        time so the recorded response spans every attempt.  When no
        live replica remains (or the retry budget runs out) the
        request stays failed.
        """
        array = self.array
        faults = self.player.faults
        if issue_at > array.env.now:
            yield array.env.timeout_until(issue_at)
        done = array.issue(io, dev)
        if faults is None:
            yield done
            return
        first_issue = io.issued_at
        retry = faults.retry
        tried = [dev]
        attempt = 0
        while True:
            yield done
            if not io.failed:
                return
            if candidates is None:
                return
            masked = faults.masked_at(array.env.now)
            alive = [d for d in candidates
                     if d not in tried and d not in masked]
            if not alive or attempt >= retry.max_retries:
                if obs.ACTIVE:
                    obs.SESSION.on_fault("unavailable")
                return
            nxt = alive[0]
            if obs.ACTIVE:
                obs.SESSION.on_fault("failover")
            backoff = retry.delay(attempt)
            attempt += 1
            io.retries += 1
            io.failed = False
            io.fail_reason = ""
            io.faulted = True
            if backoff > 0:
                yield array.env.timeout(backoff)
            tried.append(nxt)
            done = array.issue(io, nxt)
            io.issued_at = first_issue

    # -- writes --------------------------------------------------------------
    def _issue_write(self, orig: int, t: float, idx: int) -> None:
        """Apply a write to every live replica of its bucket.

        The logical request completes when the slowest replica does;
        conflict policy mirrors the read path (deterministic QoS waits
        for all replicas to go idle, statistical QoS may queue).

        Under faults the write goes to the *live* replicas only (a
        degraded write, flagged ``faulted``); with every replica
        masked the write fails as ``"unavailable"``.
        """
        player = self.player
        busy_until = self.busy_until
        arrival, bucket = self.arrivals[orig], self.buckets[orig]
        devices = player.allocation.devices_for(bucket)
        degraded_write = False
        if player.faults is not None:
            masked = player.faults.masked_at(t)
            if masked:
                live = tuple(d for d in devices if d not in masked)
                if not live:
                    io = _unavailable_io(arrival, bucket, t,
                                         is_read=False)
                    self.played.append(PlayedRequest(
                        io=io, interval=idx, index=orig,
                        delayed=False))
                    return
                if len(live) < len(devices):
                    degraded_write = True
                    if obs.ACTIVE:
                        obs.SESSION.on_fault("degraded_write")
                devices = live
        write_service = self.params.write_ms
        read_service = self.params.read_ms
        master = IORequest(arrival=arrival, bucket=bucket, is_read=False)
        master.faulted = degraded_write
        guarantee = player.accesses * read_service
        worst_wait = max(busy_until[d] - t for d in devices)
        conflict = worst_wait + write_service > \
            max(guarantee, write_service) + 1e-12
        admit_queued = False
        if conflict and player.epsilon > 0:
            admit_queued = bool(self.admission.offer_conflict())
        if conflict and not admit_queued:
            issue_at = max(busy_until[d] for d in devices)
            delayed = True
        else:
            issue_at = t
            delayed = master.arrival + 1e-9 < t
        for d in devices:
            busy_until[d] = max(busy_until[d], issue_at) + write_service
        if self.array is None:
            master.issued_at = issue_at
            if self._replay is not None:
                self._replay.submit_write(master, devices, issue_at, t)
            else:
                master.completed_at = max(busy_until[d] for d in devices)
        else:
            self.array.env.process(
                self._write_process(master, devices, issue_at))
        self.played.append(PlayedRequest(io=master, interval=idx,
                                         index=orig, delayed=delayed))

    def _write_process(self, master: IORequest, devices, issue_at: float):
        from repro.sim import AllOf

        array = self.array
        if issue_at > array.env.now:
            yield array.env.timeout_until(issue_at)
        master.issued_at = array.env.now
        events = []
        replicas = []
        for d in devices:
            replica = IORequest(arrival=master.arrival,
                                bucket=master.bucket, is_read=False)
            replicas.append(replica)
            events.append(array.issue(replica, d))
        yield AllOf(array.env, events)
        master.completed_at = array.env.now
        # Fault accounting: a replica lost mid-write degrades the
        # logical write; losing every replica fails it.
        if any(r.failed or r.faulted for r in replicas):
            master.faulted = True
            master.retries = sum(r.retries for r in replicas)
        if replicas and all(r.failed for r in replicas):
            master.failed = True
            master.fail_reason = replicas[0].fail_reason

    def drain(self) -> Tuple[IntervalSeries, List[PlayedRequest]]:
        """Process everything pending and close the session."""
        if self._drained:
            raise RuntimeError("session already drained")
        self._drained = True
        player = self.player
        if self.fast:
            if self._vec is not None:
                self._advance_vector(None)
            while self.heap:
                self.process_now(self.heap[0][0])
            if self._replay is not None:
                # release the replay with the run: it holds every
                # submission until served
                self._replay.run()
                self._replay = None
        else:
            env = self.env

            def run():
                while self.heap:
                    t_eff = self.heap[0][0]
                    if t_eff > env.now:
                        yield env.timeout_until(t_eff)
                    self.process_now(env.now)

            env.process(run())
            env.run()

        return _finish_play(self.played, player.allocation.n_devices,
                            player.interval_ms)

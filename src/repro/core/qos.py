"""``QoSFlashArray``: the public facade of the framework.

Wires together a combinatorial design, design-theoretic allocation,
retrieval, admission control and the flash-array simulator, exposing
the workflow of the paper:

>>> from repro.core import QoSFlashArray
>>> qos = QoSFlashArray(n_devices=9, replication=3, interval_ms=0.133)
>>> qos.capacity_per_interval
5
>>> report = qos.run_online(arrivals_ms, buckets)   # doctest: +SKIP
>>> report.guarantee_met                            # doctest: +SKIP
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.allocation.design_theoretic import DesignTheoreticAllocation
from repro.core.guarantees import guarantee_capacity
from repro.core.sampling import OptimalRetrievalSampler
from repro.designs.catalog import get_design
from repro.flash.driver import BatchTracePlayer, OnlineTracePlayer, \
    PlayedRequest
from repro.flash.metrics import IntervalSeries, ResponseStats
from repro.flash.params import FlashParams, MSR_SSD_PARAMS

__all__ = ["QoSFlashArray", "QoSReport"]


@dataclass
class QoSReport:
    """Result of one trace play-through.

    Attributes
    ----------
    series:
        Per-interval response statistics.
    requests:
        Per-request detail (response, delay, interval).
    guarantee_ms:
        The response-time guarantee in force (``M`` service times).
    """

    series: IntervalSeries
    requests: List[PlayedRequest]
    guarantee_ms: float

    @property
    def overall(self) -> ResponseStats:
        return self.series.overall()

    @property
    def guarantee_met(self) -> bool:
        """True if every *undelayed* response met the guarantee.

        A failed request (fault layer: dead module, retries exhausted,
        no live replica) is an unconditional miss.
        """
        if any(r.failed for r in self.requests):
            return False
        return all(r.io.response_ms <= self.guarantee_ms + 1e-9
                   for r in self.requests)

    # -- degraded-mode accounting ----------------------------------------
    @property
    def n_failed(self) -> int:
        """Requests the fault layer lost outright."""
        return sum(1 for r in self.requests if r.failed)

    @property
    def n_faulted(self) -> int:
        """Requests served, but across the fault path (failover,
        retry, down-window wait, degraded latency)."""
        return sum(1 for r in self.requests
                   if not r.failed and not r.rejected
                   and getattr(r.io, "faulted", False))

    @property
    def n_violations(self) -> int:
        """Guarantee misses: failed requests plus served responses
        over the guarantee (admission-rejected requests excluded)."""
        n = 0
        for r in self.requests:
            if r.rejected:
                continue
            if r.failed or r.io.response_ms > self.guarantee_ms + 1e-9:
                n += 1
        return n

    @property
    def violation_rate(self) -> float:
        """``n_violations`` over non-rejected requests."""
        total = sum(1 for r in self.requests if not r.rejected)
        return self.n_violations / total if total else 0.0

    @property
    def avg_response_ms(self) -> float:
        return self.overall.avg

    @property
    def max_response_ms(self) -> float:
        return self.overall.max

    @property
    def pct_delayed(self) -> float:
        return self.overall.pct_delayed

    @property
    def avg_delay_ms(self) -> float:
        return self.overall.avg_delay

    def summary(self) -> Dict[str, float]:
        out = self.overall.summary()
        out["guarantee_ms"] = self.guarantee_ms
        out["guarantee_met"] = float(self.guarantee_met)
        if self.n_failed or self.n_faulted:
            # Degraded-mode keys appear only on faulty runs, so
            # healthy summaries keep their pre-faults shape.
            out["n_failed"] = float(self.n_failed)
            out["n_faulted"] = float(self.n_faulted)
            out["violation_rate"] = self.violation_rate
        return out


class QoSFlashArray:
    """A flash array with replication-based QoS.

    Parameters
    ----------
    n_devices:
        Flash module count ``N`` (needs an ``(N, c, 1)`` design; the
        catalog covers ``c = 2`` for any N, and ``c = 3`` for
        ``N ≡ 1, 3 (mod 6)`` -- including the paper's 9 and 13).
    replication:
        Copy count ``c``.
    interval_ms:
        The QoS interval ``T``.
    accesses:
        Access budget ``M`` per interval; default: as many service
        times as fit in ``T``.
    epsilon:
        ``0`` = deterministic QoS; ``> 0`` = statistical QoS with
        violation budget ``ε`` (sampling runs on first use).
    params:
        Flash timing; defaults to the paper's MSR SSD constants.
    sampler_trials, seed:
        Monte-Carlo settings for the ``P_k`` estimation.
    engine:
        Playback engine: ``"auto"`` (closed-form fast path when the
        configuration is eligible, DES otherwise), ``"des"`` or
        ``"fast"`` -- see :func:`repro.flash.driver.select_engine`.
    admission:
        Online admission mode: ``"counting"`` (the paper's
        controllers, default) or ``"exact"`` (per-interval feasibility
        via warm-started matching; deterministic QoS only) -- see
        :class:`repro.core.admission.ExactAdmission`.
    faults:
        Optional :class:`repro.faults.FaultSchedule` injected into
        every trace run: module crashes, unavailability windows,
        latency degradation and read errors, with failure-aware
        retrieval and driver failover (see :mod:`repro.faults`).
        Faulted runs keep the fast engine: the schedule is replayed
        event-free, byte-identical to the DES.
    """

    def __init__(self, n_devices: int = 9, replication: int = 3,
                 interval_ms: float = 0.133, accesses: Optional[int] = None,
                 epsilon: float = 0.0,
                 params: Optional[FlashParams] = None,
                 sampler_trials: int = 1000, seed: int = 0,
                 engine: str = "auto", admission: str = "counting",
                 faults=None):
        self.params = params or MSR_SSD_PARAMS
        self.design = get_design(n_devices, replication)
        self._base_allocation = DesignTheoreticAllocation(self.design)
        self._failed: set[int] = set()
        self._allocation_view = None
        self.interval_ms = interval_ms
        if accesses is None:
            accesses = max(1, int(interval_ms / self.params.read_ms + 1e-9))
        self.accesses = accesses
        self.epsilon = epsilon
        self.sampler_trials = sampler_trials
        self.seed = seed
        self._probabilities: Optional[Dict[int, float]] = None
        self.engine = engine
        self.admission = admission
        self.faults = faults

    # -- failure handling -----------------------------------------------
    @property
    def allocation(self):
        """The active allocation: failure-masked when devices are down."""
        if not self._failed:
            return self._base_allocation
        if (self._allocation_view is None
                or self._allocation_view.failed != self._failed):
            from repro.allocation.degraded import DegradedAllocation
            self._allocation_view = DegradedAllocation(
                self._base_allocation, self._failed)
        return self._allocation_view

    @property
    def failed_devices(self) -> frozenset:
        return frozenset(self._failed)

    def fail_device(self, device: int) -> None:
        """Mark a flash module as failed; retrieval masks it.

        The admission capacity degrades to
        ``S = (c-f-1)M^2 + (c-f)M`` for ``f`` failures (the design's
        pairwise balance survives restriction to live devices).
        """
        if not 0 <= device < self._base_allocation.n_devices:
            raise ValueError(f"device {device} out of range")
        self._failed.add(device)
        self._allocation_view = None

    def repair_device(self, device: int) -> None:
        """Bring a failed module back online."""
        self._failed.discard(device)
        self._allocation_view = None

    # -- capacity ----------------------------------------------------------
    @property
    def n_devices(self) -> int:
        return self.allocation.n_devices

    @property
    def replication(self) -> int:
        return self.allocation.replication

    @property
    def n_buckets(self) -> int:
        """Distinct buckets supported (``N(N-1)/(c-1)`` with rotations)."""
        return self.allocation.n_buckets

    @property
    def capacity_per_interval(self) -> int:
        """``S = (c-1)M^2 + cM``: deterministic admission limit."""
        return guarantee_capacity(self.accesses, self.replication)

    @property
    def guarantee_ms(self) -> float:
        """Response-time guarantee: ``M`` back-to-back service times."""
        return self.accesses * self.params.read_ms

    # -- statistical support -------------------------------------------------
    def probabilities(self, max_k: Optional[int] = None) -> Dict[int, float]:
        """Sampled optimal-retrieval probabilities ``P_k`` (cached)."""
        if self._probabilities is None:
            sampler = OptimalRetrievalSampler(
                self.allocation, trials=self.sampler_trials, seed=self.seed)
            self._probabilities = sampler.table(max_k)
        return self._probabilities

    # -- operations ------------------------------------------------------------
    def self_check(self, trials: int = 200, seed: int = 0):
        """Run the deployment battery (see :mod:`repro.core.selfcheck`)."""
        from repro.core.selfcheck import self_check

        return self_check(self, trials=trials, seed=seed)

    # -- running traces --------------------------------------------------------
    def run_batch(self, arrivals: Sequence[float], buckets: Sequence[int],
                  retrieval: str = "combined") -> QoSReport:
        """Interval-aligned playback (design-theoretic retrieval)."""
        player = BatchTracePlayer(self.allocation, self.interval_ms,
                                  retrieval=retrieval, params=self.params,
                                  engine=self.engine, faults=self.faults)
        series, played = player.play(arrivals, buckets)
        report = QoSReport(series, played, self.guarantee_ms)
        if obs.ACTIVE:
            obs.SESSION.record_qos_report(report)
        return report

    def run_online(self, arrivals: Sequence[float],
                   buckets: Sequence[int],
                   reads: Optional[Sequence[bool]] = None,
                   apps: Optional[Sequence[str]] = None,
                   tenant_budgets: Optional[Dict[str, int]] = None,
                   ) -> QoSReport:
        """Online FCFS playback with admission control.

        ``reads[i]`` False marks a write (applied to every replica,
        admission cost ``c``); ``tenant_budgets`` + ``apps`` enforce
        per-application interval budgets (§III-A).
        """
        probs = self.probabilities() if self.epsilon > 0 else None
        player = OnlineTracePlayer(
            self.allocation, self.interval_ms, epsilon=self.epsilon,
            probabilities=probs, accesses=self.accesses,
            params=self.params, tenant_budgets=tenant_budgets,
            engine=self.engine, admission=self.admission,
            faults=self.faults)
        series, played = player.play(arrivals, buckets, reads=reads,
                                     apps=apps)
        report = QoSReport(series, played, self.guarantee_ms)
        if obs.ACTIVE:
            obs.SESSION.record_qos_report(report)
        return report

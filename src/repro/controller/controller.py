"""The live adaptive-replication controller (closing the loop online).

The paper's loop -- mine frequent block patterns per interval,
re-replicate between intervals -- exists offline in
:func:`repro.experiments.common.play_workload`: all placements are
computed up front and the whole trace is played once.
:class:`ReplicationController` runs the same loop *live*:

1. **stream** -- each trace part is fed into one long-running
   :class:`~repro.flash.driver.OnlineStreamSession`; traffic never
   stops at interval boundaries;
2. **mine** -- at each boundary the previous part's frequent pairs
   come from :func:`~repro.mining.pairs.mine_trace_pairs`, the same
   call ``play_workload`` and the cluster make (the paper's matcher
   needs only the previous interval's pairs, §IV-A);
3. **plan** -- the :class:`~repro.controller.strategy.PlacementStrategy`
   proposes a target placement, and the
   :class:`~repro.controller.planner.ReplicationPlanner` diffs it
   against the live placement into budgeted, fault-aware migration
   deltas (never onto dead modules);
4. **apply** -- the new mapping takes effect for the next part's
   traffic mid-stream, and (when adapting) the statistical admission's
   ε is retuned from the observed delayed fraction
   (:class:`repro.core.adaptive.AdaptiveEpsilonController`).

Every boundary decision lands in an :class:`AuditRecord` (and on the
``controller.*`` observability counters), so a recorded run can be
audited delta by delta.

**Determinism contract** (asserted in tests and the ``controller``
probe): with an unlimited migration budget, no faults and the default
:class:`~repro.controller.strategy.FIMReplan` strategy, the controller
reproduces ``play_workload`` *byte-identically* -- same per-request
floats, same match rates -- because the streaming session replays the
offline heap order exactly and every boundary mines the previous part
with the offline loop's own pair kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.controller.planner import (
    ReplicationPlan,
    ReplicationPlanner,
    pair_support_by_block,
)
from repro.controller.strategy import (
    FIMReplan,
    PlacementStrategy,
    StaticPlacement,
)
from repro.core.adaptive import AdaptiveEpsilonController
from repro.core.qos import QoSFlashArray, QoSReport
from repro.experiments.common import WorkloadRun
from repro.flash.driver import OnlineTracePlayer
from repro.mining.matching import FIMBlockMatcher, MatchResult
from repro.mining.pairs import mine_trace_pairs
from repro.traces.records import Trace

__all__ = ["ControllerConfig", "AuditRecord", "ControllerReport",
           "ReplicationController"]


@dataclass(frozen=True)
class ControllerConfig:
    """Everything the controller needs to run, in one frozen record.

    Mirrors :func:`~repro.experiments.common.play_workload`'s
    parameters (so the identity contract is a like-for-like
    comparison) plus the live-loop knobs: ``migration_budget`` caps
    data-block moves per boundary and ``adapt_target_delayed_pct``
    switches on ε feedback (statistical mode only).
    """

    n_devices: int = 9
    replication: int = 3
    interval_ms: float = 0.133
    epsilon: float = 0.0
    fim_window_ms: float = 0.133
    min_support: int = 1
    seed: int = 0
    engine: str = "auto"
    admission: str = "counting"
    accesses: Optional[int] = None
    migration_budget: Optional[int] = None
    adapt_target_delayed_pct: Optional[float] = None
    adapt_gain: float = 0.5

    def __post_init__(self):
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if self.fim_window_ms <= 0:
            raise ValueError("fim_window_ms must be positive")
        if self.adapt_target_delayed_pct is not None \
                and self.epsilon <= 0:
            raise ValueError(
                "adaptive epsilon requires statistical QoS "
                "(epsilon > 0)")

    @classmethod
    def from_slo(cls, slo, **overrides) -> "ControllerConfig":
        """Derive a configuration from a service-level objective.

        Uses :func:`repro.core.planner.plan_configurations` to pick
        the cheapest ``(N, c, M, T)`` meeting ``slo``; keyword
        overrides (``epsilon``, ``migration_budget``, ...) are applied
        on top.
        """
        from repro.core.planner import plan_configurations

        plans = plan_configurations(slo)
        if not plans:
            raise ValueError(f"no feasible configuration for {slo}")
        best = plans[0]
        base = dict(n_devices=best.n_devices,
                    replication=best.replication,
                    interval_ms=best.interval_ms,
                    accesses=best.accesses)
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class AuditRecord:
    """One interval boundary's decisions, for the audit trail.

    ``part`` is the trace part *about to be played* when the decision
    was taken; ``epsilon`` is the admission ε in force after any
    adaptation; the delta counts describe the planning round (all zero
    for :class:`~repro.controller.strategy.StaticPlacement`).
    """

    part: int
    boundary_ms: float
    n_transactions: int
    n_itemsets: int
    replanned: bool
    deltas_applied: int
    deltas_deferred: int
    deltas_blocked: int
    migration_cost: int
    match_rate: float
    epsilon: float
    excluded: Tuple[int, ...] = ()


@dataclass
class ControllerReport:
    """Everything one live run produces.

    ``report``/``match_rates``/``part_of_request`` carry the exact
    shape of an offline :class:`~repro.experiments.common.WorkloadRun`
    (see :meth:`workload_run`); ``audit`` adds the boundary-by-boundary
    decision ledger unique to the live loop.
    """

    report: QoSReport
    match_rates: List[float]
    part_of_request: List[int]
    audit: List[AuditRecord]

    def workload_run(self) -> WorkloadRun:
        """The offline-comparable view (identity-contract currency)."""
        return WorkloadRun(report=self.report,
                           match_rates=self.match_rates,
                           part_of_request=self.part_of_request)

    @property
    def total_migration_cost(self) -> int:
        return sum(a.migration_cost for a in self.audit)


class ReplicationController:
    """Long-running array service: stream, mine, plan, apply.

    Parameters
    ----------
    config:
        The :class:`ControllerConfig` in force.
    strategy:
        A :class:`~repro.controller.strategy.PlacementStrategy`;
        default :class:`~repro.controller.strategy.FIMReplan` (the
        paper's loop).  :class:`~repro.controller.strategy.\
StaticPlacement` is the do-nothing baseline.
    faults:
        Optional :class:`repro.faults.FaultSchedule`; the planner
        reads its mask at each boundary and never re-replicates onto
        dead modules.
    """

    def __init__(self, config: ControllerConfig,
                 strategy: Optional[PlacementStrategy] = None,
                 faults=None):
        self.config = config
        self.faults = faults
        self.qos = QoSFlashArray(
            n_devices=config.n_devices,
            replication=config.replication,
            interval_ms=config.interval_ms,
            accesses=config.accesses,
            epsilon=config.epsilon,
            seed=config.seed,
            engine=config.engine,
            admission=config.admission,
            faults=faults)
        self.matcher = FIMBlockMatcher(self.qos.allocation)
        self.strategy = strategy if strategy is not None \
            else FIMReplan(self.matcher)
        self.planner = ReplicationPlanner(
            self.qos.allocation,
            migration_budget=config.migration_budget)
        self._adaptive: Optional[AdaptiveEpsilonController] = None
        if config.adapt_target_delayed_pct is not None:
            self._adaptive = AdaptiveEpsilonController(
                config.adapt_target_delayed_pct,
                epsilon0=config.epsilon,
                gain=config.adapt_gain)

    # -- boundary feedback -------------------------------------------------
    @staticmethod
    def _delayed_pct(played, start: int) -> float:
        """Observed delayed percentage over ``played[start:]``."""
        window = played[start:]
        if not window:
            return 0.0
        delayed = sum(1 for pr in window
                      if pr.delayed and not pr.rejected)
        total = sum(1 for pr in window if not pr.rejected)
        return 100.0 * delayed / total if total else 0.0

    def _excluded_at(self, t: float) -> frozenset:
        if self.faults is None:
            return frozenset()
        return self.faults.masked_at(t)

    # -- the loop ----------------------------------------------------------
    def run(self, parts: Sequence[Trace]) -> ControllerReport:
        """Stream ``parts`` through the live loop; close it; report.

        The identity contract: with ``migration_budget=None``, no
        faults and the default strategy this equals
        ``play_workload(parts, ...)`` byte for byte.
        """
        cfg = self.config
        self.strategy.reset()
        session_hook = obs.SESSION if obs.ACTIVE else None
        probs = self.qos.probabilities() if cfg.epsilon > 0 else None
        player = OnlineTracePlayer(
            self.qos.allocation, cfg.interval_ms,
            epsilon=cfg.epsilon, probabilities=probs,
            accesses=self.qos.accesses, params=self.qos.params,
            engine=cfg.engine, admission=cfg.admission,
            faults=self.faults)
        session = player.session()
        match = MatchResult.empty(self.qos.allocation.n_buckets)
        match_rates: List[float] = []
        part_of_request: List[int] = []
        audit: List[AuditRecord] = []
        played_mark = 0
        epsilon = cfg.epsilon
        prev: Optional[Trace] = None
        for part_idx, part in enumerate(parts):
            boundary = float(part.arrival_ms[0]) if len(part) else 0.0
            if prev is not None:
                # -- close the previous interval --------------------------
                if session.fast:
                    # Serve everything due before this part's traffic;
                    # the observed delayed fraction below is then real.
                    session.advance(boundary)
                if self._adaptive is not None:
                    observed = self._delayed_pct(session.played,
                                                 played_mark)
                    epsilon = self._adaptive.update(observed)
                    session.admission.epsilon = epsilon
                    if session_hook is not None:
                        session_hook.on_controller("epsilon_update")
                played_mark = len(session.played)
                # -- mine, plan, apply ------------------------------------
                itemsets = mine_trace_pairs(prev, cfg.fim_window_ms,
                                            cfg.min_support)
                target = self.strategy.propose(itemsets, match)
                excluded = self._excluded_at(boundary)
                if target is not None:
                    plan = self.planner.plan(
                        target, match,
                        supports=pair_support_by_block(itemsets),
                        excluded=excluded)
                    match = plan.mapping
                else:
                    plan = None
                match_rates.append(match.match_rate(part.block))
                audit.append(AuditRecord(
                    part=part_idx, boundary_ms=boundary,
                    n_transactions=itemsets.n_transactions,
                    n_itemsets=len(itemsets),
                    replanned=plan is not None,
                    deltas_applied=0 if plan is None else
                    len(plan.applied),
                    deltas_deferred=0 if plan is None else
                    len(plan.deferred),
                    deltas_blocked=0 if plan is None else
                    len(plan.blocked),
                    migration_cost=0 if plan is None else plan.cost,
                    match_rate=match_rates[-1],
                    epsilon=epsilon,
                    excluded=tuple(sorted(excluded))))
                if session_hook is not None:
                    session_hook.on_controller("boundary")
                    if plan is not None:
                        session_hook.on_controller("replan")
                        session_hook.on_controller(
                            "delta_applied", len(plan.applied))
                        session_hook.on_controller(
                            "delta_deferred", len(plan.deferred))
                        session_hook.on_controller(
                            "delta_blocked", len(plan.blocked))
                        session_hook.on_controller(
                            "rescue", sum(1 for d in plan.applied
                                          if d.rescue))
            else:
                match_rates.append(0.0)
            # -- feed the part's traffic under the placement in force -----
            session.feed(part.arrival_ms, match.map_array(part.block))
            part_of_request.extend([part_idx] * len(part))
            prev = part
        series, played = session.drain()
        report = QoSReport(series, played, self.qos.guarantee_ms)
        if session_hook is not None:
            session_hook.record_qos_report(report)
        return ControllerReport(report=report, match_rates=match_rates,
                                part_of_request=part_of_request,
                                audit=audit)

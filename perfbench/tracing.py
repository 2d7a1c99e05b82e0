"""Wall-clock layer tracing from outside the program.

The traced run wraps public callables of each layer (named after the
``repro`` modules) and measures them with ``time.perf_counter``.  No
program file changes: :func:`install` replaces attributes on classes,
and for module-level functions on every loaded ``repro`` module that
imported the name, and restores them when the run ends.

Two kinds of call are measured:

* **span** calls keep a span ``(layer, start, end, parent)`` in memory;
* **aggregated** calls -- those invoked once per request, or once per
  interval -- add their time and call count to their layer without
  keeping a span, so tracing stays cheap.

A layer's self time is the time inside its calls minus the time inside
the traced calls they make.  ``unattributed.self_s`` is the traced
wall time minus every layer's self time, so the two add up to the wall
time by construction.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from workloads import array_reports

#: Layers in the order the report lists them.
LAYERS = (
    "flash.admitpath", "core.admission", "flash.driver", "flash.metrics",
    "core.qos", "mining", "mining.matching", "controller.planner",
    "core.sampling", "cluster.routing", "obs.series",
    "cluster.replicator", "cluster.rollup", "faults",
)

#: Admission fallback reasons the workloads can reach
#: (``repro.flash.admitpath``); any other reason counts as ``other``.
FALLBACK_REASONS = ("statistical", "des_engine", "time_resolution",
                    "out_of_order", "other")


class Tracer:
    """Span recorder with online self-time accounting.

    Each open call owns a frame ``[layer, child_time]``; when a call
    returns after ``dt`` seconds its layer gains ``dt - child_time``
    of self time and its parent frame gains ``dt`` of child time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Counter = Counter({layer: 0 for layer in LAYERS})
        self.counts: Counter = Counter()
        #: kept spans: parallel columns, parent -1 for top level
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: open frames: [layer, child_time, span index or -1]
        self._stack: List[list] = [["", 0.0, -1]]

    @property
    def current_layer(self) -> str:
        return self._stack[-1][0]

    def call(self, layer: str, fn, args, kwargs, keep_span: bool):
        frame = [layer, 0.0, -1]
        if keep_span:
            frame[2] = len(self.names)
            self.names.append(layer)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.parents.append(self._stack[-1][2])
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            dt = end - start
            self.self_s[layer] += dt - frame[1]
            self.calls[layer] += 1
            self._stack[-1][1] += dt
            if keep_span:
                self.starts[frame[2]] = start
                self.ends[frame[2]] = end

    def wrap(self, layer: str, fn, keep_span: bool = True,
             on_result: Optional[Callable] = None):
        """``fn`` traced under ``layer``; ``on_result(args, result)``
        runs after the call, outside every layer's time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(layer, fn, args, kwargs, keep_span)
            if on_result is not None:
                start = tracer.clock()
                on_result(args, result)
                # keep the hook out of the enclosing layer's self time
                tracer._stack[-1][1] += tracer.clock() - start
            return result

        return traced

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = float(self.calls[layer])
        out["unattributed.self_s"] = wall_s - sum(self.self_s.values())
        return out

    def dump(self, path) -> None:
        """Write the kept spans as one JSON object of columns."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "starts": self.starts,
                       "ends": self.ends, "parents": self.parents}, fh)


# -- patching -----------------------------------------------------------------

class Patcher:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, tracer: Tracer, cls, name: str, layer: str,
               keep_span: bool = True, on_result=None) -> None:
        """Wrap a method or property defined on ``cls`` (no subclass
        of a wrapped class overrides the wrapped name)."""
        attr = cls.__dict__[name]
        if isinstance(attr, property):
            wrapped = property(tracer.wrap(layer, attr.fget, keep_span,
                                           on_result))
        else:
            wrapped = tracer.wrap(layer, attr, keep_span, on_result)
        self._set(cls, name, wrapped)

    def function(self, tracer: Tracer, module, name: str, layer: str,
                 keep_span: bool = True, on_result=None) -> None:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(module, name)
        wrapped = tracer.wrap(layer, original, keep_span, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and mod.__dict__.get(name) is original:
                self._set(mod, name, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _install(tracer: Tracer, patch: Patcher) -> None:
    """Wrap every layer's public calls (the table in README.md)."""
    import repro.cluster.cluster  # noqa: F401  (imports by name)
    import repro.controller.controller  # noqa: F401
    import repro.experiments.common  # noqa: F401
    from repro.cluster.cluster import ClusterReport
    from repro.cluster.replicator import CrossArrayReplicator
    from repro.cluster.routing import ReplicaRouter
    from repro.cluster.sharding import Sharding
    from repro.controller.planner import ReplicationPlanner
    from repro.core import admission, qos, sampling
    from repro.faults import FaultSchedule
    from repro.flash import admitpath, driver, metrics
    from repro.mining import matching, streaming
    from repro.obs import series

    # the package re-exports these functions under their module names
    apriori = importlib.import_module("repro.mining.apriori")
    transactions = importlib.import_module("repro.mining.transactions")

    counts = tracer.counts
    m, f = patch.method, patch.function

    # flash.admitpath -- the vector admission kernel
    def planned(_args, plan):
        if plan is not None:
            counts["admitpath.planned"] += len(plan)

    m(tracer, admitpath.VectorAdmissionWindow, "feed", "flash.admitpath")
    m(tracer, admitpath.VectorAdmissionWindow, "take", "flash.admitpath",
      on_result=planned)

    # core.admission -- the scalar admission controllers
    def offered(_args, decision):
        counts["admission.offers"] += 1
        if decision.admitted:
            counts["admission.admitted"] += 1
        else:
            counts["admission.delayed"] += 1

    for cls in (admission.StatisticalAdmission,
                admission.DeterministicAdmission):
        m(tracer, cls, "offer", "core.admission", keep_span=False,
          on_result=offered)
    m(tracer, admission.StatisticalAdmission, "offer_conflict",
      "core.admission", keep_span=False, on_result=offered)
    m(tracer, admission.StatisticalAdmission, "start_interval",
      "core.admission", keep_span=False)

    # flash.driver -- playback sessions
    def fed(args, _result):
        session, arrivals = args[0], args[1]
        counts["driver.requests"] += len(arrivals)
        if session.fast:
            counts["driver.fast_requests"] += len(arrivals)

    m(tracer, driver.OnlineTracePlayer, "play", "flash.driver")
    m(tracer, driver.OnlineStreamSession, "feed", "flash.driver",
      on_result=fed)
    m(tracer, driver.OnlineStreamSession, "advance", "flash.driver")
    m(tracer, driver.OnlineStreamSession, "drain", "flash.driver")

    # flash.metrics -- per-interval accounting
    def series_merged(_args, _result):
        if tracer.current_layer == "cluster.rollup":
            counts["rollup.series_merges"] += 1

    def stats_merged(_args, _result):
        counts["accounting.merges"] += 1

    m(tracer, metrics.IntervalSeries, "record", "flash.metrics",
      keep_span=False)
    m(tracer, metrics.IntervalSeries, "merge", "flash.metrics",
      on_result=series_merged)
    m(tracer, metrics.IntervalSeries, "overall", "flash.metrics")
    m(tracer, metrics.ResponseStats, "record_array", "flash.metrics",
      keep_span=False)
    m(tracer, metrics.ResponseStats, "merge", "flash.metrics",
      keep_span=False, on_result=stats_merged)

    # core.qos -- the report
    m(tracer, qos.QoSReport, "__init__", "core.qos")
    for name in ("summary", "n_failed", "n_violations", "violation_rate"):
        m(tracer, qos.QoSReport, name, "core.qos")

    # mining -- offline and streaming FIM
    def txns_built(_args, txns):
        counts["mining.transactions"] += len(txns)

    def txn_added(_args, _result):
        counts["mining.transactions"] += 1

    def mined(_args, itemsets):
        counts["mining.itemsets"] += len(itemsets)

    f(tracer, transactions, "transactions_from_trace", "mining",
      on_result=txns_built)
    f(tracer, apriori, "apriori", "mining", on_result=mined)
    m(tracer, streaming.StreamingFPGrowth, "add", "mining",
      keep_span=False, on_result=txn_added)
    m(tracer, streaming.StreamingFPGrowth, "mine", "mining",
      on_result=mined)
    m(tracer, streaming.StreamingTransactions, "observe", "mining",
      keep_span=False)
    m(tracer, streaming.StreamingTransactions, "flush", "mining")

    # mining.matching -- FIM block matching
    def rated(args, rate):
        n = len(args[1])
        counts["matching.requests"] += n
        counts["matching.matched"] += rate * n

    m(tracer, matching.FIMBlockMatcher, "match", "mining.matching")
    m(tracer, matching.MatchResult, "map_blocks", "mining.matching")
    m(tracer, matching.MatchResult, "match_rate", "mining.matching",
      on_result=rated)

    # controller.planner -- budgeted migration
    def planned_moves(_args, plan):
        counts["planner.applied"] += len(plan.applied)
        counts["planner.deferred"] += len(plan.deferred)
        counts["planner.blocked"] += len(plan.blocked)
        counts["planner.migration_cost"] += plan.cost

    m(tracer, ReplicationPlanner, "plan", "controller.planner",
      on_result=planned_moves)

    # core.sampling -- P_k estimation (set-up work)
    m(tracer, sampling.OptimalRetrievalSampler, "table", "core.sampling")

    # cluster.routing
    m(tracer, Sharding, "array_of_many", "cluster.routing")
    m(tracer, ReplicaRouter, "route", "cluster.routing", keep_span=False)
    m(tracer, ReplicaRouter, "sync", "cluster.routing")

    # obs.series -- router-sync module series
    def scanned(args, _result):
        counts["router_sync.scanned"] += len(args[0])

    f(tracer, series, "module_interval_series", "obs.series",
      on_result=scanned)
    m(tracer, series.ModuleSeries, "merge", "obs.series")

    # cluster.replicator
    m(tracer, CrossArrayReplicator, "update", "cluster.replicator")

    # cluster.rollup
    for name in ("series", "summary", "fingerprint"):
        m(tracer, ClusterReport, name, "cluster.rollup")

    # faults -- mask lookups
    m(tracer, FaultSchedule, "masked_at", "faults", keep_span=False)
    m(tracer, FaultSchedule, "masked_arrays_at", "faults",
      keep_span=False)
    m(tracer, FaultSchedule, "mask_segments", "faults")


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the layer wrappers for the duration of the block."""
    patch = Patcher()
    try:
        _install(tracer, patch)
        yield tracer
    finally:
        patch.restore()


def report_counts(tracer: Tracer, report) -> Dict[str, float]:
    """The per-layer counts: the tracer's, plus those read off the
    finished report (which the program already keeps)."""
    c = tracer.counts
    cluster = hasattr(report, "arrays")
    reports = array_reports(report)
    played = sum(len(r.requests) for r in reports)
    out: Dict[str, float] = {
        "admitpath.planned": float(c["admitpath.planned"]),
        "admission.offers": float(c["admission.offers"]),
        "admission.admitted": float(c["admission.admitted"]),
        "admission.delayed": float(c["admission.delayed"]),
        "admission.rejected": float(sum(
            1 for r in reports for p in r.requests if p.rejected)),
        "driver.requests": float(c["driver.requests"]),
        "driver.fast_share": (c["driver.fast_requests"]
                              / c["driver.requests"]
                              if c["driver.requests"] else 0.0),
        "accounting.intervals": float(sum(
            len(r.series.intervals()) for r in reports)),
        "accounting.merges": float(c["accounting.merges"]),
        "mining.transactions": float(c["mining.transactions"]),
        "mining.itemsets": float(c["mining.itemsets"]),
        "matching.match_rate": (c["matching.matched"]
                                / c["matching.requests"]
                                if c["matching.requests"] else 0.0),
        "planner.applied": float(c["planner.applied"]),
        "planner.deferred": float(c["planner.deferred"]),
        "planner.blocked": float(c["planner.blocked"]),
        "planner.migration_cost": float(c["planner.migration_cost"]),
        "routing.router_reads": float(sum(report.routed) if cluster else 0),
        "routing.unrouted": float(report.n_unrouted if cluster else 0),
        "router_sync.rescan_ratio": (c["router_sync.scanned"] / played
                                     if played else 0.0),
        "replicator.mirrors": float(
            report.audit[-1].n_mirrored if cluster and report.audit
            else 0),
        "replicator.moves_applied": float(
            sum(a.moves_applied for a in report.audit) if cluster else 0),
        "rollup.series_merges": float(c["rollup.series_merges"]),
        "faults.n_faulted": float(report.n_faulted),
        "faults.n_failed": float(report.n_failed),
    }
    return out


def fallback_counts(tally: Dict[str, int]) -> Dict[str, float]:
    """``admission.fallbacks.<reason>`` from ``engine_tally()``."""
    out = {f"admission.fallbacks.{r}": 0.0 for r in FALLBACK_REASONS}
    prefix = "admission.fallback."
    for key, n in tally.items():
        if key.startswith(prefix):
            reason = key[len(prefix):]
            if reason not in FALLBACK_REASONS:
                reason = "other"
            out[f"admission.fallbacks.{reason}"] += float(n)
    return out

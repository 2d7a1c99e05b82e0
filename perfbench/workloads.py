"""The benchmark's three workloads: inputs, set-up, play, report reading.

Every workload is a trace-driven open loop in simulated time: the
generated trace fixes each arrival, so a slow simulator never changes
the offered load.  Inputs come only from ``seed``; the program under
test receives the generated parts and nothing else.

A workload is played in four steps, kept apart so the timer in
``worker.py`` can bracket exactly the request path:

1. ``generate(seed)`` -- the trace parts (outside the timer), checked
   by :func:`validate_parts` before the program sees them;
2. ``setup()`` -- the system objects and their one-time lazy work
   (design lookup, allocation, ``P_k`` sampling);
3. ``play(system, parts)`` -- the public entry point;
4. :func:`read_report` -- the report's summary, violation and failed
   counts and the latency percentiles (inside the timer).

The post-run checks and fingerprints (:func:`check_report`,
:func:`fingerprint`) run after the timer stops.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

#: Duration of one Exchange-like part (ms), as ``repro.traces.exchange``
#: generates it at any scale; sets the cluster's fault timeline.
EXCHANGE_PART_MS = 60.0
#: Exchange days in ``exchange_fig8``: 96 diurnal parts each, so the
#: run grows by adding parts at the ``scale=1`` rate, never by raising
#: ``scale`` (which raises contention).
EXCHANGE_DAYS = 2
#: TPC-E model repeats in ``tpce_adaptive`` (6 parts, ~5.4K requests
#: and 360 ms of traffic per repeat).
TPCE_REPEATS = 16
#: Migration budget per boundary in ``tpce_adaptive``: small enough
#: that the planner defers moves at most boundaries.
TPCE_MIGRATION_BUDGET = 60
#: Exchange parts in ``cluster_failover`` at 4x the single-array rate.
CLUSTER_PARTS = 48
CLUSTER_SCALE = 4.0
CLUSTER_ARRAYS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], list]
    setup: Callable[[], object]
    play: Callable[[object, list], object]
    #: True when the fault schedule is expected to lose requests
    faulted: bool = False
    #: True when admission is deterministic (ε = 0): no admitted
    #: request may miss the guarantee
    deterministic: bool = False


# -- exchange_fig8 ----------------------------------------------------------

def _exchange_parts(seed: int) -> list:
    from repro.traces.exchange import EXCHANGE_N_INTERVALS, \
        exchange_like_trace

    return exchange_like_trace(
        scale=1.0, seed=seed,
        n_intervals=EXCHANGE_DAYS * EXCHANGE_N_INTERVALS)


def _exchange_setup():
    # What play_workload builds before its first request.
    from repro.core.qos import QoSFlashArray
    from repro.mining.matching import FIMBlockMatcher

    qos = QoSFlashArray(n_devices=9)
    return FIMBlockMatcher(qos.allocation)


def _exchange_play(_system, parts):
    from repro.experiments.common import play_workload

    return play_workload(parts, n_devices=9).report


# -- tpce_adaptive ----------------------------------------------------------

def _tpce_parts(seed: int) -> list:
    from repro.traces.tpce import tpce_model

    model = tpce_model(scale=1.0, seed=seed)
    model.intervals = list(model.intervals) * TPCE_REPEATS
    return model.generate()


def _tpce_setup():
    from repro.controller import ControllerConfig, ReplicationController

    controller = ReplicationController(ControllerConfig(
        n_devices=13, epsilon=0.05, adapt_target_delayed_pct=5.0,
        migration_budget=TPCE_MIGRATION_BUDGET))
    controller.qos.probabilities()
    return controller


def _tpce_play(controller, parts):
    return controller.run(parts).report


# -- cluster_failover -------------------------------------------------------

def cluster_faults():
    """One module crash (array 0, module 4) at 25% of the horizon and
    array 2 down over [50%, 60%) -- fixed by configuration, not by the
    seed, so every seed sees the same fault timeline."""
    from repro.faults import FaultEvent, FaultSchedule

    horizon = CLUSTER_PARTS * EXCHANGE_PART_MS
    return FaultSchedule([
        FaultEvent("crash", 4, 0.25 * horizon),
        FaultEvent("down", 2, 0.50 * horizon, 0.60 * horizon,
                   scope="array"),
    ])


def _cluster_parts(seed: int) -> list:
    from repro.traces.exchange import exchange_like_trace

    return exchange_like_trace(scale=CLUSTER_SCALE, seed=seed,
                               n_intervals=CLUSTER_PARTS)


def _cluster_setup():
    from repro.cluster import ClusterConfig, ShardedCluster

    return ShardedCluster(
        ClusterConfig(n_arrays=CLUSTER_ARRAYS, n_devices=9,
                      sharding="hash", cross_replication=2),
        faults=cluster_faults())


def _cluster_play(cluster, parts):
    # Serial path (no runner), so router sync is on.
    return cluster.play(parts)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("exchange_fig8",
             "paper Fig. 8: Exchange-like, N=9, T=0.133 ms, eps=0, vector "
             "admission, offline FIM over 131K blocks, sparse intervals",
             _exchange_parts, _exchange_setup, _exchange_play,
             deterministic=True),
    Workload("tpce_adaptive",
             "paper Fig. 10 live: TPC-E-like, N=13, eps=0.05 adaptive, "
             "scalar statistical admission, streaming FIM, budgeted planner",
             _tpce_parts, _tpce_setup, _tpce_play),
    Workload("cluster_failover",
             "4-array hash cluster, 2x cross replication, router sync, one "
             "module crash and one array down window: the only failures",
             _cluster_parts, _cluster_setup, _cluster_play, faulted=True),
)}


# -- input contract ---------------------------------------------------------

def validate_parts(parts: Sequence) -> Dict[str, int]:
    """Reject generated inputs the program would silently mangle.

    Arrivals must be finite, non-negative and sorted within each part,
    parts must start in time order, and block ids must be non-negative
    integers.  (The program drops NaN arrivals and wraps negative ids,
    so a generator defect would otherwise pass as a faster run.)

    A part may start before the previous part's last arrival: the
    models let the second request of a correlated pair land past its
    part's end.  The program orders such feeds itself, so they are
    counted (``boundary_overlaps``), not rejected.

    Returns ``{"n_requests", "boundary_overlaps"}``.
    """
    if not parts:
        raise ValueError("workload generated no parts")
    first = last = 0.0
    total = overlaps = 0
    for i, part in enumerate(parts):
        arrivals = np.asarray(part.arrival_ms)
        blocks = np.asarray(part.block)
        if arrivals.shape != blocks.shape or arrivals.ndim != 1:
            raise ValueError(f"part {i}: arrival/block columns differ")
        if arrivals.size == 0:
            continue
        if not np.issubdtype(blocks.dtype, np.integer):
            raise ValueError(f"part {i}: block ids are not integers")
        if not np.all(np.isfinite(arrivals)):
            raise ValueError(f"part {i}: non-finite arrival")
        if float(arrivals[0]) < 0:
            raise ValueError(f"part {i}: negative arrival")
        if np.any(np.diff(arrivals) < 0):
            raise ValueError(f"part {i}: arrivals not sorted")
        if float(arrivals[0]) < first:
            raise ValueError(f"part {i}: starts before part {i - 1}")
        if int(blocks.min()) < 0:
            raise ValueError(f"part {i}: negative block id")
        overlaps += int(float(arrivals[0]) < last)
        first, last = float(arrivals[0]), float(arrivals[-1])
        total += int(arrivals.size)
    if total == 0:
        raise ValueError("workload generated no requests")
    return {"n_requests": total, "boundary_overlaps": overlaps}


# -- report reading (timed) -------------------------------------------------

def array_reports(report) -> List:
    """The per-array ``QoSReport``s of a QoS or cluster report."""
    arrays = getattr(report, "arrays", None)
    if arrays is None:
        return [report]
    return [ar.report for ar in arrays]


def read_report(report, n_input: int) -> Dict[str, float]:
    """Read what a user reads off a finished run: the summary, the
    violation and failed counts, and the latency percentiles.

    Latency is arrival-to-completion (``io.total_ms``, admission delay
    included) over the requests that were served; failed and unrouted
    requests have no completion and count in ``served_frac`` instead.
    """
    summary = report.summary()
    n_violations = report.n_violations
    n_failed = report.n_failed
    violation_rate = report.violation_rate
    total = np.fromiter(
        (r.io.total_ms for rep in array_reports(report)
         for r in rep.requests if not (r.failed or r.rejected)),
        dtype=np.float64)
    p50, p999 = np.percentile(total, [50.0, 99.9])
    return {
        "violation_rate": float(violation_rate),
        "guarantee_met_frac": 1.0 - float(violation_rate),
        "pct_delayed": float(summary["pct_delayed"]),
        "sim_latency_mean_ms": float(total.mean()),
        "sim_latency_p50_ms": float(p50),
        "sim_latency_p999_ms": float(p999),
        "p999_tail_samples": int(np.count_nonzero(total > p999)),
        "n_served": int(total.size),
        "n_violations": int(n_violations),
        "n_failed": int(n_failed),
        "failed_frac": n_failed / n_input,
        "served_frac": 1.0 - n_failed / n_input,
    }


# -- post-run checks (untimed) ----------------------------------------------

def _columns_hash(requests) -> str:
    """SHA-256 of the per-request columns, in played order -- the same
    columns ``repro.cluster.cluster`` hashes per array."""
    h = hashlib.sha256()
    floats = np.array(
        [[p.io.arrival, p.io.issued_at, p.io.completed_at,
          p.io.response_ms, p.io.total_ms] for p in requests],
        dtype=np.float64)
    ints = np.array(
        [[p.interval, p.io.device, p.io.retries, int(p.delayed),
          int(p.rejected), int(p.failed),
          int(getattr(p.io, "faulted", False))] for p in requests],
        dtype=np.int64)
    h.update(floats.tobytes())
    h.update(ints.tobytes())
    return h.hexdigest()


def fingerprint(report) -> str:
    if hasattr(report, "fingerprint"):
        return report.fingerprint()
    return _columns_hash(report.requests)


def check_report(workload: Workload, report, n_input: int,
                 reading: Dict[str, float]) -> List[str]:
    """Correctness failures of one run (empty when correct)."""
    failures: List[str] = []
    arrays = getattr(report, "arrays", None)
    if arrays is None:
        n_out = len(report.requests)
        indices = sorted(r.index for r in report.requests)
        if indices != list(range(n_input)):
            failures.append("played request indices are not exactly "
                            "the generated requests")
    else:
        n_out = sum(ar.n_requests for ar in arrays) + report.n_unrouted
        for ar in arrays:
            if ar.n_requests != len(ar.report.requests):
                failures.append(f"array {ar.array} count disagrees with "
                                "its request list")
    if n_out != n_input:
        failures.append(f"request conservation: {n_out} reported, "
                        f"{n_input} generated")
    if not workload.faulted and reading["n_failed"]:
        failures.append(f"{reading['n_failed']} requests failed without "
                        "any injected fault")
    if workload.faulted and not reading["n_failed"]:
        failures.append("fault schedule lost no request: the failover "
                        "path was not exercised")
    if workload.deterministic and reading["n_violations"]:
        failures.append(f"{reading['n_violations']} guarantee misses "
                        "under deterministic QoS (eps=0)")
    for key in ("sim_latency_mean_ms", "sim_latency_p999_ms"):
        if not math.isfinite(reading[key]) or reading[key] <= 0:
            failures.append(f"{key} is {reading[key]}")
    return failures

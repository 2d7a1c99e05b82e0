"""Double-execution determinism probe.

The strongest cheap evidence that a simulation is deterministic is to
run it twice from the same seed and compare the *serialized* results
byte for byte.  Hashing the JSON catches everything the result tables
expose: event ordering, float accumulation order, RNG consumption and
dict construction order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["DeterminismProbe", "determinism_probe", "PROBE_WORKLOADS"]


@dataclass(frozen=True)
class DeterminismProbe:
    """Outcome of one double-run probe."""

    workload: str
    runs: int
    digests: List[str]
    identical: bool
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"workload": self.workload, "runs": self.runs,
                "digests": self.digests, "identical": self.identical,
                "detail": self.detail}


def _fig8_small(seed: int) -> str:
    from repro.experiments import fig8

    return fig8.run(scale=0.15, n_intervals=3, seed=seed).to_json()


def _table3_small(seed: int) -> str:
    from repro.experiments import table3

    return table3.run(total_requests=200, seed=seed).to_json()


def _selfcheck_small(seed: int) -> str:
    from repro.core.qos import QoSFlashArray
    from repro.core.selfcheck import self_check

    qos = QoSFlashArray(n_devices=9, replication=3, accesses=1)
    return self_check(qos, trials=20, seed=seed).render()


def _runner_small(seed: int) -> str:
    """fig8 through a 2-worker process pool (uncached).

    Identity across runs proves the parallel fan-out is as
    deterministic as the serial path: per-cell seeds are derived in
    the parent and results are reassembled in submission order.
    """
    from repro.experiments import fig8
    from repro.runner import ParallelRunner

    runner = ParallelRunner(jobs=2, cache=None, auto_degrade=False)
    return fig8.run(scale=0.15, n_intervals=3, seed=seed,
                    runner=runner).to_json()


def _fastpath_small(seed: int) -> str:
    """Vectorized playback vs the DES on the same trace.

    Raises if the two engines disagree on any sample (float-exact),
    so a divergence fails the probe outright; the returned payload
    then guards both engines' determinism across runs.
    """
    from repro.experiments.common import play_original
    from repro.experiments.fig8 import make_parts

    parts = make_parts("exchange", 0.15, 3, seed)
    payload = []
    for engine in ("fast", "des"):
        series = play_original(parts, 13, engine=engine)
        payload.append(";".join(
            f"{i}:{series.stats(i).n_total}:"
            f"{series.stats(i).state()!r}"
            for i in series.intervals()))
    if payload[0] != payload[1]:
        raise ValueError(
            "fast playback diverged from the DES on the probe trace")
    return "|".join(payload)


def _obs_small(seed: int) -> str:
    """Observability sanitizer probe: one fig8 cell with obs on.

    Asserts (a) experiment outputs are byte-identical with
    observability enabled vs disabled, (b) both playback engines
    produce identical request-section payloads, and (c) on the DES
    every span opened at issue time is closed by drain time.  The
    returned blob (plain outputs + canonical payloads) then guards the
    instrumentation's own determinism across runs.
    """
    import json

    from repro import obs
    from repro.experiments import fig8
    from repro.experiments.common import play_workload
    from repro.obs.session import request_sections

    plain = fig8.run(scale=0.15, n_intervals=3, seed=seed).to_json()
    with obs.observed():
        observed = fig8.run(scale=0.15, n_intervals=3,
                            seed=seed).to_json()
    if plain != observed:
        raise ValueError(
            "experiment output changed when observability was enabled")

    parts = fig8.make_parts("exchange", 0.15, 3, seed)
    payloads = {}
    for engine in ("des", "fast"):
        with obs.observed() as session:
            play_workload(parts, n_devices=9, engine=engine)
        payloads[engine] = session.to_payload()
    sections = {engine: json.dumps(request_sections(payload),
                                   sort_keys=True)
                for engine, payload in payloads.items()}
    if sections["des"] != sections["fast"]:
        raise ValueError("observability payloads diverge between "
                         "the DES and the fast engine")
    kernel = payloads["des"]["kernel"]
    if kernel["live_opened"] != kernel["live_closed"] \
            or kernel["live_opened"] == 0:
        raise ValueError(
            f"unbalanced spans at drain time: "
            f"{kernel['live_opened']} opened, "
            f"{kernel['live_closed']} closed")
    return plain + "|" + sections["des"] + "|" + \
        json.dumps(kernel, sort_keys=True)


def _kernels_small(seed: int) -> str:
    """Kernel-equivalence probe: bitset kernels vs legacy solvers.

    Runs the retrieval-heavy workloads (the Figure 4 sampler plus the
    three batch-solving ablations) twice -- once with the
    ``repro.graph.kernels`` fast paths enabled, once with them forced
    off -- and raises unless the serialized outputs are byte-identical.
    Caches are cleared on both sides so the comparison covers the cold
    path, not a memoized answer.  The returned blob then guards the
    kernels' own run-to-run determinism.
    """
    from repro.experiments import ablations, fig4
    from repro.graph import kernels

    def harvest() -> str:
        kernels.clear_caches()
        parts = [fig4.run(max_k=12, trials=300, seed=seed).to_json(),
                 ablations.allocation_zoo(trials=60,
                                          seed=seed).to_json(),
                 ablations.query_types(trials=60, seed=seed).to_json(),
                 ablations.failure_degradation(trials=40,
                                               seed=seed).to_json()]
        return "|".join(parts)

    fast = harvest()
    with kernels.disabled():
        legacy = harvest()
    if fast != legacy:
        raise ValueError(
            "retrieval kernels diverged from the legacy solvers on "
            "the probe workloads")
    return fast


def _faults_small(seed: int) -> str:
    """Fault-injection determinism probe.

    Runs (a) the scripted-crash experiment family and (b) a stochastic
    :class:`repro.faults.FaultModel` materialization played online,
    serializing per-request timestamps, devices, retries and failure
    flags.  Identity across runs proves the entire fault path --
    seeded event materialization, down-window waits, counter-based
    read-error draws, driver failover order -- is deterministic.  Also
    asserts that an *empty* schedule leaves the fast path eligible and
    byte-identical to the healthy run (fault-free prefix identity).
    """
    import json

    from repro.experiments import faults as faults_exp
    from repro.faults import FaultModel, FaultSchedule
    from repro.flash.driver import OnlineTracePlayer

    table = faults_exp.run(n_requests=180, max_failures=3,
                           seed=seed).to_json()

    alloc = faults_exp.make_allocation("design", 9)
    arrivals = [i * 0.3 for i in range(120)]
    buckets = [i % alloc.n_buckets for i in range(120)]

    def fingerprint(played) -> str:
        return json.dumps([[p.io.issued_at, p.io.completed_at,
                            p.io.device, p.io.retries,
                            int(p.io.faulted), int(p.failed),
                            p.io.fail_reason] for p in played])

    healthy = OnlineTracePlayer(alloc, interval_ms=0.4)
    _, base = healthy.play(arrivals, buckets)
    empty = OnlineTracePlayer(alloc, interval_ms=0.4,
                              faults=FaultSchedule.none())
    if empty.engine_selected != "fast":
        raise ValueError("an empty fault schedule must keep the "
                         "fast path eligible")
    _, base_empty = empty.play(arrivals, buckets)
    if fingerprint(base) != fingerprint(base_empty):
        raise ValueError("an empty fault schedule changed playback")

    model = FaultModel(down_rate=0.4, down_mean_ms=1.0,
                       slow_rate=0.4, slow_mean_ms=1.0,
                       slow_factor=3.0, error_rate=0.4,
                       error_mean_ms=1.0, error_prob=0.5)
    schedule = model.materialize(9, horizon_ms=40.0, seed=seed + 17)
    player = OnlineTracePlayer(alloc, interval_ms=0.4,
                               faults=schedule)
    if player.engine_selected != "fast":
        raise ValueError("a materialized fault schedule must keep "
                         "the fast engine")
    _, played = player.play(arrivals, buckets)
    # Cross-engine identity: the faulted replay must be byte-identical
    # to the DES on the same schedule -- a divergence fails the probe
    # outright, before the across-runs comparison even happens.
    des = OnlineTracePlayer(alloc, interval_ms=0.4,
                            faults=schedule, engine="des")
    _, played_des = des.play(arrivals, buckets)
    if fingerprint(played) != fingerprint(played_des):
        raise ValueError("faulted fast playback diverged from the "
                         "DES on the probe schedule")
    return table + "|" + schedule.cache_token() + "|" + \
        fingerprint(played)


def _controller_small(seed: int) -> str:
    """Live-controller loop probe: the whole loop, replayed.

    Asserts, before the across-runs comparison:

    * **streaming-vs-batch mining identity** -- folding each interval's
      transactions into :class:`repro.mining.streaming.\
StreamingFPGrowth` mines the exact itemsets and supports batch
      ``fpgrowth`` reports.  The controller itself mines with
      :func:`repro.mining.pairs.mine_trace_pairs`; this check keeps
      the streaming reference miner honest;
    * **live-vs-offline loop identity** -- an unbudgeted, fault-free
      :class:`repro.controller.ReplicationController` run reproduces
      ``play_workload`` byte for byte: same per-request floats, same
      match rates.

    The returned payload (controller experiment table + per-request
    fingerprint + audit trail) then guards the loop's own run-to-run
    determinism.
    """
    import json

    from repro.controller import ControllerConfig, ReplicationController
    from repro.experiments import controller as controller_exp
    from repro.experiments.common import play_workload
    from repro.experiments.fig8 import make_parts
    from repro.mining.fpgrowth import fpgrowth
    from repro.mining.streaming import StreamingFPGrowth
    from repro.mining.transactions import transactions_from_trace

    parts = make_parts("exchange", 0.2, 4, seed)

    for part in parts:
        txns = transactions_from_trace(part, 0.133)
        miner = StreamingFPGrowth(min_support=1, max_size=2)
        miner.add_many(txns)
        if miner.mine() != fpgrowth(txns, 1, max_size=2):
            raise ValueError("streaming FP-growth diverged from "
                             "batch fpgrowth on a probe interval")

    offline = play_workload(parts, n_devices=9, epsilon=0.01,
                            seed=seed)
    live = ReplicationController(ControllerConfig(
        n_devices=9, epsilon=0.01, seed=seed)).run(parts)

    def fingerprint(report) -> str:
        return json.dumps([[p.index, p.interval, int(p.delayed),
                            int(p.rejected), p.io.response_ms,
                            p.io.total_ms]
                           for p in report.requests])

    if fingerprint(live.report) != fingerprint(offline.report) \
            or live.match_rates != offline.match_rates:
        raise ValueError("the live controller diverged from the "
                         "offline play_workload loop")

    table = controller_exp.run(scale=0.2, n_intervals=4,
                               seed=seed).to_json()
    audit = json.dumps([[a.part, a.boundary_ms, a.n_transactions,
                         a.n_itemsets, a.deltas_applied,
                         a.deltas_deferred, a.deltas_blocked,
                         a.migration_cost, a.match_rate, a.epsilon]
                        for a in live.audit])
    return table + "|" + fingerprint(live.report) + "|" + audit


def _admission_small(seed: int) -> str:
    """Vectorized-admission kernel probe: on-vs-off double run.

    Plays delayed-pileup, reject-overflow and faulted workloads with
    the segmented admission kernel (:mod:`repro.flash.admitpath`)
    enabled and disabled, and demands byte-identical
    :class:`~repro.core.qos.QoSReport` fingerprints -- per-request
    timestamps, devices, delay/reject flags *and* the degraded-mode
    counts ``n_failed``/``n_faulted``.  Also asserts the kernel
    actually engaged (no silent scalar fallback would make the
    comparison vacuous).  The returned payload then guards the
    kernel's own run-to-run determinism.
    """
    import json
    import random

    from repro.core.qos import QoSReport
    from repro.experiments import faults as faults_exp
    from repro.faults import FaultModel, FaultSchedule
    from repro.flash import admitpath
    from repro.flash.driver import OnlineTracePlayer, engine_tally
    from repro.flash.params import FlashParams

    alloc = faults_exp.make_allocation("design", 9)
    rng = random.Random(seed)
    burst_arr = [k * 0.4 + j * 0.001
                 for k in range(8) for j in range(30)]
    rand_arr = sorted(rng.uniform(0.0, 10.0) for _ in range(300))
    model = FaultModel(down_rate=0.4, down_mean_ms=1.0,
                       slow_rate=0.4, slow_mean_ms=1.0,
                       slow_factor=3.0, error_rate=0.4,
                       error_mean_ms=1.0, error_prob=0.5)
    cells = [
        ("pileup_delay", burst_arr, "delay", None),
        ("pileup_reject", burst_arr, "reject", None),
        ("random_delay", rand_arr, "delay", None),
        ("crash", burst_arr, "delay",
         FaultSchedule.crashes([0, 4], at=0.5)),
        ("stochastic", burst_arr, "delay",
         model.materialize(9, horizon_ms=4.0, seed=seed + 31)),
    ]

    def fingerprint(report) -> str:
        rows = [[p.index, p.interval, int(p.delayed), int(p.rejected),
                 p.io.arrival, p.io.issued_at, p.io.completed_at,
                 p.io.device, p.io.retries, int(p.io.faulted),
                 int(p.failed), p.io.fail_reason]
                for p in report.requests]
        return json.dumps([rows, report.n_failed, report.n_faulted])

    def run_cells() -> Dict[str, str]:
        out = {}
        for name, arr, overflow, faults in cells:
            player = OnlineTracePlayer(alloc, interval_ms=0.4,
                                       overflow=overflow,
                                       faults=faults)
            buckets = [i % alloc.n_buckets for i in range(len(arr))]
            series, played = player.play(arr, buckets)
            params = player.params or FlashParams()
            guarantee = player.accesses * params.read_ms
            out[name] = fingerprint(
                QoSReport(series, played, guarantee))
        return out

    before = engine_tally().get("admission.vector", 0)
    vectorized = run_cells()
    engaged = engine_tally().get("admission.vector", 0) - before
    if engaged < len(cells):
        raise ValueError(
            f"the vectorized admission kernel engaged on only "
            f"{engaged}/{len(cells)} probe cells -- the on-vs-off "
            "comparison would be vacuous")
    with admitpath.disabled():
        scalar = run_cells()
    for name in vectorized:
        if vectorized[name] != scalar[name]:
            raise ValueError(
                f"vectorized admission diverged from the scalar "
                f"loop on the {name!r} probe cell")
    return "|".join(f"{k}:{v}" for k, v in sorted(vectorized.items()))


def _cluster_small(seed: int) -> str:
    """Sharded-cluster probe: the scale-out layer, replayed.

    Asserts, before the across-runs comparison:

    * **1-shard identity** -- a 1-array cluster reproduces
      ``play_workload`` byte for byte (same interval-series state),
      so the scale-out layer adds nothing at N=1;
    * **mode identity** -- the serial streaming path (routing sync
      off) and the parallel-runner cell path produce identical
      :class:`~repro.cluster.ClusterReport` fingerprints.

    The returned payload (cluster experiment table + 4-array cluster
    fingerprint) then guards the layer's run-to-run determinism:
    sharding, mirror planning, replica routing and the mergeable
    roll-up.
    """
    from repro.cluster import ClusterConfig, ShardedCluster
    from repro.experiments import cluster as cluster_exp
    from repro.experiments.common import play_workload
    from repro.experiments.fig8 import make_parts
    from repro.runner import ParallelRunner

    parts = make_parts("exchange", 0.2, 4, seed)

    single = play_workload(parts, n_devices=9, seed=seed)
    one = ShardedCluster(ClusterConfig(
        n_arrays=1, n_devices=9, cross_replication=1,
        seed=seed)).play(parts)
    if one.series.state() != single.report.series.state():
        raise ValueError("a 1-array cluster diverged from the "
                         "single-array pipeline")

    config = ClusterConfig(n_arrays=4, n_devices=9,
                           cross_replication=2, seed=seed)
    serial = ShardedCluster(config).play(parts, router_sync=False)
    runner = ParallelRunner(jobs=2, cache=None, auto_degrade=False)
    celled = ShardedCluster(config).play(parts, runner=runner)
    if serial.fingerprint() != celled.fingerprint():
        raise ValueError("the serial cluster path diverged from the "
                         "parallel-runner cell path")

    table = cluster_exp.run(scale=0.2, n_intervals=4,
                            seed=seed).to_json()
    synced = ShardedCluster(config).play(parts)
    return table + "|" + synced.fingerprint() + "|" + \
        serial.fingerprint()


#: name -> callable(seed) -> serialized result string
PROBE_WORKLOADS: Dict[str, Callable[[int], str]] = {
    "fig8": _fig8_small,
    "table3": _table3_small,
    "selfcheck": _selfcheck_small,
    "runner": _runner_small,
    "fastpath": _fastpath_small,
    "obs": _obs_small,
    "kernels": _kernels_small,
    "faults": _faults_small,
    "controller": _controller_small,
    "admission": _admission_small,
    "cluster": _cluster_small,
}


def determinism_probe(workload: str = "fig8", seed: int = 0,
                      runs: int = 2,
                      runner: Optional[Callable[[int], str]] = None,
                      ) -> DeterminismProbe:
    """Run ``workload`` ``runs`` times from ``seed``; demand identity.

    Parameters
    ----------
    workload:
        Key into :data:`PROBE_WORKLOADS` (ignored when ``runner`` is
        given, except as the label).
    runner:
        Override callable ``seed -> serialized-result`` for tests.
    """
    if runs < 2:
        raise ValueError("a determinism probe needs at least 2 runs")
    if runner is None:
        if workload not in PROBE_WORKLOADS:
            raise ValueError(
                f"unknown probe workload {workload!r}; "
                f"choose from {sorted(PROBE_WORKLOADS)}")
        runner = PROBE_WORKLOADS[workload]
    digests = []
    for _ in range(runs):
        payload = runner(seed)
        digests.append(hashlib.sha256(
            payload.encode("utf-8")).hexdigest())
    identical = len(set(digests)) == 1
    detail = (f"{runs} seeded runs bit-identical "
              f"(sha256 {digests[0][:12]}...)" if identical else
              f"digests diverge across {runs} runs: {digests}")
    return DeterminismProbe(workload=workload, runs=runs,
                            digests=digests, identical=identical,
                            detail=detail)

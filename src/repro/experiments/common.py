"""Shared plumbing for the experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.qos import QoSFlashArray, QoSReport
from repro.flash.metrics import IntervalSeries
from repro.mining.apriori import apriori
from repro.mining.matching import FIMBlockMatcher, MatchResult
from repro.mining.transactions import transactions_from_trace
from repro.traces.records import Trace

__all__ = ["ExperimentResult", "render_table", "WorkloadRun",
           "play_workload", "play_original"]


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Plain-text table renderer used by every experiment report."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.4f}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Generic result container: headers + rows + context."""

    name: str
    headers: List[str]
    rows: List[List[object]]
    notes: str = ""

    def render(self) -> str:
        out = render_table(self.headers, self.rows, title=self.name)
        if self.notes:
            out += "\n" + self.notes
        return out

    def column(self, header: str) -> List[object]:
        idx = self.headers.index(header)
        return [r[idx] for r in self.rows]

    # -- persistence -------------------------------------------------------
    def to_json(self) -> str:
        """Serialise (used by the results pipeline and CI artefacts)."""
        import json

        return json.dumps({
            "name": self.name,
            "headers": self.headers,
            "rows": self.rows,
            "notes": self.notes,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`."""
        import json

        data = json.loads(text)
        missing = {"name", "headers", "rows"} - set(data)
        if missing:
            raise ValueError(f"missing fields: {sorted(missing)}")
        return cls(name=data["name"], headers=list(data["headers"]),
                   rows=[list(r) for r in data["rows"]],
                   notes=data.get("notes", ""))


@dataclass
class WorkloadRun:
    """Everything one FIM-mapped workload play-through produces."""

    report: QoSReport
    match_rates: List[float]
    #: interval index of each trace part's requests in the report
    part_of_request: List[int]

    @property
    def series(self) -> IntervalSeries:
        return self.report.series

    def per_part_series(self) -> IntervalSeries:
        """Response stats re-bucketed by *trace part* (15-min interval)
        instead of the QoS scheduling interval."""
        series = IntervalSeries()
        for pr in self.report.requests:
            part_idx = self.part_of_request[pr.index]
            series.record(part_idx, pr.io.response_ms,
                          pr.io.delay_ms if pr.delayed else 0.0)
        return series


def play_workload(parts: Sequence[Trace], n_devices: int,
                  epsilon: float = 0.0,
                  mode: str = "online",
                  replication: int = 3,
                  qos_interval_ms: float = 0.133,
                  fim_window_ms: float = 0.133,
                  min_support: int = 1,
                  seed: int = 0,
                  engine: str = "auto") -> WorkloadRun:
    """The full §V-D pipeline: FIM mapping + QoS playback.

    For each trace part, data blocks are mapped to design blocks with
    the matcher trained on the *previous* part (the paper's rule; the
    first part uses the modulo fallback), then the whole request stream
    is played through the QoS array.

    Parameters
    ----------
    parts:
        Per-interval traces (e.g. from
        :func:`repro.traces.exchange.exchange_like_trace`).
    n_devices:
        9 for Exchange-like, 13 for TPC-E-like (paper §V-D).
    epsilon:
        0 = deterministic QoS; > 0 = statistical.
    mode:
        ``"online"`` (paper §V-D/E) or ``"batch"``
        (design-theoretic interval alignment, §V-G).
    """
    qos = QoSFlashArray(n_devices=n_devices, replication=replication,
                        interval_ms=qos_interval_ms, epsilon=epsilon,
                        seed=seed, engine=engine)
    matcher = FIMBlockMatcher(qos.allocation)
    match = MatchResult.empty(qos.allocation.n_buckets)
    arrivals: List[float] = []
    buckets: List[int] = []
    part_of_request: List[int] = []
    match_rates: List[float] = []
    prev: Optional[Trace] = None
    for part_idx, part in enumerate(parts):
        if prev is not None:
            txns = transactions_from_trace(prev, fim_window_ms)
            match = matcher.match(apriori(txns, min_support, max_size=2))
            match_rates.append(match.match_rate(part.block))
        else:
            match_rates.append(0.0)
        arrivals.extend(float(t) for t in part.arrival_ms)
        buckets.extend(match.map_blocks(part.block))
        part_of_request.extend([part_idx] * len(part))
        prev = part
    if mode == "online":
        report = qos.run_online(arrivals, buckets)
    elif mode == "batch":
        report = qos.run_batch(arrivals, buckets)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return WorkloadRun(report=report, match_rates=match_rates,
                       part_of_request=part_of_request)


def play_original(parts: Sequence[Trace], n_devices: int,
                  engine: str = "auto") -> IntervalSeries:
    """The "original stand" baseline of §V-D.

    Every block request is retrieved from the device stated in the
    trace (no replication, no QoS); devices serve FCFS.  Returns
    response statistics bucketed by trace part.

    The baseline has no admission control, so with ``engine="auto"``
    (or ``"fast"``) the per-device response times come straight from
    the vectorized Lindley recurrence
    (:func:`repro.flash.batch.stacked_fcfs_completion_times`) --
    bit-identical to the DES, which ``engine="des"`` still runs.
    """
    from repro.flash.driver import select_engine

    if select_engine(engine)[0] == "fast":
        return _play_original_fast(parts, n_devices)

    from repro.flash.array import FlashArray, IORequest
    from repro.sim import Environment

    stream: List[Tuple[float, int, int, int]] = []
    for part_idx, part in enumerate(parts):
        for t, dev, blk in zip(part.arrival_ms, part.device, part.block):
            stream.append((float(t), int(dev), int(blk), part_idx))
    stream.sort(key=lambda r: r[0])

    env = Environment()
    array = FlashArray(env, n_devices)
    records: List[Tuple[int, IORequest]] = []

    def run():
        for t, dev, blk, part_idx in stream:
            if t > env.now:
                yield env.timeout_until(t)
            io = IORequest(arrival=t, bucket=blk)
            array.issue(io, dev % n_devices)
            records.append((part_idx, io))

    env.process(run())
    env.run()

    series = IntervalSeries()
    for part_idx, io in records:
        series.record(part_idx, io.response_ms)
    if obs.ACTIVE:
        import numpy as np

        obs.SESSION.observe_responses_array(np.asarray(
            [io.response_ms for _, io in records], dtype=np.float64))
    return series


def _play_original_fast(parts: Sequence[Trace],
                        n_devices: int) -> IntervalSeries:
    """Vectorized twin of the DES baseline loop above.

    Each device is an independent FCFS constant-rate server fed its
    requests in arrival order, so all completion times are one
    :func:`~repro.flash.batch.stacked_fcfs_completion_times` call.  Sample
    lists are filled per part in the DES's stream order (stable sort by
    arrival), which makes the resulting :class:`IntervalSeries`
    indistinguishable from the event-loop run -- same floats, same
    list order.
    """
    import numpy as np

    from repro.flash.batch import stacked_fcfs_completion_times, \
        stream_offsets
    from repro.flash.params import FlashParams

    series = IntervalSeries()
    if not parts:
        return series
    service = FlashParams().read_ms
    arrival = np.concatenate([
        np.asarray(p.arrival_ms, dtype=np.float64) for p in parts])
    device = np.concatenate([
        np.asarray(p.device, dtype=np.int64) for p in parts]) % n_devices
    part_idx = np.concatenate([
        np.full(len(p), i, dtype=np.intp) for i, p in enumerate(parts)])
    order = np.argsort(arrival, kind="stable")
    issue = arrival[order]
    device = device[order]
    part_idx = part_idx[order]
    # All devices evaluated as one stacked Lindley computation
    # (per-stream bit-identical to the scalar recurrence).
    grouping, offsets = stream_offsets(device, n_devices)
    u = issue[grouping]
    response = np.empty(issue.size, dtype=np.float64)
    response[grouping] = \
        stacked_fcfs_completion_times(u, offsets, service) - u
    for p in np.unique(part_idx):
        series.stats(int(p)).record_array(response[part_idx == p])
    if obs.ACTIVE:
        # same stream-order bulk record as the DES loop above; the
        # fold state is order-independent, so payloads stay identical
        obs.SESSION.observe_responses_array(response)
    return series

"""Per-module utilisation and queue-depth time series.

Sampled at QoS-interval boundaries and computed *post hoc* from the
played request timestamps, so the DES and the vectorized fast path
produce identical series by construction (same timestamps in, same
pure function over them).

Replicated write masters (``device == -1``) are excluded from the
per-device series on both engines -- the fast engine only tracks the
logical write, not its per-replica service windows.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["ModuleSeries", "module_interval_series"]


class ModuleSeries:
    """Busy time and boundary queue depth per (device, interval).

    ``busy_ms[(d, k)]`` is device ``d``'s in-service time inside
    interval ``k``; utilisation is that over ``interval_ms``.
    ``depth[(d, k)]`` is the number of requests sitting in ``d``'s
    queue (issued, not yet started) at the instant interval ``k``
    begins.
    """

    def __init__(self, interval_ms: float = 0.0, n_devices: int = 0):
        self.interval_ms = float(interval_ms)
        self.n_devices = int(n_devices)
        self.busy_ms: Dict[Tuple[int, int], float] = {}
        self.depth: Dict[Tuple[int, int], int] = {}

    def intervals(self) -> List[int]:
        keys = set(k for _, k in self.busy_ms) \
            | set(k for _, k in self.depth)
        return sorted(keys)

    def utilisation(self, device: int, interval: int) -> float:
        if self.interval_ms <= 0:
            return 0.0
        return self.busy_ms.get((device, interval), 0.0) / self.interval_ms

    def rows(self) -> List[Tuple[int, int, float, int]]:
        """Sorted ``(device, interval, busy_ms, depth)`` rows."""
        keys = sorted(set(self.busy_ms) | set(self.depth))
        return [(d, k, self.busy_ms.get((d, k), 0.0),
                 self.depth.get((d, k), 0)) for d, k in keys]

    def merge(self, other: "ModuleSeries") -> None:
        """Fold another series in (sums busy time and depths)."""
        if self.interval_ms == 0.0:
            self.interval_ms = other.interval_ms
        self.n_devices = max(self.n_devices, other.n_devices)
        for key, busy in other.busy_ms.items():
            self.busy_ms[key] = self.busy_ms.get(key, 0.0) + busy
        for key, depth in other.depth.items():
            self.depth[key] = self.depth.get(key, 0) + depth

    # -- (de)serialisation ----------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"interval_ms": self.interval_ms,
                "n_devices": self.n_devices,
                "rows": [[d, k, busy, depth]
                         for d, k, busy, depth in self.rows()]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModuleSeries":
        series = cls(interval_ms=float(data.get("interval_ms", 0.0)),  # type: ignore[arg-type]
                     n_devices=int(data.get("n_devices", 0)))  # type: ignore[arg-type]
        for d, k, busy, depth in data.get("rows", ()):  # type: ignore[union-attr]
            key = (int(d), int(k))
            if busy:
                series.busy_ms[key] = float(busy)
            if depth:
                series.depth[key] = int(depth)
        return series


def module_interval_series(played: Sequence, n_devices: int,
                           interval_ms: float) -> ModuleSeries:
    """Compute the per-module series from played requests.

    Pure function of the request timestamps: for every request with a
    device and a service window, its ``[started_at, completed_at)``
    span is apportioned to the intervals it overlaps, and its
    ``[issued_at, started_at)`` wait contributes to the queue depth at
    any boundary it straddles.
    """
    series = ModuleSeries(interval_ms=interval_ms, n_devices=n_devices)
    if interval_ms <= 0:
        raise ValueError("interval_ms must be positive")
    # per-device queue wait windows, for the boundary-depth counts
    issued: Dict[int, List[float]] = {}
    started: Dict[int, List[float]] = {}
    last_boundary = 0
    seen = False
    for pr in played:
        io = pr.io
        if pr.rejected or getattr(io, "failed", False) \
                or io.device < 0 or io.completed_at <= 0:
            continue
        seen = True
        d = io.device
        s, c = io.started_at, io.completed_at
        first = int(s / interval_ms + 1e-9)
        for k in range(first, int(np.ceil(c / interval_ms - 1e-9))):
            lo = k * interval_ms
            hi = lo + interval_ms
            overlap = min(c, hi) - max(s, lo)
            if overlap > 0:
                key = (d, k)
                series.busy_ms[key] = \
                    series.busy_ms.get(key, 0.0) + overlap
        last_boundary = max(last_boundary,
                            int(c / interval_ms - 1e-9))
        issued.setdefault(d, []).append(io.issued_at)
        started.setdefault(d, []).append(s)
    if not seen:
        return series
    # depth at boundary t = (#issued <= t) - (#started <= t); nothing
    # is issued before the first issue, so the scan starts at the last
    # boundary at or below it (each boundary is still k * interval_ms)
    first_boundary = max(0, min(
        math.floor(min(times) / interval_ms) for times in issued.values()))
    ks = np.arange(first_boundary, last_boundary + 1)
    boundaries = ks.astype(np.float64) * interval_ms
    for d in sorted(issued):
        arr_in = np.sort(np.asarray(issued[d], dtype=np.float64))
        arr_out = np.sort(np.asarray(started[d], dtype=np.float64))
        depth = (np.searchsorted(arr_in, boundaries, side="right")
                 - np.searchsorted(arr_out, boundaries, side="right"))
        for j in np.flatnonzero(depth > 0).tolist():
            series.depth[(d, int(ks[j]))] = int(depth[j])
    return series

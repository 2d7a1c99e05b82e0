#!/usr/bin/env python3
"""Benchmark the live controller and write ``BENCH_controller.json``.

Measures the cost of closing the paper's loop online
(:mod:`repro.controller`) on the TPC-E-like workload:

1. **throughput** -- requests/second through the full live loop
   (stream + boundary mining + planning + mid-stream apply), per
   stand (static / adaptive), with the offline ``play_workload``
   pipeline on the same trace as the reference;
2. **mining overhead** -- wall time spent in the boundary mining step
   (pair mining of the previous part + match), per interval and as a
   fraction of the whole run -- the price of the loop itself.

Run after touching the controller, the pair miner, the matcher or the
streaming session::

    PYTHONPATH=src python tools/bench_controller.py \
        [--repeats N] [--min-throughput RPS] [--smoke]

``--min-throughput`` turns the adaptive stand's requests/sec into a
hard gate (exit 1 below the floor); ``--smoke`` shrinks the workload
(the report notes which scale produced it) -- CI uses it with a
conservative floor to catch order-of-magnitude regressions and
uploads the JSON as an artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

OUT = ROOT / "BENCH_controller.json"


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _best(fn, repeats, *args, **kwargs) -> float:
    return min(_timed(fn, *args, **kwargs)[1] for _ in range(repeats))


def bench_loop(scale: float, n_intervals: int, repeats: int) -> dict:
    """Time the live loop per stand vs the offline pipeline."""
    from repro.controller import (
        ControllerConfig,
        ReplicationController,
        StaticPlacement,
    )
    from repro.experiments.common import play_workload
    from repro.experiments.fig8 import make_parts

    parts = make_parts("tpce", scale, n_intervals, 0)
    n = sum(len(p) for p in parts)
    config = ControllerConfig(n_devices=13, epsilon=0.05, seed=0)

    def live(strategy=None):
        return ReplicationController(config, strategy=strategy).run(
            parts)

    def offline():
        return play_workload(parts, n_devices=13, epsilon=0.05,
                             seed=0)

    stands = {
        "static": _best(lambda: live(StaticPlacement()), repeats),
        "adaptive": _best(live, repeats),
        "offline_play_workload": _best(offline, repeats),
    }
    result = live()
    return {
        "workload": f"tpce scale={scale}",
        "n_requests": n,
        "n_intervals": len(parts),
        "seconds": {k: round(v, 6) for k, v in stands.items()},
        "requests_per_sec": {
            k: round(n / v, 1) for k, v in stands.items()},
        "live_vs_offline_x": round(
            stands["adaptive"] / stands["offline_play_workload"], 3),
        "violation_rate": round(result.report.violation_rate, 6),
        "moves_applied": sum(a.deltas_applied for a in result.audit),
    }


def bench_mining(scale: float, n_intervals: int,
                 repeats: int) -> dict:
    """Per-interval cost of the boundary mining step, in isolation.

    Times what the controller runs at each boundary -- the pair kernel
    over the previous part, then the match -- on every interval of
    the workload.
    """
    from repro.core.qos import QoSFlashArray
    from repro.experiments.fig8 import make_parts
    from repro.mining.matching import FIMBlockMatcher
    from repro.mining.pairs import mine_trace_pairs

    parts = make_parts("tpce", scale, n_intervals, 0)
    matcher = FIMBlockMatcher(QoSFlashArray(n_devices=13).allocation)
    per_interval = []
    for part in parts:
        itemsets = mine_trace_pairs(part, 0.133)
        boundary = _best(
            lambda: matcher.match(mine_trace_pairs(part, 0.133)),
            repeats)
        per_interval.append({
            "n_transactions": itemsets.n_transactions,
            "boundary_seconds": round(boundary, 6),
        })
    return {
        "per_interval": per_interval,
        "boundary_seconds_total": round(
            sum(p["boundary_seconds"] for p in per_interval), 6),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N per timing (default 5)")
    parser.add_argument("--min-throughput", type=float, default=None,
                        help="fail unless the adaptive stand sustains "
                             "this many requests/sec")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, no BENCH_controller.json "
                             "-- CI health check only")
    args = parser.parse_args(argv)

    scale, n_intervals = (0.2, 4) if args.smoke else (0.4, 8)
    repeats = 2 if args.smoke else args.repeats

    loop = bench_loop(scale, n_intervals, repeats)
    mining = bench_mining(scale, n_intervals, repeats)
    mining["share_of_loop"] = round(
        mining["boundary_seconds_total"]
        / loop["seconds"]["adaptive"], 4)
    report = {
        "host": {"cpus": os.cpu_count(),
                 "machine": platform.machine(),
                 "python": sys.version.split()[0],
                 "numpy": np.__version__},
        "mode": "smoke" if args.smoke else "full",
        "loop": loop,
        "mining": mining,
    }
    print(json.dumps(report, indent=2))
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwritten to {OUT}")
    if args.min_throughput is not None:
        rps = loop["requests_per_sec"]["adaptive"]
        if rps < args.min_throughput:
            print(f"FAIL: adaptive stand sustained {rps:.0f} "
                  f"requests/sec < floor {args.min_throughput:.0f}")
            return 1
        print(f"throughput gate: {rps:.0f} requests/sec >= "
              f"{args.min_throughput:.0f} floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured play of one workload, in a fresh process.

``run.py`` starts this once per sample so that every sample's peak RSS
comes from a process that has run nothing else.  Steps:

1. generate the seeded inputs and check them (untimed);
2. time several cold set-ups (caches cleared before each);
3. time one play: from handing the parts to the entry point until
   the report's summary, counts and latency percentiles are read;
4. fingerprint the run and check it (untimed).

With ``--traced`` step 2 runs once, cold, and steps 2-4 run under the
layer wrappers of ``tracing.py``.  Prints one JSON object on stdout.

Usage: python3 perfbench/worker.py WORKLOAD SEED [--traced] [--spans PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: cold set-ups per sample: at least SETUP_MIN, then up to SETUP_MAX
#: while their total stays under SETUP_BUDGET_S
SETUP_MIN = 3
SETUP_MAX = 41
SETUP_BUDGET_S = 0.5


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def clear_caches() -> None:
    """Forget every memo the set-up fills (design lookups, ``P_k``
    tables), so each timed set-up is cold."""
    from repro.graph import kernels

    kernels.clear_caches()
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def timed_setups(workload):
    """Cold set-ups: at least ``SETUP_MIN``, then more until
    ``SETUP_BUDGET_S`` is spent or ``SETUP_MAX`` are done.  The last
    set-up's system is the one played.  One untimed set-up first
    imports the modules, which is not set-up work."""
    workload.setup()
    times = []
    system = None
    while (len(times) < SETUP_MIN
           or (len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S)):
        clear_caches()
        t0 = time.perf_counter()
        system = workload.setup()
        times.append(time.perf_counter() - t0)
    return system, times


def measure(workload, seed: int) -> dict:
    parts = workload.generate(seed)
    checked = workloads.validate_parts(parts)
    n_input = checked["n_requests"]
    system, setup_times = timed_setups(workload)
    gc.collect()
    rss_before = current_rss_bytes()
    t0 = time.perf_counter()
    report = workload.play(system, parts)
    reading = workloads.read_report(report, n_input)
    play_s = time.perf_counter() - t0
    peak = peak_rss_bytes()
    failures = workloads.check_report(workload, report, n_input, reading)
    return {
        "n_requests": n_input,
        "n_parts": len(parts),
        "boundary_overlaps": checked["boundary_overlaps"],
        "n_intervals": sum(len(r.series.intervals())
                           for r in workloads.array_reports(report)),
        "play_s": play_s,
        "requests_per_s": n_input / play_s,
        "peak_rss_bytes_per_request": (peak - rss_before) / n_input,
        "setup_times": setup_times,
        "reading": reading,
        "fingerprint": workloads.fingerprint(report),
        "failures": failures,
    }


def measure_traced(workload, seed: int, spans_path) -> dict:
    import tracing
    from repro.flash.driver import engine_tally, reset_engine_tally

    parts = workload.generate(seed)
    n_input = workloads.validate_parts(parts)["n_requests"]
    workload.setup()  # imports, as before the timed set-ups
    clear_caches()
    reset_engine_tally()
    tracer = tracing.Tracer()
    gc.collect()
    with tracing.traced(tracer):
        t0 = time.perf_counter()
        system = workload.setup()
        t1 = time.perf_counter()
        report = workload.play(system, parts)
        reading = workloads.read_report(report, n_input)
        t2 = time.perf_counter()
        fp = workloads.fingerprint(report)
        t3 = time.perf_counter()
    metrics = tracer.layer_metrics(t3 - t0)
    metrics.update(tracing.report_counts(tracer, report))
    metrics.update(tracing.fallback_counts(engine_tally()))
    if spans_path:
        tracer.dump(spans_path)
    return {
        "n_requests": n_input,
        "traced_wall_s": t3 - t0,
        "traced_requests_per_s": n_input / (t2 - t1),
        "n_spans": len(tracer.names),
        "metrics": metrics,
        "reading": reading,
        "fingerprint": fp,
        "failures": workloads.check_report(workload, report, n_input,
                                           reading),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.traced:
        out = measure_traced(workload, args.seed, args.spans)
    else:
        out = measure(workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

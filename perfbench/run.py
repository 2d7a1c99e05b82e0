#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads, one schema.

    python3 perfbench/run.py --workload exchange_fig8 [--seed 0]
        [--seconds 30] [--trace 0|1]

Plays the workload through its public entry point in fresh worker
processes (``worker.py``), one sample after another, until
``--seconds`` have passed (at least ``MIN_SAMPLES`` samples).  Host
metrics are medians over the samples; simulated metrics must repeat
exactly across samples of one seed.  ``--trace 1`` adds one traced
sample (``tracing.py``) and reports the per-layer metrics instead of
the end-to-end ones.

Prints a human-readable table, an ``env:`` line (host, versions,
commit, seed, workload sizes) and, last, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the requests handed to the program in the timed
samples and ``failed`` those it lost (failed or unrouted).  Any failed
correctness check prints ``correct: false`` and exits 1.  Metric names,
units and bounds come from ``BENCHMARK.json`` at the repository root.

Default seed 0; held-out seed 7 -- a gain claimed on seed 0 must also
hold on seed 7 (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 7
#: samples per run, at least: a median and a repeat check need three
MIN_SAMPLES = 3
#: the whole run, traced sample included, ends within this
RUN_BUDGET_S = 170.0
#: longest --seconds that leaves room for the traced sample
MAX_SECONDS = 120.0
#: where traced runs write their spans (git-ignored)
SPANS_DIR = ROOT / ".perfbench-out"

#: host metrics reported as medians over samples
HOST_METRICS = ("requests_per_s", "peak_rss_bytes_per_request")
#: simulated metrics, identical across samples of one seed
SIM_METRICS = ("guarantee_met_frac", "pct_delayed", "sim_latency_mean_ms",
               "sim_latency_p999_ms", "served_frac")


class BenchError(Exception):
    """A worker failed or the benchmark cannot run here."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    # timed runs measure the plain request path: no sanitizers
    env.pop("REPRO_SANITIZERS", None)
    return env


def run_worker(args: List[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before a sample started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")] + args,
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the run budget") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample(workload: str, seed: int, seconds: float,
           deadline: float) -> List[dict]:
    samples: List[dict] = []
    start = time.monotonic()
    while (len(samples) < MIN_SAMPLES
           or time.monotonic() - start < seconds):
        samples.append(run_worker([workload, str(seed)], deadline))
    return samples


def quartile_spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def git_commit() -> str:
    """HEAD of the checkout, read without running git; the source
    digest in the env record identifies code outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, first: dict) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "n_requests": first["n_requests"],
        "n_parts": first["n_parts"],
        "n_intervals": first["n_intervals"],
        "boundary_overlaps": first["boundary_overlaps"],
    }


def check_samples(samples: List[dict]) -> List[str]:
    """Every sample correct, and identical in everything simulated."""
    failures: List[str] = []
    for i, s in enumerate(samples):
        failures.extend(f"sample {i}: {f}" for f in s["failures"])
    ref = samples[0]
    for i, s in enumerate(samples[1:], start=1):
        if s["fingerprint"] != ref["fingerprint"]:
            failures.append(f"sample {i}: fingerprint differs from "
                            "sample 0")
        if s["reading"] != ref["reading"]:
            failures.append(f"sample {i}: simulated metrics differ from "
                            "sample 0")
    return failures


def end_to_end(samples: List[dict]) -> Dict[str, float]:
    out = {name: statistics.median(s[name] for s in samples)
           for name in HOST_METRICS}
    out["setup_s"] = statistics.median(
        t for s in samples for t in s["setup_times"])
    reading = samples[0]["reading"]
    out.update({name: reading[name] for name in SIM_METRICS})
    return out


def print_table(workload: str, samples: List[dict],
                values: Dict[str, float], spec: dict) -> None:
    reading = samples[0]["reading"]
    first = samples[0]
    print(f"workload {workload}: {first['n_requests']} requests in "
          f"{first['n_parts']} parts, {first['n_intervals']} non-empty "
          f"0.133 ms intervals, {len(samples)} samples")
    for m in spec["end_to_end"]:
        name = m["name"]
        line = f"  {name:<30} {values[name]:>16.6g} {m['unit']}"
        if name in HOST_METRICS:
            spread = quartile_spread([s[name] for s in samples])
            line += f"  (median of {len(samples)}, IQR {spread:.1%})"
        elif name == "setup_s":
            n = sum(len(s["setup_times"]) for s in samples)
            line += f"  (median of {n} cold set-ups)"
        elif name == "sim_latency_p999_ms":
            line += (f"  ({reading['p999_tail_samples']} of "
                     f"{reading['n_served']} served beyond it)")
        print(line)
    print(f"  also: violation_rate={reading['violation_rate']:.6g} "
          f"failed_frac={reading['failed_frac']:.6g} "
          f"sim_latency_p50_ms={reading['sim_latency_p50_ms']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report per-layer metrics from an "
                             "extra traced sample")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS:g}]")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        samples = sample(args.workload, args.seed, args.seconds, deadline)
        traced = None
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.json"
            traced = run_worker([args.workload, str(args.seed),
                                 "--traced", "--spans", str(spans)],
                                deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures = check_samples(samples)
    values = end_to_end(samples)
    print_table(args.workload, samples, values, spec)
    print("env: " + json.dumps(environment(args.workload, args.seed,
                                           samples[0])))
    if traced is None:
        metrics = {m["name"]: {"value": values[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        failures.extend(f"traced: {f}" for f in traced["failures"])
        if traced["fingerprint"] != samples[0]["fingerprint"]:
            failures.append("traced fingerprint differs from untraced")
        if traced["reading"] != samples[0]["reading"]:
            failures.append("traced simulated metrics differ from "
                            "untraced")
        layer = dict(traced["metrics"])
        layer["trace.requests_per_s"] = traced["traced_requests_per_s"]
        layer["trace.overhead_x"] = (values["requests_per_s"]
                                     / traced["traced_requests_per_s"])
        layer["trace.wall_s"] = traced["traced_wall_s"]
        print(f"traced: {traced['n_spans']} spans, wall "
              f"{traced['traced_wall_s']:.3f} s, overhead "
              f"{layer['trace.overhead_x']:.3f}x")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<40} {layer[m['name']]:>14.6g} "
                  f"{m['unit']}")
        metrics = {m["name"]: {"value": layer[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    n_failed = samples[0]["reading"]["n_failed"]
    print(json.dumps({
        "correct": not failures,
        "attempted": samples[0]["n_requests"] * len(samples),
        "failed": n_failed * len(samples),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

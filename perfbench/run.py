#!/usr/bin/env python3
"""symplat benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-replay, fleet-telemetry, deep-backlog (simulation runs of
`ScenarioRunner`) and wire-clocked (a live `WireServer` under closed-loop
load). With `--trace 0` the end-to-end metrics are measured untraced; with
`--trace 1` the per-layer metrics come from a run whose layer entry points
are wrapped (see README.md). Every metric is printed by name and unit, then
the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Run it from the root of a symplat checkout; it measures `src/symplat` there.
Exit status: 0 when every output checked out, 1 when some did not, 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from common import (ROOT, SETUP_SAMPLES, WORKLOADS, CheckoutError, require_checkout,
                    spawn, time_to_line)
from hostspeed import factor_now, summarise_factors
from layers import PER_LAYER
from stats import median

END_TO_END = [
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("clock_ticks_per_s", "1/s"),
    ("rtt_us_p50", "us"),
    ("rtt_us_p99", "us"),
    ("req_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
]
DEADLINE_S = 170  # every run must end within 180 s


class Deadline(Exception):
    pass


def run_sim(workload, seed, seconds, trace, children):
    """Set-up probes, then one measuring worker. Returns (attempted, failures,
    metrics, info)."""
    base = ["perfbench/sim.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    setups = []  # (raw seconds, factor)
    affinity = os.sched_getaffinity(0)
    # the probes, the worker and the set-up speed samples share one CPU
    os.sched_setaffinity(0, {min(affinity)})
    try:
        for _ in range(SETUP_SAMPLES - 1):
            before = factor_now()
            started = time.perf_counter()
            proc = spawn(base + ["--setup-only"])
            children.append(proc)
            seconds_to_tick = time_to_line(proc, "first_tick", started)
            proc.communicate()
            if proc.returncode:
                raise RuntimeError(f"set-up probe exited with {proc.returncode}")
            setups.append((seconds_to_tick, (before + factor_now()) / 2))
        before = factor_now()
        started = time.perf_counter()
        proc = spawn(base + (["--trace"] if trace else []))
        children.append(proc)
        setups.append((time_to_line(proc, "first_tick", started), before))
        out, _ = proc.communicate()
    finally:
        os.sched_setaffinity(0, affinity)
    lines = [ln for ln in out.splitlines() if ln.startswith("result ")]
    if proc.returncode or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode} without a result")
    result = json.loads(lines[-1][len("result "):])
    metrics = result["metrics"]
    info = dict(result["info"], setup_samples=len(setups),
                setup_factor=summarise_factors([f for _, f in setups]))
    if not trace:
        metrics["setup_s"] = median([s * f for s, f in setups])
        info["raw"]["setup_s"] = median([s for s, _ in setups])
    return result["attempted"], result["failures"], metrics, info


def report(workload, trace, attempted, failures, metrics, info):
    """Human-readable lines, then the result object."""
    declared = PER_LAYER if trace else END_TO_END
    print(f"workload {workload}: {attempted} attempted, {len(failures)} failed "
          f"(ops_failed_ratio {len(failures) / attempted if attempted else 0:.6g})")
    for why in failures[:10]:
        print(f"  FAILED {why}")
    if failures:  # a failed run may have nothing to measure; its figures are not used
        metrics = {name: metrics.get(name, 0.0) for name, _ in declared}
    raw = info.get("raw", {})
    for name, unit in declared:
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit}{note}")
    for key in sorted(info):
        if key not in ("attribution", "digests", "raw"):
            print(f"  [{key}] {info[key]}")
    for key, value in sorted(info.get("digests", {}).items()):
        print(f"  [digest] {key} {value}")
    if "attribution" in info:
        print(f"  {'span':<30} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self/wall':>9}")
        for name, calls, total, self_s, share in info["attribution"]:
            print(f"  {name:<30} {calls:>9} {total:>10.4f} {self_s:>10.4f} {share:>9.1%}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="symplat benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        require_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    def on_alarm(*_):
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    children = []
    try:
        if args.workload == "wire-clocked":
            import wire
            attempted, failures, metrics, info = wire.run(args.seed, args.seconds, bool(args.trace))
        else:
            attempted, failures, metrics, info = run_sim(
                args.workload, args.seed, args.seconds, bool(args.trace), children)
    except (Deadline, RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload} could not be measured: {exc!r}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        for proc in children:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = report(args.workload, bool(args.trace), attempted, failures, metrics, info)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

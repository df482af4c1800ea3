"""Simulation workload worker: one process per workload run.

    python3 perfbench/sim.py --workload deep-backlog --seed 1 --seconds 10 [--trace] [--setup-only]

Set-up (import, input generation and load, runner construction, first tick)
ends with the line `first_tick` on stdout; `--setup-only` exits there. The
worker then runs the workload's scenarios repeatedly for `--seconds` and
prints one `result <json>` line. With `--trace` it spends half the time
untraced and half with every layer's entry points wrapped.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import sys
import time
from array import array

from common import (SIM_WORKLOADS, WORK, digest, expected_digest, import_symplat,
                    load_expected, peak_rss_mib, ROOT)
import gen
from hostspeed import HostSpeed
import layers
from stats import median, summary
from tracing import Tracer


MIN_REPS = 3  # medians over at least three repetitions


class _FirstTick(Exception):
    pass


def _stop_after_first_tick(core):
    raise _FirstTick


def load_runs(sp, workload, seed):
    """[(key, scenario, mode)] for one repetition of the workload."""
    if workload == "paper-replay":
        runs = []
        for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.yaml"))):
            scen = sp.scenario.load_scenario(path)
            stem = os.path.splitext(os.path.basename(path))[0]
            runs += [(f"{stem}/{mode}", scen, mode) for mode in ("symmetric", "asymmetric")]
        random.Random(seed).shuffle(runs)  # the inputs are fixed; the seed sets the order
        return runs
    path, _ = gen.write_inputs(workload, seed, os.path.join(WORK, "inputs"))
    scen = sp.scenario.load_scenario(path)
    return [(f"{workload}/{scen.mode}", scen, scen.mode)]


class Repeats:
    """Runs the workload's scenarios, times each repetition and checks every
    report."""

    def __init__(self, sp, workload, seed):
        self.sp = sp
        self.workload = workload
        self.seed = seed
        self.expected = load_expected()
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.speed = HostSpeed()
        self.rss_mib = None  # peak RSS after the first repetition
        # per repetition: (runs, ticks, run_ns, loop_ns), raw and scaled
        self.totals = {"raw": [], "scaled": []}
        # run key -> [each repetition's tick times in ns], raw and scaled
        self.tick_ns = {"raw": {}, "scaled": {}}

    def rep(self, runs):
        """One repetition of every run in `runs`. Every part is timed with the
        host-speed sampler's time left out, raw and scaled to nominal host
        speed. A run's time is its ticks plus the report build after the last
        one; the loop's adds runner construction, encoding and digest."""
        clock = time.perf_counter_ns
        speed = self.speed
        parts = {"raw": [], "scaled": []}  # per run: (ticks, run_ns, loop_ns)
        for key, scen, mode in runs:
            self.attempted += 1
            if speed.due(clock()):
                speed.sample()
            t0 = clock()
            runner = self.sp.harness.ScenarioRunner(scen, mode_override=mode)
            ticks, ends = array("q"), array("q")
            last = [clock()]
            start = last[0]

            def on_tick(core, ticks=ticks, ends=ends, last=last):
                now = clock()
                ticks.append(now - last[0])
                ends.append(now)
                last[0] = speed.sample() if speed.due(now) else now

            try:
                report = runner.run(on_tick=on_tick)
                ran = clock()
                value = digest(report.to_json_str())
            except Exception as exc:  # a run that raises is a failed op, not a crash
                self.failures.append(f"{key}: raised {exc!r}")
                continue
            done = clock()
            for kind, f in (("raw", lambda t: 1), ("scaled", speed.factor)):
                tick_ns = array("d", (d * f(t) for d, t in zip(ticks, ends)))
                self.tick_ns[kind].setdefault(key, []).append(tick_ns)
                run_ns = sum(tick_ns) + (ran - last[0]) * f(ran)
                loop_ns = run_ns + (start - t0) * f(start) + (done - ran) * f(done)
                parts[kind].append((len(tick_ns), run_ns, loop_ns))
            self.check(key, value, report)
        for kind, rows in parts.items():
            if rows:
                self.totals[kind].append((len(rows), *map(sum, zip(*rows))))
        if self.rss_mib is None:
            # before the timings of later repetitions add to the worker's memory
            self.rss_mib = peak_rss_mib()

    def check(self, key, value, report):
        first = self.digests.setdefault(key, value)
        want = expected_digest(self.expected, self.workload, key, self.seed)
        if want is not None and value != want:
            self.failures.append(f"{key}: digest {value[:16]} != recorded {want[:16]}")
        elif value != first:
            self.failures.append(f"{key}: digest {value[:16]} differs between repetitions")
        elif self.workload != "paper-replay":
            errors = [e for e in report.op_log if "error" in e]
            if errors:
                self.failures.append(f"{key}: scripted op failed: {errors[0]}")


def measure(runs, repeats, seconds, min_reps, reload=None):
    """Repeat the workload while another repetition fits in `seconds`, and at
    least `min_reps` times. Returns each repetition's wall time in ns."""
    walls = []
    started = time.perf_counter_ns()
    while True:
        t0 = time.perf_counter_ns()
        if reload is not None:
            runs = reload()
        repeats.rep(runs)
        walls.append(time.perf_counter_ns() - t0)
        if len(walls) >= min_reps and t0 + 2 * walls[-1] - started > seconds * 1e9:
            return walls


def typical_ticks(tick_ns):
    """Per run key, the median over the repetitions of each tick by position:
    the ticks of a typical run. Repetitions execute the same ticks."""
    return [median(col) for reps in tick_ns.values() for col in zip(*reps)]


def end_to_end(repeats, kind="scaled"):
    """The end-to-end metrics of the `kind` ("raw" or "scaled") timings.

    Rates are medians over the repetitions of whole-repetition rates, so a
    collector pause or a slow tick counts wherever it falls. Tick percentiles
    are over the ticks of a typical run (`typical_ticks`), which leaves out
    pauses that land on a different tick in each repetition: over pooled
    ticks, a full collection falls at p99 in some runs and not in others.
    `tick_share` is the typical run's tick time over a median repetition's
    (1 - tick_share is what the percentiles leave out)."""
    totals = repeats.totals[kind]
    ticks = typical_ticks(repeats.tick_ns[kind])
    tick = summary(ticks, 1e-3)
    tick_total = median([sum(map(sum, rep)) for rep in zip(*repeats.tick_ns[kind].values())])

    def rate(per_rep):
        return median([per_rep(*t) * 1e9 for t in totals]) or 0.0

    return {
        "ticks_per_s": rate(lambda runs, ticks, run_ns, loop_ns: ticks / run_ns),
        "clock_ticks_per_s": rate(lambda runs, ticks, run_ns, loop_ns: ticks / loop_ns),
        "rtt_us_p50": tick["p50"],
        "rtt_us_p99": tick["p99"],
        "req_per_s": rate(lambda runs, ticks, run_ns, loop_ns: runs / loop_ns),
        "peak_rss_mib": repeats.rss_mib,
    }, {"rtt_samples": tick["n"], "rtt_beyond_p99": tick["beyond_p99"],
        "tick_share": sum(ticks) / tick_total if tick_total else None}


def traced(sp, workload, seed, repeats, seconds):
    """Half the time untraced, half traced; both passes reload the inputs per
    repetition so that their wall times compare."""
    reload = lambda: load_runs(sp, workload, seed)  # noqa: E731
    plain = measure(None, repeats, seconds / 2, MIN_REPS, reload=reload)
    untraced, _ = end_to_end(repeats)
    repeats.speed = HostSpeed(every_ns=None)  # keep the sampler out of the spans
    tracer = Tracer()
    layers.install(tracer, sp)
    try:
        with_trace = measure(None, repeats, seconds / 2, 1, reload=reload)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    wall_ns = sum(with_trace)
    rows, unaccounted = layers.attribution(spans, wall_ns)
    extra = {
        "harness.tick_us_p50": untraced["rtt_us_p50"],
        "harness.tick_us_p99": untraced["rtt_us_p99"],
        "trace.unaccounted_ratio": unaccounted,
        "trace_overhead_ratio": median(with_trace) / median(plain),
    }
    metrics = layers.compute(spans, tracer, reps=len(with_trace), extra=extra)
    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{workload}-{seed}.json")
    spans.write(spans_path)
    info = {"traced_reps": len(with_trace), "untraced_reps": len(plain), "spans": len(spans),
            "spans_file": os.path.relpath(spans_path, ROOT), "traced_wall_s": wall_ns * 1e-9}
    return metrics, dict(info, attribution=rows)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=SIM_WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sp = import_symplat()
    runs = load_runs(sp, args.workload, args.seed)
    key, scen, mode = runs[0]
    try:
        sp.harness.ScenarioRunner(scen, mode_override=mode).run(on_tick=_stop_after_first_tick)
    except _FirstTick:
        pass
    print("first_tick", flush=True)
    if args.setup_only:
        return 0

    repeats = Repeats(sp, args.workload, args.seed)
    if args.trace:
        metrics, info = traced(sp, args.workload, args.seed, repeats, args.seconds)
    else:
        reps = measure(runs, repeats, args.seconds, MIN_REPS)
        metrics, info = end_to_end(repeats)
        raw, _ = end_to_end(repeats, "raw")
        info.update(reps=len(reps), raw=raw, speed_factor=repeats.speed.factor_summary())
    info["digests"] = repeats.digests
    print("result " + json.dumps({"attempted": repeats.attempted, "failures": repeats.failures,
                                  "metrics": metrics, "info": info}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

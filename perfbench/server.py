"""Wire-service launcher for the wire-clocked workload.

    python3 perfbench/server.py --scenario FILE --listen SOCKET --speedup N [--trace SPANS_FILE]

Builds a PlatformCore from the scenario, submits its t=0 apps and serves it
with `WireServer` and its clock thread, as `symplat serve` does. It always
times `PlatformCore.tick` and samples the host's speed (see hostspeed.py);
with `--trace` it also wraps every layer's entry points and the connection
dispatcher, and puts a timing proxy around the core lock. On SIGTERM or
SIGINT it stops the server and prints one `stats <json>` line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from array import array

from common import import_symplat, peak_rss_mib
from hostspeed import HostSpeed
import layers
from stats import summary
from tracing import Tracer


class TickTimer:
    """Records when each tick ended and the host time spent inside it."""

    def __init__(self):
        self.ticks = 0
        self.ends = array("q")
        self.ns = array("q")

    def install(self, core_cls):
        tick = core_cls.tick

        def timed_tick(core):
            t0 = time.perf_counter_ns()
            try:
                return tick(core)
            finally:
                t1 = time.perf_counter_ns()
                self.ends.append(t1)
                self.ns.append(t1 - t0)
                self.ticks += 1

        core_cls.tick = timed_tick


def sample_speed(speed, stop):
    """Host-speed samples for the server's CPU until `stop` is set."""
    while not stop.wait(speed.every_ns * 1e-9):
        speed.sample()


class TimedLock:
    """Context-manager proxy for the core lock: records how long each
    outermost acquisition waited, and how long it was held, split by whether
    the hold ran a tick (the clock thread) or not (a request)."""

    def __init__(self, lock, timer):
        self._lock = lock
        self._timer = timer
        self._tls = threading.local()
        self.waits = []
        self.clock_holds = []
        self.request_holds = []

    def __enter__(self):
        t0 = time.perf_counter_ns()
        self._lock.acquire()
        t1 = time.perf_counter_ns()
        depth = getattr(self._tls, "depth", 0)
        if depth == 0:
            self.waits.append(t1 - t0)
            self._tls.since = t1
            self._tls.ticks = self._timer.ticks
        self._tls.depth = depth + 1
        return self

    def __exit__(self, *exc):
        self._tls.depth -= 1
        if self._tls.depth == 0:
            hold = time.perf_counter_ns() - self._tls.since
            ticked = self._timer.ticks != self._tls.ticks
            (self.clock_holds if ticked else self.request_holds).append(hold)
        self._lock.release()
        return False


def traced_metrics(tracer, lock, core, wall_ns, spans_path):
    spans = tracer.spans()
    layers.bus_totals(tracer, core.bus)
    wait = summary(lock.waits, 1e-3)
    hold = summary(lock.clock_holds, 1e-3)
    held_ns = sum(lock.clock_holds) + sum(lock.request_holds)
    agg = spans.by_name()
    covered = sum(agg.get(n, {}).get("total_ns", 0) for n in ("core.tick", "core.handle"))
    extra = {
        "api.lock_wait.us_p50": wait["p50"],
        "api.lock_wait.us_p99": wait["p99"],
        "api.clock_hold.us_p50": hold["p50"],
        "api.clock_hold.us_p99": hold["p99"],
        # for a server: the share of core-lock hold time outside traced core calls
        "trace.unaccounted_ratio": 1 - covered / held_ns if held_ns else 0.0,
    }
    metrics = layers.compute(spans, tracer, extra=extra)
    rows, _ = layers.attribution(spans, wall_ns)
    spans.write(spans_path)
    return metrics, {"spans": len(spans), "lock_wait_samples": wait["n"],
                     "clock_hold_samples": hold["n"], "attribution": rows[:12]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--listen", required=True)
    ap.add_argument("--speedup", type=float, required=True)
    ap.add_argument("--trace", metavar="SPANS_FILE", help="trace, and write the spans here")
    args = ap.parse_args()
    started = time.perf_counter_ns()

    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())

    sp = import_symplat()
    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        requests = layers.install(tracer, sp)
        tracer.wrap(sp.api._ConnectionHandler, "_dispatch", "api.dispatch",
                    ctx=lambda a, parent: -next(requests))
    timer = TickTimer()
    timer.install(sp.core.PlatformCore)

    scen = sp.scenario.load_scenario(args.scenario)
    core = sp.core.PlatformCore(scen.nodes, scen.images, mode=scen.mode,
                                grace_s=scen.grace_s, retention_s=scen.retention_s)
    server = sp.api.WireServer(core, args.listen, speedup=args.speedup,
                               duration_ms=scen.duration_ms or None)
    lock = None
    if tracer is not None:
        lock = server.core_lock = server._server.core_lock = TimedLock(server.core_lock, timer)
    for spec, submit_at, tenant in scen.apps:
        if submit_at == 0:
            core.handle("submit", {"spec": spec.to_json()}, tenant=tenant)
    server.start()
    speed = HostSpeed()
    sampler = threading.Thread(target=sample_speed, args=(speed, stop), daemon=True)
    sampler.start()
    try:
        while not stop.wait(0.2):
            pass
    finally:
        server.stop()
        sampler.join(timeout=5)
    wall_ns = time.perf_counter_ns() - started
    out = {"tick_ends": list(timer.ends), "tick_ns": list(timer.ns), "now_ms": core.now,
           "speed": speed.samples(), "peak_rss_mib": peak_rss_mib()}
    if tracer is not None:
        tracer.uninstall()
        out["layers"], out["info"] = traced_metrics(tracer, lock, core, wall_ns, args.trace)
    print("stats " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Which symplat entry points the traced run wraps, and the per-layer metrics
computed from the spans and counters they record.

Each layer is named after its module. `PER_LAYER` is the one list of
per-layer metric names and units; `BENCHMARK.json` declares the same list.
"""

from __future__ import annotations

import itertools

from stats import summary

API_RTT_OPS = ("status", "physical_model", "env_model", "utilization_report",
               "adjust", "report_progress")

PER_LAYER = [
    ("scenario.load_s", "s"),
    ("harness.tick_us_p50", "us"),
    ("harness.tick_us_p99", "us"),
    ("harness.report_build_s", "s"),
    ("harness.report_encode_s", "s"),
    ("harness.report_bytes", "bytes"),
    ("harness.events", "count"),
    ("core.tick.calls", "count"),
    ("core.tick.self_s", "s"),
    ("core.handle.calls", "count"),
    ("core.handle.errors", "count"),
    ("core.handle.us_p50", "us"),
    ("core.handle.us_p99", "us"),
    ("scheduler.plan.calls", "count"),
    ("scheduler.plan.per_tick", "count/tick"),
    ("scheduler.plan.s", "s"),
    ("scheduler.plan.us_p50", "us"),
    ("scheduler.plan.us_p99", "us"),
    ("scheduler.queue_depth.mean", "jobs"),
    ("scheduler.queue_depth.max", "jobs"),
    ("scheduler.activate_due.self_s", "s"),
    ("scheduler.enforce_walltime.s", "s"),
    ("scheduler.adjust.calls", "count"),
    ("scheduler.adjust.us_p50", "us"),
    ("scheduler.adjust.granted_ratio", "ratio"),
    ("scheduler.utilization_report.s", "s"),
    ("engine.step_tick.calls", "count"),
    ("engine.step_tick.s", "s"),
    ("engine.step_tick.us_p50", "us"),
    ("engine.task_ticks", "count"),
    ("engine.us_per_task_tick", "us"),
    ("telemetry.publish.calls", "count"),
    ("telemetry.publish.self_s", "s"),
    ("telemetry.evaluate.s", "s"),
    ("telemetry.us_per_sample", "us"),
    ("telemetry.series_points", "count"),
    ("telemetry.deliveries", "count"),
    ("telemetry.dropped", "count"),
    ("telemetry.alarms", "count"),
    ("api.dispatch.calls", "count"),
    ("api.dispatch.us_p50", "us"),
    ("api.dispatch.us_p99", "us"),
    ("api.lock_wait.us_p50", "us"),
    ("api.lock_wait.us_p99", "us"),
    ("api.clock_hold.us_p50", "us"),
    ("api.clock_hold.us_p99", "us"),
    ("api.pushes", "count"),
    ("api.push_gaps", "count"),
    *[(f"api.rtt.{op}.us_{p}", "us") for op in API_RTT_OPS for p in ("p50", "p99")],
    ("trace.unaccounted_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
]

def _new_request(counter):
    return lambda args, parent: parent if parent <= -2 else -next(counter)


def bus_totals(tracer, bus):
    """Retained points, deliveries, drops and alarms of one MetricBus."""
    tracer.counts["telemetry.series_points"] += sum(len(dq) for dq in bus.series.values())
    subs = bus.subscriptions.values()
    tracer.counts["telemetry.deliveries"] += sum(s.delivered for s in subs)
    tracer.counts["telemetry.dropped"] += sum(getattr(s, "_gap", 0) for s in subs)
    tracer.counts["telemetry.alarms"] += len(bus.alarm_log)


def install(tracer, symplat_modules):
    """Wrap the public entry points of every layer. Tick spans carry the tick
    index as context id; requests get ids <= -2 (shared with their children)."""
    m = symplat_modules
    requests = itertools.count(2)
    tracer.wrap(m.scenario, "load_scenario", "scenario.load")

    def after_run(t, args, report):
        t.counts["harness.events"] += len(report.events)
        bus_totals(t, args[0].core.bus)

    tracer.wrap(m.harness.ScenarioRunner, "run", "harness.run", after=after_run)
    tracer.wrap(m.harness.Report, "to_json_str", "harness.encode",
                after=lambda t, a, r: t.counts.update({"harness.report_bytes": len(r)}))
    tracer.wrap(m.core.PlatformCore, "tick", "core.tick",
                ctx=lambda args, parent: args[0].now // 1000)
    tracer.wrap(m.core.PlatformCore, "handle", "core.handle", ctx=_new_request(requests))
    sched = m.scheduler.ReservationScheduler
    tracer.wrap(sched, "plan", "scheduler.plan",
                after=lambda t, a, r: t.values["queue_depth"].append(len(r.order)))
    tracer.wrap(sched, "activate_due", "scheduler.activate_due")
    tracer.wrap(sched, "enforce_walltime", "scheduler.enforce_walltime")
    tracer.wrap(sched, "request_adjustment", "scheduler.adjust",
                after=lambda t, a, r: t.counts.update(
                    {"scheduler.adjust.granted": int(r[0] != "Denied")}))
    tracer.wrap(sched, "utilization_report", "scheduler.utilization_report")
    tracer.wrap(m.engine.SimEngine, "step_tick", "engine.step_tick",
                after=lambda t, a, r: t.counts.update({"engine.task_ticks": len(r.samples)}))
    tracer.wrap(m.telemetry.MetricBus, "publish", "telemetry.publish")
    tracer.wrap(m.telemetry.MetricBus, "evaluate", "telemetry.evaluate")
    return requests


def compute(spans, tracer, reps=1, extra=None):
    """Per-layer metrics from recorded spans and counters.

    Totals (seconds, calls, counts) are per repetition of the workload;
    percentiles pool every call. `extra` supplies metrics measured outside
    the tracer (tick latency, client-side rtt, lock timings, overhead)."""
    agg = spans.by_name()
    counts = tracer.counts
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []}

    def a(name):
        return agg.get(name, empty)

    def per_rep(x):
        return x / reps

    def pct(name, p):
        return summary(a(name)["durations_ns"], 1e-3)[p]

    ticks = a("core.tick")["calls"]
    plans = a("scheduler.plan")["calls"]
    depth = tracer.values.get("queue_depth") or [0]
    adjusts = a("scheduler.adjust")["calls"]
    task_ticks = counts["engine.task_ticks"]
    publishes = a("telemetry.publish")["calls"]
    report_build = (spans.tail_after_last_child("harness.run", "core.tick")
                    if "harness.run" in spans.names and "core.tick" in spans.names else 0)
    out = {
        "scenario.load_s": per_rep(a("scenario.load")["total_ns"]) * 1e-9,
        "harness.report_build_s": per_rep(report_build) * 1e-9,
        "harness.report_encode_s": per_rep(a("harness.encode")["total_ns"]) * 1e-9,
        "harness.report_bytes": per_rep(counts["harness.report_bytes"]),
        "harness.events": per_rep(counts["harness.events"]),
        "core.tick.calls": per_rep(ticks),
        "core.tick.self_s": per_rep(a("core.tick")["self_ns"]) * 1e-9,
        "core.handle.calls": per_rep(a("core.handle")["calls"]),
        "core.handle.errors": per_rep(counts["core.handle.raised"]),
        "core.handle.us_p50": pct("core.handle", "p50"),
        "core.handle.us_p99": pct("core.handle", "p99"),
        "scheduler.plan.calls": per_rep(plans),
        "scheduler.plan.per_tick": plans / ticks if ticks else 0.0,
        "scheduler.plan.s": per_rep(a("scheduler.plan")["total_ns"]) * 1e-9,
        "scheduler.plan.us_p50": pct("scheduler.plan", "p50"),
        "scheduler.plan.us_p99": pct("scheduler.plan", "p99"),
        "scheduler.queue_depth.mean": sum(depth) / len(depth),
        "scheduler.queue_depth.max": max(depth),
        "scheduler.activate_due.self_s": per_rep(a("scheduler.activate_due")["self_ns"]) * 1e-9,
        "scheduler.enforce_walltime.s": per_rep(a("scheduler.enforce_walltime")["total_ns"]) * 1e-9,
        "scheduler.adjust.calls": per_rep(adjusts),
        "scheduler.adjust.us_p50": pct("scheduler.adjust", "p50"),
        "scheduler.adjust.granted_ratio": counts["scheduler.adjust.granted"] / adjusts if adjusts else 0.0,
        "scheduler.utilization_report.s": per_rep(a("scheduler.utilization_report")["total_ns"]) * 1e-9,
        "engine.step_tick.calls": per_rep(a("engine.step_tick")["calls"]),
        "engine.step_tick.s": per_rep(a("engine.step_tick")["total_ns"]) * 1e-9,
        "engine.step_tick.us_p50": pct("engine.step_tick", "p50"),
        "engine.task_ticks": per_rep(task_ticks),
        "engine.us_per_task_tick": a("engine.step_tick")["total_ns"] * 1e-3 / task_ticks if task_ticks else 0.0,
        "telemetry.publish.calls": per_rep(publishes),
        "telemetry.publish.self_s": per_rep(a("telemetry.publish")["self_ns"]) * 1e-9,
        "telemetry.evaluate.s": per_rep(a("telemetry.evaluate")["total_ns"]) * 1e-9,
        "telemetry.us_per_sample": a("telemetry.publish")["total_ns"] * 1e-3 / publishes if publishes else 0.0,
        "telemetry.series_points": per_rep(counts["telemetry.series_points"]),
        "telemetry.deliveries": per_rep(counts["telemetry.deliveries"]),
        "telemetry.dropped": per_rep(counts["telemetry.dropped"]),
        "telemetry.alarms": per_rep(counts["telemetry.alarms"]),
        "api.dispatch.calls": per_rep(a("api.dispatch")["calls"]),
        "api.dispatch.us_p50": pct("api.dispatch", "p50"),
        "api.dispatch.us_p99": pct("api.dispatch", "p99"),
    }
    out.update(extra or {})
    for name, _ in PER_LAYER:
        out.setdefault(name, 0.0)
    return out


def attribution(spans, wall_ns):
    """Rows of (span name, calls, total s, self s, self share of wall) sorted by
    self time, and the share of `wall_ns` outside every root span."""
    agg = spans.by_name()
    rows = sorted(((n, v["calls"], v["total_ns"] * 1e-9, v["self_ns"] * 1e-9,
                    v["self_ns"] / wall_ns if wall_ns else 0.0) for n, v in agg.items()),
                  key=lambda r: -r[3])
    unaccounted = 1 - spans.roots_ns() / wall_ns if wall_ns else 0.0
    return rows, unaccounted

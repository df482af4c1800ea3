"""A granted adjustment recomputes only what it changes.

Replays the committed wire-clocked benchmark inputs in process: the
scenario's t=0 apps are submitted as `symplat serve` submits them, and the
op mix goes through `PlatformCore.handle` with the benchmark's rule for
adjusts (+1 core per task, then -1 once granted, so each app's reservation
alternates), with a tick every 170 requests. Its three queued jobs need a
whole 32-core node per task, which no node holding an app can give, and
each app demands no more cores than it first reserved, so no grant can move
a planned start or a guaranteed rate: the plan is kept, no node is
re-filled, and no tick after the first consults the scheduler. Nor does a
read rebuild an answer that nothing has changed: `env_model` builds one per
tick, and `utilization_report` one per grant or tick. Nor does a grant leave
anything behind in a core built without `record`. Both input files are only
read.
"""

import os
import tracemalloc

import yaml

from oracles import reference_allocations
from symplat.core import PlatformCore
from symplat.scenario import load_scenario
from test_plan_oracle import assert_kept_usage, assert_same_plan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = os.path.join(ROOT, "perfbench", "inputs")


def payload(op, app, extra, progress):
    """The request the benchmark's op mix sends for (op, app)."""
    if op == "adjust":
        return {"app_id": app, "delta_per_task": {"cpu_cores": -1 if extra.get(app) else 1}}
    if op == "report_progress":
        progress[app] = progress.get(app, 0) + 1
        return {"app_id": app, "progress": progress[app] * 1e-6}
    if op in ("status", "physical_model"):
        return {"app_id": app}
    return {}


def wire_clocked_core():
    """A core with the wire-clocked scenario's t=0 apps submitted, after the
    benchmark's two warm-up ticks, and the op mix."""
    scenario = load_scenario(os.path.join(INPUTS, "wire-clocked.yaml"))
    with open(os.path.join(INPUTS, "wire-clocked-mix.yaml"), encoding="utf-8") as fh:
        mix = yaml.safe_load(fh)
    core = PlatformCore(scenario.nodes, scenario.images, mode=scenario.mode,
                        grace_s=scenario.grace_s, retention_s=scenario.retention_s)
    for spec, submit_at, tenant in scenario.apps:
        if submit_at == 0:
            core.handle("submit", {"spec": spec.to_json()}, tenant=tenant)
    core.tick()
    core.tick()  # the apps start, the queue stays
    return core, mix


def replay(core, mix, requests=3000):
    """Send `requests` requests of the op mix through `core.handle`, with a
    tick after every 170th. Yields (op, result) after each request and
    ("tick", None) after each tick."""
    extra, progress = {}, {}
    ops = mix["ops"]
    for i in range(requests):
        op, app = ops[i % len(ops)]
        result = core.handle(op, payload(op, app, extra, progress), tenant=mix["tenant"])
        if op == "adjust":
            extra[app] = extra.get(app, 0) + result["granted_delta"].get("cpu_cores", 0)
        yield op, result
        if i % 170 == 169:
            core.tick()
            yield "tick", None


def test_wire_clocked_adjusts_neither_replan_nor_refill():
    core, mix = wire_clocked_core()
    consults = []
    activate_due = core.scheduler.activate_due

    def counted_activate_due(now):
        consults.append(now)
        return activate_due(now)

    core.scheduler.activate_due = counted_activate_due
    sched, engine = core.scheduler, core.engine
    assert sum(r.status == "Queued" for r in sched.live.values()) == 3
    replans, refills = sched.replans, engine.refills
    grants = ticks = 0
    # a read's answer is built when it is not the object that read last returned
    last, built = {}, {"env_model": 0, "utilization_report": 0}
    for op, result in replay(core, mix):
        ticks += op == "tick"
        if op == "adjust":
            grants += result["granted_delta"].get("cpu_cores", 0) != 0
        if op in built and result is not last.get(op):
            built[op] += 1
            last[op] = result
    # the grants since the last tick changed reservations in place: tick once more on them
    expected, _ = reference_allocations(engine)
    core.tick()
    assert engine.last_allocations == expected
    assert grants > 100
    assert sched.replans - replans <= 2  # 68 when every reduction replanned
    assert engine.refills - refills <= 2  # 31 when every grant re-filled its nodes
    # none of the 18 ticks after the warm-up; 18 when every kept grant made a
    # new plan object
    assert len(consults) <= 1
    # 18 of 500 calls (17 ticks), and 124 of 500 (137 grants); 500 and 500
    # when every call built its answer
    assert built["env_model"] <= ticks + 1
    assert built["utilization_report"] <= grants + ticks + 1
    assert_kept_usage(sched, f"at {core.now}")
    assert_same_plan(sched, core.now, f"at {core.now}")


def test_a_serve_core_keeps_nothing_per_grant():
    """Built as `symplat serve` builds it, with no `record`, a core's traced
    heap stays flat over 10^4 adjusts. 3056 are granted; a core that kept
    each grant's record would grow by about 556 B per grant, 1.62 MiB."""
    core, mix = wire_clocked_core()
    apps = sorted(a for a, res in core.scheduler.reservations.items() if res.status == "Active")
    extra = {}

    def adjusts(n):
        granted = 0
        for i in range(n):
            app = apps[i % len(apps)]
            result = core.handle("adjust", payload("adjust", app, extra, None),
                                 tenant=mix["tenant"])
            extra[app] = extra.get(app, 0) + result["granted_delta"].get("cpu_cores", 0)
            granted += result["decision"] != "Denied"
        return granted

    adjusts(200)  # the kept answers and the allocator's free lists fill up first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        granted = adjusts(10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert granted >= 3000
    assert grown < 256 * 1024, f"{grown} B for {granted} grants"

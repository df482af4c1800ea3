"""The engine's cached allocations and templates equal a from-scratch tick after every tick.

`oracles.reference_allocations` re-derives every node's rows the way each
tick did before rows were cached and re-filled only on a change of input;
`oracles.reference_step` steps every task from scratch, the way each tick
did before the engine emitted cached sample templates. The random histories
here run several nodes through adds, removes, Freezing/Thawed (also in the
middle of a phase), grow and shrink Adjusting (also a shrink of cpu to 0,
which stops a compute phase, and a later grow that restarts it, and grants
that move no task's guaranteed rate min(demand, reserved), whose nodes the
engine does not re-fill), Terminating, Draining, logical status writes,
phase completions (also where the advance does not divide the work amount),
colocated net_io and storage overruns, and compare `last_allocations`, every task's phase, work done,
storage and done flag, the task samples, the node samples, completions and
errors with the references after every tick.
"""

import random
from collections import Counter

import pytest

from oracles import reference_allocations, reference_step
from symplat.engine import ALLOC_DIMS, SimEngine, _task_demand
from symplat.model import (
    ApplicationSpec,
    LogicalStatus,
    NodeSpec,
    Phase,
    PlatformEnvEvent,
    ResourceVector,
)

GIB = 1 << 30
MB = 10**6
NODE_IDS = ("n01", "n02", "n03")
# PhysicalSample / NodeSample fields in ALLOC_DIMS order
RATE_FIELDS = ("cpu_cores_used", "memory_bytes_used", "net_in_bps_used",
               "net_out_bps_used", "fs_bps_used", "fs_iops_used")


def nodes():
    cap = ResourceVector(cpu_cores=16, memory_bytes=32 * GIB, fs_bps=400 * MB,
                         net_in_bps=1000 * MB, net_out_bps=1000 * MB, fs_iops=20_000,
                         storage_bytes=10**12)
    return [NodeSpec(nid, cap) for nid in NODE_IDS]


def random_phase(rng, progress):
    kind = rng.choice(("compute", "fs_io", "net_io", "checkpoint", "idle"))
    demand = {"cpu_cores": rng.randint(1, 8), "memory_bytes": rng.choice([GIB, 2 * GIB]),
              "fs_iops": rng.choice([0, 5_000, 15_000])}
    if kind == "compute":
        work = rng.randint(1, 60)
    elif kind == "fs_io":
        demand["fs_bps"] = rng.randint(1, 300) * MB
        if rng.random() < 0.5:
            demand["storage_bytes"] = 10**12
        work = rng.randint(1, 1500) * MB
    elif kind == "net_io":
        demand["net_in_bps"] = rng.randint(1, 700) * MB
        demand["net_out_bps"] = rng.randint(1, 700) * MB
        work = rng.randint(1, 4000) * MB
    else:
        work = rng.randint(1, 5)
    return Phase(kind=kind, work_amount=work, demand=ResourceVector(**demand),
                 progress_at_end=progress)


def random_spec(rng, app_id):
    n = rng.randint(1, 4)
    trace = tuple(random_phase(rng, (k + 1) / n) for k in range(n))
    reserved = ResourceVector(
        cpu_cores=rng.randint(1, 6), memory_bytes=GIB,
        fs_bps=rng.choice([0, 50 * MB, 150 * MB]), fs_iops=rng.choice([0, 4_000]),
        net_in_bps=rng.choice([0, 200 * MB]), net_out_bps=rng.choice([0, 200 * MB]),
        # a small storage reservation makes fs_io phases that write overrun it
        storage_bytes=rng.choice([0, 300 * MB, 10**12]))
    return ApplicationSpec(app_id=app_id, kind="container", image="img",
                           task_count=rng.randint(1, 3), per_task_reservation=reserved,
                           walltime_limit_s=7200, trace=trace)


def random_placement(rng, task_count):
    if rng.random() < 0.4:  # colocated: net_io stays off the wire when task_count > 1
        nid = rng.choice(NODE_IDS)
        return {tid: nid for tid in range(task_count)}
    return {tid: rng.choice(NODE_IDS) for tid in range(task_count)}


def random_delta(rng, app, grow):
    """A per-task delta that keeps the reservation non-negative."""
    r = app.reserved
    if grow:
        return ResourceVector(cpu_cores=rng.randint(1, 3), fs_bps=rng.choice([0, 50 * MB]),
                              net_out_bps=rng.choice([0, 100 * MB]))
    return ResourceVector(cpu_cores=-rng.randint(0, r.cpu_cores), fs_bps=-r.fs_bps // 2,
                          net_in_bps=-r.net_in_bps, fs_iops=-r.fs_iops)


def random_event(rng, engine, now, serial, seen):
    """Apply one random change (or none) between two ticks; count in `seen`
    the changes the histories must reach."""
    roll = rng.random()
    live = sorted(engine.apps)
    if roll < 0.2 or not live:
        spec = random_spec(rng, f"app-{serial:03d}")
        engine.add_app(spec, random_placement(rng, spec.task_count), now)
        return
    app = engine.apps[rng.choice(live)]
    if roll < 0.3:
        engine.remove_app(app.app_id)
        return
    event = rng.choice(("Terminating", "Freezing", "Thawed", "Thawed", "Adjusting",
                        "Adjusting", "Draining", "status"))
    if event == "status":
        engine.set_logical_status(app.app_id, LogicalStatus("Idle", 0.5, now))
        return
    detail = random_delta(rng, app, rng.random() < 0.5) if event == "Adjusting" else None
    if event == "Thawed" and any(t.frozen and t.work_done > 0 for t in app.tasks.values()):
        seen["thaw mid-phase"] += 1
    if detail is not None and detail.cpu_cores > 0 and zero_cpu_compute_tasks({app.app_id: app}):
        seen["cpu grow from 0"] += 1
    if detail is not None and not detail.is_zero() and rate_neutral(app, detail):
        seen["rate-neutral grants"] += 1
    engine.apply_env_event(PlatformEnvEvent(event=event, app_id=app.app_id, reason="test",
                                            effective_at=now, detail=detail))


def rate_neutral(app, detail):
    """Whether granting `detail` moves no task's guaranteed rate
    min(demand, reserved), so that its nodes need no re-fill."""
    wire_free = len(app.tasks) > 1 and app.colocated()
    new = app.reserved.add(detail)
    # zip stops at the ALLOC_DIMS: storage_bytes is a stock, not a rate
    return all(min(d, a) == min(d, b)
               for task in app.tasks.values()
               for d, a, b, _ in zip(_task_demand(app, task, wire_free), app.reserved, new,
                                     ALLOC_DIMS))


def assert_tick_matches(engine, result, expected, node_used, context):
    assert engine.last_allocations == expected, context
    effective = {}
    for app_id, task_id, dim, _, _, eff in expected:
        effective.setdefault((app_id, task_id), {})[dim] = eff
    for s in result.samples:
        rates = effective[(s.app_id, s.task_id)]
        assert [getattr(s, f) for f in RATE_FIELDS] == [rates[d] for d in ALLOC_DIMS], context
    storage = dict.fromkeys(NODE_IDS, 0)
    for s in result.samples:
        storage[s.node_id] += s.storage_bytes_used
    assert [ns.node_id for ns in result.node_samples] == list(NODE_IDS), context
    for ns in result.node_samples:
        assert [getattr(ns, f) for f in RATE_FIELDS] == list(node_used[ns.node_id]), context
        assert ns.storage_bytes_used == storage[ns.node_id], context


def task_states(engine):
    return {(a.app_id, tid): (t.phase_index, t.work_done, t.storage_used, t.done)
            for a in engine.apps.values() for tid, t in a.tasks.items()}


def zero_cpu_compute_tasks(apps):
    """Running tasks in a compute phase whose app has no cpu reserved: they
    advance by 0 until a grow."""
    return sum(1 for a in apps.values() if a.reserved.cpu_cores == 0
               for t in a.tasks.values()
               if not (t.frozen or t.done) and a.trace[t.phase_index].kind == "compute")


@pytest.mark.parametrize("io_guarantees", [True, False])
def test_random_histories_match_reference(io_guarantees):
    seen = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        engine = SimEngine(nodes(), io_guarantees=io_guarantees)
        serial = 0
        for tick in range(80):
            now = tick * 1000
            for _ in range(rng.choice([0, 0, 1, 2])):
                random_event(rng, engine, now, serial, seen)
                serial += 1
            expected, node_used = reference_allocations(engine)
            stepped = reference_step(engine, now)
            seen["zero-advance compute ticks"] += zero_cpu_compute_tasks(engine.apps)
            result = engine.step_tick(now)
            context = f"seed {seed} t={now}"
            assert_tick_matches(engine, result, expected, node_used, context)
            assert task_states(engine) == stepped.states, context
            assert result.samples == stepped.samples, context
            assert (result.completions, result.errors) == (stepped.completions,
                                                           stepped.errors), context
            seen["errors"] += len(result.errors)
            seen["completions"] += len(result.completions)
            seen["uneven completions"] += stepped.overshoots
            for app_id in result.completions + result.errors:
                if app_id in engine.apps and rng.random() < 0.7:
                    engine.remove_app(app_id)  # as the core does a tick later
    # the histories reach the paths they are meant to cover
    assert all(seen[k] > 0 for k in ("errors", "completions", "uneven completions",
                                     "zero-advance compute ticks", "cpu grow from 0",
                                     "thaw mid-phase", "rate-neutral grants")), seen

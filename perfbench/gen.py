"""Seeded inputs for the generated benchmark workloads.

Each generator returns a plain scenario document (the mapping that
`symplat.scenario.scenario_from_dict` accepts), so symplat only ever sees the
YAML written from it. The wire-clocked op mix is generated here too. This
module imports nothing from symplat.

The default-seed outputs are committed under `perfbench/inputs/`; regenerate
them with

    python3 perfbench/gen.py --write

The workloads stay clear of semantics that are scheduled to be redefined:
no `drain_node`, no `cancel` of an app that may have finished, no
app-subject boundaries and no `unsubscribe` of another connection's
subscription.
"""

from __future__ import annotations

import argparse
import os
import random

import yaml

from layers import API_RTT_OPS

DEFAULT_SEED = 1
GIB = 1 << 30
HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

IMAGES = [{"image_id": "img-bench", "name": "bench", "owner": "bench",
           "content_digest": "sha256:00"}]


def _node(node_id, cores, mem_gib, net_bps, fs_bps, iops):
    return {"node_id": node_id, "capacity": {
        "cpu_cores": cores, "memory_bytes": mem_gib * GIB,
        "net_in_bps": net_bps, "net_out_bps": net_bps,
        "fs_bps": fs_bps, "fs_iops": iops, "storage_bytes": 4 * 10**12}}


def _compute(cores, seconds, progress, state="Running"):
    return {"kind": "compute", "work_amount": cores * seconds,
            "demand": {"cpu_cores": cores}, "emits_state": state,
            "progress_at_end": progress}


def _app(app_id, tenant, submit_s, task_count, reservation, walltime_s, trace):
    return {"submit_at_s": submit_s, "tenant": tenant, "spec": {
        "app_id": app_id, "kind": "container", "image": "img-bench",
        "task_count": task_count, "walltime_limit_s": walltime_s,
        "per_task_reservation": reservation, "trace": trace}}


def _tag(rng):
    """A seed-chosen app-id suffix; ids keep their FCFS order across seeds."""
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))


def fleet_telemetry(seed):
    """~32 nodes, ~120 tasks of compute/fs/net/checkpoint phases, node-subject
    boundaries on every node, one buffered metrics subscription.

    As in every generated workload, the shape (nodes, apps, phases, submit
    times) is the same for every seed, so that a run's cost is too; the seed
    sets app-id suffixes, tenants, memory sizes too small to bind, and the
    boundary thresholds and windows."""
    shape = random.Random("fleet-telemetry:shape")
    rng = random.Random(f"fleet-telemetry:{seed}")
    tag = _tag(rng)
    nodes = [_node(f"n{i:02d}", shape.choice([32, 64]), shape.choice([128, 256]),
                   10**10, shape.choice([2, 4]) * 10**9, 200_000) for i in range(32)]
    apps = []
    tasks = 0
    i = 0
    while tasks < 120:
        task_count = shape.randint(2, 4)
        cores = shape.choice([2, 4, 8])
        fs_bps = shape.choice([100, 200, 400]) * 10**6
        net_bps = shape.choice([100, 250, 500]) * 10**6
        trace = []
        progress = 0.0
        seconds_at_reservation = 0
        kinds = ["compute", "fs_io", "net_io", "checkpoint"]
        shape.shuffle(kinds)
        for j, kind in enumerate(kinds):
            progress = 1.0 if j == len(kinds) - 1 else round(progress + 0.25, 2)
            secs = shape.randint(20, 80)
            seconds_at_reservation += secs
            if kind == "compute":
                trace.append(_compute(cores, secs, progress))
            elif kind == "fs_io":
                # demand above the reservation: the excess is best-effort
                trace.append({"kind": "fs_io", "work_amount": fs_bps * secs,
                              "demand": {"fs_bps": fs_bps * 2, "fs_iops": 2000},
                              "emits_state": "Running", "progress_at_end": progress})
            elif kind == "net_io":
                trace.append({"kind": "net_io", "work_amount": 2 * net_bps * secs,
                              "demand": {"net_in_bps": net_bps, "net_out_bps": net_bps},
                              "emits_state": "Running", "progress_at_end": progress})
            else:
                trace.append({"kind": "checkpoint", "work_amount": secs // 4 + 1,
                              "demand": {}, "emits_state": "Checkpointing",
                              "progress_at_end": progress})
        # at most 32 tasks of 3 GiB share a node of >= 128 GiB: memory never binds
        reservation = {"cpu_cores": cores, "memory_bytes": rng.choice([1, 2, 3]) * GIB,
                       "fs_bps": fs_bps, "fs_iops": 2000,
                       "net_in_bps": net_bps, "net_out_bps": net_bps}
        apps.append(_app(f"f{i:03d}-{tag}", f"tenant-{rng.randint(0, 3)}", shape.randint(0, 850),
                         task_count, reservation, 2 * seconds_at_reservation + 60, trace))
        tasks += task_count
        i += 1
    script = [{"at_s": 0, "op": "subscribe_metrics", "payload": {}}]
    for n in nodes:
        cap = n["capacity"]
        script.append({"at_s": 0, "op": "register_boundary", "payload": {
            "bc_id": f"cpu-{n['node_id']}", "subject": {"kind": "node", "id": n["node_id"]},
            "metric": "cpu_cores_used", "bound": "max",
            "threshold": cap["cpu_cores"] * rng.randint(60, 90) // 100,
            "window_s": rng.choice([30, 60])}})
        script.append({"at_s": 0, "op": "register_boundary", "payload": {
            "bc_id": f"fs-{n['node_id']}", "subject": {"kind": "node", "id": n["node_id"]},
            "metric": "fs_bps_used", "bound": "max",
            "threshold": cap["fs_bps"] * rng.randint(30, 70) // 100,
            "window_s": rng.choice([20, 45])}})
    return {"schema": 1, "name": "fleet-telemetry", "mode": "symmetric", "seed": seed,
            "duration_s": 7200, "grace_s": 30, "retention_s": 300,
            "cluster": nodes, "images": IMAGES, "apps": apps, "script": script}


def deep_backlog(seed):
    """~4 nodes and a queue of ~28 mixed-width jobs submitted at t=0, with
    scripted reads and writes that cannot fail by construction:

    - two anchors (`a-0*`, first in FCFS order, 8 cores each) start at t=0 and
      run at least `anchor_s`; every adjust and the freeze/thaw pair hit them
      before `busy_s`, and only `a-00` is adjusted while `a-01` is frozen;
    - the cancelled jobs are full-cluster wide, so they cannot start while an
      anchor holds cores, and are cancelled before `busy_s`.

    The backlog drains within about `busy_s`; the anchors then keep the run
    going for ~800 quiet ticks with one wide job queued behind them, so that
    a run has over 1000 ticks (enough for a per-tick p99) and shows the cost
    of replanning on ticks where nothing changed.

    The cost of `plan()` depends strongly on the queue's FCFS structure (with
    the shape drawn from the seed, eight seeds did between 0.68x and 1.22x of
    the median plan work), so the queue, its walltimes and the scripted
    writes are the same for every seed. The seed sets what moves the plan
    work by under 2%: app-id suffixes (which keep the FCFS order), tenants,
    memory sizes too small to bind, and the targets and times of the
    scripted reads.
    """
    shape = random.Random("deep-backlog:shape")
    rng = random.Random(f"deep-backlog:{seed}")
    tag = _tag(rng)
    nodes = [_node(f"n{i}", 32, 128, 10**10, 10**9, 100_000) for i in range(4)]
    busy_s = 160  # the scripted ops and the backlog fall in [0, busy_s)
    anchor_s = 1000
    apps = [
        _app(f"a-{k:02d}-{tag}", "anchor", 0, 1, {"cpu_cores": 8, "memory_bytes": 8 * GIB},
             anchor_s + 600, [_compute(8, anchor_s, 1.0)])
        for k in range(2)
    ]
    adjusted, frozen = apps[0]["spec"]["app_id"], apps[1]["spec"]["app_id"]
    jobs = 28
    wide = sorted(shape.sample(range(2, jobs), 3))
    cancelled = []
    for k in range(2, jobs):
        if k in wide:
            task_count, cores = 4, 32
        else:
            task_count, cores = shape.randint(1, 4), shape.choice([4, 8, 16, 32])
        runtime = shape.randint(10, 60)
        if shape.random() < 0.35:
            walltime = max(5, int(runtime * shape.uniform(0.5, 0.9)))  # killed at the limit
        else:
            walltime = int(runtime * shape.uniform(1.5, 4.0)) + 5  # finishes early
        trace = [_compute(cores, runtime // 2, 0.5),
                 {"kind": "checkpoint", "work_amount": 2, "demand": {},
                  "emits_state": "Checkpointing", "progress_at_end": 0.6},
                 _compute(cores, runtime - runtime // 2, 1.0)]
        app_id = f"j-{k:02d}-{tag}"
        tenant = f"tenant-{rng.randint(0, 2)}"
        if k in wide[:2]:
            cancelled.append((app_id, tenant))
        # at most 8 tasks of 8 GiB share a 128 GiB node: memory never binds
        apps.append(_app(app_id, tenant, 0, task_count,
                         {"cpu_cores": cores, "memory_bytes": rng.choice([2, 4, 8]) * GIB},
                         walltime, trace))
    script = []
    for at_s in sorted(shape.sample(range(1, busy_s - 20), 8)):
        grow = shape.random() < 0.5
        payload = {"app_id": adjusted}
        if grow:
            # memory is not the packed dimension, so memory grows are granted
            payload["delta_per_task"] = shape.choice([{"cpu_cores": shape.choice([2, 4])},
                                                      {"memory_bytes": shape.choice([2, 4]) * GIB}])
        payload["walltime_extension_s"] = shape.choice([0, 30, 120]) if grow else shape.choice([30, 120])
        script.append({"at_s": at_s, "op": "adjust", "tenant": "anchor",
                       "operator": False, "payload": payload})
    freeze_at = shape.randint(busy_s // 4, busy_s // 2)
    script.append({"at_s": freeze_at, "op": "freeze_app", "payload": {"app_id": frozen}})
    script.append({"at_s": freeze_at + shape.randint(5, 20), "op": "thaw_app",
                   "payload": {"app_id": frozen}})
    for app_id, tenant in cancelled:
        script.append({"at_s": shape.randint(5, busy_s - 20), "op": "cancel",
                       "tenant": tenant, "operator": False, "payload": {"app_id": app_id}})
    for at_s in range(rng.randint(5, 15), busy_s, 25):
        op = rng.choice(["status", "env_model", "utilization_report"])
        payload = {"app_id": rng.choice(apps)["spec"]["app_id"]} if op == "status" else {}
        script.append({"at_s": at_s, "op": op, "operator": False, "payload": payload})
    script.sort(key=lambda s: s["at_s"])
    horizon = sum(a["spec"]["walltime_limit_s"] for a in apps) + 1200
    return {"schema": 1, "name": "deep-backlog", "mode": "symmetric", "seed": seed,
            "duration_s": horizon, "grace_s": 5,
            "cluster": nodes, "images": IMAGES, "apps": apps, "script": script}


WIRE_TENANT = "bench"
WIRE_APPS = 12


def wire_clocked(seed):
    """A mid-size cluster with long-running apps and a small blocked queue,
    served live. Every app belongs to the requester's tenant and runs one
    compute phase that outlasts any benchmark run, so every request in the
    mix targets an Active app. The seed sets the app-id suffix and which app
    gets which of a fixed set of sizes."""
    rng = random.Random(f"wire-clocked:{seed}")
    tag = _tag(rng)
    sizes = [(2, 2), (2, 3), (4, 2), (4, 3)] * (WIRE_APPS // 4)  # (cores, tasks)
    rng.shuffle(sizes)
    nodes = [_node(f"n{i}", 32, 128, 10**10, 10**9, 100_000) for i in range(8)]
    apps = []
    for k, (cores, task_count) in enumerate(sizes):
        apps.append(_app(f"a-{k:02d}-{tag}", WIRE_TENANT, 0, task_count,
                         {"cpu_cores": cores, "memory_bytes": 4 * GIB, "fs_bps": 10**8},
                         10**7, [_compute(cores, 10**7, 1.0)]))
    for k in range(3):
        # as wide as the cluster and after the a-* apps in FCFS order:
        # queued behind them for good
        apps.append(_app(f"q-{k:02d}-{tag}", WIRE_TENANT, 0, 8,
                         {"cpu_cores": 32, "memory_bytes": 8 * GIB}, 3600,
                         [_compute(32, 600, 1.0)]))
    return {"schema": 1, "name": "wire-clocked", "mode": "symmetric", "seed": seed,
            "duration_s": 10**7, "retention_s": 600,
            "cluster": nodes, "images": IMAGES, "apps": apps}


def wire_mix(seed, length=600):
    """The requester's op sequence, cycled: (op, app_id) pairs. No record of
    real symplat traffic exists, so every op of the mix (API_RTT_OPS) gets an
    equal share; the seed sets the order and the target apps."""
    rng = random.Random(f"wire-mix:{seed}")
    running = [a["spec"]["app_id"] for a in wire_clocked(seed)["apps"]][:WIRE_APPS]
    ops = [op for op in API_RTT_OPS for _ in range(length // len(API_RTT_OPS))]
    rng.shuffle(ops)
    return {"tenant": WIRE_TENANT, "ops": [[op, rng.choice(running)] for op in ops]}


GENERATORS = {
    "fleet-telemetry": fleet_telemetry,
    "deep-backlog": deep_backlog,
    "wire-clocked": wire_clocked,
}


def dump(doc):
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=100)


def committed_path(name):
    return os.path.join(INPUTS, f"{name}.yaml")


def write_inputs(name, seed, directory):
    """Write the scenario (and, for wire-clocked, the op mix) for `seed`.

    The default seed reads the committed files instead, so its inputs never
    drift when this module changes. Returns (scenario_path, mix_path_or_None).
    """
    if seed == DEFAULT_SEED:
        mix = committed_path("wire-clocked-mix") if name == "wire-clocked" else None
        return committed_path(name), mix
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}-{seed}.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump(GENERATORS[name](seed)))
    mix = None
    if name == "wire-clocked":
        mix = os.path.join(directory, f"wire-clocked-mix-{seed}.yaml")
        with open(mix, "w", encoding="utf-8") as fh:
            fh.write(dump(wire_mix(seed)))
    return path, mix


def main():
    ap = argparse.ArgumentParser(description="Rewrite the committed default-seed inputs.")
    ap.add_argument("--write", action="store_true", required=True)
    ap.parse_args()
    os.makedirs(INPUTS, exist_ok=True)
    for name, gen in GENERATORS.items():
        with open(committed_path(name), "w", encoding="utf-8") as fh:
            fh.write(dump(gen(DEFAULT_SEED)))
    with open(committed_path("wire-clocked-mix"), "w", encoding="utf-8") as fh:
        fh.write(dump(wire_mix(DEFAULT_SEED)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

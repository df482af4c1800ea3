"""End-to-end acceptance gate.

Each test exercises one release criterion across the full stack and prints a
single summary line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import hashlib
import json
import random
import socket
import threading
import time

import pytest

from symplat.api import WireClient, WireServer
from symplat.core import PlatformCore
from symplat.harness import ScenarioRunner, run_scenario
from symplat.model import (
    RV_DIMS,
    ApplicationSpec,
    EnvironmentImage,
    NodeSpec,
    Phase,
    PhysicalSample,
    ResourceVector,
)
from symplat.scenario import load_scenario
from symplat.scheduler import InsufficientCapacity, ReservationScheduler
from symplat.telemetry import BoundaryCondition, MetricBus

from genscen import random_scenario
from oracles import alarm_oracle, publish_samples, rv_le

GIB = 1 << 30

SAMPLE_FIELD = {
    "cpu_cores": "cpu_cores_used",
    "memory_bytes": "memory_bytes_used",
    "net_in_bps": "net_in_bps_used",
    "net_out_bps": "net_out_bps_used",
    "fs_bps": "fs_bps_used",
    "fs_iops": "fs_iops_used",
    "storage_bytes": "storage_bytes_used",
}


def verdict(criterion, ok, detail):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# ---------------------------------------------------------------------------
# criteria 1 + 2: capacity safety and the guarantee property, one shared suite


def run_checked_suite(n_scenarios=500):
    capacity_violations = []
    guarantee_violations = []
    ticks = 0

    def check(core):
        nonlocal ticks
        ticks += 1
        t = core.now - 1000
        for ns in core.last_tick_result.node_samples:
            cap = core.scheduler.capacity[ns.node_id]
            for d in RV_DIMS:
                if getattr(ns, SAMPLE_FIELD[d]) > getattr(cap, d):
                    capacity_violations.append(("effective", ns.node_id, d, t))
        for nid, used in core.scheduler.committed_at(t).items():
            if not rv_le(used, core.scheduler.capacity[nid]):
                capacity_violations.append(("committed", nid, t))
        for app_id, task_id, d, demand, reserved, eff in core.engine.last_allocations:
            if eff < min(demand, reserved):
                guarantee_violations.append((app_id, task_id, d, t))

    for seed in range(n_scenarios):
        big = seed % 10 == 0
        scenario = random_scenario(
            seed,
            max_nodes=16 if big else 4,
            max_apps=64 if big else 8,
            duration_s=30 if big else 60,
        )
        ScenarioRunner(scenario).run(on_tick=check)
    return capacity_violations, guarantee_violations, ticks


@pytest.fixture(scope="module")
def checked_suite():
    return run_checked_suite()


def test_criterion_1_capacity_safety(checked_suite):
    capacity_violations, _, ticks = checked_suite
    line = verdict("1 capacity safety", not capacity_violations,
                   f"500 scenarios, {ticks} ticks, "
                   f"{len(capacity_violations)} violations")
    assert not capacity_violations, line


def test_criterion_2_guarantee_property(checked_suite):
    _, guarantee_violations, ticks = checked_suite
    line = verdict("2 guarantee effective >= min(demand, reservation)",
                   not guarantee_violations,
                   f"500 scenarios, {ticks} ticks, "
                   f"{len(guarantee_violations)} violations")
    assert not guarantee_violations, line


# ---------------------------------------------------------------------------
# criterion 3: alarm pipeline matches the linear-scan oracle


def test_criterion_3_alarm_oracle_equivalence():
    rng = random.Random(13)
    mismatches = 0
    for trial in range(200):
        bcs = [
            BoundaryCondition(
                bc_id=f"bc-{trial}-{j}",
                subject=("app", "app-1"),
                metric="cpu_cores_used",
                bound=rng.choice(["min", "max"]),
                threshold=rng.randrange(1, 20),
                window_s=rng.randrange(1, 6),
            )
            for j in range(rng.randrange(1, 5))
        ]
        stream = [(t * 1000, rng.randrange(0, 20))
                  for t in range(rng.randrange(5, 50))]
        bus = MetricBus()
        for bc in bcs:
            bus.register_boundary(bc)
        got = []
        for t, v in stream:
            sample = PhysicalSample(
                t=t, app_id="app-1", task_id=0, node_id="n01",
                cpu_cores_used=v, memory_bytes_used=0, fs_bps_used=0,
                fs_iops_used=0, storage_bytes_used=0, net_in_bps_used=0,
                net_out_bps_used=0, interproc_bps_used=0)
            got += [(a.bc_id, a.t) for a in publish_samples(bus, sample)]
        want = []
        fired = {bc.bc_id: set(alarm_oracle(stream, bc)) for bc in bcs}
        for t, _ in stream:
            for bc_id in sorted(fired):
                if t in fired[bc_id]:
                    want.append((bc_id, t))
        if got != want:
            mismatches += 1
    line = verdict("3 alarm-oracle equivalence", mismatches == 0,
                   f"200 streams, {mismatches} mismatching")
    assert mismatches == 0, line


# ---------------------------------------------------------------------------
# criterion 4: hollow utilization and the mid-run grow demonstration


def test_criterion_4_hollow_utilization_and_grow():
    kalman = load_scenario("scenarios/kalman.yaml")
    cores = kalman.apps[0][0].per_task_reservation.cpu_cores
    asym = run_scenario(kalman, mode_override="asymmetric")
    sym = run_scenario(load_scenario("scenarios/kalman.yaml"),
                       mode_override="symmetric")
    hollow_ok = (
        asym.apps["kalman"] == "TerminatedWalltime"
        and asym.utilization["hollow_core_seconds"] == cores * 7200
        and sym.apps["kalman"] == "Completed"
        and sym.utilization["hollow_core_seconds"] == 0
    )

    amr = load_scenario("scenarios/amr.yaml")
    adjusted = run_scenario(amr, mode_override="symmetric")
    baseline_scenario = load_scenario("scenarios/amr.yaml")
    baseline_scenario.script = []
    baseline = run_scenario(baseline_scenario, mode_override="symmetric")
    grants = [e["result"]["decision"] for e in adjusted.op_log
              if e["op"] == "adjust" and "result" in e]
    phase2 = amr.apps[0][0].trace[1]
    old_cores = amr.apps[0][0].per_task_reservation.cpu_cores
    new_cores = old_cores + 128
    predicted_shrink = phase2.work_amount // old_cores - phase2.work_amount // new_cores
    shrink = baseline.summary["amr"]["duration_s"] - adjusted.summary["amr"]["duration_s"]
    grow_ok = grants == ["Granted"] and shrink == predicted_shrink

    line = verdict(
        "4 hollow utilization + mid-run grow", hollow_ok and grow_ok,
        f"kalman hollow asym={asym.utilization['hollow_core_seconds']} "
        f"sym={sym.utilization['hollow_core_seconds']}, "
        f"amr shrink {shrink}s predicted {predicted_shrink}s")
    assert hollow_ok and grow_ok, line


# ---------------------------------------------------------------------------
# criterion 5: I/O isolation


def test_criterion_5_io_isolation():
    full = load_scenario("scenarios/io-contention.yaml")
    solo_scenario = load_scenario("scenarios/io-contention.yaml")
    solo_scenario.apps = [a for a in solo_scenario.apps if a[0].app_id == "tenant-a"]

    solo = run_scenario(solo_scenario, mode_override="symmetric")
    sym = run_scenario(load_scenario("scenarios/io-contention.yaml"),
                       mode_override="symmetric")
    asym = run_scenario(full, mode_override="asymmetric")

    solo_s = solo.summary["tenant-a"]["duration_s"]
    sym_s = sym.summary["tenant-a"]["duration_s"]
    asym_s = asym.summary["tenant-a"]["duration_s"]

    # closed form for the asymmetric run: both tenants demand 400e6 on a
    # 500e6 node with no guarantees, so each proceeds at 250e6 until done
    phase = full.apps[0][0].trace[0]
    node_fs = full.nodes[0].capacity.fs_bps
    predicted_asym = phase.work_amount // (node_fs // 2)

    ok = (sym_s == solo_s
          and asym_s > sym_s
          and asym_s == predicted_asym
          and asym.summary["tenant-b"]["duration_s"] == predicted_asym)
    line = verdict("5 I/O isolation", ok,
                   f"tenant-a solo={solo_s}s sym={sym_s}s asym={asym_s}s "
                   f"(closed form {predicted_asym}s)")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 6: backfill never delays an earlier-queued job


def test_criterion_6_backfill_no_delay():
    rng = random.Random(6)
    cap = ResourceVector(cpu_cores=16, memory_bytes=64 * GIB, fs_bps=500_000_000,
                         net_in_bps=10**9, net_out_bps=10**9, fs_iops=100_000,
                         storage_bytes=10**12)
    delays = 0
    for trial in range(1000):
        nodes = [NodeSpec(f"n{i:02d}", cap) for i in range(rng.randint(1, 3))]
        sched = ReservationScheduler(nodes)
        recorded = {}
        t = 0
        for i in range(rng.randint(2, 8)):
            cores = rng.choice([2, 4, 8, 16])
            spec = ApplicationSpec(
                app_id=f"job-{i:02d}", kind="container", image="img",
                task_count=rng.randint(1, 2),
                per_task_reservation=ResourceVector(cpu_cores=cores,
                                                    memory_bytes=GIB),
                walltime_limit_s=rng.choice([300, 900, 3600]),
                trace=(Phase(kind="compute", work_amount=cores,
                             demand=ResourceVector(cpu_cores=cores),
                             progress_at_end=1.0),),
            )
            try:
                sched.submit(spec, t)
            except InsufficientCapacity:
                continue
            sched.activate_due(t)
            plan = sched.plan(t)
            for app_id, prior in recorded.items():
                if app_id in plan.planned and plan.planned[app_id][0] > prior:
                    delays += 1
            recorded = {a: s for a, (s, _) in plan.planned.items()}
            t += rng.choice([0, 1000])
    line = verdict("6 backfill no-delay", delays == 0,
                   f"1000 queues, {delays} delayed starts")
    assert delays == 0, line


# ---------------------------------------------------------------------------
# criterion 7: native jobs coexist untouched


def test_criterion_7_native_coexistence():
    sym = run_scenario(load_scenario("scenarios/native-only.yaml"),
                       mode_override="symmetric")
    asym = run_scenario(load_scenario("scenarios/native-only.yaml"),
                        mode_override="asymmetric")
    sym_events = json.dumps(sym.events, sort_keys=True, separators=(",", ":"))
    asym_events = json.dumps(asym.events, sort_keys=True, separators=(",", ":"))
    logs_identical = sym_events == asym_events
    touched = [e for e in sym.events + asym.events
               if e.get("event") in ("Adjusting", "Freezing")]

    # the platform refuses to target natives even when asked directly
    scenario = load_scenario("scenarios/native-only.yaml")
    runner = ScenarioRunner(scenario, mode_override="symmetric")
    spec = next(s for s, _, _ in scenario.apps if s.app_id == "batch-a")
    runner._exec("submit", {"spec": spec.to_json()}, tenant="batch")
    runner.core.tick()
    rejections = []
    for op in ("freeze_app", "adjust"):
        entry = runner._exec(op, {"app_id": "batch-a"}, operator=True)
        rejections.append(entry.get("error", {}).get("code"))
    refused = all(code == "native_app_restriction" for code in rejections)

    ok = logs_identical and not touched and refused
    line = verdict("7 native coexistence", ok,
                   f"event logs identical={logs_identical}, "
                   f"adjust/freeze events={len(touched)}, direct ops refused={refused}")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 8: determinism


def test_criterion_8_determinism():
    digests = []
    targets = [("scenarios/kalman.yaml", None), ("scenarios/amr.yaml", None),
               ("scenarios/io-contention.yaml", None),
               ("scenarios/native-only.yaml", None),
               ("scenarios/kalman.yaml", "asymmetric")]
    stable = True
    for path, mode in targets:
        pair = []
        for _ in range(2):
            report = run_scenario(load_scenario(path), mode_override=mode)
            pair.append(hashlib.sha256(report.to_json_str().encode()).hexdigest())
        digests.append(pair)
        stable = stable and pair[0] == pair[1]
    for seed in (3, 17, 42):
        a = ScenarioRunner(random_scenario(seed)).run().to_json_str()
        b = ScenarioRunner(random_scenario(seed)).run().to_json_str()
        stable = stable and a == b
    line = verdict("8 determinism", stable,
                   f"{len(targets)} scenarios + 3 randomized, byte-identical reports")
    assert stable, line


# ---------------------------------------------------------------------------
# criterion 9: wire protocol conformance under concurrent fuzzing


def fuzz_client(address, idx, results):
    host, port = address.rsplit(":", 1)
    rng = random.Random(1000 + idx)
    try:
        sock = socket.create_connection((host, int(port)), timeout=10.0)
        sock.sendall(json.dumps({"id": "hello", "op": "hello",
                                 "payload": {"tenant": f"fuzz-{idx}"}}).encode() + b"\n")
        sent = {"hello"}
        for i in range(30):
            roll = rng.random()
            if roll < 0.3:
                sock.sendall(rng.choice([
                    b"not json at all\n", b"[]\n", b"{\"op\": 42}\n", b"\n"]))
            else:
                msg_id = f"f{idx}-{i}"
                op, payload = rng.choice([
                    ("env_model", {}),
                    ("status", {"app_id": "no-such-app"}),
                    ("utilization_report", {}),
                ])
                sock.sendall(json.dumps(
                    {"id": msg_id, "op": op, "payload": payload}).encode() + b"\n")
                sent.add(msg_id)
        answered = []
        buf = b""
        deadline = time.time() + 15.0
        while len([a for a in answered if a is not None]) < len(sent):
            if time.time() > deadline:
                break
            while b"\n" not in buf:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("closed")
                buf += chunk
            lineb, buf = buf.split(b"\n", 1)
            answered.append(json.loads(lineb.decode()).get("id"))
        sock.close()
        real = [a for a in answered if a is not None]
        results[idx] = {
            "sent": sent,
            "answered": real,
            "once": len(real) == len(set(real)),
            "all": set(real) == sent,
        }
    except Exception as exc:  # surfaced in the main thread's assertions
        results[idx] = {"error": repr(exc)}


def test_criterion_9_protocol_conformance():
    image = EnvironmentImage(image_id="img-1", name="solver", owner="ops",
                             content_digest="sha256:1")
    cap = ResourceVector(cpu_cores=64, memory_bytes=256 * GIB, fs_bps=10**9,
                         net_in_bps=10**9, net_out_bps=10**9, fs_iops=10**5,
                         storage_bytes=10**12)
    core = PlatformCore([NodeSpec("n01", cap)], images=[image], mode="symmetric")
    server = WireServer(core, "127.0.0.1:0", speedup=200).start()
    try:
        threads, results = [], {}
        for idx in range(16):
            t = threading.Thread(target=fuzz_client,
                                 args=(server.address, idx, results))
            t.start()
            threads.append(t)

        client = WireClient(server.address, tenant="alice")
        spec = ApplicationSpec(
            app_id="solver-1", kind="container", image="img-1", task_count=1,
            per_task_reservation=ResourceVector(cpu_cores=8, memory_bytes=GIB),
            walltime_limit_s=3600,
            trace=(Phase(kind="compute", work_amount=10**9,
                         demand=ResourceVector(cpu_cores=8),
                         progress_at_end=1.0),),
        )
        client.request("submit", {"spec": spec.to_json()})
        client.request("subscribe_events", {"app_id": "solver-1"})
        deadline = time.time() + 10.0
        while time.time() < deadline:
            status = client.request("status", {"app_id": "solver-1"})
            if status["reservation"]["status"] == "Active":
                break
            time.sleep(0.02)
        else:
            raise AssertionError("app never activated")
        res = client.request("adjust", {"app_id": "solver-1",
                                        "delta_per_task": {"cpu_cores": 8}})
        adjusted_ok = res["decision"] == "Granted"
        # the Adjusting push was queued ahead of the adjust response, so by the
        # time request() returned it is already in the buffered pushes
        push_first = any(p.get("push", {}).get("event") == "Adjusting"
                         for p in client.pushes)
        status = client.request("status", {"app_id": "solver-1"})
        reserve_ok = status["reservation"]["per_task"]["cpu_cores"] == 16
        client.close()

        for t in threads:
            t.join(timeout=30)
        fuzz_ok = all(
            "error" not in r and r["once"] and r["all"] for r in results.values()
        ) and len(results) == 16
    finally:
        server.stop()

    ok = adjusted_ok and push_first and reserve_ok and fuzz_ok
    line = verdict("9 protocol conformance", ok,
                   f"scripted session granted={adjusted_ok} push-first={push_first} "
                   f"16 fuzz clients exactly-once={fuzz_ok}")
    assert ok, line

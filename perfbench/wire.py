"""Load generator for the wire-clocked workload.

Runs in the benchmark's own process and imports nothing from symplat. It
starts the server launcher (`server.py`) on a unix socket, then drives it
over two connections: a closed-loop requester on the calling thread, which
sends the next request only after the previous reply, and one
`subscribe_metrics` consumer thread draining node pushes. Every request must
be answered exactly once under its correlation id with a well-formed result;
anything else counts as failed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import tempfile
import threading
import time

import yaml

from common import ROOT, SETUP_SAMPLES, WORK, spawn
import gen
from hostspeed import HostSpeed, factor_now, summarise_factors
from layers import API_RTT_OPS
from stats import median, summary

# virtual ticks per wall second the clock thread aims for: the speedup of the
# `symplat serve` example in the project README
SPEEDUP = 50
TIMEOUT_S = 10.0
WARMUP_S = 5.0  # longest wait for the clock's first ticks


class SessionEnded(Exception):
    """The session cannot go on; why is already counted as failed."""


class Conn:
    """One newline-delimited JSON connection."""

    def __init__(self, path, timeout=TIMEOUT_S):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.rfile = self.sock.makefile("rb")
        self.seq = 0

    def send(self, op, payload):
        self.seq += 1
        msg_id = f"r{self.seq}"
        self.sock.sendall(json.dumps({"id": msg_id, "op": op, "payload": payload}).encode() + b"\n")
        return msg_id

    def read(self):
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self):
        self.rfile.close()
        self.sock.close()


class Requester:
    """Closed-loop client that checks every reply."""

    def __init__(self, conn):
        self.conn = conn
        self.attempted = 0
        self.failures = []

    def fail(self, why):
        if len(self.failures) < 20:
            self.failures.append(why)
        else:
            self.failures.append("...")

    def request(self, op, payload):
        """Returns the result, or None when the request failed."""
        self.attempted += 1
        msg_id = self.conn.send(op, payload)
        while True:
            try:
                msg = self.conn.read()
            except (OSError, ValueError) as exc:
                self.fail(f"{op} {msg_id}: no reply ({exc!r})")
                raise
            if msg.get("id") == msg_id:
                break
            # a reply under another id is a duplicate or a stray; a push
            # (id null) should never reach this connection
            self.fail(f"{op} {msg_id}: unexpected message {str(msg)[:120]}")
        if "error" in msg or "result" not in msg:
            self.fail(f"{op} {msg_id}: {msg.get('error')}")
            return None
        return msg["result"]


class Consumer(threading.Thread):
    """Drains a metrics subscription, counting pushes and dropped ones."""

    def __init__(self, path, tenant):
        super().__init__(daemon=True)
        self.conn = Conn(path, timeout=0.2)
        self.tenant = tenant
        self.stopping = threading.Event()
        self.pushes = 0
        self.dropped = 0
        self.error = None

    def run(self):
        try:
            self._run()
        except (OSError, ValueError) as exc:
            self.error = repr(exc)

    def _run(self):
        # raw recv: a file object from makefile() is unusable after a timeout
        sock = self.conn.sock
        pending = {self.conn.send("hello", {"tenant": self.tenant}): "hello",
                   self.conn.send("subscribe_metrics", {"subject": {"kind": "node"}}): "subscribe"}
        buf = b""
        while not self.stopping.is_set():
            try:
                chunk = sock.recv(1 << 16)
            except socket.timeout:
                continue
            if not chunk:
                raise ConnectionError("server closed the subscription connection")
            *lines, buf = (buf + chunk).split(b"\n")
            for line in lines:
                self.handle(json.loads(line), pending)

    def handle(self, msg, pending):
        if msg.get("id") is None and "push" in msg:
            self.pushes += 1
            if msg["push"].get("type") == "gap":
                self.dropped += msg["push"]["dropped"]
        elif pending.pop(msg.get("id"), None) is None or "error" in msg:
            self.error = f"unexpected reply {str(msg)[:120]}"


class Mix:
    """Builds each request of the op mix and checks its result. Adjusts
    alternate +1/-1 core per task on each app so reservations stay bounded;
    reported progress only grows."""

    def __init__(self, ops):
        self.ops = ops
        self.extra = {}
        self.progress = {}
        self.initial = {}

    def payload(self, op, app):
        if op == "adjust":
            return {"app_id": app, "delta_per_task": {"cpu_cores": -1 if self.extra.get(app) else 1}}
        if op == "report_progress":
            self.progress[app] = self.progress.get(app, 0) + 1
            return {"app_id": app, "progress": self.progress[app] * 1e-6}
        if op in ("status", "physical_model"):
            return {"app_id": app}
        return {}

    def check(self, op, payload, result):
        """None if `result` is right for the request, else why not."""
        try:
            return self._check(op, payload, result)
        except (KeyError, TypeError, AttributeError) as exc:
            return f"{op}: malformed result {str(result)[:120]} ({exc!r})"

    def _check(self, op, payload, result):
        app = payload.get("app_id")
        if op == "status":
            ok = result["reservation"]["app_id"] == app and result["reservation"]["status"] == "Active"
        elif op == "physical_model":
            ok = result["app_id"] == app and len(result["tasks"]) >= 1
        elif op == "env_model":
            ok = isinstance(result["now"], int) and len(result["queue"]) >= 1
        elif op == "utilization_report":
            ok = "hollow_core_seconds" in result and result["t1"] > result["t0"]
        elif op == "adjust":
            ok = result["decision"] in ("Granted", "PartiallyGranted", "Denied")
            self.extra[app] = self.extra.get(app, 0) + result["granted_delta"].get("cpu_cores", 0)
        elif op == "report_progress":
            ok = result["logical"]["progress"] == payload["progress"]
        else:
            ok = False
        return None if ok else f"{op}: wrong result {str(result)[:120]}"


def start_server(scenario, sock, spans):
    """Start the server launcher; `spans` is the spans file of a traced
    server, or None."""
    args = ["perfbench/server.py", "--scenario", scenario, "--listen", sock,
            "--speedup", str(SPEEDUP)]
    return spawn(args + (["--trace", spans] if spans else []))


def hello(proc, sock, tenant, started):
    """Connect as soon as the socket accepts; returns (conn, seconds from
    `started` to the hello reply)."""
    deadline = started + 60
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode} during set-up")
        try:
            conn = Conn(sock)
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.002)
    msg_id = conn.send("hello", {"tenant": tenant})
    reply = conn.read()
    if reply.get("id") != msg_id or "result" not in reply:
        raise RuntimeError(f"bad hello reply {reply}")
    return conn, time.perf_counter() - started


def stop_server(proc):
    """SIGTERM the server and return its `stats` line as a dict."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    for line in reversed(out.splitlines()):
        if line.startswith("stats "):
            return json.loads(line[len("stats "):])
    raise RuntimeError(f"server exited with {proc.returncode} without stats")


def virtual_now(req):
    """The server's virtual time in ms, from `env_model`."""
    result = req.request("env_model", {})
    if result is None:
        raise SessionEnded
    if not isinstance(result.get("now"), int):
        req.fail(f"env_model: malformed result {str(result)[:120]}")
        raise SessionEnded
    return result["now"]


def warm_up(req, limit_s=WARMUP_S):
    """Wait until the clock thread has ticked twice."""
    deadline = time.perf_counter() + limit_s
    while virtual_now(req) < 2000:
        if time.perf_counter() > deadline:
            req.fail(f"the clock did not reach 2 virtual seconds within {limit_s} s")
            raise SessionEnded
        time.sleep(0.01)


def closed_loop(req, mix, ops, seconds, records, speed):
    """Send the op mix for `seconds`, one request at a time. Returns the
    window in seconds and the virtual ticks the clock advanced in it."""
    clock = time.perf_counter_ns
    now0 = virtual_now(req)
    t0 = clock()
    deadline = t0 + seconds * 1e9
    i = 0
    while True:
        mark = clock()
        if speed.due(mark):
            mark = speed.sample()
        if mark >= deadline:
            break
        op, app = ops[i % len(ops)]
        i += 1
        payload = mix.payload(op, app)
        start = clock()
        result = req.request(op, payload)
        end = clock()
        records.append((op, end, end - start, end - mark))
        if result is not None:
            why = mix.check(op, payload, result)
            if why:
                req.fail(why)
    window = (clock() - t0) * 1e-9
    return window, (virtual_now(req) - now0) / 1000


def session(scenario, mix_doc, sock, seconds, spans, setups):
    """One server lifetime: set-up, warm-up, `seconds` of closed-loop load,
    final consistency checks. Appends (set-up seconds, speed factor) to
    `setups`."""
    tenant = mix_doc["tenant"]
    ops = mix_doc["ops"]
    apps = sorted({app for _, app in ops})
    before = factor_now()
    started = time.perf_counter()
    proc = start_server(scenario, sock, spans)
    consumer = None
    try:
        conn, setup = hello(proc, sock, tenant, started)
        setups.append((setup, before))
        req = Requester(conn)
        consumer = Consumer(sock, tenant)
        consumer.start()
        mix = Mix(ops)
        # (op, end, round trip, interval since the previous request ended),
        # host-speed samples taken between requests and left out of both
        records = []
        speed = HostSpeed()
        window = 0.0
        virtual_ticks = 0
        try:
            for app in apps:
                res = req.request("status", {"app_id": app})
                mix.initial[app] = res["reservation"]["per_task"]["cpu_cores"] if res else None
            warm_up(req)
            window, virtual_ticks = closed_loop(req, mix, ops, seconds, records, speed)
            for app in apps:
                res = req.request("status", {"app_id": app})
                want = (mix.initial[app] or 0) + mix.extra.get(app, 0)
                if res and res["reservation"]["per_task"]["cpu_cores"] != want:
                    req.fail(f"{app}: per-task cores {res['reservation']['per_task']['cpu_cores']}"
                             f" != {want} after the granted adjusts")
        except (OSError, ValueError, SessionEnded):
            pass  # already counted as failed
        consumer.stopping.set()
        consumer.join(timeout=5)
        if consumer.error:
            req.fail(f"consumer: {consumer.error}")
        conn.close()
        consumer.conn.close()
        stats = stop_server(proc)
    finally:
        if consumer is not None:
            consumer.stopping.set()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return {
        "attempted": req.attempted,
        "failures": req.failures,
        "records": records,
        "client_speed": speed,
        "window_s": window,
        "virtual_ticks": virtual_ticks,
        "pushes": consumer.pushes,
        "push_gaps": consumer.dropped,
        "server": stats,
    }


def timings(sess, kind):
    """The session's timings, "raw" or "scaled" to nominal host speed: round
    trips by op, the sum of request intervals, and the host time in ticks. A
    request is scaled by the mean of the server's and the generator's speed
    factor when it ended."""
    srv = sess["server"]
    if kind == "scaled":
        server = HostSpeed.from_samples(*srv["speed"])
        client = sess["client_speed"]
        on_server = server.factor
        on_both = lambda t: (server.factor(t) + client.factor(t)) / 2  # noqa: E731
    else:
        on_server = on_both = lambda t: 1  # noqa: E731
    rtt = {op: [] for op in API_RTT_OPS}
    intervals = 0.0
    for op, end, ns, interval in sess["records"]:
        f = on_both(end)
        rtt[op].append(ns * f)
        intervals += interval * f
    tick_ns = sum(ns * on_server(end) for end, ns in zip(srv["tick_ends"], srv["tick_ns"]))
    return rtt, intervals, tick_ns


def end_to_end(sess, kind, setups):
    rtt_by_op, intervals, tick_ns = timings(sess, kind)
    rtt = summary([ns for v in rtt_by_op.values() for ns in v], 1e-3)
    srv = sess["server"]
    return {
        "setup_s": median([s * (f if kind == "scaled" else 1) for s, f in setups]),
        "ticks_per_s": len(srv["tick_ns"]) / (tick_ns * 1e-9),
        "clock_ticks_per_s": sess["virtual_ticks"] / sess["window_s"],
        "rtt_us_p50": rtt["p50"],
        "rtt_us_p99": rtt["p99"],
        "req_per_s": rtt["n"] / (intervals * 1e-9),
        "peak_rss_mib": srv["peak_rss_mib"],
    }, rtt


def probe_setup(scenario, sock, tenant, setups):
    before = factor_now()
    started = time.perf_counter()
    proc = start_server(scenario, sock, None)
    try:
        conn, setup = hello(proc, sock, tenant, started)
        conn.close()
        stop_server(proc)
        setups.append((setup, (before + factor_now()) / 2))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run(seed, seconds, trace):
    """Returns (attempted, failures, metrics, info)."""
    scenario, mix_path = gen.write_inputs("wire-clocked", seed, os.path.join(WORK, "inputs"))
    with open(mix_path, encoding="utf-8") as fh:
        mix_doc = yaml.safe_load(fh)
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="wire-", dir=WORK)
    sock = os.path.relpath(os.path.join(tmp, "s"), ROOT)  # short: AF_UNIX paths are limited
    scenario = os.path.relpath(scenario, ROOT)
    setups = []
    affinity = os.sched_getaffinity(0)
    # the generator and the server it starts share one CPU: on two, every
    # round trip waits for cross-CPU wake-ups, which made some runs 30%
    # slower with twice the p99 while the speed factor did not move
    os.sched_setaffinity(0, {min(affinity)})
    try:
        for _ in range(SETUP_SAMPLES - 1):
            probe_setup(scenario, sock, mix_doc["tenant"], setups)
        if trace:
            spans = os.path.relpath(os.path.join(WORK, f"spans-wire-clocked-{seed}.json"), ROOT)
            plain = session(scenario, mix_doc, sock, seconds / 2, None, setups)
            traced = session(scenario, mix_doc, sock, seconds / 2, spans, setups)
            sessions = [plain, traced]
        else:
            plain = session(scenario, mix_doc, sock, seconds, None, setups)
            sessions = [plain]
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(s["attempted"] for s in sessions)
    failures = [f for s in sessions for f in s["failures"]]
    srv = plain["server"]
    if not plain["window_s"] or not srv["tick_ns"]:
        if not failures:
            raise RuntimeError("no requests measured")
        return attempted, failures, {}, {}
    metrics, rtt = end_to_end(plain, "scaled", setups)
    info = {"setup_samples": len(setups), "rtt_samples": rtt["n"],
            "rtt_beyond_p99": rtt["beyond_p99"], "server_ticks": len(srv["tick_ns"]),
            "pushes": plain["pushes"], "window_s": plain["window_s"],
            "speed_factor": {
                "server": HostSpeed.from_samples(*srv["speed"]).factor_summary(),
                "generator": plain["client_speed"].factor_summary(),
                "setup": summarise_factors([f for _, f in setups])}}
    if not trace:
        info["raw"], _ = end_to_end(plain, "raw", setups)
        return attempted, failures, metrics, info
    metrics = dict(traced["server"]["layers"])
    rtt_by_op, _, _ = timings(plain, "scaled")
    for op, ns in rtt_by_op.items():
        s = summary(ns, 1e-3)
        metrics[f"api.rtt.{op}.us_p50"] = s["p50"]
        metrics[f"api.rtt.{op}.us_p99"] = s["p99"]
        info[f"rtt_{op}_samples"] = s["n"]
    metrics["api.pushes"] = plain["pushes"]
    metrics["api.push_gaps"] = plain["push_gaps"]
    metrics["trace_overhead_ratio"] = ((len(plain["records"]) / plain["window_s"])
                                       / (len(traced["records"]) / traced["window_s"]))
    info.update(traced["server"]["info"], spans_file=spans)
    return attempted, failures, metrics, info

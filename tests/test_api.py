import json
import os
import socket
import stat
import sys
import threading
import time

import pytest

from symplat import telemetry
from symplat.api import MAX_LINE_BYTES, WireClient, WireServer, parse_listen
from symplat.core import PlatformCore
from symplat.model import (
    ApplicationSpec,
    EnvironmentImage,
    NodeSample,
    NodeSpec,
    Phase,
    ResourceVector,
    SymplatError,
)
from symplat.telemetry import CHANNEL_DEPTH

GIB = 1 << 30

IMAGE = EnvironmentImage(image_id="img-1", name="solver", owner="team-a",
                         content_digest="sha256:abc")


def cluster():
    cap = ResourceVector(cpu_cores=32, memory_bytes=64 * GIB, fs_bps=500_000_000,
                         net_in_bps=10**9, net_out_bps=10**9, fs_iops=100_000,
                         storage_bytes=10**12)
    return [NodeSpec("n01", cap), NodeSpec("n02", cap)]


def app_spec(app_id="solver-1", cores=4, tasks=1, walltime=3600):
    return ApplicationSpec(
        app_id=app_id, kind="container", image="img-1", task_count=tasks,
        per_task_reservation=ResourceVector(cpu_cores=cores, memory_bytes=GIB),
        walltime_limit_s=walltime,
        trace=(Phase(kind="compute", work_amount=cores * walltime,
                     demand=ResourceVector(cpu_cores=cores), progress_at_end=1.0),),
    )


@pytest.fixture
def server():
    core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric")
    srv = WireServer(core, "127.0.0.1:0").start()
    yield srv
    srv.stop()


def raw_connection(server):
    host, port = server.address.rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=5.0)


def read_line(sock, buf=b""):
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            return None, buf
        buf += chunk
    line, buf = buf.split(b"\n", 1)
    return json.loads(line.decode()), buf


class TestUnixSocketPath:
    def test_a_regular_file_at_the_path_keeps_its_bytes(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_bytes(b"not a socket\n")
        with pytest.raises(OSError):
            WireServer(PlatformCore(cluster(), images=[IMAGE]), str(notes))
        assert notes.read_bytes() == b"not a socket\n"

    def test_a_stale_socket_is_replaced(self, tmp_path):
        path = str(tmp_path / "symplat.sock")
        stale = socket.socket(socket.AF_UNIX)
        stale.bind(path)
        stale.close()  # closing a bound socket leaves its file behind
        assert stat.S_ISSOCK(os.stat(path).st_mode)
        core = PlatformCore(cluster(), images=[IMAGE])
        server = WireServer(core, path).start()
        try:
            client = WireClient(path)
            assert client.request("env_model", {})["now"] == 0
            client.close()
        finally:
            server.stop()

    def test_stop_removes_the_socket_file(self, tmp_path):
        path = tmp_path / "symplat.sock"
        WireServer(PlatformCore(cluster(), images=[IMAGE]), str(path)).start().stop()
        assert not path.exists()

    def test_stop_keeps_a_file_another_process_put_at_the_path(self, tmp_path):
        path = str(tmp_path / "symplat.sock")
        server = WireServer(PlatformCore(cluster(), images=[IMAGE]), path).start()
        os.unlink(path)
        other = socket.socket(socket.AF_UNIX)
        try:
            other.bind(path)
            theirs = os.stat(path).st_ino
            server.stop()
            assert os.stat(path).st_ino == theirs
        finally:
            other.close()


class TestParseListen:
    def test_host_port(self):
        assert parse_listen("0.0.0.0:7077") == ("tcp", "0.0.0.0", 7077)

    def test_bare_port_defaults_host(self):
        assert parse_listen(":7077") == ("tcp", "127.0.0.1", 7077)

    def test_unix_path(self):
        assert parse_listen("/tmp/sock") == ("unix", "/tmp/sock", None)
        assert parse_listen("./relative.sock") == ("unix", "./relative.sock", None)


class TestHandshake:
    def test_hello_first_or_rejected(self, server):
        sock = raw_connection(server)
        sock.sendall(b'{"id": "x1", "op": "env_model", "payload": {}}\n')
        msg, buf = read_line(sock)
        assert msg["id"] == "x1"
        assert msg["error"]["code"] == "handshake_required"
        # the connection survives; hello then works
        sock.sendall(b'{"id": "x2", "op": "hello", "payload": {"tenant": "t", "operator": false}}\n')
        msg, buf = read_line(sock, buf)
        assert msg["result"] == {"tenant": "t", "operator": False}
        sock.close()

    def test_hello_binds_tenant(self, server):
        client = WireClient(server.address, tenant="alice")
        client.request("submit", {"spec": app_spec().to_json()})
        client.close()
        bob = WireClient(server.address, tenant="bob")
        with pytest.raises(SymplatError) as err:
            bob.request("cancel", {"app_id": "solver-1"})
        assert err.value.code == "forbidden"
        bob.close()


class TestWireCodec:
    def test_malformed_line_keeps_connection(self, server):
        sock = raw_connection(server)
        sock.sendall(b'this is not json\n')
        msg, buf = read_line(sock)
        assert msg["id"] is None and msg["error"]["code"] == "malformed_message"
        sock.sendall(b'{"id": "h", "op": "hello", "payload": {}}\n')
        msg, buf = read_line(sock, buf)
        assert msg["id"] == "h" and "result" in msg
        sock.close()

    def test_non_object_is_malformed(self, server):
        sock = raw_connection(server)
        sock.sendall(b'[1, 2, 3]\n')
        msg, _ = read_line(sock)
        assert msg["error"]["code"] == "malformed_message"
        sock.close()

    def test_oversize_line_closes_connection(self, server):
        sock = raw_connection(server)
        big = b'{"id": "big", "op": "hello", "payload": {"tenant": "' \
              + b"x" * (MAX_LINE_BYTES + 10) + b'"}}\n'
        sock.sendall(big)
        msg, buf = read_line(sock)
        assert msg["error"]["code"] == "oversize_message"
        # server closes after reporting
        msg, _ = read_line(sock, buf)
        assert msg is None
        sock.close()

    def test_responses_exactly_once_and_correlated(self, server):
        sock = raw_connection(server)
        sock.sendall(b'{"id": "h", "op": "hello", "payload": {"tenant": "t"}}\n')
        lines = [
            json.dumps({"id": f"req-{i}", "op": "env_model", "payload": {}})
            for i in range(20)
        ]
        sock.sendall(("\n".join(lines) + "\n").encode())
        seen = []
        buf = b""
        for _ in range(21):
            msg, buf = read_line(sock, buf)
            seen.append(msg["id"])
        assert seen[0] == "h"
        assert seen[1:] == [f"req-{i}" for i in range(20)]  # in order, once each
        sock.close()

    def test_every_line_is_canonical_json(self):
        """Each line reads as `json.dumps(..., sort_keys=True)` writes it,
        also a response whose encoded result the server reused: two env_model
        answers within one tick, and a report asked again before a grant."""
        core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric")
        srv = WireServer(core, "127.0.0.1:0", speedup=20).start()
        sock = raw_connection(srv)
        buf, lines = b"", []

        def ask(*requests):
            nonlocal buf
            sock.sendall(b"".join(json.dumps({"id": i, "op": op, "payload": p}).encode() + b"\n"
                                  for i, op, p in requests))
            msgs = []
            for _ in requests:
                while b"\n" not in buf:
                    chunk = sock.recv(65536)
                    assert chunk
                    buf += chunk
                line, buf = buf.split(b"\n", 1)
                lines.append(line.decode())
                msgs.append(json.loads(line))
            return msgs

        try:
            ask(("h", "hello", {"tenant": "alice"}))
            ask(("s", "submit", {"spec": app_spec().to_json()}))
            deadline = time.monotonic() + 10
            while ask(("st", "status", {"app_id": "solver-1"}))[0]["result"][
                    "reservation"]["status"] != "Active":
                assert time.monotonic() < deadline
            for _ in range(20):  # both lines go in one send, so one pass answers both
                first, second = ask(({"z": 1, "a": [2]}, "env_model", {}), (7, "env_model", {}))
                if first["result"]["now"] == second["result"]["now"]:
                    break
            assert first["result"] == second["result"]
            assert first["id"] == {"z": 1, "a": [2]} and second["id"] == 7
            while ask(("e", "env_model", {}))[0]["result"]["now"] == first["result"]["now"]:
                assert time.monotonic() < deadline
            window = {"t0": 0, "t1": 3_600_000}
            before, again = ask(("u1", "utilization_report", window),
                                ("u2", "utilization_report", window))
            assert before["result"] == again["result"]
            adjust = {"app_id": "solver-1", "delta_per_task": {"cpu_cores": 1}}
            assert ask(("a", "adjust", adjust))[0]["result"]["decision"] == "Granted"
            after = ask(("u3", "utilization_report", window))[0]
            assert after["result"]["cluster"]["cpu_cores"] == pytest.approx(
                before["result"]["cluster"]["cpu_cores"] * 5 / 4)  # 4 cores per task, then 5
            error = ask(("x", "status", {"app_id": "nope"}))[0]
            assert error["error"]["code"] == "no_such_app"
        finally:
            sock.close()
            srv.stop()
        assert lines and all(line == json.dumps(json.loads(line), sort_keys=True)
                             for line in lines)

    def test_half_closed_client_gets_every_response(self, tmp_path):
        path = str(tmp_path / "symplat.sock")
        srv = WireServer(PlatformCore(cluster(), images=[IMAGE]), path).start()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(10.0)
                sock.connect(path)
                lines = [json.dumps({"id": "h", "op": "hello", "payload": {}})] + [
                    json.dumps({"id": f"req-{i}", "op": "env_model", "payload": {}})
                    for i in range(2000)
                ]
                sock.sendall(("\n".join(lines) + "\n").encode())
                sock.shutdown(socket.SHUT_WR)
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
        finally:
            srv.stop()
        ids = [json.loads(line)["id"] for line in data.splitlines()]
        assert ids == ["h"] + [f"req-{i}" for i in range(2000)]

    @pytest.mark.parametrize("last, expected", [
        (b'{"id": "x", "op": "env_model", "payload": {}}', ("x", "result")),
        (b'{"id": "x", "op": "env_mo', (None, "malformed_message")),
        (b" \t ", None),
    ], ids=["request", "truncated", "blank"])
    def test_last_line_without_newline_is_answered_at_half_close(self, last, expected,
                                                                 tmp_path):
        """What follows the last newline when the input ends is a line: a
        request is answered, truncated JSON refused, and blanks ignored."""
        path = str(tmp_path / "symplat.sock")
        srv = WireServer(PlatformCore(cluster(), images=[IMAGE]), path).start()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(5.0)
                sock.connect(path)
                sock.sendall(b'{"id": "h", "op": "hello", "payload": {}}\n' + last)
                sock.shutdown(socket.SHUT_WR)
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
        finally:
            srv.stop()
        msgs = [json.loads(line) for line in data.splitlines()]
        assert msgs[0]["id"] == "h" and "result" in msgs[0]
        replies = [(m["id"], "result" if "result" in m else m["error"]["code"])
                   for m in msgs[1:]]
        assert replies == ([expected] if expected else [])

    def test_client_that_never_reads_is_held_at_the_bound(self, tmp_path):
        """The server stops answering a connection whose channel is full and
        resumes once the client reads; no response is lost or reordered."""
        path = str(tmp_path / "symplat.sock")
        srv = WireServer(PlatformCore(cluster(), images=[IMAGE]), path).start()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(5.0)
                sock.connect(path)
                lines = [json.dumps({"id": "h", "op": "hello", "payload": {}})] + [
                    json.dumps({"id": f"req-{i}", "op": "env_model", "payload": {}})
                    for i in range(20_000)
                ]
                sender = threading.Thread(
                    target=sock.sendall, args=(("\n".join(lines) + "\n").encode(),), daemon=True)
                sender.start()
                deadline = time.monotonic() + 5.0
                while not srv._conns and time.monotonic() < deadline:
                    time.sleep(0.001)
                (conn,) = tuple(srv._conns)
                longest = 0
                deadline = time.monotonic() + 1.0
                while time.monotonic() < deadline:
                    longest = max(longest, len(conn.outbox))
                    time.sleep(0.001)
                assert longest == CHANNEL_DEPTH
                data = b""
                while data.count(b"\n") < len(lines):
                    chunk = sock.recv(65536)
                    assert chunk, "server closed the connection"
                    data += chunk
                sender.join(5.0)
                assert not sender.is_alive()
        finally:
            srv.stop()
        ids = [json.loads(line)["id"] for line in data.splitlines()]
        assert ids == ["h"] + [f"req-{i}" for i in range(20_000)]

    def test_paused_reader_still_gets_every_response(self, tmp_path):
        """A client that stops reading while pushes fill its socket loses the
        oldest pushes, behind a gap marker, but none of its responses."""
        path = str(tmp_path / "symplat.sock")
        srv = WireServer(PlatformCore(cluster(), images=[IMAGE]), path).start()
        try:
            client = WireClient(path, tenant="alice", timeout=2.5)
            client.request("subscribe_metrics", {"subject": {"kind": "node"}})
            with srv.core_lock:  # two node samples a tick, into a 1024-deep channel
                for _ in range(1000):
                    srv.core.tick()
            time.sleep(1.0)
            assert client.request("env_model")["now"] == 1_000_000
            assert client.pushes[0] == {"id": None, "push": {"type": "gap", "dropped": 976}}
            assert len(client.pushes) == 1 + 1024
            client.close()
        finally:
            srv.stop()


def test_one_thread_serves_every_connection():
    before = threading.active_count()
    srv = WireServer(PlatformCore(cluster(), images=[IMAGE]), "127.0.0.1:0", speedup=50).start()
    clients = []
    try:
        clients.append(WireClient(srv.address))
        assert threading.active_count() == before + 1
        clients += [WireClient(srv.address) for _ in range(7)]  # each has had its hello answered
        assert threading.active_count() == before + 1
    finally:
        for client in clients:
            client.close()
        srv.stop()


def test_ticks_from_another_thread_lose_no_push(server):
    """Pushes made by a thread that ticks under `core_lock` while the loop
    answers requests all arrive in order, or are counted by a gap marker."""
    client = WireClient(server.address, tenant="alice")
    client.request("subscribe_metrics", {"subject": {"kind": "node", "id": "n01"}})
    ticks = 3000

    def tick():
        for _ in range(ticks):
            with server.core_lock:
                server.core.tick()

    ticker = threading.Thread(target=tick)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        ticker.start()
        while ticker.is_alive():
            client.request("env_model")
        ticker.join(timeout=30)
        assert not ticker.is_alive()
    finally:
        sys.setswitchinterval(old)
    client.request("env_model")  # answered after every push of every tick
    pushes = [p["push"] for p in client.pushes]
    samples = [p["t"] for p in pushes if p["type"] == "node_sample"]
    assert samples == sorted(set(samples))
    assert len(samples) + sum(p["dropped"] for p in pushes if p["type"] == "gap") == ticks
    client.close()


class TestOperations:
    def test_submit_status_roundtrip(self, server):
        client = WireClient(server.address, tenant="alice")
        res = client.request("submit", {"spec": app_spec().to_json()})
        assert res["reservation"]["app_id"] == "solver-1"
        status = client.request("status", {"app_id": "solver-1"})
        assert status["reservation"]["status"] == "Queued"
        client.close()

    def test_operator_ops_require_flag(self, server):
        client = WireClient(server.address, tenant="alice", operator=False)
        client.request("submit", {"spec": app_spec().to_json()})
        with pytest.raises(SymplatError) as err:
            client.request("freeze_app", {"app_id": "solver-1"})
        assert err.value.code == "forbidden"
        client.close()

    def test_unknown_op(self, server):
        client = WireClient(server.address)
        with pytest.raises(SymplatError) as err:
            client.request("warp_drive", {})
        assert err.value.code == "unknown_op"
        client.close()

    def test_unknown_image_rejected(self, server):
        client = WireClient(server.address)
        payload = app_spec().to_json()
        payload["image"] = "no-such-image"
        with pytest.raises(SymplatError) as err:
            client.request("submit", {"spec": payload})
        assert err.value.code == "unknown_image"
        client.close()

    def test_error_state_is_terminal_over_the_wire(self, server):
        client = WireClient(server.address, tenant="alice")
        client.request("submit", {"spec": app_spec().to_json()})
        with server.core_lock:
            server.core.tick()  # activates the app
        client.request("set_logical_state", {"app_id": "solver-1", "state": "Error"})
        with pytest.raises(SymplatError) as err:
            client.request("set_logical_state", {"app_id": "solver-1", "state": "Running"})
        assert err.value.code == "terminal_state"
        client.close()

    def test_physical_model_shape(self, server):
        client = WireClient(server.address, tenant="alice")
        client.request("submit", {"spec": app_spec(tasks=2).to_json()})
        with server.core_lock:
            server.core.tick()
            server.core.tick()
        out = client.request("physical_model", {"app_id": "solver-1"})
        assert len(out["tasks"]) == 2
        for task in out["tasks"]:
            assert set(task) >= {
                "t", "app_id", "task_id", "node_id", "cpu_cores_used",
                "memory_bytes_used", "fs_bps_used", "fs_iops_used",
                "storage_bytes_used", "net_in_bps_used", "net_out_bps_used",
                "interproc_bps_used",
            }
        client.close()


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_physical_model_is_each_apps_last_samples(mode):
    """`physical_model` returns the samples the last tick emitted for a running
    app, in task order, the samples of its last tick for an app that has
    completed or been terminated (cancelled, at its walltime, or after a
    logical Error), and none for a queued app."""
    def spec(app_id, cores=4, tasks=1, work=10**6, walltime=3600):
        return ApplicationSpec(
            app_id=app_id, kind="container", image="img-1", task_count=tasks,
            per_task_reservation=ResourceVector(cpu_cores=cores, memory_bytes=GIB),
            walltime_limit_s=walltime,
            trace=(Phase(kind="compute", work_amount=work,
                         demand=ResourceVector(cpu_cores=cores)),))

    # writes 1000 bytes a tick into 2500 reserved: logical Error on its third tick
    spill = ApplicationSpec(
        app_id="spill", kind="container", image="img-1", task_count=1,
        per_task_reservation=ResourceVector(cpu_cores=1, memory_bytes=GIB, fs_bps=1000,
                                            storage_bytes=2500),
        walltime_limit_s=3600,
        trace=(Phase(kind="fs_io", work_amount=10**6,
                     demand=ResourceVector(fs_bps=1000, storage_bytes=1)),))
    core = PlatformCore(cluster(), images=[IMAGE], mode=mode)
    specs = [spec("wide", cores=20, tasks=2), spec("short", work=10), spec("cut", walltime=5),
             spec("gone", tasks=3), spill, spec("blocked", cores=20, tasks=2)]
    last = {}  # app_id -> the samples of the last tick that sampled it
    for tick in range(10):
        if tick == 0:
            for s in specs[:-1]:
                core.handle("submit", {"spec": s.to_json()}, tenant="alice")
        if tick == 1:  # queued behind "wide"
            core.handle("submit", {"spec": specs[-1].to_json()}, tenant="alice")
        if tick == 4:
            core.handle("cancel", {"app_id": "gone"}, tenant="alice")
        core.tick()
        sampled = {}
        for sample in core.last_tick_result.samples:
            sampled.setdefault(sample.app_id, []).append(sample.to_json())
        last.update(sampled)
        for app_id in core.owners:
            out = core.handle("physical_model", {"app_id": app_id}, tenant="alice")
            assert out == {"app_id": app_id, "tasks": last.get(app_id, [])}, (tick, app_id)
    outcomes = {s.app_id: core.scheduler.reservations[s.app_id].status for s in specs}
    assert outcomes == {"wide": "Active", "short": "Completed", "cut": "TerminatedWalltime",
                        "gone": "Cancelled", "spill": "TerminatedError", "blocked": "Queued"}
    wide = core.handle("physical_model", {"app_id": "wide"})["tasks"]
    assert [(s["task_id"], s["node_id"]) for s in wide] == [(0, "n01"), (1, "n02")]
    assert [s["t"] for s in core.handle("physical_model", {"app_id": "short"})["tasks"]] == [2000]
    spilled = core.handle("physical_model", {"app_id": "spill"})["tasks"]
    assert [(s["t"], s["storage_bytes_used"]) for s in spilled] == [(2000, 3000)]


class TestPushes:
    def test_adjust_push_arrives_before_response(self, server):
        client = WireClient(server.address, tenant="alice")
        client.request("submit", {"spec": app_spec().to_json()})
        with server.core_lock:
            server.core.tick()
        client.request("subscribe_events", {"app_id": "solver-1"})
        res = client.request("adjust", {
            "app_id": "solver-1", "delta_per_task": {"cpu_cores": 4}})
        assert res["decision"] == "Granted"
        # the Adjusting push was already buffered while waiting for the response
        adjusting = [p for p in client.pushes
                     if p.get("push", {}).get("event") == "Adjusting"]
        assert len(adjusting) == 1
        assert adjusting[0]["push"]["detail"]["cpu_cores"] == 4
        client.close()

    def test_metric_pushes_flow_after_subscribe(self, server):
        client = WireClient(server.address, tenant="alice")
        client.request("submit", {"spec": app_spec().to_json()})
        client.request("subscribe_metrics", {"subject": {"kind": "app", "id": "solver-1"}})
        with server.core_lock:
            server.core.tick()
            server.core.tick()
        push = client.next_push()
        assert push["push"]["type"] == "sample"
        assert push["push"]["app_id"] == "solver-1"
        client.close()

    def test_node_subscription_pushes_every_node_sample_field(self, server):
        client = WireClient(server.address, tenant="alice")
        client.request("submit", {"spec": app_spec().to_json()})
        client.request("subscribe_metrics", {"subject": {"kind": "node", "id": "n01"}})
        with server.core_lock:
            server.core.tick()
            server.core.tick()
            sent = server.core.last_tick_result.node_samples[0]
        assert sent.node_id == "n01"
        pushes = [client.next_push()["push"] for _ in range(2)]
        assert pushes[-1] == {**sent._asdict(), "type": "node_sample"}
        assert set(pushes[0]) == {*NodeSample._fields, "type"}
        client.close()


class TestEventSubscriptions:
    def test_event_overflow_yields_gap_marker(self, monkeypatch):
        core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric")
        core.handle("submit", {"spec": app_spec().to_json()}, tenant="alice")
        core.tick()
        monkeypatch.setattr(telemetry, "CHANNEL_DEPTH", 4)
        sub_id = core.handle("subscribe_events", {"app_id": "solver-1"})["subscription_id"]
        for _ in range(3):  # six events into a four-deep channel
            core.handle("freeze_app", {"app_id": "solver-1"}, operator=True)
            core.handle("thaw_app", {"app_id": "solver-1"}, operator=True)
        sub = core.bus.subscriptions[sub_id]
        msgs = sub.poll()
        assert msgs[0] == {"type": "gap", "dropped": 2}
        assert [m["event"] for m in msgs[1:]] == ["Freezing", "Thawed"] * 2
        assert sub.poll() == []


class TestErrorCodes:
    """Every layer's refusals reach API callers as SymplatError with their own code."""

    def refusal(self, op, payload):
        core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric")
        with pytest.raises(SymplatError) as err:
            core.handle(op, payload, tenant="alice")
        return err.value.code

    def test_model_error_code(self):
        spec = app_spec().to_json()
        spec["per_task_reservation"]["gpus"] = 1
        assert self.refusal("submit", {"spec": spec}) == "invalid_value"

    def test_scheduler_error_code(self):
        spec = app_spec(cores=1000).to_json()
        assert self.refusal("submit", {"spec": spec}) == "insufficient_capacity"

    def test_telemetry_error_code(self):
        payload = {"subscription_id": "sub-99"}
        assert self.refusal("unsubscribe", payload) == "unknown_subscription"

    def test_cancel_of_finished_app_is_refused(self):
        core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric")
        spec = ApplicationSpec(
            app_id="short", kind="container", image="img-1", task_count=1,
            per_task_reservation=ResourceVector(cpu_cores=4, memory_bytes=GIB),
            walltime_limit_s=60,
            trace=(Phase(kind="compute", work_amount=8, demand=ResourceVector(cpu_cores=4),
                         progress_at_end=1.0),),
        )
        core.handle("submit", {"spec": spec.to_json()}, tenant="alice")
        for _ in range(10):
            core.tick()
        assert core.scheduler.reservations["short"].status == "Completed"
        with pytest.raises(SymplatError) as err:
            core.handle("cancel", {"app_id": "short"}, tenant="alice")
        assert err.value.code == "not_active"
        assert core.scheduler.reservations["short"].status == "Completed"

    def test_freeze_refuses_an_app_that_is_not_active(self):
        records = []
        core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric", record=records.append)
        core.handle("submit", {"spec": app_spec().to_json()}, tenant="alice")

        def refusal(op):
            try:
                core.handle(op, {"app_id": "solver-1"}, operator=True)
            except SymplatError as exc:
                return exc.code
            return None

        assert refusal("freeze_app") == "not_active"  # still Queued
        core.tick()
        assert not any(t.frozen for t in core.engine.apps["solver-1"].tasks.values())
        assert refusal("freeze_app") is None
        assert refusal("freeze_app") == "not_active"  # already Frozen
        assert refusal("thaw_app") is None
        assert refusal("thaw_app") == "not_frozen"
        env = [e["event"] for e in records if e["type"] == "env_event"]
        assert env == ["Freezing", "Thawed"]

    @pytest.mark.parametrize("field, value", [
        ("walltime_extension_s", "10"),
        ("walltime_extension_s", 1.5),
        ("walltime_extension_s", True),
        ("walltime_extension_s", -5),
        ("delta_per_task", ["cpu_cores"]),
    ])
    def test_malformed_adjust_is_invalid_value(self, field, value):
        core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric")
        core.handle("submit", {"spec": app_spec().to_json()}, tenant="alice")
        core.tick()  # activates the app
        before = core.scheduler.reservations["solver-1"].to_json()
        payload = {"app_id": "solver-1", "delta_per_task": {"cpu_cores": 1}, field: value}
        with pytest.raises(SymplatError) as err:
            core.handle("adjust", payload, tenant="alice")
        assert err.value.code == "invalid_value"
        assert core.scheduler.reservations["solver-1"].to_json() == before

    @pytest.mark.parametrize("op, payload", [
        ("status", {"app_id": ["a"]}),
        ("utilization_report", {"t0": "a"}),
        ("submit", {"spec": []}),
        ("submit", {"spec": {**app_spec("solver-2").to_json(), "task_count": "2"}}),
        ("set_logical_state", {"app_id": "solver-1", "progress": "x"}),
        ("report_progress", {"app_id": "solver-1", "progress": "x"}),
        ("subscribe_metrics", {"subject": 5}),
        ("submit", {"spec": {**app_spec("solver-2").to_json(), "task_count": 1.5}}),
        ("submit", {"spec": {**app_spec().to_json(), "app_id": 5}}),
        ("submit", {"spec": {**app_spec("solver-2").to_json(),
                             "walltime_limit_s": float("nan")}}),
        ("utilization_report", {"t0": True}),
        ("utilization_report", {"t0": 0.5}),
        ("submit", {"spec": {**app_spec("solver-2").to_json(), "trace": []}}),
        ("register_image", {"image_id": 5, "name": "n", "owner": "o", "content_digest": "d"}),
        ("subscribe_metrics", {"subject": {"kind": "app", "id": ["solver-1"]}}),
        ("subscribe_metrics", {"subject": {"kind": 5}}),
        ("subscribe_events", {"app_id": 5}),
    ])
    def test_malformed_field_is_invalid_value(self, op, payload):
        records = []
        core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric", record=records.append)
        core.handle("submit", {"spec": app_spec().to_json()}, tenant="alice")
        core.tick()  # activates the app
        before = (core.scheduler.reservations["solver-1"].to_json(),
                  core.engine.apps["solver-1"].status, len(records))
        with pytest.raises(SymplatError) as err:
            core.handle(op, payload, tenant="alice")
        assert err.value.code == "invalid_value"
        assert (core.scheduler.reservations["solver-1"].to_json(),
                core.engine.apps["solver-1"].status, len(records)) == before
        assert sorted(core.scheduler.reservations) == ["solver-1"]
        for _ in range(5):  # the refused request left nothing that stops the clock
            core.tick()

    def test_task_count_is_at_most_1024(self, server):
        client = WireClient(server.address, tenant="alice")
        spec = {**app_spec("wide").to_json(),
                "per_task_reservation": {}, "task_count": 1025}
        with pytest.raises(SymplatError) as err:
            client.request("submit", {"spec": spec})
        assert err.value.code == "invalid_value"
        client.request("submit", {"spec": {**spec, "task_count": 1024}})
        assert client.request("status", {"app_id": "wide"})["reservation"]["app_id"] == "wide"
        client.close()

    def test_malformed_field_keeps_the_connection(self, server):
        client = WireClient(server.address, tenant="alice")
        client.request("submit", {"spec": app_spec().to_json()})
        with pytest.raises(SymplatError) as err:
            client.request("status", {"app_id": ["solver-1"]})
        assert err.value.code == "invalid_value"
        out = client.request("status", {"app_id": "solver-1"})
        assert out["reservation"]["app_id"] == "solver-1"
        client.close()

    def test_malformed_hello_keeps_the_connection(self, server):
        client = WireClient(server.address, tenant="alice")
        for payload in (["a"], "alice"):
            with pytest.raises(SymplatError) as err:
                client.request("hello", payload)
            assert err.value.code == "malformed_message"
        # the operator flag takes a bool: "false" is refused, not read as true
        with pytest.raises(SymplatError) as err:
            client.request("hello", {"tenant": "bob", "operator": "false"})
        assert err.value.code == "invalid_value"
        with pytest.raises(SymplatError) as err:
            client.request("drain_node", {"node_id": "n01"})
        assert err.value.code == "forbidden"
        assert client.request("hello", {"tenant": "bob"}) == {"tenant": "bob", "operator": False}
        client.close()

    def test_malformed_submit_keeps_the_clock_running(self):
        core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric")
        srv = WireServer(core, "127.0.0.1:0", speedup=50).start()
        try:
            client = WireClient(srv.address, tenant="alice")
            client.request("submit", {"spec": app_spec().to_json()})
            for field, value in (("task_count", 1.5), ("app_id", 5)):
                spec = {**app_spec("solver-2").to_json(), field: value}
                with pytest.raises(SymplatError) as err:
                    client.request("submit", {"spec": spec})
                assert err.value.code == "invalid_value"
            start = core.now
            deadline = time.monotonic() + 5
            while core.now < start + 3000 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert core.now >= start + 3000
            assert client.request("env_model", {})["now"] >= start + 3000
            client.close()
        finally:
            srv.stop()

    def test_malformed_adjust_keeps_the_connection(self, server):
        client = WireClient(server.address, tenant="alice")
        client.request("submit", {"spec": app_spec().to_json()})
        with server.core_lock:
            server.core.tick()  # activates the app
        with pytest.raises(SymplatError) as err:
            client.request("adjust", {"app_id": "solver-1", "walltime_extension_s": "10"})
        assert err.value.code == "invalid_value"
        out = client.request("adjust", {"app_id": "solver-1", "walltime_extension_s": 10})
        assert (out["decision"], out["granted_extension_s"]) == ("Granted", 10)
        client.close()


class TestSubscriptionOwnership:
    def test_unsubscribe_only_own_connection(self, server):
        alice = WireClient(server.address, tenant="alice")
        other = WireClient(server.address, tenant="alice")
        sub_id = alice.request("subscribe_metrics", {})["subscription_id"]
        with pytest.raises(SymplatError) as err:
            other.request("unsubscribe", {"subscription_id": sub_id})
        assert err.value.code == "forbidden"
        assert sub_id in server.core.bus.subscriptions
        assert alice.request("unsubscribe", {"subscription_id": sub_id}) == {
            "subscription_id": sub_id}
        alice.close()
        other.close()

    def test_operator_and_teardown_end_any_subscription(self, server):
        alice = WireClient(server.address, tenant="alice")
        op = WireClient(server.address, tenant="ops", operator=True)
        first = alice.request("subscribe_metrics", {})["subscription_id"]
        alice.request("subscribe_events", {})
        op.request("unsubscribe", {"subscription_id": first})
        alice.close()
        deadline = time.monotonic() + 5
        while server.core.bus.subscriptions and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.core.bus.subscriptions == {}
        op.close()


class TestAsymmetricPolicy:
    def test_symmetric_only_ops_rejected(self):
        core = PlatformCore(cluster(), images=[IMAGE], mode="asymmetric")
        srv = WireServer(core, "127.0.0.1:0").start()
        try:
            client = WireClient(srv.address, tenant="alice")
            client.request("submit", {"spec": app_spec().to_json()})
            for op, payload in [
                ("adjust", {"app_id": "solver-1", "delta_per_task": {"cpu_cores": 1}}),
                ("register_boundary", {"bc_id": "b", "subject": {"kind": "app", "id": "x"},
                                       "metric": "cpu_cores_used", "bound": "max",
                                       "threshold": 1, "window_s": 1}),
                ("subscribe_metrics", {}),
                ("subscribe_events", {}),
            ]:
                with pytest.raises(SymplatError) as err:
                    client.request(op, payload)
                assert err.value.code == "policy_disabled", op
            client.close()
        finally:
            srv.stop()

"""Newline-delimited JSON wire service over TCP or a unix socket.

One message per line (UTF-8 JSON, max 1 MiB). Requests carry a client-chosen
correlation id and are answered exactly once, also after the client has
half-closed the connection; pushes carry id = null. The first message on a
connection must be hello, which binds a tenant and an operator flag. All
state mutations funnel through one lock around the core.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading

from .core import ApiError
from .telemetry import Channel

MAX_LINE_BYTES = 1 << 20


def parse_listen(listen):
    """'host:port' -> TCP, anything else -> unix socket path."""
    if ":" in listen and not listen.startswith("/") and not listen.startswith("."):
        host, _, port = listen.rpartition(":")
        return ("tcp", host or "127.0.0.1", int(port))
    return ("unix", listen, None)


class _Outbox(Channel):
    """Per-connection ordered write queue, shared with the writer thread.

    Responses are put non-droppable and pushes droppable, so a slow consumer
    cannot stall the simulation clock, a response is never lost, and a push
    made while serving a request goes out before that request's response.
    Sample pushes are encoded by `get`, on the writer thread, outside the
    core lock.
    """

    def __init__(self):
        super().__init__()
        self._cond = threading.Condition()
        self.closed = False

    def put(self, msg, droppable=True):
        with self._cond:
            if not self.closed:
                super().put(msg, droppable)
                self._cond.notify()

    def get(self, timeout=0.5):
        with self._cond:
            if not self._items and not self.closed:
                self._cond.wait(timeout)
            return self.poll()

    def close(self):
        with self._cond:
            self.closed = True
            self._cond.notify_all()


class _ConnectionHandler(socketserver.BaseRequestHandler):
    def setup(self):
        self.tenant = None
        self.operator = False
        self.hello_done = False
        self.outbox = _Outbox()
        self.sub_ids = []
        self._writer = threading.Thread(target=self._write_loop, daemon=True)
        self._writer.start()

    def _write_loop(self):
        while True:
            msgs = self.outbox.get()
            if not msgs and self.outbox.closed:
                return
            for msg in msgs:
                # responses carry an id; anything else (gap markers too) is a push
                obj = msg if "id" in msg else {"id": None, "push": msg}
                try:
                    self.request.sendall(json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n")
                except OSError:
                    self.outbox.close()
                    return

    def _send(self, obj):
        self.outbox.put(obj, droppable=False)

    def _send_error(self, msg_id, code, message):
        self._send({"id": msg_id, "error": {"code": code, "message": message}})

    def handle(self):
        buf = b""
        self.request.settimeout(0.5)
        while not self.server.stopping:
            try:
                chunk = self.request.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            if not chunk:
                break
            buf += chunk
            if b"\n" not in buf and len(buf) > MAX_LINE_BYTES:
                self._send_error(None, "oversize_message", f"line exceeds {MAX_LINE_BYTES} bytes")
                break
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if len(line) > MAX_LINE_BYTES:
                    self._send_error(None, "oversize_message",
                                     f"line exceeds {MAX_LINE_BYTES} bytes")
                    return
                if not line.strip():
                    continue
                if not self._dispatch(line):
                    return

    def _dispatch(self, line):
        try:
            msg = json.loads(line.decode("utf-8"))
            if not isinstance(msg, dict):
                raise ValueError("message must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error(None, "malformed_message", str(exc))
            return True
        msg_id = msg.get("id")
        op = msg.get("op")
        payload = msg.get("payload", {})
        if not isinstance(op, str):
            self._send_error(msg_id, "malformed_message", "op must be a string")
            return True

        if op == "hello":
            if not isinstance(payload, dict):
                self._send_error(msg_id, "malformed_message", "payload must be an object")
                return True
            self.tenant = payload.get("tenant", "anonymous")
            self.operator = bool(payload.get("operator", False))
            self.hello_done = True
            self._send({"id": msg_id, "result": {
                "tenant": self.tenant, "operator": self.operator}})
            return True
        if not self.hello_done:
            self._send_error(msg_id, "handshake_required", "first message must be hello")
            return True

        try:
            with self.server.core_lock:
                result = self.server.core.handle(
                    op, payload, tenant=self.tenant, operator=self.operator,
                    outbox=self.outbox,
                )
                if op in ("subscribe_metrics", "subscribe_events"):
                    self.sub_ids.append(result["subscription_id"])
            self._send({"id": msg_id, "result": result})
        except ApiError as exc:
            self._send_error(msg_id, exc.code, str(exc))
        return True

    def finish(self):
        with self.server.core_lock:
            for sub_id in self.sub_ids:
                try:
                    self.server.core.handle("unsubscribe", {"subscription_id": sub_id},
                                            tenant=self.tenant, operator=True)
                except ApiError:
                    pass
        # the writer sends what is queued, then exits; the socket timeout
        # bounds a send the client never reads
        self.outbox.close()
        self._writer.join()


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    # socketserver's default backlog of 5 resets clients that connect together
    request_queue_size = socket.SOMAXCONN


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True
    request_queue_size = socket.SOMAXCONN


class WireServer:
    """Serves a PlatformCore over the line protocol.

    If `speedup` is set, a background thread advances the virtual clock one
    tick every 1000/speedup real milliseconds, up to `duration_ms`.
    """

    def __init__(self, core, listen, speedup=None, duration_ms=None):
        self.core = core
        self.core_lock = threading.RLock()
        kind, host, port = parse_listen(listen)
        if kind == "tcp":
            self._server = _TcpServer((host, port), _ConnectionHandler)
        else:
            if os.path.exists(host):
                os.unlink(host)
            self._server = _UnixServer(host, _ConnectionHandler)
        self._server.core = core
        self._server.core_lock = self.core_lock
        self._server.stopping = False
        self.speedup = speedup
        self.duration_ms = duration_ms
        self._threads = []
        self._stop = threading.Event()

    @property
    def address(self):
        addr = self._server.server_address
        if isinstance(addr, tuple):
            return f"{addr[0]}:{addr[1]}"
        return addr

    def _clock_loop(self):
        period = 1.0 / self.speedup
        while not self._stop.is_set():
            if self.duration_ms is not None and self.core.now >= self.duration_ms:
                break
            with self.core_lock:
                self.core.tick()
            self._stop.wait(period)

    def start(self):
        t = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
                             daemon=True)
        t.start()
        self._threads.append(t)
        if self.speedup:
            c = threading.Thread(target=self._clock_loop, daemon=True)
            c.start()
            self._threads.append(c)
        return self

    def stop(self):
        self._stop.set()
        self._server.stopping = True
        self._server.shutdown()
        self._server.server_close()


class WireClient:
    """Minimal blocking client; pushes received while waiting are buffered."""

    def __init__(self, listen, tenant="default", operator=False, timeout=10.0):
        kind, host, port = parse_listen(listen)
        if kind == "tcp":
            self.sock = socket.create_connection((host, port), timeout=timeout)
        else:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(timeout)
            self.sock.connect(host)
        self._buf = b""
        self._seq = 0
        self.pushes = []
        self.hello(tenant, operator)

    def _read_message(self):
        while b"\n" not in self._buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line.decode("utf-8"))

    def send(self, op, payload=None, msg_id=None):
        if msg_id is None:
            self._seq += 1
            msg_id = f"c{self._seq}"
        line = json.dumps({"id": msg_id, "op": op, "payload": payload or {}})
        self.sock.sendall(line.encode("utf-8") + b"\n")
        return msg_id

    def request(self, op, payload=None):
        msg_id = self.send(op, payload)
        while True:
            msg = self._read_message()
            if msg.get("id") == msg_id:
                if "error" in msg:
                    raise ApiError(msg["error"]["code"], msg["error"]["message"])
                return msg["result"]
            self.pushes.append(msg)

    def hello(self, tenant, operator):
        return self.request("hello", {"tenant": tenant, "operator": operator})

    def next_push(self):
        if self.pushes:
            return self.pushes.pop(0)
        while True:
            msg = self._read_message()
            if msg.get("id") is None:
                return msg

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

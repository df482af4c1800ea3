"""Newline-delimited JSON wire service over TCP or a unix socket.

One message per line (UTF-8 JSON, max 1 MiB). Requests carry a client-chosen
correlation id and are answered exactly once, also after the client has
half-closed the connection; pushes carry id = null. The first message on a
connection must be hello, which binds a tenant and an operator flag.

One thread serves every connection: a `selectors` loop answers each request
line inline, runs the clock's due ticks, and writes each connection's channel
with non-blocking sends. It holds `core_lock`, through which other threads
reach the core while it runs, for each request, tick and channel poll.

Every response is encoded where it is answered, and the writer encodes
only pushes: a `str` on a connection's channel is a response's line. A
core result is read-only (see `PlatformCore.handle`), so the server keeps
each op's last encoded result and reuses the text for a response whose
result is that same object.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import stat
import threading
import time
import traceback

from .model import SymplatError, checked
from .telemetry import CHANNEL_DEPTH, Channel

MAX_LINE_BYTES = 1 << 20
# one encoder for every line: `json.dumps(..., sort_keys=True)` builds one per call
_ENCODER = json.JSONEncoder(sort_keys=True)
# longest wait of the loop: pushes made by other threads go out within it
POLL_S = 0.1


def parse_listen(listen):
    """'host:port' -> TCP, anything else -> unix socket path."""
    if ":" in listen and not listen.startswith("/") and not listen.startswith("."):
        host, _, port = listen.rpartition(":")
        if not port.isdecimal() or int(port) > 65535:
            raise ValueError(f"invalid port {port!r} in address {listen!r}")
        return ("tcp", host or "127.0.0.1", int(port))
    return ("unix", listen, None)


def _error(msg_id, code, message):
    return _ENCODER.encode({"id": msg_id, "error": {"code": code, "message": message}})


class _ConnectionHandler:
    """One connection: its session, its channel and its unsent bytes.

    Every response, a core result's, an error's or hello's, is encoded
    where it is answered and put on the channel as its line, a `str`, which
    the channel never drops; pushes are encoded when written. So a slow reader
    cannot stall the loop, a response is never lost, and a push made while
    serving a request goes out before that request's response.
    A connection is backlogged while its channel holds CHANNEL_DEPTH messages
    or its unsent bytes exceed MAX_LINE_BYTES: it then answers no request,
    and reads no more once a received line waits, until they drain. So a
    client that never reads holds a bounded amount of the server's memory.
    """

    def __init__(self, server, sock):
        self.server = server
        self.sock = sock
        self.tenant = None  # bound by hello
        self.operator = False
        self.outbox = Channel()
        self.reading = True  # false after a half-close or an oversize line
        self._rbuf = b""  # bytes received, not yet answered
        self._wbuf = b""  # encoded lines polled from the channel, not yet sent

    def _backlogged(self):
        return len(self.outbox) >= CHANNEL_DEPTH or len(self._wbuf) > MAX_LINE_BYTES

    def _read(self):
        try:
            chunk = self.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:  # reset by the peer
            chunk = b""
        # at the end of input, answer the lines received, send what is queued and close
        self.reading = bool(chunk)
        self._rbuf += chunk

    def _answer_lines(self):
        """Answer the complete lines received, in order, until backlogged;
        returns whether a complete line is still waiting. Once the input has
        ended, what follows the last newline is a line too."""
        buf, start = self._rbuf, 0
        held = False
        while start < len(buf):  # past the end after a last line with no newline
            end = buf.find(b"\n", start)
            if end < 0:
                if self.reading and len(buf) - start <= MAX_LINE_BYTES:
                    break  # the rest of the line has yet to arrive
                # the last line at the end of input, or answered as oversize
                # before its end arrives
                end = len(buf)
            if self._backlogged():
                held = True
                break
            line, start = buf[start:end], end + 1
            if line.strip():
                self._dispatch(line)
                if len(line) > MAX_LINE_BYTES:  # the rest of the stream cannot be framed
                    buf, start = b"", 0
                    break
        self._rbuf = buf[start:]
        return held

    def _dispatch(self, line):
        with self.server.core_lock:
            self.outbox.put(self._answer(line))

    def _answer(self, line):
        if len(line) > MAX_LINE_BYTES:
            self.reading = False  # the rest of the stream cannot be framed
            return _error(None, "oversize_message", f"line exceeds {MAX_LINE_BYTES} bytes")
        try:
            msg = json.loads(line.decode("utf-8"))
            if not isinstance(msg, dict):
                raise ValueError("message must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return _error(None, "malformed_message", str(exc))
        msg_id = msg.get("id")
        op = msg.get("op")
        payload = msg.get("payload", {})
        if not isinstance(op, str):
            return _error(msg_id, "malformed_message", "op must be a string")

        try:
            if op == "hello":
                if not isinstance(payload, dict):
                    raise SymplatError("malformed_message", "payload must be an object")
                tenant = checked("tenant", payload.get("tenant", "anonymous"), (str,))
                self.operator = checked("operator", payload.get("operator", False), (bool,))
                self.tenant = tenant
                return _ENCODER.encode(
                    {"id": msg_id, "result": {"tenant": tenant, "operator": self.operator}})
            if self.tenant is None:
                return _error(msg_id, "handshake_required", "first message must be hello")
            result = self.server.core.handle(op, payload, tenant=self.tenant,
                                             operator=self.operator, outbox=self.outbox)
        except SymplatError as exc:
            return _error(msg_id, exc.code, str(exc))
        return self.server._response_line(op, msg_id, result)

    def _write(self):
        """Send until the socket is full or all is sent; False once the peer is gone."""
        while self._wbuf or len(self.outbox):
            if not self._wbuf:
                with self.server.core_lock:
                    msgs = self.outbox.poll()
                # a response comes as its line; anything else (gap markers
                # too) is a push
                lines = [m if type(m) is str else _ENCODER.encode({"id": None, "push": m})
                         for m in msgs]
                self._wbuf = ("\n".join(lines) + "\n").encode("utf-8")
            try:
                self._wbuf = self._wbuf[self.sock.send(self._wbuf):]
            except BlockingIOError:
                break
            except OSError:
                return False
        return True

    def service(self, events):
        """Read if readable, answer and write what is pending, then wait for
        what is still needed, or close once the connection is done."""
        if events & selectors.EVENT_READ:
            self._read()
        held = bool(self._rbuf)
        while True:
            held = held and self._answer_lines()
            if not self._write():
                return self.close()
            if not held or self._backlogged():  # else a full send ended the backlog
                break
        wanted = (selectors.EVENT_READ if self.reading and not held else 0) | (
            selectors.EVENT_WRITE if self._wbuf else 0)
        if wanted:
            self.server._selector.modify(self.sock, wanted, self)  # no-op when unchanged
        else:  # not reading, and everything is sent
            self.close()

    def close(self):
        self.server._conns.discard(self)
        self.server._selector.unregister(self.sock)
        self.sock.close()
        with self.server.core_lock:
            self.server.core.bus.unsubscribe_outbox(self.outbox)


class WireServer:
    """Serves a PlatformCore over the line protocol from one thread.

    If `speedup` is set, the loop advances the virtual clock one tick
    1000/speedup real milliseconds after the previous tick ended, up to
    `duration_ms`.
    """

    def __init__(self, core, listen, speedup=None, duration_ms=None):
        self.core = core
        self.core_lock = threading.RLock()
        kind, host, port = parse_listen(listen)
        self._socket_file = None  # (path, (st_dev, st_ino)) of the unix socket bound
        if kind == "tcp":
            self._listener = socket.create_server((host, port), backlog=socket.SOMAXCONN)
        else:
            # replace a stale socket; any other file at the path makes the bind fail
            if os.path.exists(host) and stat.S_ISSOCK(os.stat(host).st_mode):
                os.unlink(host)
            self._listener = socket.create_server(host, family=socket.AF_UNIX,
                                                  backlog=socket.SOMAXCONN)
            st = os.stat(host)
            self._socket_file = (host, (st.st_dev, st.st_ino))
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._conns = set()
        self._encoded = {}  # op -> (result, its encoding) of the op's last response
        addr = self._listener.getsockname()
        self.address = f"{addr[0]}:{addr[1]}" if kind == "tcp" else addr
        self._server = self  # perfbench/server.py installs its timed lock as _server.core_lock
        self.speedup = speedup
        self.duration_ms = duration_ms
        self._thread = threading.Thread(target=self._serve, name="symplat-wire", daemon=True)
        self._stopping = False

    def _response_line(self, op, msg_id, result):
        """The line answering `msg_id` with `result`, as
        `json.dumps({"id": msg_id, "result": result}, sort_keys=True)` encodes
        it ("id" sorts first); a result that is the op's last one reuses its
        encoding."""
        kept = self._encoded.get(op)
        if kept is None or kept[0] is not result:
            kept = self._encoded[op] = (result, _ENCODER.encode(result))
        return '{"id": ' + _ENCODER.encode(msg_id) + ', "result": ' + kept[1] + "}"

    def _accept(self):
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the client gave up first, or no descriptor is free
            return
        sock.setblocking(False)
        conn = _ConnectionHandler(self, sock)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._conns.add(conn)

    def _serve(self):
        period = 1.0 / self.speedup if self.speedup else None
        due = time.monotonic() if period else None
        while not self._stopping:
            timeout = POLL_S if due is None else min(POLL_S, due - time.monotonic())
            ready = {key.data: events for key, events in self._selector.select(timeout)}
            if ready.pop(None, 0):  # the listener
                self._accept()
            if due is not None and time.monotonic() >= due:
                due = None
                if self.duration_ms is None or self.core.now < self.duration_ms:
                    try:
                        with self.core_lock:
                            self.core.tick()
                        due = time.monotonic() + period
                    except Exception:  # the clock stops; requests are still served
                        traceback.print_exc()
            for conn in list(self._conns):
                try:
                    conn.service(ready.get(conn, 0))
                except Exception:  # one connection's fault must not stop the others
                    traceback.print_exc()
                    conn.close()

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stopping = True
        if self._thread.is_alive():
            self._thread.join()
        for conn in list(self._conns):
            conn.close()
        self._selector.close()
        self._listener.close()
        if self._socket_file is not None:
            path, ident = self._socket_file
            try:
                st = os.stat(path)
                if (st.st_dev, st.st_ino) == ident:  # still this server's socket
                    os.unlink(path)
            except FileNotFoundError:
                pass


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
                    raise SymplatError(msg["error"]["code"], msg["error"]["message"])
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

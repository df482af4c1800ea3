"""Span recording around symplat's public entry points, from outside the program.

`Tracer.wrap` replaces a class attribute (or module function) with a wrapper
that records one span per call: name, start, end, parent span and a context
id (the tick or request the work belongs to). Spans are kept in memory, one
buffer per thread so that parents are always found on the caller's own stack,
and are analysed or written out when the run ends. `Tracer.uninstall`
restores every wrapped attribute.

Self time is a span's duration minus the part of its interval that its
direct children cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from collections import Counter, defaultdict

NO_CTX = -1


class _Buffer:
    """Spans of one thread, as parallel arrays (8 bytes per field)."""

    def __init__(self):
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.ctx = array("q")
        self.stack = []

    def open(self, code, ctx, args, now):
        idx = len(self.name)
        parent = self.stack[-1] if self.stack else -1
        inherited = self.ctx[parent] if parent >= 0 else NO_CTX
        ctx = inherited if ctx is None else ctx(args, inherited)
        self.name.append(code)
        self.start.append(now)
        self.end.append(0)
        self.parent.append(parent)
        self.ctx.append(ctx)
        self.stack.append(idx)
        return idx

    def close(self, idx, now):
        self.end[idx] = now
        self.stack.pop()


class Spans:
    """All recorded spans, flattened: parallel arrays indexed by span id.

    Within one thread spans are recorded in start order and nest, so every
    span's children follow it in start order; `self_times` relies on that."""

    def __init__(self, names, name, start, end, parent, ctx):
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.ctx = ctx

    def __len__(self):
        return len(self.name)

    def self_times(self):
        """Per-span self time in ns: duration minus the union of its direct
        children's intervals, clipped to the span. Spans still open when the
        buffers were read (end 0) count as empty."""
        start, end = self.start, self.end
        out = array("q", (max(0, e - s) for s, e in zip(start, end)))
        n = len(out)
        cur_s = array("q", [0]) * n  # the children's interval being merged
        cur_e = array("q", [-1]) * n
        for k, p in enumerate(self.parent):
            if p < 0:
                continue
            s, e = max(start[k], start[p]), min(end[k], end[p])
            if e <= s:
                continue
            if s > cur_e[p]:
                if cur_e[p] >= 0:
                    out[p] -= cur_e[p] - cur_s[p]
                cur_s[p], cur_e[p] = s, e
            elif e > cur_e[p]:
                cur_e[p] = e
        for p in range(n):
            if cur_e[p] >= 0:
                out[p] -= cur_e[p] - cur_s[p]
        return out

    def by_name(self):
        """name -> {"calls", "total_ns", "self_ns", "durations_ns"}."""
        selfs = self.self_times()
        agg = {}
        for i, code in enumerate(self.name):
            if self.end[i] == 0:
                continue
            name = self.names[code]
            a = agg.get(name)
            if a is None:
                a = agg[name] = {"calls": 0, "total_ns": 0, "self_ns": 0,
                                 "durations_ns": array("q")}
            d = self.end[i] - self.start[i]
            a["calls"] += 1
            a["total_ns"] += d
            a["self_ns"] += selfs[i]
            a["durations_ns"].append(d)
        return agg

    def roots_ns(self):
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0 and e)

    def tail_after_last_child(self, parent_name, child_name):
        """Sum over `parent_name` spans of the time after their last direct
        `child_name` child ended (the whole span if it has none)."""
        pcode, ccode = self.names.index(parent_name), self.names.index(child_name)
        last = {}
        for i, p in enumerate(self.parent):
            if p >= 0 and self.name[i] == ccode and self.name[p] == pcode:
                last[p] = max(last.get(p, 0), self.end[i])
        return sum(self.end[i] - last.get(i, self.start[i])
                   for i, code in enumerate(self.name) if code == pcode and self.end[i])

    def write(self, path):
        """JSON: the name table and one [name, start_ns, end_ns, parent, ctx]
        row per span, one row per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names":%s,"fields":["name","start_ns","end_ns","parent","ctx"],"spans":['
                     % json.dumps(self.names))
            rows = zip(self.name, self.start, self.end, self.parent, self.ctx)
            fh.write(",\n".join("[%d,%d,%d,%d,%d]" % r for r in rows))
            fh.write("]}\n")


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self._codes = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._patched = []
        self.counts = Counter()
        self.values = defaultdict(list)

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def span(self, name, fn, ctx=None, after=None):
        """Return `fn` wrapped to record a span named `name`.

        `ctx(args, parent_ctx)` gives the span's context id (default: the
        parent's, or NO_CTX for a root);
        `after(tracer, args, result)` records counters from a call that
        returned; a call that raises counts toward `<name>.raised`.
        """
        code = self.code(name)
        clock = self.clock
        buffer = self._buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = buffer()
            idx = buf.open(code, ctx, args, clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                buf.close(idx, clock())
                self.counts[name + ".raised"] += 1
                raise
            buf.close(idx, clock())
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def wrap(self, owner, attr, name, ctx=None, after=None):
        """Replace `owner.attr` with a recording wrapper until `uninstall`."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.span(name, fn, ctx=ctx, after=after))
        self._patched.append((owner, attr, fn))

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def spans(self):
        """Flatten every thread's buffer into one `Spans` (ids renumbered)."""
        name, start, end, parent, ctx = (array("i"), array("q"), array("q"),
                                         array("q"), array("q"))
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            base = len(name)
            name.extend(buf.name)
            start.extend(buf.start)
            end.extend(buf.end)
            parent.extend(p + base if p >= 0 else -1 for p in buf.parent)
            ctx.extend(buf.ctx)
        return Spans(list(self.names), name, start, end, parent, ctx)

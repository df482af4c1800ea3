"""Metric bus, retained-sample store, and boundary-condition analytics.

Publishing is one serialized pipeline: `publish(t, tails, node_tails)` takes
a tick's templates in one call, the fields after `t` of each task's and each
node's sample, and for each in order stores it, delivers its sample to the
matching subscriptions, then evaluates its subject's boundary conditions.
The store keeps runs of templates, not samples: a subject's series holds one
stream per task (app subjects) or one stream (node subjects), and a stream
is a deque of runs [first_t, last_t, template], which stand for the samples
stamped first_t, first_t + 1000, ..., last_t. A template that is its
stream's open run's, one tick on, extends that run in O(1); the engine hands
out the same template object tick after tick until its rates or storage
change. A sample object is built from a template only for a reader: when a
boundary must be evaluated, when a channel is polled, and by `query`, which
expands only the runs inside its window.
A subject's route (its series, its stream, its boundaries and its
subscriptions' channels) is cached per stream and made again whenever a
subscription or boundary comes or goes. Deliveries are collected per
channel and handed over as one `_Samples` batch, the tick's t and the
(sample type, template) pairs delivered: before an alarm is fanned out and
at the end of the call, so every reader sees what one `publish` per sample
would show. A batch's samples are built and encoded as messages only when
read: by `poll`, or for a wire subscription by the wire service's loop; a
drop trims the oldest batch, so a delivery dropped from a full buffer is
never built. The engine hands out the same two tuples of templates again on
a tick where none changed, and a call with the last call's two objects, one
tick on, takes the quiet path when that call held each stream once and no
route was cleared since: from a plan made on the first such repeat, it
extends every open run, evaluates only the subjects whose alarm state may
change, and hands each channel one batch, split at an alarm as the full
path splits it. Each boundary keeps no samples: only the exact
integer sums of its window, the window's bounds and its alarm state; the
samples that enter and leave its window are read from the store's runs,
which `publish` prunes of what is past retention only after `evaluate`, so a
window as wide as retention can still take out what it leaves. Alarms are
edge-triggered on the windowed mean and re-arm only after a full window of
continuous satisfaction. A subject's alarm state is evaluated only when it
can change: on a subject with one stream, `publish` skips `evaluate` for a
template that extends its run, before the subject's quiet instant (see
`_Fed`), and the windows read the skipped samples from the store when they
are next evaluated.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from dataclasses import dataclass
from math import inf
from operator import attrgetter, itemgetter

from .model import (
    NODE_METRICS,
    SAMPLE_METRICS,
    EmptyRange,
    NodeSample,
    PhysicalSample,
    SymplatError,
    checked,
)

# Droppable messages a channel holds before it drops the oldest one: a
# subscription's buffer, or a wire connection's pending pushes.
CHANNEL_DEPTH = 1024
METRIC_KINDS = ("sample", "node_sample", "alarm")
EVENT_KINDS = ("event",)


class OutOfOrderSample(SymplatError):
    code = "out_of_order_sample"


class UnknownSubject(SymplatError):
    code = "unknown_subject"


class UnknownSubscription(SymplatError):
    code = "unknown_subscription"


class InvalidBoundary(SymplatError):
    code = "invalid_boundary"


@dataclass(frozen=True)
class BoundaryCondition:
    """Alarm when the mean of `metric` over the trailing `window_s` seconds of
    `subject`'s samples crosses `threshold` (below it for "min", above for "max").

    The mean covers only points the bus still retains, so a window longer
    than the bus's `retention_s` acts as `retention_s`; a boundary registered
    after samples exist sees the points already retained.
    """

    bc_id: str
    subject: tuple[str, str]  # ("app", app_id) | ("node", node_id)
    metric: str
    bound: str  # "min" | "max"
    threshold: int
    window_s: int

    def validate(self):
        checked("bc_id", self.bc_id, (str,), error=InvalidBoundary)
        if self.subject[0] not in ("app", "node"):
            raise InvalidBoundary(f"subject kind must be app or node, got {self.subject[0]!r}")
        checked("subject id", self.subject[1], (str,), error=InvalidBoundary)
        if self.metric not in SAMPLE_METRICS + NODE_METRICS:
            raise InvalidBoundary(f"unknown metric {self.metric!r}")
        if self.bound not in ("min", "max"):
            raise InvalidBoundary(f"bound must be min or max, got {self.bound!r}")
        checked("threshold", self.threshold, least=0, error=InvalidBoundary)
        checked("window_s", self.window_s, least=1, error=InvalidBoundary)

    @classmethod
    def from_json(cls, obj):
        return cls(
            bc_id=obj["bc_id"],
            subject=(obj["subject"]["kind"], obj["subject"]["id"]),
            metric=obj["metric"],
            bound=obj["bound"],
            threshold=obj["threshold"],
            window_s=obj["window_s"],
        )


@dataclass(frozen=True)
class Alarm:
    bc_id: str
    subject: tuple[str, str]
    t: int
    observed: float
    threshold: int
    direction: str = "entered-violation"

    def to_json(self):
        return {
            "type": "alarm",
            "bc_id": self.bc_id,
            "subject": {"kind": self.subject[0], "id": self.subject[1]},
            "t": self.t,
            "observed": self.observed,
            "threshold": self.threshold,
            "direction": self.direction,
        }


# sample type -> (subject kind, message type)
_SAMPLE_KINDS = {PhysicalSample: ("app", "sample"), NodeSample: ("node", "node_sample")}


class _Samples:
    """Samples handed to a channel together: for each (sample type,
    template) of `pairs`, in order, the sample type(t, *template). They are
    built and encoded as messages only when polled. A channel trims its
    oldest batch's `pairs` when it drops samples, so no two channels share a
    batch."""

    __slots__ = ("t", "pairs")

    def __init__(self, t, pairs):
        self.t = t
        self.pairs = pairs

    def messages(self):
        stamp = (self.t,)
        out = []
        for sample_type, tail in self.pairs:
            msg = tuple.__new__(sample_type, stamp + tail)._asdict()
            msg["type"] = _SAMPLE_KINDS[sample_type][1]
            out.append(msg)
        return out


class Channel:
    """Bounded ordered message queue with gap markers.

    A `str` is a response line and is never dropped; it does not count
    toward the depth. Samples come in `_Samples` batches, each of whose
    samples counts as a message. Beyond CHANNEL_DEPTH other messages, the
    oldest sample is dropped, and the oldest event or alarm only when no
    sample waits; the next poll then starts with a {"type": "gap",
    "dropped": n} marker. Samples are built and encoded by poll.
    """

    def __init__(self):
        self._items = deque()
        self._droppable = 0
        self._responses = 0
        self._gap = 0

    def put(self, msg):
        if type(msg) is str:
            self._items.append(msg)
            self._responses += 1
        else:
            self.put_many([msg])

    def put_many(self, msgs):
        """Put each of `msgs`, none a `str`, as successive `put`s would:
        beyond CHANNEL_DEPTH droppable messages, queued or in `msgs`, the
        oldest samples are dropped, then the oldest other droppable messages.

        Successive puts drop a sample only when it is the oldest waiting, and
        another message only when no sample waits, so they keep the newest
        other messages, at most CHANNEL_DEPTH, and the newest samples in the
        room left: the messages kept here."""
        items = self._items
        items.extend(msgs)
        self._droppable += sum(len(m.pairs) if type(m) is _Samples else 1 for m in msgs)
        excess = self._droppable - CHANNEL_DEPTH
        if excess <= 0:
            return
        self._gap += excess
        self._droppable = CHANNEL_DEPTH
        i = 0  # the oldest item that may hold a sample
        while i < len(items):
            batch = items[i]
            if type(batch) is not _Samples:
                i += 1
            elif len(batch.pairs) > excess:
                del batch.pairs[:excess]
                return
            else:
                excess -= len(batch.pairs)
                del items[i]
                if not excess:
                    return
        for _ in range(excess):  # no sample waits
            del items[next(i for i, m in enumerate(items) if type(m) is not str)]

    def __len__(self):
        """Messages waiting for the next poll, not counting a gap marker."""
        return self._droppable + self._responses

    def poll(self):
        out = []
        if self._gap:
            out.append({"type": "gap", "dropped": self._gap})
            self._gap = 0
        for item in self._items:
            if type(item) is _Samples:
                out += item.messages()
            else:
                out.append(item)
        self._items.clear()
        self._droppable = self._responses = 0
        return out


class Subscription(Channel):
    """Bus messages of some `kinds` about one subject kind and/or id.

    `channel` is where its matches go, named once: `outbox` (a wire
    connection's channel) when one is given, else the subscription itself,
    whose buffer its owner polls. `delivered` counts the matches put there.
    """

    def __init__(self, sub_id, kinds, subject_kind=None, subject_id=None, outbox=None):
        super().__init__()
        self.sub_id = sub_id
        self.kinds = kinds
        self.subject_kind = subject_kind
        self.subject_id = subject_id
        self.outbox = outbox
        self.channel = self if outbox is None else outbox
        self.delivered = 0

    def matches(self, kind, subject):
        """Whether a message of `kind` about `subject` is one of ours."""
        return (kind in self.kinds
                and (self.subject_kind is None or subject[0] == self.subject_kind)
                and (self.subject_id is None or subject[1] == self.subject_id))


# metric -> its index in the samples of each subject kind
_METRIC_INDEX = {
    "app": {m: PhysicalSample._fields.index(m) for m in SAMPLE_METRICS},
    "node": {m: NodeSample._fields.index(m) for m in NODE_METRICS},
}


class _Boundary:
    """A registered boundary on a metric its subject's samples carry: the
    condition, its window and its alarm state.

    The window is the subject's stored samples with t in [lo, hi): those in
    (newest - width, newest] for the newest sample it has taken, and none
    (lo = hi = inf) while the subject has no sample. It keeps no samples,
    only metric `index`'s exact integer `total` over them, their `count`, and
    how many of them are `violating` alone; what enters and leaves it is read
    from the store. `width` is min(window_s, retention) in ms: samples older
    than retention are not retained, so no wider window could see them.
    """

    __slots__ = ("bc", "index", "width", "lo", "hi", "total", "count", "violating",
                 "armed", "satisfied_since")

    def __init__(self, bc, index, width):
        self.bc = bc
        self.index = index
        self.width = width
        self.lo = self.hi = inf
        self.total = self.count = self.violating = 0
        self.armed = True
        self.satisfied_since = None

    def violates(self, value):
        """Whether `value`, a window's mean or a value that fills a window
        alone, violates the condition. The mean is a correctly rounded float,
        so a window whose values all lie on one side of the threshold as
        floats has its mean on that side too; as ints they may not (a window
        of 2**53 + 3 has the mean 2**53 + 4)."""
        bc = self.bc
        return float(value) < bc.threshold if bc.bound == "min" else float(value) > bc.threshold

    def count_in(self, value, n=1):
        """Count `n` samples of `value` into the window, or out of it for a
        negative `n`."""
        self.total += n * value
        self.count += n
        if self.violates(value):
            self.violating += n

    def count_stored(self, series, t0, t1, sign):
        """Count `series`' stored samples with t in [t0, t1) into the window
        (`sign` 1) or out of it (-1)."""
        i = self.index - 1  # a template lacks the sample's t
        for _, n, tail in series.pieces(t0, t1):
            self.count_in(tail[i], sign * n)

    def quiet_until(self):
        """The instant before which the alarm state cannot change while the
        subject's samples repeat the newest one every 1000 ms: such samples
        keep every value in the window, and so the mean, on the side it is.
        Armed and all satisfying, or disarmed and all violating, that is
        never; disarmed and all satisfying, it is the re-arm instant."""
        if self.violating == (0 if self.armed else self.count):
            return inf
        if not self.violating:
            return self.satisfied_since + self.bc.window_s * 1000 - 1000
        return -inf


class _Fed(list):
    """A subject's fed boundaries, by bc_id, and its quiet state.

    `last_t` is the t of the subject's newest sample, and `quiet_until` is
    the instant before which no boundary's alarm state can change while that
    sample repeats every 1000 ms. On a subject with one stream, `publish`
    skips `evaluate` for a template that extends its run, so repeats the
    newest sample; a window whose end is at or before `last_t` reads the
    skipped samples from the store when it is next evaluated. A subject with
    more streams is always evaluated.
    """

    __slots__ = ("last_t", "quiet_until")

    def __init__(self):
        super().__init__()
        self.last_t = -inf
        self.reset()

    def reset(self):
        """Forget the quiet state, after the boundaries changed."""
        self.quiet_until = -inf


# sample type -> the fields of its template that name its stream: the app
# and task id, or the node id
_STREAM_KEY_WIDTH = {PhysicalSample: 2, NodeSample: 1}
_LAST_T = itemgetter(1)  # a run's last t


def _check_template(sample_type, tail):
    """Refuse `tail` unless it is a template of `sample_type`: a tuple of
    the sample's fields after `t`."""
    if not isinstance(tail, tuple) or len(tail) != len(sample_type._fields) - 1:
        raise SymplatError("telemetry_error",
                           f"not a {sample_type.__name__} template: {tail!r}")


class _Series:
    """A subject's retained samples, as runs of templates.

    `streams` maps each of its streams, in the order they first published,
    to its deque of runs [first_t, last_t, template]: the samples
    type(t, *template) at t = first_t, first_t + 1000, ..., last_t, in t
    order. `last_t` is the subject's newest t. A sample at or before
    last_t - retention is not retained: a stream drops the runs that end
    there when it opens a run (after the subject's boundaries took out what
    left their windows), and a head run partly there is clipped when read.
    Its length is the number of samples it retains.
    """

    __slots__ = ("subject", "streams", "last_t", "retention_ms")

    def __init__(self, subject, retention_ms):
        self.subject = subject
        self.streams: dict[tuple, deque] = {}
        self.last_t = -inf
        self.retention_ms = retention_ms

    def pieces(self, t0, t1):
        """(t, n, template) for the stored samples with t in [t0, t1), the n
        samples t, t + 1000, ... of one run each, stream by stream and in t
        order within a stream. Samples past retention that are still stored
        are included."""
        for runs in self.streams.values():
            # the runs before the first that ends at or after t0 are not read
            for i in range(bisect.bisect_left(runs, t0, key=_LAST_T), len(runs)):
                first_t, last_t, tail = runs[i]
                if first_t >= t1:
                    break
                if first_t < t0:  # from the run's first sample at or after t0
                    first_t -= (first_t - t0) // 1000 * 1000
                if last_t >= t1:
                    last_t = t1 - 1
                if first_t <= last_t:
                    yield first_t, (last_t - first_t) // 1000 + 1, tail

    def __len__(self):
        return sum(n for _, n, _ in self.pieces(self.last_t - self.retention_ms + 1,
                                                self.last_t + 1))

    def points(self, index, t0, t1):
        """The retained (t, sample[index]) points with t in [t0, t1), in t
        order, and at one t in stream order."""
        out = []
        for t, n, tail in self.pieces(max(t0, self.last_t - self.retention_ms + 1), t1):
            value = tail[index - 1]
            out += [(t + 1000 * k, value) for k in range(n)]
        if len(self.streams) > 1:
            out.sort(key=itemgetter(0))  # stable: stream order at one t
        return out


class MetricBus:
    def __init__(self, retention_s=3600):
        # at least 1 s: a run just opened is never past retention
        self.retention_ms = checked("retention_s", retention_s, least=1) * 1000
        self.series: dict[tuple, _Series] = {}  # subject -> its retained samples
        self.subscriptions: dict[str, Subscription] = {}
        self.boundaries: dict[str, BoundaryCondition] = {}
        self.alarm_log: list[Alarm] = []
        self._sub_seq = {"sub": itertools.count(1), "evsub": itertools.count(1)}
        self._fed: dict[tuple, _Fed] = {}  # subject -> its fed boundaries
        # sample type -> stream key -> (its subject's series, its runs, its
        # subject's fed boundaries, its matching subscriptions); cleared
        # whenever a subscription or boundary comes or goes
        self._routes = {sample_type: {} for sample_type in _SAMPLE_KINDS}
        # (tails, node_tails, t) of the last publish, while it may repeat
        # quietly: it was done in full and no route was cleared since
        self._last = None
        self._plan = None  # the quiet plan of the repeats of the last publish

    def _clear_routes(self):
        for routes in self._routes.values():
            routes.clear()
        self._last = self._plan = None

    def _route(self, sample_type, tail):
        """The route of the stream of `tail`, a template of `sample_type`,
        made and cached. A new stream joins its series when its first run
        opens."""
        _check_template(sample_type, tail)
        kind, message = _SAMPLE_KINDS[sample_type]
        subject = (kind, tail[0])  # both templates: the subject id first
        series = self.series.get(subject)
        if series is None:
            series = self.series[subject] = _Series(subject, self.retention_ms)
        key = tail[:_STREAM_KEY_WIDTH[sample_type]]
        targets = tuple(sub for sub in self.subscriptions.values()
                        if sub.matches(message, subject))
        route = (series, series.streams.get(key, deque()), self._fed.get(subject), targets)
        self._routes[sample_type][key] = route
        return route

    # -- store -------------------------------------------------------------

    def query(self, subject, metric, t0, t1):
        """Retained (t, value) points of `metric` with t in [t0, t1),
        time-ordered, and at one t in the order the subject's streams first
        published; [] for a metric `subject`'s samples lack."""
        if not t0 < t1:
            raise EmptyRange(f"invalid range [{t0}, {t1})")
        series = self.series.get(subject)
        if series is None:
            raise UnknownSubject(f"no samples ever published for {subject}")
        i = _METRIC_INDEX[subject[0]].get(metric)
        if i is None:
            return []
        return series.points(i, t0, t1)

    # -- pub/sub -------------------------------------------------------------

    def subscribe(self, subject_kind=None, subject_id=None, kinds=METRIC_KINDS, outbox=None):
        """New subscription; ids are sub-N, or evsub-N for event subscriptions."""
        prefix = "evsub" if "event" in kinds else "sub"
        sub_id = f"{prefix}-{next(self._sub_seq[prefix])}"
        sub = Subscription(sub_id, kinds, subject_kind, subject_id, outbox=outbox)
        self.subscriptions[sub_id] = sub
        self._clear_routes()
        return sub

    def unsubscribe(self, sub_id):
        if sub_id not in self.subscriptions:
            raise UnknownSubscription(f"no subscription {sub_id}")
        del self.subscriptions[sub_id]
        self._clear_routes()

    def unsubscribe_outbox(self, outbox):
        """End every subscription that delivers into `outbox`."""
        for sub in [s for s in self.subscriptions.values() if s.outbox is outbox]:
            self.unsubscribe(sub.sub_id)

    def fan_out(self, msg, subject):
        """Deliver `msg`, about `subject`, to the matching subscriptions."""
        kind = msg["type"]
        for sub in self.subscriptions.values():
            if sub.matches(kind, subject):
                sub.delivered += 1
                sub.channel.put(msg)

    # -- pipeline --------------------------------------------------------

    def publish(self, t, tails, node_tails):
        """Store the templates of a tick at `t`, `tails` (task templates) then
        `node_tails`, deliver their samples and evaluate their subjects'
        boundaries, in order; returns the alarms raised.

        A template extends its stream's open run when it is that run's
        template and `t` is one tick on; otherwise it opens a run, and only
        then, once its subject's boundaries are evaluated, are the stream's
        runs that end at or before t - retention dropped. A template behind
        its subject's newest t is refused, and so is one of the wrong shape
        when it opens a run. A template's sample is built only when a
        boundary must be evaluated, or when polled from a channel.

        Deliveries are collected per target channel as one `_Samples` batch
        and handed over: before any alarm is fanned out, so a reader sees a
        sample before its alarms, and at the end, also when a template is
        refused, so the samples before it are delivered as if published alone.

        A call with the last call's two objects, one tick on, repeats it
        quietly (see `_publish_quiet`) when that call held each stream once
        and no route was cleared since.
        """
        last = self._last
        if last is not None and last[0] is tails and last[1] is node_tails \
                and t == last[2] + 1000:
            plan = self._plan or self._quiet_plan(tails, node_tails)
            if plan:
                self._last, self._plan = (tails, node_tails, t), plan
                return self._publish_quiet(t, plan)
        self._last = self._plan = None
        retention_ms = self.retention_ms
        new = tuple.__new__
        stamp = (t,)
        pending = {}  # channel -> its deliveries, in order
        alarms = []
        try:
            for sample_type, templates in ((PhysicalSample, tails), (NodeSample, node_tails)):
                routes = self._routes[sample_type]
                key_width = _STREAM_KEY_WIDTH[sample_type]
                for tail in templates:
                    try:
                        series, runs, fed, targets = routes[tail[:key_width]]
                    except (KeyError, TypeError):  # TypeError: no template's key
                        series, runs, fed, targets = self._route(sample_type, tail)
                    if t < series.last_t:
                        raise OutOfOrderSample(
                            f"sample at {t} behind {series.last_t} for {series.subject}")
                    run = runs[-1] if runs else None
                    extends = (run is not None and run[1] == t - 1000
                               and (run[2] is tail or run[2] == tail))
                    if extends:
                        run[1] = t
                    else:
                        _check_template(sample_type, tail)
                        if not runs:  # the stream's first run
                            series.streams[tail[:key_width]] = runs
                        runs.append([t, t, tail])
                    series.last_t = t
                    if targets:
                        pair = (sample_type, tail)
                        for sub in targets:
                            sub.delivered += 1
                            batch = pending.get(sub.channel)
                            if batch is None:
                                pending[sub.channel] = _Samples(t, [pair])
                            else:
                                batch.pairs.append(pair)
                    if fed:
                        # on a one-stream subject, a template that extends
                        # its run repeats the subject's newest sample
                        if t < fed.quiet_until and extends and len(series.streams) == 1:
                            fed.last_t = t
                        else:
                            raised = self.evaluate(new(sample_type, stamp + tail),
                                                   series.subject)
                            if raised:
                                _hand_over(pending)
                                for alarm in raised:
                                    self.fan_out(alarm.to_json(), series.subject)
                                alarms += raised
                    if not extends:
                        # after evaluate: the windows read what they leave
                        horizon = t - retention_ms
                        while runs[0][1] <= horizon:
                            runs.popleft()
        finally:
            _hand_over(pending)
        self._last = (tails, node_tails, t)
        return alarms

    def _quiet_plan(self, tails, node_tails):
        """What `publish` of `tails` and `node_tails`, just published, does
        again one tick on, read from their routes; None if a stream is among
        them twice. The plan holds the open runs and the series they extend;
        for each template of a fed subject, in template order, its position,
        the fed boundaries, whether the subject has one stream, the subject
        and the template; each target channel's (sample type, template)
        pairs in template order and their positions; and each
        subscription's deliveries per tick."""
        runs, series, fed_at, channels, counts = [], {}, [], {}, {}
        for sample_type, templates in ((PhysicalSample, tails), (NodeSample, node_tails)):
            routes = self._routes[sample_type]
            key_width = _STREAM_KEY_WIDTH[sample_type]
            for tail in templates:
                s, stream, fed, targets = routes[tail[:key_width]]
                i = len(runs)
                runs.append(stream[-1])
                series[s] = None
                if fed:
                    fed_at.append((i, fed, len(s.streams) == 1, s.subject, sample_type, tail))
                for sub in targets:
                    counts[sub] = counts.get(sub, 0) + 1
                    positions, pairs = channels.setdefault(sub.channel, ([], []))
                    positions.append(i)
                    pairs.append((sample_type, tail))
        if len(set(map(id, runs))) < len(runs):
            return None
        return runs, list(series), fed_at, list(channels.items()), list(counts.items())

    def _publish_quiet(self, t, plan):
        """`publish` of the last call's templates again, at `t`, one tick on,
        from their `_quiet_plan`: every template extends its stream's open
        run; a fed subject with one stream is evaluated only from its quiet
        instant on; and each target channel is handed its deliveries as one
        batch, split before each alarm fanned out, as the full path splits
        them."""
        runs, series, fed_at, channels, counts = plan
        for run in runs:
            run[1] = t
        for s in series:
            s.last_t = t
        for sub, n in counts:
            sub.delivered += n
        handed = [0] * len(channels)  # per channel: the pairs handed over

        def hand_over(end):
            """Hand over each channel's pairs before position `end`."""
            for k, (channel, (positions, pairs)) in enumerate(channels):
                cut = bisect.bisect_left(positions, end)
                if cut > handed[k]:
                    channel.put(_Samples(t, pairs[handed[k]:cut]))
                    handed[k] = cut

        stamp = (t,)
        alarms = []
        for i, fed, single, subject, sample_type, tail in fed_at:
            if single and t < fed.quiet_until:
                fed.last_t = t
                continue
            raised = self.evaluate(tuple.__new__(sample_type, stamp + tail), subject)
            if raised:
                hand_over(i + 1)
                for alarm in raised:
                    self.fan_out(alarm.to_json(), subject)
                alarms += raised
        hand_over(len(runs))
        return alarms

    # -- analytics ---------------------------------------------------------

    def register_boundary(self, bc):
        """Add `bc`, or replace the boundary with its bc_id and reset its state.

        Its window starts from the samples already retained. A boundary on a
        metric the subject's samples lack is kept but never evaluated."""
        bc.validate()
        if bc.bc_id in self.boundaries:
            self.drop_boundary(bc.bc_id)
        self.boundaries[bc.bc_id] = bc
        index = _METRIC_INDEX[bc.subject[0]].get(bc.metric)
        if index is not None:
            b = _Boundary(bc, index, min(bc.window_s * 1000, self.retention_ms))
            series = self.series.get(bc.subject)
            if series is not None:
                b.lo, b.hi = series.last_t - b.width + 1, series.last_t + 1
                b.count_stored(series, b.lo, b.hi, 1)
            fed = self._fed.setdefault(bc.subject, _Fed())
            bisect.insort(fed, b, key=attrgetter("bc.bc_id"))
            fed.reset()
            self._clear_routes()
        return bc

    def drop_boundary(self, bc_id):
        if bc_id not in self.boundaries:
            raise InvalidBoundary(f"no boundary condition {bc_id}")
        bc = self.boundaries.pop(bc_id)
        # what stays is evaluated as before: the subject's quiet instant is at
        # most each boundary's own, so what publish skips stays safe to skip
        fed = self._fed.get(bc.subject, [])
        fed[:] = [b for b in fed if b.bc is not bc]
        self._clear_routes()

    def evaluate(self, sample, subject):
        """Take `sample`, stored, into the windows of the boundaries on
        `subject`, its subject, and return the alarms they raise, in bc_id
        order.

        A window whose end is at or before the subject's last evaluated or
        skipped t reads the samples `publish` skipped, and this one, from the
        store; any other takes this sample alone. Each window then takes out
        the stored samples at or before t - width, reading them from the
        store, so each windowed mean is as of this sample."""
        alarms = []
        fed = self._fed[subject]
        series = self.series[subject]
        t = sample[0]
        quiet_until = inf
        for b in fed:
            if fed.last_t >= b.hi:  # publish skipped samples since b's last evaluation
                b.count_stored(series, b.hi, t + 1, 1)
            else:
                b.count_in(sample[b.index])
            b.hi = t + 1
            lo = t + 1 - b.width
            if b.lo < lo:
                b.count_stored(series, b.lo, lo, -1)
            b.lo = lo
            bc = b.bc
            # integer sums: equal to sum(values) / len(values) of a rescan
            mean = b.total / b.count
            if b.violates(mean):
                if b.armed:
                    alarm = Alarm(bc_id=bc.bc_id, subject=subject, t=t,
                                  observed=mean, threshold=bc.threshold)
                    alarms.append(alarm)
                    self.alarm_log.append(alarm)
                    b.armed = False
                b.satisfied_since = None
            elif not b.armed:
                if b.satisfied_since is None:
                    b.satisfied_since = t
                # one full window of satisfaction re-arms the condition
                if t - b.satisfied_since + 1000 >= bc.window_s * 1000:
                    b.armed = True
                    b.satisfied_since = None
            quiet_until = min(quiet_until, b.quiet_until())
        fed.last_t = t
        fed.quiet_until = quiet_until
        return alarms


def _hand_over(pending):
    """Put each channel's pending deliveries on it, and forget them."""
    for channel, batch in pending.items():
        channel.put(batch)
    pending.clear()

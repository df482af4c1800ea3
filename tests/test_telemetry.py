import collections
import dataclasses
import os
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from symplat import telemetry
from symplat.core import PlatformCore
from symplat.harness import ScenarioRunner
from symplat.model import (
    ApplicationSpec,
    NodeSample,
    NodeSpec,
    Phase,
    PhysicalSample,
    ResourceVector,
    SymplatError,
)
from symplat.scenario import load_scenario
from symplat.telemetry import (
    BoundaryCondition,
    Channel,
    EmptyRange,
    InvalidBoundary,
    MetricBus,
    OutOfOrderSample,
    UnknownSubject,
    UnknownSubscription,
)

from oracles import alarm_oracle, publish_samples

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def app_sample(t, app_id="app-1", cpu=4, **kw):
    fields = dict(memory_bytes_used=0, fs_bps_used=0, fs_iops_used=0,
                  storage_bytes_used=0, net_in_bps_used=0, net_out_bps_used=0,
                  interproc_bps_used=0)
    fields.update(kw)
    return PhysicalSample(t=t, app_id=app_id, task_id=0, node_id="n01",
                          cpu_cores_used=cpu, **fields)


def sample_batch(*samples):
    """`samples`, all stamped one t, as `publish` hands them to a channel."""
    return telemetry._Samples(samples[0].t, [(type(s), tuple(s)[1:]) for s in samples])


def node_sample(t, node_id="n01", cpu=8):
    return NodeSample(t=t, node_id=node_id, cpu_cores_used=cpu,
                      memory_bytes_used=0, fs_bps_used=0, fs_iops_used=0,
                      storage_bytes_used=0, net_in_bps_used=0, net_out_bps_used=0)


class CountedRuns(collections.deque):
    """A stream's runs that count each run read from them, by index or by
    iteration."""

    def __init__(self, runs):
        super().__init__(runs)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for run in super().__iter__():
            self.reads += 1
            yield run


class TestStore:
    def test_query_half_open_bounds(self):
        bus = MetricBus()
        for t in (0, 1000, 2000, 3000):
            publish_samples(bus, app_sample(t, cpu=t // 1000))
        pts = bus.query(("app", "app-1"), "cpu_cores_used", 1000, 3000)
        assert pts == [(1000, 1), (2000, 2)]

    def test_retention_evicts_old_points(self):
        bus = MetricBus(retention_s=3600)
        for t in range(0, 10_000_000, 1000):  # 10000 samples at 1 Hz
            publish_samples(bus, app_sample(t))
        pts = bus.query(("app", "app-1"), "cpu_cores_used", 0, 10_000_000)
        assert len(pts) == 3600
        assert pts[0][0] == 10_000_000 - 1000 - 3599 * 1000

    @pytest.mark.parametrize("make", [
        lambda retention_s: MetricBus(retention_s=retention_s),
        lambda retention_s: PlatformCore([NodeSpec("n01", ResourceVector(cpu_cores=8))],
                                         retention_s=retention_s),
    ], ids=["bus", "core"])
    @pytest.mark.parametrize("retention_s", [0, -5, 1.5, True, "60"])
    def test_retention_below_one_second_is_refused(self, make, retention_s):
        """A run just opened must never be past retention."""
        with pytest.raises(SymplatError, match="retention_s"):
            make(retention_s)

    def test_one_second_of_retention_keeps_the_newest_sample(self):
        bus = MetricBus(retention_s=1)
        for t in (0, 1000, 1000, 2500):
            publish_samples(bus, node_sample(t, cpu=t))
        assert bus.query(("node", "n01"), "cpu_cores_used", 0, 3000) == [(2500, 2500)]

    def test_a_read_skips_the_runs_before_its_window(self):
        """A storage writer opens a run every tick. A query of its last 5 s,
        and the seed of a 5 s boundary, read the runs there and the probes of
        one bisection, not the 3600 runs before."""
        bus = MetricBus()
        for t in range(0, 3_600_000, 1000):
            publish_samples(bus, app_sample(t, storage_bytes_used=t))
        series = bus.series[("app", "app-1")]
        (key, runs), = series.streams.items()
        assert len(runs) == 3600
        counted = series.streams[key] = CountedRuns(runs)
        assert len(bus.query(("app", "app-1"), "storage_bytes_used",
                             3_595_000, 3_600_000)) == 5
        # 5 runs read, and at most 12 probes: 2**12 > 3600
        assert counted.reads <= 5 + 12
        counted.reads = 0
        bus.register_boundary(BoundaryCondition(
            "bc", ("app", "app-1"), "storage_bytes_used", "max", 0, window_s=5))
        assert counted.reads <= 5 + 12
        assert bus._fed[("app", "app-1")][0].count == 5

    def test_unknown_subject_distinct_from_empty_window(self):
        bus = MetricBus()
        publish_samples(bus, app_sample(5000))
        assert bus.query(("app", "app-1"), "cpu_cores_used", 0, 1000) == []
        with pytest.raises(UnknownSubject):
            bus.query(("app", "ghost"), "cpu_cores_used", 0, 1000)

    def test_empty_range_rejected(self):
        bus = MetricBus()
        publish_samples(bus, app_sample(0))
        with pytest.raises(EmptyRange):
            bus.query(("app", "app-1"), "cpu_cores_used", 1000, 1000)

    def test_out_of_order_rejected(self):
        bus = MetricBus()
        publish_samples(bus, app_sample(2000))
        with pytest.raises(OutOfOrderSample):
            publish_samples(bus, app_sample(1000))
        # equal timestamps are allowed (distinct tasks may share one)
        publish_samples(bus, app_sample(2000))

    def test_read_your_writes(self):
        bus = MetricBus()
        publish_samples(bus, app_sample(0, cpu=7))
        assert bus.query(("app", "app-1"), "cpu_cores_used", 0, 1) == [(0, 7)]

    def test_query_of_a_field_that_is_no_metric_is_empty(self):
        bus = MetricBus()
        publish_samples(bus, app_sample(0, cpu=7))
        publish_samples(bus, node_sample(0))
        for field in ("t", "app_id", "task_id", "node_id"):
            assert bus.query(("app", "app-1"), field, 0, 1) == [], field
        # node samples carry no interprocess traffic
        assert bus.query(("node", "n01"), "interproc_bps_used", 0, 1) == []
        assert bus.query(("node", "n01"), "cpu_cores_used", 0, 1) == [(0, 8)]


class TestSubscriptions:
    def test_fan_out_identical_to_all_matching(self):
        bus = MetricBus()
        s1 = bus.subscribe(subject_kind="app")
        s2 = bus.subscribe(subject_kind="app")
        publish_samples(bus, app_sample(0))
        m1, m2 = s1.poll(), s2.poll()
        assert m1 == m2 and len(m1) == 1 and m1[0]["type"] == "sample"

    def test_filter_by_subject(self):
        bus = MetricBus()
        only_a = bus.subscribe(subject_kind="app", subject_id="app-a")
        publish_samples(bus, app_sample(0, app_id="app-a"))
        publish_samples(bus, app_sample(0, app_id="app-b"))
        publish_samples(bus, node_sample(0))
        msgs = only_a.poll()
        assert [m["app_id"] for m in msgs] == ["app-a"]

    def test_delivery_preserves_publish_order(self):
        bus = MetricBus()
        sub = bus.subscribe()
        for t in range(0, 50_000, 1000):
            publish_samples(bus, app_sample(t))
        msgs = sub.poll()
        assert [m["t"] for m in msgs] == list(range(0, 50_000, 1000))

    def test_backpressure_drops_oldest_with_gap_marker(self, monkeypatch):
        monkeypatch.setattr(telemetry, "CHANNEL_DEPTH", 16)
        bus = MetricBus()
        sub = bus.subscribe()
        for t in range(0, 20_000, 1000):  # 20 messages into a 16-deep channel
            publish_samples(bus, app_sample(t))
        msgs = sub.poll()
        assert msgs[0] == {"type": "gap", "dropped": 4}
        assert [m["t"] for m in msgs[1:]] == list(range(4000, 20_000, 1000))
        # channel drained: next poll has no stale gap marker
        publish_samples(bus, app_sample(20_000))
        assert [m["t"] for m in sub.poll()] == [20_000]

    def test_unsubscribe_stops_delivery(self):
        bus = MetricBus()
        sub = bus.subscribe()
        bus.unsubscribe(sub.sub_id)
        publish_samples(bus, app_sample(0))
        assert sub.poll() == []
        with pytest.raises(UnknownSubscription):
            bus.unsubscribe(sub.sub_id)


class TestChannel:
    def test_mixed_queue_drops_only_oldest_droppable_in_order(self, monkeypatch):
        """Response lines are `str`s; the pushes here are ints."""
        monkeypatch.setattr(telemetry, "CHANNEL_DEPTH", 2)
        ch = Channel()
        ch.put(1)
        ch.put("r1")
        ch.put(2)
        ch.put(3)  # drops 1 from the head
        ch.put("r2")
        ch.put(4)  # drops 2, behind the response r1
        assert ch.poll() == [{"type": "gap", "dropped": 2}, "r1", 3, "r2", 4]
        assert ch.poll() == []

    def test_non_droppable_messages_are_never_dropped(self, monkeypatch):
        monkeypatch.setattr(telemetry, "CHANNEL_DEPTH", 1)
        ch = Channel()
        for i in range(5):
            ch.put(f"r{i}")
        ch.put({"type": "event", "n": 1})
        ch.put({"type": "event", "n": 2})
        assert ch.poll() == [{"type": "gap", "dropped": 1}, "r0", "r1", "r2", "r3", "r4",
                             {"type": "event", "n": 2}]

    @given(depth=st.integers(1, 4),
           rounds=st.lists(st.tuples(st.lists(st.sampled_from(("response", "event", "sample")),
                                              max_size=6),
                                     st.lists(st.booleans(), max_size=8),
                                     st.booleans()),
                           min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_put_many_equals_successive_puts(self, depth, rounds):
        """After any prior mix of response lines, events and samples, and as a
        list that drops the oldest sample, else the oldest message that is no
        response line, after each put. A round puts its batch in one
        `put_many`, each sample a batch of one; or, when `batched`, its
        samples alone as one batch, as `publish` hands over a tick's."""
        # patched in the body: Hypothesis refuses function-scoped fixtures
        with mock.patch.object(telemetry, "CHANNEL_DEPTH", depth):
            one, many = Channel(), Channel()
            reference, dropped = [], 0
            n = 0

            def put(msg):
                nonlocal dropped
                one.put(sample_batch(msg) if isinstance(msg, PhysicalSample) else msg)
                reference.append(msg)
                queued = [i for i, m in enumerate(reference) if not isinstance(m, str)]
                if len(queued) > depth:
                    samples = [i for i in queued if isinstance(reference[i], PhysicalSample)]
                    del reference[(samples or queued)[0]]
                    dropped += 1

            for prior, batch, batched in rounds:
                for kind in prior:
                    msg = {"sample": app_sample(n), "event": n, "response": f"r{n}"}[kind]
                    put(msg)
                    many.put(sample_batch(msg) if kind == "sample" else msg)
                    n += 1
                if batched:
                    batch = [app_sample(n, cpu=i) for i in range(len(batch))]
                    if batch:
                        many.put_many([sample_batch(*batch)])
                else:
                    batch = [app_sample(n + i) if sample else n + i
                             for i, sample in enumerate(batch)]
                    many.put_many([sample_batch(m) if isinstance(m, PhysicalSample) else m
                                   for m in batch])
                n += len(batch)
                for msg in batch:
                    put(msg)
                assert len(many) == len(one) == len(reference)
                assert many._gap == one._gap == dropped
            expected = [{"type": "gap", "dropped": dropped}] if dropped else []
            expected += [{**m._asdict(), "type": "sample"} if isinstance(m, PhysicalSample) else m
                         for m in reference]
            assert many.poll() == one.poll() == expected

    def test_a_drop_trims_the_head_batch(self, monkeypatch):
        """Samples handed over together stay one batch; a drop takes the
        oldest samples from the head batch, past a response line, and the
        whole batch once none of it is left."""
        monkeypatch.setattr(telemetry, "CHANNEL_DEPTH", 4)
        ch = Channel()
        first = [app_sample(0, cpu=i) for i in range(3)]
        second = [app_sample(1000, cpu=i) for i in range(3)]
        head = sample_batch(*first)
        ch.put(head)
        ch.put("r1")
        ch.put_many([sample_batch(*second)])  # two over the depth
        assert (len(ch), ch._gap, len(ch._items)) == (5, 2, 3)
        assert head.pairs == [(PhysicalSample, tuple(first[2])[1:])]
        ch.put(7)  # an event: the head batch's last sample goes
        assert (len(ch), ch._gap, len(ch._items)) == (5, 3, 3)
        assert ch.poll() == [{"type": "gap", "dropped": 3}, "r1",
                             *[{**s._asdict(), "type": "sample"} for s in second], 7]
        assert len(ch) == 0 and ch.poll() == []

    def test_metric_subscriptions_receive_no_events(self):
        bus = MetricBus()
        metrics = bus.subscribe()
        events = bus.subscribe(kinds=("event",))
        bus.fan_out({"type": "event", "event": "Freezing", "app_id": "app-1"}, ("app", "app-1"))
        publish_samples(bus, app_sample(0))
        assert [m["type"] for m in metrics.poll()] == ["sample"]
        assert [m["type"] for m in events.poll()] == ["event"]
        assert (metrics.sub_id, events.sub_id) == ("sub-1", "evsub-1")


class TestMessages:
    """The exact messages a subscriber reads."""

    def test_sample_node_sample_then_its_alarm_in_order(self):
        bus = MetricBus()
        sub = bus.subscribe()
        bus.register_boundary(BoundaryCondition("bc-n", ("node", "n01"), "cpu_cores_used",
                                                "max", 4, 1))
        s, ns = app_sample(0, cpu=3), node_sample(0, cpu=8)
        assert publish_samples(bus, s) == []
        (alarm,) = publish_samples(bus, ns)
        assert sub.poll() == [
            {**s._asdict(), "type": "sample"},
            {**ns._asdict(), "type": "node_sample"},
            {"type": "alarm", "bc_id": "bc-n", "subject": {"kind": "node", "id": "n01"},
             "t": 0, "observed": 8.0, "threshold": 4, "direction": "entered-violation"},
        ]
        assert alarm.to_json() == {"type": "alarm", "bc_id": "bc-n",
                                   "subject": {"kind": "node", "id": "n01"}, "t": 0,
                                   "observed": 8.0, "threshold": 4,
                                   "direction": "entered-violation"}

    def test_gap_marker_comes_first_after_overflow(self, monkeypatch):
        monkeypatch.setattr(telemetry, "CHANNEL_DEPTH", 2)
        bus = MetricBus()
        sub = bus.subscribe()
        samples = [app_sample(t, cpu=t // 1000) for t in range(0, 5000, 1000)]
        for s in samples:
            publish_samples(bus, s)
        assert sub.poll() == [{"type": "gap", "dropped": 3},
                              *({**s._asdict(), "type": "sample"} for s in samples[3:])]

    def test_subscribers_read_equal_and_independent_messages(self):
        bus = MetricBus()
        s1, s2 = bus.subscribe(), bus.subscribe(subject_kind="node")
        ns = node_sample(0)
        publish_samples(bus, ns)
        (m1,), (m2,) = s1.poll(), s2.poll()
        assert m1 == m2 == {**ns._asdict(), "type": "node_sample"}
        m1["cpu_cores_used"] = -1
        assert m2 == {**ns._asdict(), "type": "node_sample"}

    def test_publishing_a_non_sample_is_a_telemetry_error(self):
        bus = MetricBus()
        bus.subscribe()
        tail = tuple(app_sample(0))[1:]
        node_tail = tuple(node_sample(0))[1:]
        for tails, node_tails in (([{"t": 0, "app_id": "app-1"}], []), ([list(tail)], []),
                                  ([tail[:2]], []), ([tuple(app_sample(0))], []),
                                  ([tail + (0,)], []), ([], [node_tail[:-1]]),
                                  ([], [{"node_id": "n01"}]), ([], [list(node_tail)])):
            with pytest.raises(SymplatError) as err:
                bus.publish(0, tails, node_tails)
            assert err.value.code == "telemetry_error"
        assert bus.series == {}

    def test_a_bogus_template_is_refused_when_it_opens_a_run(self):
        bus = MetricBus()
        tail = tuple(app_sample(0))[1:]
        bus.publish(0, [tail], [])
        for bogus in (tail[:2], tail + (0,), list(tail)):
            with pytest.raises(SymplatError) as err:
                bus.publish(1000, [bogus], [])
            assert err.value.code == "telemetry_error"
        assert bus.query(("app", "app-1"), "cpu_cores_used", 0, 5000) == [(0, 4)]
        assert len(bus.series[("app", "app-1")]) == 1


def job(app_id, cores, seconds, tasks=1):
    return ApplicationSpec(
        app_id=app_id, kind="native", image=None, task_count=tasks,
        per_task_reservation=ResourceVector(cpu_cores=cores, memory_bytes=1 << 30),
        walltime_limit_s=3600,
        trace=(Phase(kind="compute", work_amount=cores * seconds,
                     demand=ResourceVector(cpu_cores=cores), progress_at_end=1.0),),
    )


def small_core():
    """Two 8-core nodes and an alarm on n01's cpu above 5 over 2 s."""
    cap = ResourceVector(cpu_cores=8, memory_bytes=16 << 30)
    core = PlatformCore([NodeSpec("n01", cap), NodeSpec("n02", cap)])
    core.handle("register_boundary", {
        "bc_id": "hot-n01", "subject": {"kind": "node", "id": "n01"},
        "metric": "cpu_cores_used", "bound": "max", "threshold": 5, "window_s": 2})
    return core


def submit(core, *specs):
    for spec in specs:
        core.handle("submit", {"spec": spec.to_json()})


class TestSharedChannel:
    """Several subscriptions delivering into one channel, as on one wire
    connection, over ticks that publish many samples at once."""

    def test_order_and_counts_equal_one_publish_per_sample(self):
        core = small_core()
        outbox = Channel()
        node_id = core.handle("subscribe_metrics", {"subject": {"kind": "node"}},
                              outbox=outbox)["subscription_id"]
        all_id = core.handle("subscribe_metrics", {}, outbox=outbox)["subscription_id"]
        submit(core, job("hot", 6, 5), job("pair", 1, 12, tasks=2))
        got, want, samples = [], [], []
        for i in range(30):
            if i == 12:  # after a cool spell long enough to re-arm the boundary
                submit(core, job("hot-again", 6, 4))
            result = core.tick()
            got += outbox.poll()
            samples += [*result.samples, *result.node_samples]
        # one publish per sample: each sample to its subscriptions in sub_id
        # order, then that sample's alarms to theirs
        alarms = {(a.subject, a.t): a for a in core.bus.alarm_log}
        for s in samples:
            if isinstance(s, NodeSample):
                want += [{**s._asdict(), "type": "node_sample"}] * 2
                alarm = alarms.get((("node", s.node_id), s.t))
                if alarm is not None:
                    want += [alarm.to_json()] * 2
            else:
                want.append({**s._asdict(), "type": "sample"})
        assert len(alarms) == 2
        assert got == want
        subs = core.bus.subscriptions
        n_nodes = sum(isinstance(s, NodeSample) for s in samples)
        assert subs[node_id].delivered == n_nodes + 2
        assert subs[all_id].delivered == len(samples) + 2
        assert len(subs[node_id]) == len(subs[all_id]) == 0  # all went to the outbox


class TestDeliveryAccounting:
    """For each channel, its subscriptions' summed `delivered` is the messages
    read from it plus those its gap markers count, over both delivery paths:
    `publish`'s batched hand-over of samples, and `fan_out` of alarms and
    events. The benchmark's traced runs read these as deliveries and drops."""

    @staticmethod
    def read(channel, counts):
        for msg in channel.poll():
            if msg["type"] == "gap":
                counts["dropped"] += msg["dropped"]
            else:
                counts[msg["type"]] += 1

    def check(self, channel, subs, counts):
        delivered = sum(s.delivered for s in subs)
        # as the traced runs read it, without a last poll
        assert delivered == sum(counts.values()) + len(channel) + channel._gap
        self.read(channel, counts)
        assert delivered == sum(counts.values())
        assert counts["dropped"] > 0

    def test_library_subscriptions(self, monkeypatch):
        monkeypatch.setattr(telemetry, "CHANNEL_DEPTH", 5)
        bus = MetricBus()
        bus.register_boundary(BoundaryCondition("hot", ("app", "app-1"), "cpu_cores_used",
                                                "max", 4, 1))
        metrics, events = bus.subscribe(), bus.subscribe(kinds=("event",))
        counts = {sub: collections.Counter() for sub in (metrics, events)}
        for i in range(60):
            publish_samples(bus, *tick(i * 1000, 8 if i % 2 else 1))  # an alarm every other tick
            if i % 3 == 0:
                for event in ("Freezing", "Thawed"):
                    bus.fan_out({"type": "event", "event": event, "app_id": "app-1"},
                                ("app", "app-1"))
            if i % 7 == 0:
                for sub in counts:
                    self.read(sub, counts[sub])
        for sub, sub_counts in counts.items():
            self.check(sub, [sub], sub_counts)
        assert counts[metrics]["alarm"] > 0 and counts[events]["event"] > 0

    def test_subscriptions_into_a_connection_channel(self, monkeypatch):
        monkeypatch.setattr(telemetry, "CHANNEL_DEPTH", 5)
        core = small_core()
        outbox = Channel()
        for op in ("subscribe_metrics", "subscribe_events"):
            core.handle(op, {}, outbox=outbox)
        submit(core, job("hot", 6, 5), job("pair", 1, 12, tasks=2))
        counts = collections.Counter()
        for i in range(30):
            if i % 4 == 0:
                self.read(outbox, counts)
            if 2 <= i < 8:  # a Draining event per app on n01
                core.handle("drain_node", {"node_id": "n01"}, operator=True)
            core.tick()
        subs = [s for s in core.bus.subscriptions.values() if s.channel is outbox]
        assert len(subs) == 2
        self.check(outbox, subs, counts)
        # the ticks' samples are dropped first, so every alarm is read, and
        # every event but one of the six that the drains on ticks 4-7 put
        # beyond a depth of 5 with no sample left to drop
        assert counts["alarm"] == len(core.bus.alarm_log) > 0
        assert (counts["event"], sum(s.delivered for s in subs if s.kinds == ("event",))) == (9, 10)


def tick(t, cpu):
    """One tick's samples: two tasks of app-1, then their node."""
    return app_sample(t, cpu=cpu), app_sample(t, cpu=cpu), node_sample(t, cpu=2 * cpu)


class TestRoutes:
    """A subject's route is kept across publishes and made again when a
    subscription or boundary comes or goes."""

    def test_subscription_made_between_ticks_gets_the_next_tick(self):
        bus = MetricBus()
        publish_samples(bus, *tick(0, 1))
        sub, node_sub = bus.subscribe(), bus.subscribe(subject_kind="node")
        publish_samples(bus, *tick(1000, 1))
        assert [(m["type"], m["t"]) for m in sub.poll()] == \
            [("sample", 1000), ("sample", 1000), ("node_sample", 1000)]
        assert [m["t"] for m in node_sub.poll()] == [1000]
        assert (sub.delivered, node_sub.delivered) == (3, 1)

    def test_unsubscribed_gets_nothing_more(self):
        bus = MetricBus()
        sub, other = bus.subscribe(), bus.subscribe()
        publish_samples(bus, *tick(0, 1))
        bus.unsubscribe(sub.sub_id)
        publish_samples(bus, *tick(1000, 1))
        assert [m["t"] for m in sub.poll()] == [0, 0, 0]
        assert [m["t"] for m in other.poll()] == [0, 0, 0, 1000, 1000, 1000]
        assert (sub.delivered, other.delivered) == (3, 6)

    def test_boundary_registered_between_ticks_alarms_on_the_next(self):
        bus = MetricBus()
        sub = bus.subscribe(kinds=("alarm",))
        assert publish_samples(bus, *tick(0, 9)) == []
        bus.register_boundary(BoundaryCondition("hot", ("node", "n01"), "cpu_cores_used",
                                                "max", 8, 1))
        assert [(a.bc_id, a.t) for a in publish_samples(bus, *tick(1000, 9))] == [("hot", 1000)]
        assert [m["bc_id"] for m in sub.poll()] == ["hot"]

    @pytest.mark.parametrize("drop", [False, True])
    def test_boundary_dropped_between_ticks_stops_alarming(self, drop):
        bus = MetricBus()
        bus.register_boundary(BoundaryCondition("hot", ("app", "app-1"), "cpu_cores_used",
                                                "max", 8, 1))
        fired = publish_samples(bus, *tick(0, 9)) + publish_samples(bus, *tick(1000, 1))  # alarm, re-arm
        assert [a.t for a in fired] == [0]
        if drop:
            bus.drop_boundary("hot")
        assert [a.t for a in publish_samples(bus, *tick(2000, 9))] == ([] if drop else [2000])

    def test_refused_sample_keeps_the_samples_before_it(self):
        bus = MetricBus()
        sub = bus.subscribe()
        publish_samples(bus, app_sample(4000))
        sub.poll()
        a, b, c = app_sample(3000, app_id="app-2"), app_sample(3000), app_sample(3000, app_id="app-3")
        with pytest.raises(OutOfOrderSample):
            bus.publish(3000, [tuple(s)[1:] for s in (a, b, c)], [])
        # as a single publish of `a` would have: stored and delivered
        assert bus.query(("app", "app-2"), "cpu_cores_used", 0, 5000) == [(3000, 4)]
        assert sub.poll() == [{**a._asdict(), "type": "sample"}]
        assert sub.delivered == 2
        # the call stops at `b`
        assert bus.query(("app", "app-1"), "cpu_cores_used", 0, 5000) == [(4000, 4)]
        assert ("app", "app-3") not in bus.series


class TestBoundaryConditions:
    def _bc(self, bound="max", threshold=8, window_s=1, metric="cpu_cores_used"):
        return BoundaryCondition(bc_id="bc-1", subject=("app", "app-1"),
                                 metric=metric, bound=bound, threshold=threshold,
                                 window_s=window_s)

    def test_validation(self):
        with pytest.raises(InvalidBoundary):
            BoundaryCondition("b", ("pod", "x"), "cpu_cores_used", "max", 1, 1).validate()
        with pytest.raises(InvalidBoundary):
            BoundaryCondition("b", ("app", "x"), "warp_factor", "max", 1, 1).validate()
        with pytest.raises(InvalidBoundary):
            BoundaryCondition("b", ("app", "x"), "cpu_cores_used", "max", 1, 0).validate()
        bus = MetricBus()
        for bc_id, subject_id in ((7, "x"), ("b", ["x"])):
            with pytest.raises(InvalidBoundary):
                bus.register_boundary(BoundaryCondition(
                    bc_id, ("app", subject_id), "cpu_cores_used", "max", 1, 1))
        assert bus.boundaries == {}

    def test_edge_triggered_with_rearm_window_one(self):
        # values 4, 9, 9, 4, 9: alarms at the first 9 and again at the last 9
        # (the single 4 in between is a full window of satisfaction)
        bus = MetricBus()
        bus.register_boundary(self._bc(threshold=8, window_s=1))
        fired = []
        for i, v in enumerate([4, 9, 9, 4, 9]):
            fired += publish_samples(bus, app_sample(i * 1000, cpu=v))
        assert [a.t for a in fired] == [1000, 4000]

    def test_window_smooths_spikes(self):
        # window 3: a lone spike to 30 keeps the mean (38/3) under 13
        bus = MetricBus()
        bus.register_boundary(self._bc(threshold=13, window_s=3))
        fired = []
        for i, v in enumerate([4, 4, 30, 4, 4]):
            fired += publish_samples(bus, app_sample(i * 1000, cpu=v))
        assert fired == []
        # three consecutive highs do breach it
        for i, v in enumerate([30, 30, 30], start=5):
            fired += publish_samples(bus, app_sample(i * 1000, cpu=v))
        assert len(fired) == 1

    def test_min_bound(self):
        bus = MetricBus()
        bus.register_boundary(self._bc(bound="min", threshold=2, window_s=1))
        fired = []
        for i, v in enumerate([4, 1, 4]):
            fired += publish_samples(bus, app_sample(i * 1000, cpu=v))
        assert [a.t for a in fired] == [1000]

    def test_alarm_carries_observed_mean_and_subject(self):
        bus = MetricBus()
        bus.register_boundary(self._bc(threshold=8, window_s=2))
        publish_samples(bus, app_sample(0, cpu=10))
        alarms = publish_samples(bus, app_sample(1000, cpu=10))
        # mean of window (−1000, 1000] = 10 > 8, single alarm
        assert len(bus.alarm_log) >= 1
        a = bus.alarm_log[0]
        assert a.subject == ("app", "app-1") and a.observed == 10.0

    def test_dropped_boundary_stops_alarming(self):
        bus = MetricBus()
        bus.register_boundary(self._bc(threshold=8))
        bus.drop_boundary("bc-1")
        assert publish_samples(bus, app_sample(0, cpu=100)) == []
        with pytest.raises(InvalidBoundary):
            bus.drop_boundary("bc-1")

    def test_alarms_fan_out_to_subscribers(self):
        bus = MetricBus()
        sub = bus.subscribe(kinds=("alarm",))
        bus.register_boundary(self._bc(threshold=8))
        publish_samples(bus, app_sample(0, cpu=10))
        msgs = sub.poll()
        assert len(msgs) == 1 and msgs[0]["type"] == "alarm"
        assert msgs[0]["bc_id"] == "bc-1"

    def test_fleet_telemetry_evaluates_at_most_1400_node_samples(self):
        # 32 256 node samples reach the 64 node boundaries, and every one was
        # evaluated before publish skipped those whose alarm state cannot change
        runner = ScenarioRunner(load_scenario(
            os.path.join(ROOT, "perfbench", "inputs", "fleet-telemetry.yaml")))
        bus = runner.core.bus
        evaluated = []
        evaluate = bus.evaluate

        def counted(sample, subject):
            evaluated.append(sample)
            return evaluate(sample, subject)

        bus.evaluate = counted
        runner.run()
        assert len(evaluated) <= 1400
        assert len(bus.alarm_log) == 6

    def test_fleet_telemetry_stores_at_most_650_runs(self):
        # 29 934 retained samples in 601 runs: most templates stand for
        # hundreds of ticks
        runner = ScenarioRunner(load_scenario(
            os.path.join(ROOT, "perfbench", "inputs", "fleet-telemetry.yaml")))
        runner.run()
        series = runner.core.bus.series.values()
        assert sum(len(runs) for s in series for runs in s.streams.values()) <= 650
        assert sum(map(len, series)) == 29_934


class TestBoundedStore:
    def test_a_constant_app_keeps_one_run_per_stream(self):
        """10**5 ticks of one app that never changes: each stream keeps one
        run, and what the bus holds does not grow after 2 * 10**4 ticks."""
        held = []  # bytes allocated in telemetry.py and still held, at each mark
        tracemalloc.start()
        try:
            cap = ResourceVector(cpu_cores=8, memory_bytes=16 << 30)
            core = PlatformCore([NodeSpec("n01", cap)])
            spec = job("steady", 2, 10**6, tasks=2)
            submit(core, dataclasses.replace(spec, walltime_limit_s=10**6))
            for mark in (2 * 10**4, 10**5):
                while core.now < mark * 1000:
                    core.tick()
                held.append(sum(stat.size for stat in tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, telemetry.__file__)]).statistics("filename")))
        finally:
            tracemalloc.stop()
        bus = core.bus
        assert 0 < held[1] <= held[0]
        assert {s: [len(runs) for runs in bus.series[s].streams.values()] for s in bus.series} \
            == {("app", "steady"): [1, 1], ("node", "n01"): [1]}
        assert len(bus.series[("app", "steady")]) == 2 * 3600


def counted_publishes(runner):
    """Run `runner`, counting its bus's publishes and how many were quiet."""
    bus = runner.core.bus
    publish, publish_quiet = bus.publish, bus._publish_quiet
    counts = collections.Counter()

    def counted(*args):
        counts["publish"] += 1
        return publish(*args)

    def counted_quiet(*args):
        counts["quiet"] += 1
        return publish_quiet(*args)

    bus.publish, bus._publish_quiet = counted, counted_quiet
    runner.run()
    return counts


class TestQuietPublish:
    """A tick whose templates all stand still repeats the last publish from
    a plan, and a channel holds the samples of a hand-over as one batch."""

    def test_fleet_telemetry_repeats_most_ticks_in_batches(self):
        runner = ScenarioRunner(load_scenario(
            os.path.join(ROOT, "perfbench", "inputs", "fleet-telemetry.yaml")))
        counts = counted_publishes(runner)
        assert counts["publish"] == 1008 and counts["quiet"] >= 800
        # the script's subscription, never polled
        (sub,) = runner.core.bus.subscriptions.values()
        assert (sub.delivered, sub._gap, len(sub)) == (52_596, 51_572, 1024)
        # one batch per tick its samples span, and one more per alarm that
        # split a tick's: not one item per sample
        batches = [m for m in sub._items if type(m) is telemetry._Samples]
        alarms = len(sub._items) - len(batches)
        span = (batches[-1].t - batches[0].t) // 1000 + 1
        assert alarms == sum(m["type"] == "alarm" for m in sub._items if type(m) is dict)
        assert len(batches) <= span + alarms and span < 40

    def test_a_shipped_scenario_repeats_all_but_a_few_ticks(self):
        runner = ScenarioRunner(load_scenario(os.path.join(ROOT, "scenarios", "io-contention.yaml")),
                                mode_override="symmetric")
        counts = counted_publishes(runner)
        assert counts["publish"] > 300 and counts["quiet"] >= counts["publish"] - 5


def random_stream(rng, n):
    stream = []
    t = 0
    for _ in range(n):
        stream.append((t, rng.randrange(0, 20)))
        t += 1000
    return stream


class TestOracleEquivalence:
    def test_bus_matches_linear_scan_oracle(self):
        rng = random.Random(7)
        for trial in range(100):
            bc = BoundaryCondition(
                bc_id=f"bc-{trial}", subject=("app", "app-1"),
                metric="cpu_cores_used",
                bound=rng.choice(["min", "max"]),
                threshold=rng.randrange(1, 20),
                window_s=rng.randrange(1, 6),
            )
            stream = random_stream(rng, rng.randrange(5, 60))
            bus = MetricBus()
            bus.register_boundary(bc)
            got = []
            for t, v in stream:
                got += [(a.bc_id, a.t) for a in publish_samples(bus, app_sample(t, cpu=v))]
            want = [(bc.bc_id, t) for t in alarm_oracle(stream, bc)]
            assert got == want, f"trial {trial}: {got} != {want}"

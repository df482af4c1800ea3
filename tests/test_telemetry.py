import random

import pytest

from symplat.model import NodeSample, PhysicalSample, SymplatError
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

from oracles import alarm_oracle


def app_sample(t, app_id="app-1", cpu=4, **kw):
    fields = dict(memory_bytes_used=0, fs_bps_used=0, fs_iops_used=0,
                  storage_bytes_used=0, net_in_bps_used=0, net_out_bps_used=0,
                  interproc_bps_used=0)
    fields.update(kw)
    return PhysicalSample(t=t, app_id=app_id, task_id=0, node_id="n01",
                          cpu_cores_used=cpu, **fields)


def node_sample(t, node_id="n01", cpu=8):
    return NodeSample(t=t, node_id=node_id, cpu_cores_used=cpu,
                      memory_bytes_used=0, fs_bps_used=0, fs_iops_used=0,
                      storage_bytes_used=0, net_in_bps_used=0, net_out_bps_used=0)


class TestStore:
    def test_query_half_open_bounds(self):
        bus = MetricBus()
        for t in (0, 1000, 2000, 3000):
            bus.publish(app_sample(t, cpu=t // 1000))
        pts = bus.query(("app", "app-1"), "cpu_cores_used", 1000, 3000)
        assert pts == [(1000, 1), (2000, 2)]

    def test_retention_evicts_old_points(self):
        bus = MetricBus(retention_s=3600)
        for t in range(0, 10_000_000, 1000):  # 10000 samples at 1 Hz
            bus.publish(app_sample(t))
        pts = bus.query(("app", "app-1"), "cpu_cores_used", 0, 10_000_000)
        assert len(pts) == 3600
        assert pts[0][0] == 10_000_000 - 1000 - 3599 * 1000

    def test_unknown_subject_distinct_from_empty_window(self):
        bus = MetricBus()
        bus.publish(app_sample(5000))
        assert bus.query(("app", "app-1"), "cpu_cores_used", 0, 1000) == []
        with pytest.raises(UnknownSubject):
            bus.query(("app", "ghost"), "cpu_cores_used", 0, 1000)

    def test_empty_range_rejected(self):
        bus = MetricBus()
        bus.publish(app_sample(0))
        with pytest.raises(EmptyRange):
            bus.query(("app", "app-1"), "cpu_cores_used", 1000, 1000)

    def test_out_of_order_rejected(self):
        bus = MetricBus()
        bus.publish(app_sample(2000))
        with pytest.raises(OutOfOrderSample):
            bus.publish(app_sample(1000))
        # equal timestamps are allowed (distinct tasks may share one)
        bus.publish(app_sample(2000))

    def test_read_your_writes(self):
        bus = MetricBus()
        bus.publish(app_sample(0, cpu=7))
        assert bus.query(("app", "app-1"), "cpu_cores_used", 0, 1) == [(0, 7)]

    def test_query_of_a_field_that_is_no_metric_is_empty(self):
        bus = MetricBus()
        bus.publish(app_sample(0, cpu=7))
        bus.publish(node_sample(0))
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
        bus.publish(app_sample(0))
        m1, m2 = s1.poll(), s2.poll()
        assert m1 == m2 and len(m1) == 1 and m1[0]["type"] == "sample"

    def test_filter_by_subject(self):
        bus = MetricBus()
        only_a = bus.subscribe(subject_kind="app", subject_id="app-a")
        bus.publish(app_sample(0, app_id="app-a"))
        bus.publish(app_sample(0, app_id="app-b"))
        bus.publish(node_sample(0))
        msgs = only_a.poll()
        assert [m["app_id"] for m in msgs] == ["app-a"]

    def test_delivery_preserves_publish_order(self):
        bus = MetricBus()
        sub = bus.subscribe()
        for t in range(0, 50_000, 1000):
            bus.publish(app_sample(t))
        msgs = sub.poll()
        assert [m["t"] for m in msgs] == list(range(0, 50_000, 1000))

    def test_backpressure_drops_oldest_with_gap_marker(self):
        bus = MetricBus(channel_depth=16)
        sub = bus.subscribe()
        for t in range(0, 20_000, 1000):  # 20 messages into a 16-deep channel
            bus.publish(app_sample(t))
        msgs = sub.poll()
        assert msgs[0] == {"type": "gap", "dropped": 4}
        assert [m["t"] for m in msgs[1:]] == list(range(4000, 20_000, 1000))
        # channel drained: next poll has no stale gap marker
        bus.publish(app_sample(20_000))
        assert [m["t"] for m in sub.poll()] == [20_000]

    def test_unsubscribe_stops_delivery(self):
        bus = MetricBus()
        sub = bus.subscribe()
        bus.unsubscribe(sub.sub_id)
        bus.publish(app_sample(0))
        assert sub.poll() == []
        with pytest.raises(UnknownSubscription):
            bus.unsubscribe(sub.sub_id)


class TestChannel:
    def test_mixed_queue_drops_only_oldest_droppable_in_order(self):
        ch = Channel(depth=2)
        ch.put("p1")
        ch.put("r1", droppable=False)
        ch.put("p2")
        ch.put("p3")  # drops p1 from the head
        ch.put("r2", droppable=False)
        ch.put("p4")  # drops p2, behind the non-droppable r1
        assert ch.poll() == [{"type": "gap", "dropped": 2}, "r1", "p3", "r2", "p4"]
        assert ch.poll() == []

    def test_non_droppable_messages_are_never_dropped(self):
        ch = Channel(depth=1)
        for i in range(5):
            ch.put(i, droppable=False)
        ch.put("p1")
        ch.put("p2")
        assert ch.poll() == [{"type": "gap", "dropped": 1}, 0, 1, 2, 3, 4, "p2"]

    def test_metric_subscriptions_receive_no_events(self):
        bus = MetricBus()
        metrics = bus.subscribe()
        events = bus.subscribe(kinds=("event",))
        bus.fan_out({"type": "event", "event": "Freezing", "app_id": "app-1"}, ("app", "app-1"))
        bus.publish(app_sample(0))
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
        assert bus.publish(s) == []
        (alarm,) = bus.publish(ns)
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

    def test_gap_marker_comes_first_after_overflow(self):
        bus = MetricBus(channel_depth=2)
        sub = bus.subscribe()
        samples = [app_sample(t, cpu=t // 1000) for t in range(0, 5000, 1000)]
        for s in samples:
            bus.publish(s)
        assert sub.poll() == [{"type": "gap", "dropped": 3},
                              *({**s._asdict(), "type": "sample"} for s in samples[3:])]

    def test_subscribers_read_equal_and_independent_messages(self):
        bus = MetricBus()
        s1, s2 = bus.subscribe(), bus.subscribe(subject_kind="node")
        ns = node_sample(0)
        bus.publish(ns)
        (m1,), (m2,) = s1.poll(), s2.poll()
        assert m1 == m2 == {**ns._asdict(), "type": "node_sample"}
        m1["cpu_cores_used"] = -1
        assert m2 == {**ns._asdict(), "type": "node_sample"}

    def test_publishing_a_non_sample_is_a_telemetry_error(self):
        bus = MetricBus()
        bus.subscribe()
        for bogus in ({"t": 0, "app_id": "app-1"}, (0, "app-1"), tuple(app_sample(0))):
            with pytest.raises(SymplatError) as err:
                bus.publish(bogus)
            assert err.value.code == "telemetry_error"
        assert bus.series == {}


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

    def test_edge_triggered_with_rearm_window_one(self):
        # values 4, 9, 9, 4, 9: alarms at the first 9 and again at the last 9
        # (the single 4 in between is a full window of satisfaction)
        bus = MetricBus()
        bus.register_boundary(self._bc(threshold=8, window_s=1))
        fired = []
        for i, v in enumerate([4, 9, 9, 4, 9]):
            fired += bus.publish(app_sample(i * 1000, cpu=v))
        assert [a.t for a in fired] == [1000, 4000]

    def test_window_smooths_spikes(self):
        # window 3: a lone spike to 30 keeps the mean (38/3) under 13
        bus = MetricBus()
        bus.register_boundary(self._bc(threshold=13, window_s=3))
        fired = []
        for i, v in enumerate([4, 4, 30, 4, 4]):
            fired += bus.publish(app_sample(i * 1000, cpu=v))
        assert fired == []
        # three consecutive highs do breach it
        for i, v in enumerate([30, 30, 30], start=5):
            fired += bus.publish(app_sample(i * 1000, cpu=v))
        assert len(fired) == 1

    def test_min_bound(self):
        bus = MetricBus()
        bus.register_boundary(self._bc(bound="min", threshold=2, window_s=1))
        fired = []
        for i, v in enumerate([4, 1, 4]):
            fired += bus.publish(app_sample(i * 1000, cpu=v))
        assert [a.t for a in fired] == [1000]

    def test_alarm_carries_observed_mean_and_subject(self):
        bus = MetricBus()
        bus.register_boundary(self._bc(threshold=8, window_s=2))
        bus.publish(app_sample(0, cpu=10))
        alarms = bus.publish(app_sample(1000, cpu=10))
        # mean of window (−1000, 1000] = 10 > 8, single alarm
        assert len(bus.alarm_log) >= 1
        a = bus.alarm_log[0]
        assert a.subject == ("app", "app-1") and a.observed == 10.0

    def test_dropped_boundary_stops_alarming(self):
        bus = MetricBus()
        bus.register_boundary(self._bc(threshold=8))
        bus.drop_boundary("bc-1")
        assert bus.publish(app_sample(0, cpu=100)) == []
        with pytest.raises(InvalidBoundary):
            bus.drop_boundary("bc-1")

    def test_alarms_fan_out_to_subscribers(self):
        bus = MetricBus()
        sub = bus.subscribe(kinds=("alarm",))
        bus.register_boundary(self._bc(threshold=8))
        bus.publish(app_sample(0, cpu=10))
        msgs = sub.poll()
        assert len(msgs) == 1 and msgs[0]["type"] == "alarm"
        assert msgs[0]["bc_id"] == "bc-1"


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
                got += [(a.bc_id, a.t) for a in bus.publish(app_sample(t, cpu=v))]
            want = [(bc.bc_id, t) for t in alarm_oracle(stream, bc)]
            assert got == want, f"trial {trial}: {got} != {want}"

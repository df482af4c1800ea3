"""Boundary windows against a full rescan of the retained series.

After every publish, the alarms the bus raised and each boundary's alarm
state must equal `oracles.ReferenceBoundaries`, which recomputes every
windowed mean with `oracles.reference_window_mean`. Each case covers a way a
window can start, drop or outlive its points.
"""

import random

from hypothesis import example, given, settings, strategies as st

from symplat.model import NODE_METRICS, SAMPLE_METRICS, NodeSample, PhysicalSample
from symplat.telemetry import BoundaryCondition, MetricBus

from oracles import ReferenceBoundaries, publish_samples


class Harness:
    """A bus and its reference, driven by the same operations."""

    def __init__(self, retention_s=3600):
        self.bus = MetricBus(retention_s=retention_s)
        self.ref = ReferenceBoundaries()
        self.alarms = 0

    def register(self, bc_id, subject, metric="cpu_cores_used", bound="max",
                 threshold=10, window_s=3):
        bc = BoundaryCondition(bc_id=bc_id, subject=subject, metric=metric,
                               bound=bound, threshold=threshold, window_s=window_s)
        self.bus.register_boundary(bc)
        self.ref.register(bc)

    def drop(self, bc_id):
        self.bus.drop_boundary(bc_id)
        self.ref.drop(bc_id)

    def publish(self, sample):
        got = [(a.bc_id, a.subject, a.t, a.observed, a.threshold)
               for a in publish_samples(self.bus, sample)]
        subject = (("app", sample.app_id) if isinstance(sample, PhysicalSample)
                   else ("node", sample.node_id))
        want = self.ref.evaluate(self.bus, sample, subject)
        assert got == want, f"alarms at t={sample.t}"
        fed = {b.bc.bc_id: b for bs in self.bus._fed.values() for b in bs}
        for bc_id, st in self.ref.state.items():
            b = fed.get(bc_id)
            # a boundary on a metric its subject lacks is never fed
            bus_st = (False, None, True) if b is None else (not b.armed, b.satisfied_since, b.armed)
            assert bus_st == st, f"state of {bc_id} at t={sample.t}"
            if b is not None and b.bc.subject == subject and b.hi == sample.t + 1:
                # fed this sample, not skipped it: the sums are those of a rescan
                vals = [v for _, v in self.bus.query(subject, b.bc.metric,
                                                     sample.t - b.width + 1, sample.t + 1)]
                assert (b.total, b.count, b.violating) == \
                    (sum(vals), len(vals), sum(map(b.violates, vals))), f"window of {bc_id}"
        self.alarms += len(got)


def app_sample(t, v, app_id="a1", task_id=0):
    return PhysicalSample(t=t, app_id=app_id, task_id=task_id, node_id="n01",
                          **{m: v for m in SAMPLE_METRICS})


def node_sample(t, v, node_id="n01"):
    return NodeSample(t=t, node_id=node_id, **{m: v for m in NODE_METRICS})


APP = ("app", "a1")
NODE = ("node", "n01")


def values(rng):
    # long runs above and below 10 make alarms fire and re-arm
    level = 0
    while True:
        if rng.random() < 0.15:
            level = rng.choice([0, 20])
        yield level + rng.randrange(0, 10)


def run(h, rng, steps, t=0, gap=lambda rng: 1000, sample=app_sample):
    vals = values(rng)
    for _ in range(steps):
        h.publish(sample(t, next(vals)))
        t += gap(rng)
    return t


def test_window_longer_than_retention():
    rng = random.Random(1)
    h = Harness(retention_s=5)
    h.register("wide", APP, window_s=8)
    h.register("wider", APP, bound="min", threshold=12, window_s=20)
    h.register("inside", APP, window_s=3)
    run(h, rng, 200)
    assert h.alarms >= 5


def test_boundary_registered_after_points_exist():
    rng = random.Random(2)
    h = Harness(retention_s=30)
    t = run(h, rng, 40)
    h.register("late", APP, window_s=10)
    h.register("late-min", APP, bound="min", threshold=14, window_s=4)
    run(h, rng, 150, t=t)
    assert h.alarms >= 5


def test_drop_then_reregister_same_id():
    rng = random.Random(3)
    h = Harness(retention_s=60)
    h.register("bc", APP, window_s=5)
    t = run(h, rng, 50)
    h.drop("bc")
    t = run(h, rng, 20, t=t)
    h.register("bc", APP, window_s=5)
    t = run(h, rng, 50, t=t)
    h.drop("bc")
    h.register("bc", APP, metric="fs_bps_used", bound="min", threshold=12, window_s=9)
    run(h, rng, 80, t=t)
    assert h.alarms >= 5


def test_reregister_live_id():
    rng = random.Random(4)
    h = Harness(retention_s=60)
    h.register("bc", APP, window_s=4)
    t = 0
    for window_s, threshold in ((4, 10), (4, 15), (12, 8), (2, 10)):
        # same id while live: the boundary is replaced and its state reset
        h.register("bc", APP, threshold=threshold, window_s=window_s)
        t = run(h, rng, 40, t=t)
    assert h.alarms >= 5


def test_shared_window_then_one_dropped():
    rng = random.Random(5)
    h = Harness(retention_s=10)
    h.register("a", APP, window_s=6)
    h.register("b", APP, bound="min", threshold=14, window_s=6)
    # wider than retention, so it spans the same points as a 10 s window
    h.register("c", APP, threshold=12, window_s=30)
    h.register("d", APP, threshold=12, window_s=10)
    t = run(h, rng, 60)
    h.drop("a")
    t = run(h, rng, 40, t=t)
    h.drop("d")
    t = run(h, rng, 40, t=t)
    h.register("a", APP, window_s=6)
    run(h, rng, 40, t=t)
    assert h.alarms >= 5


def test_two_tasks_of_one_app_at_the_same_t():
    rng = random.Random(6)
    h = Harness(retention_s=20)
    h.register("bc", APP, window_s=3)
    h.register("bc-min", APP, bound="min", threshold=13, window_s=7)
    vals = values(rng)
    for i in range(150):
        h.publish(app_sample(i * 1000, next(vals), task_id=0))
        h.publish(app_sample(i * 1000, next(vals), task_id=1))
    assert h.alarms >= 5


def test_irregular_timestamp_gaps():
    rng = random.Random(7)
    h = Harness(retention_s=15)
    h.register("short", APP, window_s=2)
    h.register("mid", APP, bound="min", threshold=12, window_s=6)
    h.register("long", APP, window_s=40)
    gap = lambda rng: rng.choice([0, 1, 250, 999, 1000, 1001, 3000, 7000, 16000])
    run(h, rng, 400, gap=gap)
    assert h.alarms >= 5


def test_node_boundary_on_metric_node_samples_lack():
    rng = random.Random(8)
    h = Harness(retention_s=30)
    h.register("interproc", NODE, metric="interproc_bps_used", threshold=0, window_s=1)
    h.register("cpu", NODE, window_s=3)
    run(h, rng, 100, sample=node_sample)
    assert h.alarms >= 3
    assert all(a.bc_id == "cpu" for a in h.bus.alarm_log)
    assert h.ref.state["interproc"] == (False, None, True)


def test_random_operation_mix():
    """Publishes of two apps and a node, mixed with registers, re-registers
    and drops of overlapping boundaries, at irregular times."""
    alarms = 0
    for seed in range(20):
        rng = random.Random(100 + seed)
        h = Harness(retention_s=rng.choice([3, 10, 30]))
        vals = values(rng)
        subjects = [APP, ("app", "a2"), NODE]
        t = 0
        for _ in range(400):
            r = rng.random()
            if r < 0.05:
                # interproc_bps_used is on app samples only
                h.register(f"bc-{rng.randrange(6)}", rng.choice(subjects),
                           metric=rng.choice(["cpu_cores_used", "fs_bps_used", "interproc_bps_used"]),
                           bound=rng.choice(["min", "max"]), threshold=rng.randrange(5, 25),
                           window_s=rng.choice([1, 2, 3, 10, 40]))
            elif r < 0.08 and h.ref.boundaries:
                h.drop(rng.choice(sorted(h.ref.boundaries)))
            else:
                kind, sid = rng.choice(subjects)
                if kind == "app":
                    h.publish(app_sample(t, next(vals), app_id=sid, task_id=rng.randrange(2)))
                else:
                    h.publish(node_sample(t, next(vals), node_id=sid))
                t += rng.choice([0, 0, 500, 1000, 1000, 2500])
        alarms += h.alarms
    assert alarms > 100


def test_each_boundary_feeds_its_own_window_until_dropped():
    h = Harness(retention_s=10)
    h.register("c", APP, window_s=30)
    h.register("a", APP, window_s=6)
    h.register("b", APP, bound="min", window_s=6)
    h.register("n", NODE, metric="interproc_bps_used")
    for t in range(0, 12000, 1000):
        h.publish(app_sample(t, 5))
    fed = h.bus._fed[APP]
    # the samples after the first repeat it, so publish skipped them
    assert all(b.count == 1 for b in fed)
    # a changed sample is evaluated: each window reads the skipped samples
    # and takes out what it leaves
    h.publish(app_sample(12000, 6))
    assert [(b.bc.bc_id, b.width, b.lo, b.hi, b.total, b.count) for b in fed] == [
        ("a", 6000, 6001, 12001, 5 * 5 + 6, 6),
        ("b", 6000, 6001, 12001, 5 * 5 + 6, 6),
        ("c", 10000, 2001, 12001, 9 * 5 + 6, 10),
    ]
    h.drop("a")
    h.drop("c")
    assert [b.bc.bc_id for b in fed] == ["b"]
    h.drop("b")
    assert fed == []
    assert NODE not in h.bus._fed and "n" in h.bus.boundaries


# values and thresholds around a base: at 2**53 and above, neighbouring ints
# round to one float, so a window of values equal to the threshold can still
# have its mean above it (2**53 + 3 reads 2**53 + 4)
BASES = [0, 10, 1000, 2**53 - 2, 2**53, 2**53 + 2, 2**60 + 1]
NEAR = st.integers(-2, 2)
# a stretch often repeats a value of the last one
VALUE = st.integers(-1, 1)

stretch = st.tuples(st.just("stretch"), VALUE, VALUE, st.integers(1, 70),
                    st.sampled_from([1000, 1000, 1000, 2000]), st.booleans())
register = st.tuples(st.just("register"), st.sampled_from(["b1", "b2", "b3"]),
                     st.sampled_from(["cpu_cores_used", "fs_bps_used"]),
                     st.sampled_from(["min", "max"]), NEAR, st.sampled_from([1, 2, 3, 5, 12, 40]))
drop = st.tuples(st.just("drop"), st.sampled_from(["b1", "b2", "b3"]))


@example(base=10, retention_s=30, subject="node", ops=[  # fs alone changes
    ("register", "b1", "cpu_cores_used", "max", 0, 5),
    ("register", "b2", "fs_bps_used", "max", 0, 5),
    ("stretch", -1, -1, 10, 1000, False), ("stretch", -1, 1, 10, 1000, False)])
@example(base=2**53 + 2, retention_s=30, subject="app", ops=[  # every value 2**53 + 3
    ("register", "b1", "cpu_cores_used", "max", 1, 3), ("stretch", 1, 1, 10, 1000, False)])
@given(base=st.sampled_from(BASES), retention_s=st.sampled_from([5, 30, 3600]),
       subject=st.sampled_from(["app", "app-2-tasks", "node"]),
       ops=st.lists(st.one_of(stretch, stretch, register, drop), min_size=1, max_size=30))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_quiet_stretches_match_the_reference(base, retention_s, subject, ops):
    """Constant stretches, one or two seconds apart, with boundaries registered,
    replaced and dropped between them: a stretch that repeats the last values
    goes on quietly across the change. Each stretch's cpu and fs values lie
    near the thresholds; a second task, when there is one, reads the same cpu
    or one more."""
    h = Harness(retention_s=retention_s)
    subj = NODE if subject == "node" else APP
    tasks = 2 if subject == "app-2-tasks" else 1
    t = 0
    for op in ops:
        if op[0] == "stretch":
            _, cpu, fs, length, step, second_differs = op
            cpu, fs = max(0, base + cpu), max(0, base + fs)
            for _ in range(length):
                if subj == NODE:
                    h.publish(NodeSample(t=t, node_id="n01", cpu_cores_used=cpu, fs_bps_used=fs))
                for task_id in range(tasks if subj == APP else 0):
                    extra = task_id if second_differs else 0
                    h.publish(PhysicalSample(t=t, app_id="a1", task_id=task_id, node_id="n01",
                                             cpu_cores_used=cpu + extra, fs_bps_used=fs))
                t += step
        elif op[0] == "register":
            _, bc_id, metric, bound, near, window_s = op
            h.register(bc_id, subj, metric=metric, bound=bound,
                       threshold=max(0, base + near), window_s=window_s)
        elif op[1] in h.ref.boundaries:
            h.drop(op[1])

"""The metric bus's runs of templates against a per-sample reference store.

`oracles.ReferenceStore` keeps one sample per point, as the store did before
it kept runs, and `oracles.ReferenceBoundaries` rescans it for every
windowed mean. Each is fed what the bus is fed: every tick of the report
corpus and of the fleet-telemetry and deep-backlog benchmark inputs, with
boundaries of this test's own on every node and app, and Hypothesis streams
of templates that repeat, change, are re-made equal, write storage every
tick, skip ticks, share a tick or arrive late and are refused. After every
publish the bus must hold what the reference holds: the same subjects, the
same number of retained samples per subject (and no run that its stream's
newest opening put past retention), the same `query` points for
every metric over the tick's trailing window (and over all time and random
windows every `SWEEP` ticks and at the end), and the same alarms.
"""

import os
import random

from hypothesis import given, settings, strategies as st

from genscen import random_scenario
from oracles import ReferenceBoundaries, ReferenceStore
from symplat.harness import ScenarioRunner
from symplat.model import NODE_METRICS, SAMPLE_METRICS, NodeSample, PhysicalSample
from symplat.scenario import load_scenario
from symplat.telemetry import BoundaryCondition, MetricBus, OutOfOrderSample
from test_report_corpus import corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP = 200
# every metric a subject's samples carry, and one they lack
METRICS = {"app": SAMPLE_METRICS + ("app_id",), "node": NODE_METRICS + ("interproc_bps_used",)}


class Mirrored:
    """`bus` with its publishes and boundary changes mirrored on a reference."""

    def __init__(self, bus, seed=0):
        self.bus = bus
        self.store = ReferenceStore(bus.retention_ms // 1000)
        self.boundaries = ReferenceBoundaries()
        self.alarms = []  # the reference's, as (bc_id, subject, t, observed, threshold)
        self.touched = set()  # subjects published since the last check
        self.ticks = 0
        self.rng = random.Random(seed)
        self._publish = bus.publish
        self._register = bus.register_boundary
        self._drop = bus.drop_boundary
        bus.publish, bus.register_boundary, bus.drop_boundary = \
            self.publish, self.register_boundary, self.drop_boundary

    def register_boundary(self, bc):
        out = self._register(bc)
        self.boundaries.register(bc)
        return out

    def drop_boundary(self, bc_id):
        self._drop(bc_id)
        self.boundaries.drop(bc_id)

    def publish(self, t, tails, node_tails):
        """Publish on both; returns whether the bus refused a template."""
        refused = False
        for sample in ([PhysicalSample(t, *tail) for tail in tails]
                       + [NodeSample(t, *tail) for tail in node_tails]):
            subject = self.store.subject(sample)
            if not self.store.store(sample):
                refused = True
                break
            self.touched.add(subject)
            self.alarms += self.boundaries.evaluate(self.store, sample, subject)
        try:
            self._publish(t, tails, node_tails)
        except OutOfOrderSample:
            assert refused, f"refused at {t}"
        else:
            assert not refused, f"not refused at {t}"
        self.check(t)
        return refused

    def check(self, t):
        bus, store = self.bus, self.store
        got = [(a.bc_id, a.subject, a.t, a.observed, a.threshold) for a in bus.alarm_log]
        assert got == self.alarms, f"alarms at {t}"
        assert bus.series.keys() == store.series.keys(), f"subjects at {t}"
        for subject, samples in store.series.items():
            assert len(bus.series[subject]) == len(samples), f"{subject} at {t}"
            # a stream drops what its newest run's opening put past retention
            for runs in bus.series[subject].streams.values():
                assert runs[0][1] > runs[-1][0] - bus.retention_ms, f"{subject} at {t}"
        self.ticks += 1
        sweep = self.ticks % SWEEP == 0
        for subject in store.series if sweep else self.touched:
            windows = [(t - 3000, t + 1000)]  # this tick's points and the three before
            if sweep:
                windows += [(0, t + 1000)] + [sorted(self.rng.sample(range(t + 2000), 2))
                                              for _ in range(2)]
            self.check_queries(subject, windows)
        self.touched.clear()

    def check_queries(self, subject, windows):
        for metric in METRICS[subject[0]]:
            for t0, t1 in windows:
                assert self.bus.query(subject, metric, t0, t1) == \
                    self.store.query(subject, metric, t0, t1), (subject, metric, t0, t1)

    def finish(self):
        """Check every subject over all time and the last minute."""
        for subject, samples in self.store.series.items():
            t = samples[-1][0]
            self.check_queries(subject, [(-1, t + 1000), (t - 60_000, t + 1000)])


def own_boundaries(scenario, rng):
    """Boundaries of this test's own on every node and the first 20 apps of
    `scenario`: cpu above a few cores and fs below a little, over windows of
    1-40 s."""
    subjects = [("node", n.node_id) for n in scenario.nodes]
    subjects += [("app", spec.app_id) for spec, _, _ in scenario.apps][:20]
    out = []
    for i, subject in enumerate(subjects):
        out.append(BoundaryCondition(f"own-cpu-{i}", subject, "cpu_cores_used", "max",
                                     rng.choice([1, 2, 4, 8]), rng.choice([1, 3, 10])))
        out.append(BoundaryCondition(f"own-fs-{i}", subject, "fs_bps_used", "min",
                                     rng.choice([1, 10**6, 10**8]), rng.choice([2, 5, 40])))
    return out


def run_mirrored(name, runner):
    mirrored = Mirrored(runner.core.bus, seed=name)
    if runner.core.mode == "symmetric":
        for bc in own_boundaries(runner.scenario, random.Random(name)):
            runner.core.bus.register_boundary(bc)
    runner.run()
    mirrored.finish()
    return mirrored


def test_every_corpus_tick_matches_the_reference():
    ticks = alarms = 0
    for name, _ in corpus():
        kind, arg = name.split("/")
        if kind == "genscen":
            runner = ScenarioRunner(random_scenario(int(arg)))
        else:
            runner = ScenarioRunner(load_scenario(os.path.join(ROOT, "scenarios", f"{kind}.yaml")),
                                    mode_override=arg)
        mirrored = run_mirrored(name, runner)
        ticks += mirrored.ticks
        alarms += len(mirrored.alarms)
    assert ticks > 1000 and alarms > 30


def test_benchmark_inputs_match_the_reference():
    for name in ("fleet-telemetry", "deep-backlog"):
        runner = ScenarioRunner(load_scenario(
            os.path.join(ROOT, "perfbench", "inputs", f"{name}.yaml")))
        mirrored = run_mirrored(name, runner)
        assert mirrored.ticks > 1000 and mirrored.alarms, name


# Hypothesis streams: two apps (one with two tasks) and two nodes
STREAMS = (("a1", 0), ("a1", 1), ("a2", 0), ("n01",), ("n02",))
# what a stream does on a tick: absent, its template again (the same object,
# or an equal copy), a changed metric, or a storage write
ACTION = st.sampled_from(["absent", "same", "same", "same", "copy", "change", "write"])
DT = st.sampled_from([1000, 1000, 1000, 2000, 0, 500, -1000, -3000])
TICK = st.tuples(st.just("tick"), DT, st.tuples(*[ACTION] * len(STREAMS)), st.integers(0, 3))
# the previous publish's two tuples again, `dt` after it
REPEAT = st.tuples(st.just("repeat"), DT)
REGISTER = st.tuples(st.just("register"), st.sampled_from(["b1", "b2", "b3"]),
                     st.sampled_from([("app", "a1"), ("app", "a2"), ("node", "n01")]),
                     st.sampled_from(["cpu_cores_used", "storage_bytes_used", "interproc_bps_used"]),
                     st.sampled_from(["min", "max"]), st.integers(0, 4),
                     st.sampled_from([1, 2, 5, 30]))
DROP = st.tuples(st.just("drop"), st.sampled_from(["b1", "b2", "b3"]))


def template(stream, cpu, storage):
    if len(stream) == 1:
        return tuple(NodeSample(0, stream[0], cpu_cores_used=cpu, storage_bytes_used=storage))[1:]
    return tuple(PhysicalSample(0, stream[0], stream[1], "n01", cpu_cores_used=cpu,
                                storage_bytes_used=storage))[1:]


@given(retention_s=st.sampled_from([3, 10, 3600]),
       ops=st.lists(st.one_of(TICK, TICK, TICK, REPEAT, REPEAT, REGISTER, DROP),
                    min_size=1, max_size=60))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_template_streams_match_the_reference(retention_s, ops):
    """Each tick passes tuples, as the engine does. A repeat of the previous
    call's tuple objects one tick on, with no template refused and no route
    cleared since that call, takes the quiet path; any other call takes the
    full path, or is refused."""
    mirrored = Mirrored(MetricBus(retention_s=retention_s))
    bus = mirrored.bus
    publish_quiet, clear_routes, quiet = bus._publish_quiet, bus._clear_routes, []

    def counted(t, plan):
        quiet.append(t)
        return publish_quiet(t, plan)

    def cleared():
        nonlocal repeatable
        repeatable = False
        clear_routes()

    bus._publish_quiet, bus._clear_routes = counted, cleared
    state = {s: [0, 0, template(s, 0, 0)] for s in STREAMS}  # cpu, storage, template
    t = 10_000
    previous = None  # (t, tails, node_tails) of the previous publish
    repeatable = False  # whether a repeat of it one tick on is quiet
    for op in ops:
        if op[0] == "repeat":
            if previous is None:
                continue
            t_op, tails, node_tails = previous[0] + op[1], previous[1], previous[2]
            expect_quiet = repeatable and op[1] == 1000
        elif op[0] == "tick":
            _, dt, actions, value = op
            t_op = t + dt
            tails, node_tails = [], []
            for stream, action in zip(STREAMS, actions):
                cpu_storage_tail = state[stream]
                if action == "absent":
                    continue
                if action == "change":
                    cpu_storage_tail[0] = value
                elif action == "write":
                    cpu_storage_tail[1] += 7
                if action != "same":
                    cpu_storage_tail[2] = template(stream, *cpu_storage_tail[:2])
                (node_tails if len(stream) == 1 else tails).append(cpu_storage_tail[2])
            tails, node_tails = tuple(tails), tuple(node_tails)
            # () is one object: a tick of no template repeats one of none
            expect_quiet = (repeatable and t_op == previous[0] + 1000
                            and tails is previous[1] and node_tails is previous[2])
        if op[0] in ("tick", "repeat"):
            calls = len(quiet)
            refused = mirrored.publish(t_op, tails, node_tails)
            assert len(quiet) - calls == expect_quiet, (op, t_op)
            previous, repeatable = (t_op, tails, node_tails), not refused
            t = max(t, t_op)
        elif op[0] == "register":
            _, bc_id, subject, metric, bound, threshold, window_s = op
            bus.register_boundary(BoundaryCondition(bc_id, subject, metric, bound,
                                                    threshold, window_s))
        elif op[1] in bus.boundaries:
            bus.drop_boundary(op[1])
    mirrored.finish()

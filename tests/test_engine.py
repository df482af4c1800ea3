import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from symplat.engine import BEST_EFFORT_DIMS, SimEngine, water_fill
from symplat.harness import ScenarioRunner
from symplat.model import (
    MAX_TASKS,
    ApplicationSpec,
    LogicalStatus,
    NodeSpec,
    Phase,
    PlatformEnvEvent,
    ResourceVector,
)
from symplat.scenario import load_scenario, scenario_from_dict

from oracles import waterfill_oracle

GIB = 1 << 30
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_node(cpu=32, fs=500_000_000, net=1_000_000_000):
    cap = ResourceVector(cpu_cores=cpu, memory_bytes=64 * GIB, fs_bps=fs,
                         net_in_bps=net, net_out_bps=net, fs_iops=100_000,
                         storage_bytes=10**12)
    return [NodeSpec("n01", cap)]


def compute_app(app_id, cores, work, reserved_cores=None, walltime=7200, tasks=1):
    return ApplicationSpec(
        app_id=app_id, kind="container", image="img", task_count=tasks,
        per_task_reservation=ResourceVector(
            cpu_cores=reserved_cores if reserved_cores is not None else cores,
            memory_bytes=GIB),
        walltime_limit_s=walltime,
        trace=(Phase(kind="compute", work_amount=work,
                     demand=ResourceVector(cpu_cores=cores), progress_at_end=1.0),),
    )


def fs_app(app_id, demand_bps, work_bytes, reserved_bps=0, walltime=7200):
    return ApplicationSpec(
        app_id=app_id, kind="container", image="img", task_count=1,
        per_task_reservation=ResourceVector(cpu_cores=1, memory_bytes=GIB,
                                            fs_bps=reserved_bps),
        walltime_limit_s=walltime,
        trace=(Phase(kind="fs_io", work_amount=work_bytes,
                     demand=ResourceVector(fs_bps=demand_bps), progress_at_end=1.0),),
    )


def run_to_completion(engine, app_ids, max_ticks=100_000):
    """Tick until every listed app completes; returns {app_id: completion_tick_s}."""
    finished = {}
    for tick in range(max_ticks):
        result = engine.step_tick(tick * 1000)
        for app_id in result.completions:
            if app_id in app_ids and app_id not in finished:
                finished[app_id] = tick + 1
                engine.remove_app(app_id)
        if set(finished) == set(app_ids):
            return finished
    raise AssertionError(f"apps did not finish: {set(app_ids) - set(finished)}")


class TestWaterFill:
    def test_divisible_split(self):
        assert water_fill(500, [400, 400]) == [250, 250]

    def test_small_demand_saturates_first(self):
        assert water_fill(500, [100, 600]) == [100, 400]

    def test_pool_exceeds_total_demand(self):
        assert water_fill(1000, [100, 200]) == [100, 200]

    def test_remainder_goes_to_earliest(self):
        assert water_fill(10, [7, 7, 7]) == [4, 3, 3]

    @given(st.integers(0, 10**9),
           st.lists(st.integers(0, 10**9), min_size=0, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_oracle(self, pool, demands):
        got = water_fill(pool, demands)
        want = waterfill_oracle(pool, demands)
        assert sum(got) == sum(want) == min(pool, sum(demands))
        assert all(g <= d for g, d in zip(got, demands))
        # integer rounding may move single units between entries, never more
        assert all(abs(g - w) <= 1 for g, w in zip(got, want))

    @given(st.integers(0, 10**6),
           st.lists(st.integers(0, 10**6), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_max_min_fairness(self, pool, demands):
        alloc = water_fill(pool, demands)
        # pairwise: an unsaturated entry is never more than one unit below
        # another entry's allocation (max-min up to integer rounding)
        for i, a in enumerate(alloc):
            if a < demands[i]:
                for b in alloc:
                    assert b <= a + 1


class TestHardDimensions:
    def test_cpu_capped_at_reservation(self):
        engine = SimEngine(one_node())
        spec = compute_app("a", cores=16, work=1600, reserved_cores=4)
        engine.add_app(spec, {0: "n01"}, 0)
        result = engine.step_tick(0)
        assert result.samples[0].cpu_cores_used == 4

    def test_adjusting_event_raises_the_cap(self):
        engine = SimEngine(one_node())
        spec = compute_app("a", cores=16, work=10**9, reserved_cores=4)
        engine.add_app(spec, {0: "n01"}, 0)
        before = engine.step_tick(0).samples[0].cpu_cores_used
        engine.apply_env_event(PlatformEnvEvent(
            event="Adjusting", app_id="a", reason="grant", effective_at=1000,
            detail=ResourceVector(cpu_cores=4)))
        after = engine.step_tick(1000).samples[0].cpu_cores_used
        assert (before, after) == (4, 8)
        work = engine.apps["a"].tasks[0].work_done
        assert work == 4 + 8  # per-tick advance doubled with the cores

    def test_demand_below_reservation_runs_at_demand(self):
        engine = SimEngine(one_node())
        engine.add_app(compute_app("a", cores=2, work=10**9, reserved_cores=8),
                       {0: "n01"}, 0)
        assert engine.step_tick(0).samples[0].cpu_cores_used == 2


class TestContention:
    def test_guarantee_plus_fair_residual(self):
        # one reserved task (100e6) demanding 200e6 alone on a 500e6 node:
        # guarantee 100e6 plus residual share covers the full demand
        engine = SimEngine(one_node())
        engine.add_app(fs_app("a", demand_bps=200_000_000, work_bytes=10**12,
                              reserved_bps=100_000_000), {0: "n01"}, 0)
        assert engine.step_tick(0).samples[0].fs_bps_used == 200_000_000

    def test_unreserved_pair_splits_evenly(self):
        engine = SimEngine(one_node())
        engine.add_app(fs_app("a", 400_000_000, 10**12), {0: "n01"}, 0)
        engine.add_app(fs_app("b", 400_000_000, 10**12), {0: "n01"}, 0)
        result = engine.step_tick(0)
        assert [s.fs_bps_used for s in result.samples] == [250_000_000, 250_000_000]

    def test_reservation_shields_from_contention(self):
        engine = SimEngine(one_node())
        engine.add_app(fs_app("a", 400_000_000, 10**12, reserved_bps=400_000_000),
                       {0: "n01"}, 0)
        engine.add_app(fs_app("b", 400_000_000, 10**12), {0: "n01"}, 0)
        result = engine.step_tick(0)
        assert [s.fs_bps_used for s in result.samples] == [400_000_000, 100_000_000]

    def test_reservations_ignored_without_io_guarantees(self):
        engine = SimEngine(one_node(), io_guarantees=False)
        engine.add_app(fs_app("a", 400_000_000, 10**12, reserved_bps=400_000_000),
                       {0: "n01"}, 0)
        engine.add_app(fs_app("b", 400_000_000, 10**12), {0: "n01"}, 0)
        result = engine.step_tick(0)
        assert [s.fs_bps_used for s in result.samples] == [250_000_000, 250_000_000]

    def test_contention_stretches_runtime_arithmetic(self):
        # 72e9 bytes at 400e6 solo = 180 s; two unreserved apps split 250e6
        # each until the first finishes, then the survivor gets its full demand
        engine = SimEngine(one_node())
        engine.add_app(fs_app("a", 400_000_000, 72_000_000_000), {0: "n01"}, 0)
        solo = run_to_completion(engine, ["a"])
        assert solo["a"] == 180

        engine = SimEngine(one_node())
        engine.add_app(fs_app("a", 400_000_000, 72_000_000_000), {0: "n01"}, 0)
        engine.add_app(fs_app("b", 400_000_000, 72_000_000_000), {0: "n01"}, 0)
        both = run_to_completion(engine, ["a", "b"])
        # split 250e6/250e6 for 288 s drains both at once
        assert both == {"a": 288, "b": 288}

    def test_reserved_tenant_unaffected_by_neighbour(self):
        engine = SimEngine(one_node())
        engine.add_app(fs_app("a", 400_000_000, 72_000_000_000,
                              reserved_bps=400_000_000), {0: "n01"}, 0)
        engine.add_app(fs_app("b", 400_000_000, 72_000_000_000), {0: "n01"}, 0)
        finished = run_to_completion(engine, ["a", "b"])
        assert finished["a"] == 180  # same as running alone
        # b: 100e6 for 180 s (18e9 done), then full 400e6 for the rest
        assert finished["b"] == 180 + (72_000_000_000 - 18_000_000_000) // 400_000_000


class TestFreezeAndDrain:
    def test_frozen_task_rates_zero_progress_flat(self):
        engine = SimEngine(one_node())
        engine.add_app(compute_app("a", cores=4, work=10**9), {0: "n01"}, 0)
        engine.step_tick(0)
        engine.apply_env_event(PlatformEnvEvent(
            event="Freezing", app_id="a", reason="operator", effective_at=1000))
        work_before = engine.apps["a"].tasks[0].work_done
        for tick in range(1, 101):
            result = engine.step_tick(tick * 1000)
            assert result.samples[0].cpu_cores_used == 0
        assert engine.apps["a"].tasks[0].work_done == work_before
        engine.apply_env_event(PlatformEnvEvent(
            event="Thawed", app_id="a", reason="operator", effective_at=101_000))
        assert engine.step_tick(101_000).samples[0].cpu_cores_used == 4

    def test_frozen_demand_releases_contended_share(self):
        engine = SimEngine(one_node())
        engine.add_app(fs_app("a", 400_000_000, 10**12), {0: "n01"}, 0)
        engine.add_app(fs_app("b", 400_000_000, 10**12), {0: "n01"}, 0)
        engine.apply_env_event(PlatformEnvEvent(
            event="Freezing", app_id="a", reason="operator", effective_at=0))
        result = engine.step_tick(0)
        by_app = {s.app_id: s.fs_bps_used for s in result.samples}
        assert by_app == {"a": 0, "b": 400_000_000}

    def test_terminating_removes_app_from_samples(self):
        engine = SimEngine(one_node())
        engine.add_app(compute_app("a", cores=4, work=10**9), {0: "n01"}, 0)
        engine.apply_env_event(PlatformEnvEvent(
            event="Terminating", app_id="a", reason="walltime", effective_at=0))
        result = engine.step_tick(0)
        assert result.samples == []
        assert "a" not in engine.apps


class TestCheckpoints:
    def _checkpointing_app(self):
        return ApplicationSpec(
            app_id="ck", kind="container", image="img", task_count=1,
            per_task_reservation=ResourceVector(cpu_cores=4, memory_bytes=GIB),
            walltime_limit_s=7200,
            trace=(
                Phase(kind="compute", work_amount=40,
                      demand=ResourceVector(cpu_cores=4), progress_at_end=0.5),
                Phase(kind="checkpoint", work_amount=5,
                      demand=ResourceVector(), emits_state="Running",
                      progress_at_end=0.5),
                Phase(kind="compute", work_amount=40,
                      demand=ResourceVector(cpu_cores=4), progress_at_end=1.0),
            ),
        )

    def test_checkpoint_records_time_and_progress(self):
        engine = SimEngine(one_node())
        engine.add_app(self._checkpointing_app(), {0: "n01"}, 0)
        # compute: 40 work at 4/s = 10 ticks; checkpoint: 5 ticks
        for tick in range(15):
            engine.step_tick(tick * 1000)
        app = engine.apps["ck"]
        assert app.last_checkpoint_progress == 0.5
        assert app.last_checkpoint_t == 15_000
        assert app.status.progress == 0.5

    def test_interrupted_checkpoint_leaves_marker_unchanged(self):
        engine = SimEngine(one_node())
        engine.add_app(self._checkpointing_app(), {0: "n01"}, 0)
        for tick in range(12):  # stops 3 ticks into the checkpoint
            engine.step_tick(tick * 1000)
        app = engine.apps["ck"]
        assert app.last_checkpoint_progress == 0.0
        assert app.last_checkpoint_t is None


def error_phase_scenario(mode):
    """One 2-task app "e" whose first phase emits Error at progress 0.5; both
    tasks end it on the tick starting at 1 s."""
    trace = [{"kind": "compute", "work_amount": 8, "demand": {"cpu_cores": 4},
              "emits_state": "Error", "progress_at_end": 0.5},
             {"kind": "compute", "work_amount": 400, "demand": {"cpu_cores": 4}}]
    return scenario_from_dict({
        "schema": 1, "duration_s": 30, "mode": mode,
        "cluster": [{"node_id": "n01", "capacity": {"cpu_cores": 32, "memory_bytes": 64 * GIB}}],
        "images": [{"image_id": "img", "name": "i", "owner": "o", "content_digest": "sha256:0"}],
        "apps": [{"spec": {"app_id": "e", "kind": "container", "image": "img",
                           "task_count": 2, "walltime_limit_s": 600, "trace": trace,
                           "per_task_reservation": {"cpu_cores": 4, "memory_bytes": GIB}}}]})


class TestProgressAndCompletion:
    def test_completion_tick_exact(self):
        engine = SimEngine(one_node())
        engine.add_app(compute_app("a", cores=4, work=40), {0: "n01"}, 0)
        for tick in range(9):
            assert engine.step_tick(tick * 1000).completions == []
        assert engine.step_tick(9000).completions == ["a"]
        assert engine.apps["a"].status.progress == 1.0

    def test_app_progress_is_least_advanced_task(self):
        # two tasks, one throttled by a lower reservation
        spec = ApplicationSpec(
            app_id="p", kind="container", image="img", task_count=2,
            per_task_reservation=ResourceVector(cpu_cores=4, memory_bytes=GIB),
            walltime_limit_s=7200,
            trace=(
                Phase(kind="compute", work_amount=8,
                      demand=ResourceVector(cpu_cores=4), progress_at_end=0.5),
                Phase(kind="compute", work_amount=10**9,
                      demand=ResourceVector(cpu_cores=4), progress_at_end=1.0),
            ),
        )
        engine = SimEngine(one_node())
        engine.add_app(spec, {0: "n01", 1: "n01"}, 0)
        engine.step_tick(0)
        assert engine.apps["p"].status.progress == 0.0
        engine.step_tick(1000)  # both tasks finish phase 1 together
        assert engine.apps["p"].status.progress == 0.5

    def test_storage_overrun_is_an_error(self):
        spec = ApplicationSpec(
            app_id="s", kind="container", image="img", task_count=1,
            per_task_reservation=ResourceVector(cpu_cores=1, memory_bytes=GIB,
                                                fs_bps=100_000_000,
                                                storage_bytes=150_000_000),
            walltime_limit_s=7200,
            trace=(Phase(kind="fs_io", work_amount=10**12,
                         demand=ResourceVector(fs_bps=100_000_000,
                                               storage_bytes=10**12),
                         progress_at_end=1.0),),
        )
        engine = SimEngine(one_node())
        engine.add_app(spec, {0: "n01"}, 0)
        assert engine.step_tick(0).errors == []  # 100e6 written, under 150e6
        result = engine.step_tick(1000)  # 200e6 > 150e6
        assert result.errors == ["s"]
        assert engine.apps["s"].status.state == "Error"

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    def test_an_error_phase_terminates_its_app_one_tick_later(self, mode):
        """Both tasks of "e" end a phase that emits Error on the tick starting
        at 1 s; the platform terminates the app on the next tick."""
        scenario = error_phase_scenario(mode)
        engine = SimEngine(scenario.nodes)
        engine.add_app(scenario.apps[0][0], {0: "n01", 1: "n01"}, 0)
        assert engine.step_tick(0).errors == []
        assert engine.step_tick(1000).errors == ["e"]  # once, for both tasks
        status = engine.apps["e"].status
        assert (status.state, status.updated_at) == ("Error", 2000)
        runner = ScenarioRunner(scenario)
        report = runner.run()
        assert [e for e in report.events if e["type"] == "env_event"] == [
            {"type": "env_event", "event": "Terminating", "app_id": "e",
             "reason": "logical error state", "effective_at": 2000}]
        assert report.summary["e"] == {"outcome": "TerminatedError", "started_at_s": 0,
                                       "finished_at_s": 2, "duration_s": 2}

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    def test_a_status_is_set_once_all_tasks_have_stepped(self, mode):
        """Both tasks end the Error phase on one tick: the status reads their
        progress after the tick, 0.5, not the 0.0 of the second task before
        it stepped."""
        statuses = []

        def watch(core):
            if "e" in core.engine.apps:
                statuses.append(core.engine.apps["e"].status)

        ScenarioRunner(error_phase_scenario(mode)).run(on_tick=watch)
        assert statuses == [LogicalStatus("Running", 0.0, 0), LogicalStatus("Error", 0.5, 2000)]

    def test_a_wide_phase_end_reads_each_task_progress_once(self, monkeypatch):
        """On the tick on which all tasks of a MAX_TASKS-task app end a phase
        together, the app's progress is computed once, not once per task."""
        spec = compute_app("w", cores=1, work=2, tasks=MAX_TASKS)
        engine = SimEngine(one_node(cpu=MAX_TASKS))
        engine.add_app(spec, dict.fromkeys(range(MAX_TASKS), "n01"), 0)
        reads = 0
        progress = SimEngine._task_progress

        def counted(app, task):
            nonlocal reads
            reads += 1
            return progress(app, task)

        monkeypatch.setattr(SimEngine, "_task_progress", staticmethod(counted))
        engine.step_tick(0)
        assert engine.step_tick(1000).completions == ["w"]
        assert engine.apps["w"].status == LogicalStatus("Running", 1.0, 2000)
        assert reads <= 2 * MAX_TASKS

    def test_colocated_net_io_off_the_wire(self):
        spec = ApplicationSpec(
            app_id="n", kind="container", image="img", task_count=2,
            per_task_reservation=ResourceVector(cpu_cores=1, memory_bytes=GIB),
            walltime_limit_s=7200,
            trace=(Phase(kind="net_io", work_amount=10**12,
                         demand=ResourceVector(net_in_bps=500_000_000,
                                               net_out_bps=500_000_000),
                         progress_at_end=1.0),),
        )
        engine = SimEngine(one_node())
        engine.add_app(spec, {0: "n01", 1: "n01"}, 0)
        result = engine.step_tick(0)
        for s in result.samples:
            assert s.net_in_bps_used == 0 and s.net_out_bps_used == 0
            assert s.interproc_bps_used == 500_000_000


class TestEventDrivenEngine:
    """Nodes are re-filled only when one of their inputs changes."""

    def two_nodes(self):
        cap = one_node()[0].capacity
        return [NodeSpec("n01", cap), NodeSpec("n02", cap)]

    def event(self, name, app_id, detail=None):
        return PlatformEnvEvent(event=name, app_id=app_id, reason="test",
                                effective_at=0, detail=detail)

    def test_quiet_ticks_refill_nothing(self):
        engine = SimEngine(self.two_nodes())
        engine.add_app(compute_app("a", cores=4, work=10**9, tasks=2), {0: "n01", 1: "n02"}, 0)
        engine.add_app(fs_app("b", 400_000_000, 10**12), {0: "n02"}, 0)
        engine.step_tick(0)
        assert engine.refills == 2  # both nodes gained tasks
        # a logical status write and a drain change no rate
        engine.set_logical_status("a", LogicalStatus("Idle", 0.5, 1000))
        engine.apply_env_event(self.event("Draining", "b"))
        for tick in range(1, 200):
            result = engine.step_tick(tick * 1000)
            assert [(s.cpu_cores_used, s.fs_bps_used) for s in result.samples] == \
                [(4, 0), (4, 0), (0, 400_000_000)]
        assert engine.refills == 2

    def test_granted_adjust_refills_only_the_apps_nodes(self):
        engine = SimEngine(self.two_nodes())
        engine.add_app(compute_app("a", cores=8, work=10**9, reserved_cores=4),
                       {0: "n01"}, 0)
        engine.add_app(compute_app("b", cores=8, work=10**9, reserved_cores=4),
                       {0: "n02"}, 0)
        engine.step_tick(0)
        refills = engine.refills
        engine.apply_env_event(self.event("Adjusting", "a", ResourceVector(cpu_cores=2)))
        result = engine.step_tick(1000)
        assert engine.refills == refills + 1
        assert [s.cpu_cores_used for s in result.samples] == [6, 4]
        engine.apply_env_event(self.event("Adjusting", "b"))  # nothing granted
        engine.step_tick(2000)
        assert engine.refills == refills + 1

    def test_grant_that_moves_no_guaranteed_rate_refills_no_node(self):
        engine = SimEngine(self.two_nodes())
        # "a" demands 2 of its 4 reserved cores, so a grant up from 4 or down
        # to 2 moves no task's min(demand, reserved)
        engine.add_app(compute_app("a", cores=2, work=10**9, reserved_cores=4, tasks=2),
                       {0: "n01", 1: "n02"}, 0)
        engine.add_app(fs_app("b", 400_000_000, 10**12), {0: "n02"}, 0)
        engine.step_tick(0)
        refills = engine.refills
        before = engine.last_allocations
        for t, delta, cores in ((1000, 3, 7), (2000, -5, 2)):
            engine.apply_env_event(self.event("Adjusting", "a", ResourceVector(cpu_cores=delta)))
            result = engine.step_tick(t)
            assert engine.refills == refills
            assert engine.last_allocations == [
                (a, tid, dim, demand, cores if (a, dim) == ("a", "cpu_cores") else reserved, eff)
                for a, tid, dim, demand, reserved, eff in before]
            assert [(s.cpu_cores_used, s.fs_bps_used) for s in result.samples] == \
                [(2, 0), (2, 0), (0, 400_000_000)]

    def test_kalman_refills_only_on_input_changes(self):
        runner = ScenarioRunner(load_scenario(os.path.join(ROOT, "scenarios", "kalman.yaml")),
                                mode_override="symmetric")
        ticks = 0

        def count(core):
            nonlocal ticks
            ticks += 1

        runner.run(on_tick=count)
        assert ticks == 14401
        assert runner.core.engine.refills <= 10


def random_engine(seed, io_guarantees=True):
    rng = random.Random(seed)
    nodes = one_node(cpu=rng.choice([16, 32]), fs=rng.choice([200, 500]) * 10**6)
    engine = SimEngine(nodes, io_guarantees=io_guarantees)
    for i in range(rng.randint(1, 6)):
        kind = rng.choice(["compute", "fs"])
        if kind == "compute":
            spec = compute_app(f"app-{i}", cores=rng.choice([2, 4, 8]),
                               work=rng.randint(1, 10**6),
                               reserved_cores=rng.choice([2, 4, 8]))
        else:
            spec = fs_app(f"app-{i}", demand_bps=rng.randrange(1, 400_000_000),
                          work_bytes=rng.randint(1, 10**12),
                          reserved_bps=rng.choice([0, 50_000_000, 100_000_000]))
        engine.add_app(spec, {0: "n01"}, 0)
    return engine


class TestEngineProperties:
    def test_conservation_and_guarantee(self):
        for seed in range(40):
            engine = random_engine(seed)
            for tick in range(5):
                engine.step_tick(tick * 1000)
                per_node_dim = {}
                for app_id, task_id, dim, demand, reserved, eff in engine.last_allocations:
                    assert eff <= demand
                    assert eff >= min(demand, reserved), \
                        f"seed {seed}: {app_id} got {eff} < min({demand}, {reserved}) on {dim}"
                    nid = engine.apps[app_id].tasks[task_id].node_id
                    per_node_dim.setdefault((nid, dim), 0)
                    per_node_dim[(nid, dim)] += eff
                for (nid, dim), total in per_node_dim.items():
                    assert total <= getattr(engine.capacity[nid], dim), \
                        f"seed {seed}: node {nid} oversubscribed on {dim}"

    def test_no_guarantees_without_io_reservations(self):
        for seed in range(20):
            engine = random_engine(seed, io_guarantees=False)
            engine.step_tick(0)
            for _, _, dim, demand, _, eff in engine.last_allocations:
                assert eff <= demand

    def test_tick_is_deterministic(self):
        for seed in range(10):
            a, b = random_engine(seed), random_engine(seed)
            for tick in range(10):
                ra, rb = a.step_tick(tick * 1000), b.step_tick(tick * 1000)
                assert [s.to_json() for s in ra.samples] == [s.to_json() for s in rb.samples]
                assert ra.completions == rb.completions

import copy
import os
import random

import pytest

from symplat.harness import ScenarioRunner
from symplat.model import (
    RV_DIMS,
    ApplicationSpec,
    NodeSpec,
    Phase,
    ResourceVector,
    ZERO,
)
from symplat import scheduler
from symplat.scheduler import (
    _ORIGIN,
    AvailabilityProfile,
    InsufficientCapacity,
    NoSuchApp,
    NotActive,
    NativeAppRestriction,
    EmptyRange,
    ReservationScheduler,
)
from symplat.scenario import load_scenario

from oracles import (brute_force_placement, fcfs_starts, plan_intervals,
                     reference_utilization, rv_le)

GIB = 1 << 30
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def two_node_cluster():
    cap = ResourceVector(cpu_cores=16, memory_bytes=64 * GIB, fs_bps=500_000_000,
                         net_in_bps=10**9, net_out_bps=10**9, fs_iops=100_000,
                         storage_bytes=10**12)
    return [NodeSpec("n01", cap), NodeSpec("n02", cap)]


def make_spec(app_id, cores=8, tasks=1, walltime=3600, fs_bps=0, mem=GIB):
    return ApplicationSpec(
        app_id=app_id, kind="container", image="img", task_count=tasks,
        per_task_reservation=ResourceVector(cpu_cores=cores, memory_bytes=mem, fs_bps=fs_bps),
        walltime_limit_s=walltime,
        trace=(Phase(kind="compute", work_amount=cores * walltime,
                     demand=ResourceVector(cpu_cores=cores), progress_at_end=1.0),),
    )


class TestSubmitPlacement:
    def test_two_tasks_pack_on_lowest_node(self):
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("j1", cores=8, tasks=2), now=0)
        plan = sched.plan(0)
        start, placement = plan.planned["j1"]
        assert start == 0
        assert placement == {0: "n01", 1: "n01"}
        # brute force: the first-fit result is feasible and lexicographically smallest
        caps = {n.node_id: n.capacity for n in two_node_cluster()}
        oracle = brute_force_placement(["n01", "n02"], caps,
                                       ResourceVector(cpu_cores=8, memory_bytes=GIB), 2)
        assert placement == oracle

    def test_oversized_task_rejected(self):
        sched = ReservationScheduler(two_node_cluster())
        with pytest.raises(InsufficientCapacity):
            sched.submit(make_spec("big", cores=32), now=0)

    def test_io_dimension_constrains_placement_like_cpu(self):
        # fs_bps allows 2 tasks/node while cpu would allow 4: the split is 2/1
        cap = ResourceVector(cpu_cores=32, memory_bytes=64 * GIB, fs_bps=650_000_000,
                             net_in_bps=10**9, net_out_bps=10**9, fs_iops=100_000,
                             storage_bytes=10**12)
        nodes = [NodeSpec("n01", cap), NodeSpec("n02", cap)]
        sched = ReservationScheduler(nodes)
        sched.submit(make_spec("j", cores=8, tasks=3, fs_bps=300_000_000), now=0)
        _, placement = sched.plan(0).planned["j"]
        assert placement == {0: "n01", 1: "n01", 2: "n02"}
        caps = {n.node_id: n.capacity for n in nodes}
        oracle = brute_force_placement(
            ["n01", "n02"], caps,
            ResourceVector(cpu_cores=8, memory_bytes=GIB, fs_bps=300_000_000), 3)
        assert placement == oracle

    def test_io_reservations_ignored_in_asymmetric_mode(self):
        sched = ReservationScheduler(two_node_cluster(), io_reservations=False)
        # 3 tasks x fs 300e6 would not fit 500e6 nodes symmetrically; here fs is ignored
        sched.submit(make_spec("j", cores=4, tasks=3, fs_bps=300_000_000), now=0)
        _, placement = sched.plan(0).planned["j"]
        assert placement == {0: "n01", 1: "n01", 2: "n01"}


class TestPlanBackfill:
    def test_empty_queue_empty_plan(self):
        sched = ReservationScheduler(two_node_cluster())
        plan = sched.plan(0)
        assert plan.planned == {} and plan.order == []

    def test_backfill_short_job_jumps_blocked_head(self):
        sched = ReservationScheduler(two_node_cluster())
        # J1 holds half of each node for 3600 s
        sched.submit(make_spec("j1", cores=8, tasks=2, walltime=3600), now=0)
        sched.activate_due(0)
        # J2 (head of queue) needs both nodes whole; must wait for J1
        sched.submit(make_spec("j2", cores=16, tasks=2, walltime=3600), now=1000)
        # J3 fits in the idle half and ends before J2's start
        sched.submit(make_spec("j3", cores=8, tasks=1, walltime=600), now=2000)
        plan = sched.plan(2000)
        assert plan.planned["j2"][0] == 3_600_000
        assert plan.planned["j3"][0] == 2000  # backfilled immediately
        # no-delay: J2's start equals its start when planned without J3
        probe = copy.deepcopy(sched)
        probe.cancel("j3", 2000)
        assert probe.plan(2000).planned["j2"][0] == 3_600_000

    def test_backfill_never_delays_earlier_job(self):
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("j1", cores=16, tasks=2, walltime=3600), now=0)
        sched.activate_due(0)
        sched.submit(make_spec("j2", cores=16, tasks=2, walltime=3600), now=1000)
        # a long backfill candidate that would collide with J2's window: must queue behind
        sched.submit(make_spec("j3", cores=8, tasks=1, walltime=7200), now=2000)
        plan = sched.plan(2000)
        assert plan.planned["j2"][0] == 3_600_000
        assert plan.planned["j3"][0] >= 3_600_000 + 3_600_000

    def test_same_timestamp_tie_broken_by_app_id(self):
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("zeta", cores=16, tasks=2), now=0)
        sched.submit(make_spec("alpha", cores=16, tasks=2), now=0)
        plan = sched.plan(0)
        assert plan.order == ["alpha", "zeta"]
        assert plan.planned["alpha"][0] < plan.planned["zeta"][0]
        # submit time comes before app_id
        sched.submit(make_spec("aardvark", cores=16, tasks=2), now=1000)
        assert sched.plan(1000).order == ["alpha", "zeta", "aardvark"]


class TestAdjustment:
    def _active(self, sched, spec, now=0):
        sched.submit(spec, now)
        sched.activate_due(now)
        return sched.reservations[spec.app_id]

    def test_increase_granted_with_free_capacity(self):
        cap = ResourceVector(cpu_cores=256, memory_bytes=256 * GIB, fs_bps=10**9,
                             net_in_bps=10**9, net_out_bps=10**9, fs_iops=10**5,
                             storage_bytes=10**12)
        sched = ReservationScheduler([NodeSpec("n01", cap)])
        self._active(sched, make_spec("amr", cores=64, walltime=7200))
        decision, delta, ext, _ = sched.request_adjustment(
            "amr", ResourceVector(cpu_cores=128), 0, now=1000)
        assert decision == "Granted"
        assert delta.cpu_cores == 128
        assert sched.reservations["amr"].per_task.cpu_cores == 192

    def test_extension_granted_when_nodes_idle_after(self):
        sched = ReservationScheduler(two_node_cluster())
        self._active(sched, make_spec("j", cores=8, walltime=7200))
        decision, _, ext, _ = sched.request_adjustment("j", ZERO, 7200, now=1000)
        assert decision == "Granted" and ext == 7200
        assert sched.reservations["j"].end_t == 14_400_000

    def test_release_granted_and_capacity_freed(self):
        sched = ReservationScheduler(two_node_cluster())
        self._active(sched, make_spec("j", cores=16, tasks=2))  # 16 cores per node
        decision, delta, _, _ = sched.request_adjustment(
            "j", ResourceVector(cpu_cores=-8), 0, now=1000)
        assert decision == "Granted" and delta.cpu_cores == -8
        committed = sched.committed_at(1000)
        assert committed["n01"].cpu_cores == 8
        assert committed["n02"].cpu_cores == 8

    def test_extension_blocked_by_planned_job_partial(self):
        sched = ReservationScheduler(two_node_cluster())
        # j holds half of n01 until 3600 s; longjob holds n02 until 5400 s
        sched.submit(make_spec("j", cores=8, tasks=1, walltime=3600), now=0)
        sched.submit(make_spec("longjob", cores=16, tasks=1, walltime=5400), now=0)
        sched.activate_due(0)
        # blocker needs both nodes whole, so it starts when longjob ends
        sched.submit(make_spec("blocker", cores=16, tasks=2, walltime=3600), now=1000)
        assert sched.plan(1000).planned["blocker"][0] == 5_400_000
        # extending j runs into blocker 1800 s after j's current end
        decision, _, ext, _ = sched.request_adjustment("j", ZERO, 7200, now=2000)
        assert decision == "PartiallyGranted"
        assert ext == 1800

    def test_denied_leaves_plan_identical(self):
        sched = ReservationScheduler(two_node_cluster())
        self._active(sched, make_spec("j", cores=16, tasks=2, walltime=3600))
        sched.submit(make_spec("next", cores=16, tasks=2, walltime=3600), now=1000)
        # a snapshot: the scheduler patches its cached plan in place
        before = {a: s for a, (s, _) in sched.plan(2000).planned.items()}
        decision, delta, ext, _ = sched.request_adjustment(
            "j", ResourceVector(cpu_cores=1), 0, now=2000)
        assert decision == "Denied" and delta == ZERO and ext == 0
        after = {a: s for a, (s, _) in sched.plan(2000).planned.items()}
        assert before == after

    def test_errors(self):
        sched = ReservationScheduler(two_node_cluster())
        with pytest.raises(NoSuchApp):
            sched.request_adjustment("ghost", ResourceVector(cpu_cores=1), 0, 0)
        sched.submit(make_spec("q", cores=8), now=0)
        with pytest.raises(NotActive):
            sched.request_adjustment("q", ResourceVector(cpu_cores=1), 0, 0)

    def test_native_apps_cannot_adjust(self):
        sched = ReservationScheduler(two_node_cluster())
        spec = ApplicationSpec(
            app_id="nat", kind="native", task_count=1,
            per_task_reservation=ResourceVector(cpu_cores=4, memory_bytes=GIB),
            walltime_limit_s=600,
            trace=(Phase(kind="compute", work_amount=100,
                         demand=ResourceVector(cpu_cores=4), progress_at_end=1.0),),
        )
        sched.submit(spec, 0)
        sched.activate_due(0)
        with pytest.raises(NativeAppRestriction):
            sched.request_adjustment("nat", ResourceVector(cpu_cores=1), 0, 1000)

    def test_asymmetric_mode_grants_no_io_increase(self):
        sched = ReservationScheduler(two_node_cluster(), io_reservations=False)
        self._active(sched, make_spec("j", cores=4, fs_bps=100_000_000))
        decision, delta, _, _ = sched.request_adjustment(
            "j", ResourceVector(cpu_cores=4, fs_bps=50_000_000), 0, now=1000)
        assert decision == "PartiallyGranted"
        assert delta == ResourceVector(cpu_cores=4)
        # a reduction of a best-effort dimension is still granted
        decision, delta, _, _ = sched.request_adjustment(
            "j", ResourceVector(fs_bps=-40_000_000), 0, now=2000)
        assert decision == "Granted" and delta == ResourceVector(fs_bps=-40_000_000)
        assert sched.reservations["j"].per_task == ResourceVector(
            cpu_cores=8, memory_bytes=GIB, fs_bps=60_000_000)


class TestWalltime:
    def test_drain_and_terminate_times(self):
        sched = ReservationScheduler(two_node_cluster(), grace_s=60)
        sched.submit(make_spec("j", cores=8, walltime=7200), now=0)
        sched.activate_due(0)
        events = []
        for t in (7_139_000, 7_140_000, 7_199_000, 7_200_000):
            events += sched.enforce_walltime(t)
        assert [(e.event, e.effective_at) for e in events] == [
            ("Draining", 7_140_000), ("Terminating", 7_200_000)]
        assert sched.reservations["j"].status == "TerminatedWalltime"

    def test_completed_job_not_terminated(self):
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("j", cores=8, walltime=7200), now=0)
        sched.activate_due(0)
        sched.finish("j", 6_000_000, "Completed")
        assert sched.enforce_walltime(7_200_000) == []
        assert sched.reservations["j"].status == "Completed"

    def test_extension_reschedules_drain(self):
        sched = ReservationScheduler(two_node_cluster(), grace_s=60)
        sched.submit(make_spec("j", cores=8, walltime=7200), now=0)
        sched.activate_due(0)
        assert [e.event for e in sched.enforce_walltime(7_140_000)] == ["Draining"]
        sched.request_adjustment("j", ZERO, 3600, now=7_140_000)
        assert sched.enforce_walltime(7_200_000) == []
        events = sched.enforce_walltime(10_800_000)
        assert [e.event for e in events] == ["Draining", "Terminating"]


class TestUtilizationReport:
    def test_idle_cluster_all_zero(self):
        sched = ReservationScheduler(two_node_cluster())
        rep = sched.utilization_report(0, 10_000)
        assert all(v == 0.0 for v in rep["cluster"].values())
        assert rep["hollow_core_seconds"] == 0

    def test_single_job_ratio(self):
        cap = ResourceVector(cpu_cores=32, memory_bytes=64 * GIB, fs_bps=10**9,
                             net_in_bps=10**9, net_out_bps=10**9, fs_iops=10**5,
                             storage_bytes=10**12)
        sched = ReservationScheduler([NodeSpec("n01", cap)])
        sched.submit(make_spec("j", cores=8, walltime=100), now=0)
        sched.activate_due(0)
        rep = sched.utilization_report(0, 100_000)
        assert rep["per_node"]["n01"]["cpu_cores"] == pytest.approx(0.25)
        assert rep["cluster"]["cpu_cores"] == pytest.approx(0.25)

    def test_hollow_counts_from_last_checkpoint(self):
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("j", cores=4, walltime=7200), now=0)
        sched.activate_due(0)
        sched.finish("j", 7_200_000, "TerminatedWalltime", last_checkpoint_t=3_600_000)
        rep = sched.utilization_report(0, 7_200_000)
        assert rep["hollow_core_seconds"] == 4 * 3600

    def test_hollow_full_runtime_without_checkpoint(self):
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("j", cores=4, walltime=7200), now=0)
        sched.activate_due(0)
        sched.finish("j", 7_200_000, "TerminatedWalltime", last_checkpoint_t=None)
        rep = sched.utilization_report(0, 7_200_000)
        assert rep["hollow_core_seconds"] == 4 * 7200

    def test_hollow_sums_walltime_kills_each_floored(self):
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("a", cores=1, walltime=7200), now=0)
        sched.submit(make_spec("b", cores=1, walltime=7200), now=0)
        sched.activate_due(0)
        sched.finish("a", 7_200_000, "TerminatedWalltime", last_checkpoint_t=3_600_500)
        sched.finish("b", 7_200_000, "TerminatedWalltime", last_checkpoint_t=500)
        rep = sched.utilization_report(0, 7_200_000)
        assert rep["hollow_core_seconds"] == 3599 + 7199

    def test_hollow_ignores_other_finishes(self):
        sched = ReservationScheduler(two_node_cluster())
        for app_id in ("done", "failed", "cancelled"):
            sched.submit(make_spec(app_id, cores=4, walltime=7200), now=0)
        sched.activate_due(0)
        sched.finish("done", 7_200_000, "Completed")
        sched.finish("failed", 7_200_000, "TerminatedError")
        sched.cancel("cancelled", 7_200_000)
        rep = sched.utilization_report(0, 7_200_000)
        assert rep["hollow_core_seconds"] == 0

    def test_sums_beyond_53_bits_divide_as_the_reference(self):
        # the cluster sum is a float accumulated in node order; an exact int
        # total divides differently once the sums pass 2**53
        rng = random.Random(7)
        cap = ResourceVector(cpu_cores=64, memory_bytes=2**40)
        sched = ReservationScheduler([NodeSpec(f"n{i:02d}", cap) for i in range(4)])
        for i in range(12):
            sched.submit(make_spec(f"j{i}", cores=4, tasks=rng.randint(1, 3),
                                   walltime=rng.randrange(10**4, 10**5),
                                   mem=rng.randrange(2**35, 2**36)), now=0)
        assert len(sched.activate_due(0)) == 12
        for _ in range(200):
            t0 = rng.randrange(10**8)
            t1 = t0 + rng.randrange(1, 10**8)
            assert sched.utilization_report(t0, t1) == reference_utilization(sched, t0, t1)

    def test_empty_range_rejected(self):
        sched = ReservationScheduler(two_node_cluster())
        with pytest.raises(EmptyRange):
            sched.utilization_report(5000, 5000)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a finished reservation still "
                       "counts as committed until the end of its walltime window")
    def test_finished_jobs_commit_no_more_than_the_node(self):
        cap = ResourceVector(cpu_cores=16, memory_bytes=64 * GIB)
        sched = ReservationScheduler([NodeSpec("n01", cap)])
        sched.submit(make_spec("a", cores=16, walltime=3600), now=0)
        sched.submit(make_spec("b", cores=16, walltime=3600), now=0)
        assert sched.activate_due(0) == ["a"]
        sched.finish("a", 100_000, "Completed")
        assert sched.activate_due(100_000) == ["b"]
        sched.finish("b", 200_000, "Completed")
        rep = sched.utilization_report(0, 200_000)
        assert rep["per_node"]["n01"]["cpu_cores"] <= 1


class TestFitCounts:
    def test_a_full_table_starts_over_and_counts_as_a_fresh_one(self):
        need, limit = (2, 0, 3), 5
        table = scheduler._FitCounts(need, limit)
        frees = [(i, i % 7, i // 2) for i in range(scheduler._FIT_TABLE_SIZE + 1000)]
        for free in frees:
            assert table[free] == scheduler._FitCounts(need, limit)[free]
            assert len(table) <= scheduler._FIT_TABLE_SIZE
        assert len(table) == 1000  # emptied once, at the 4097th vector
        assert all(table[free] == scheduler._FitCounts(need, limit)[free] for free in frees)


class TestKeptUsage:
    def test_integral_sums_the_step_function(self):
        profile = AvailabilityProfile([_ORIGIN], [(10, 4)])
        for start, end, usage in ((3, 9, (2, 1)), (5, 20, (4, 0)), (12, 14, (-1, 3))):
            profile.reserve(start, end, usage)
        for t0 in range(0, 22):
            for t1 in range(t0 + 1, 24):
                expected = [sum(profile.min_free(t, t)[k] for t in range(t0, t1)) for k in (0, 1)]
                assert profile.integral(t0, t1) == expected, (t0, t1)

    def test_reports_and_plans_scan_no_placed_reservation(self, monkeypatch):
        """Committed usage is kept, not rebuilt: with 1000 finished, two
        Active and one Frozen reservation, a report makes no `node_usage`
        call, and a plan computation makes one per queued job it places."""
        sched = ReservationScheduler(two_node_cluster())
        now = 0
        for i in range(1000):
            sched.submit(make_spec(f"done-{i:04d}", cores=2, walltime=1), now)
            sched.activate_due(now)
            now += 1000
            sched.finish(f"done-{i:04d}", now, "Completed")  # at its end_t
        for app_id in ("run-a", "run-b", "frozen"):
            sched.submit(make_spec(app_id, cores=8, walltime=600), now)
        assert sched.activate_due(now) == ["frozen", "run-a", "run-b"]
        sched.set_frozen("frozen", True)
        sched.submit(make_spec("wide", cores=16, tasks=2), now)  # waits for the cluster
        calls = []
        real = scheduler.node_usage
        monkeypatch.setattr(scheduler, "node_usage",
                            lambda *args: calls.append(args) or real(*args))
        report = sched.utilization_report(0, now + 1000)
        assert calls == []
        assert report == reference_utilization(sched, 0, now + 1000)
        replans = sched.replans
        assert sched.plan(now).planned["wide"][0] == now + 600_000
        assert sched.replans == replans + 1
        assert len(calls) == 1  # "wide" alone


class TestEventDrivenReplan:
    def test_quiet_ticks_reuse_the_plan(self):
        # one running job fills the cluster, one blocked wide job waits behind it
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("running", cores=16, tasks=2, walltime=3600), now=0)
        sched.activate_due(0)
        sched.submit(make_spec("blocked", cores=16, tasks=2, walltime=3600), now=0)
        sched.plan(0)
        sched.plan(0)  # the first computation promised a start; the second kept it
        replans = sched.replans
        for t in range(1000, 600_000, 1000):  # what each tick and a model read ask for
            assert sched.activate_due(t) == []
            assert sched.enforce_walltime(t) == []
            assert sched.plan(t).planned["blocked"][0] == 3_600_000
        assert sched.replans == replans
        decision, _, _, _ = sched.request_adjustment(
            "running", ResourceVector(cpu_cores=1), 0, 600_000)
        assert decision == "Denied"
        sched.plan(600_000)
        assert sched.replans == replans  # a denial changes no input

    def test_kalman_replans_only_on_input_changes(self):
        runner = ScenarioRunner(load_scenario(os.path.join(ROOT, "scenarios", "kalman.yaml")),
                                mode_override="symmetric")
        ticks = 0

        def count(core):
            nonlocal ticks
            ticks += 1

        runner.run(on_tick=count)
        assert ticks == 14401
        assert runner.core.scheduler.replans <= 10

    def test_changes_that_cannot_move_a_start_keep_the_plan(self):
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("short", cores=8, walltime=600), now=0)
        sched.submit(make_spec("long", cores=12, walltime=3600), now=0)
        sched.submit(make_spec("wide", cores=16, tasks=2, walltime=600), now=0)
        assert sorted(sched.activate_due(0)) == ["long", "short"]
        assert sched.plan(0).planned["wide"][0] == 3_600_000
        replans = sched.replans
        sched.set_frozen("long", True)
        sched.set_frozen("long", False)
        decision, _, ext, _ = sched.request_adjustment(
            "short", ResourceVector(cpu_cores=8), 600, 1000)
        assert (decision, ext) == ("Granted", 600)
        sched.finish("short", 1_200_000, "TerminatedWalltime")  # at its end_t
        assert sched.plan(1_200_000).planned["wide"][0] == 3_600_000
        assert sched.replans == replans
        # a reduction keeps the plan when no queued job fits beside what is left:
        # "wide" needs 16 cores per task, and "long" still holds 8 of n01's 16
        sched.request_adjustment("long", ResourceVector(cpu_cores=-4), 0, 1_200_000)
        assert sched.plan(1_200_000).planned["wide"][0] == 3_600_000
        assert sched.replans == replans

    def test_a_grant_that_frees_no_usable_room_keeps_the_plan(self):
        """A grant that reduces one dimension and raises another, and one that
        reduces and extends, each keep the plan when no queued job fits
        beside the job's new usage: "wide" needs 16 cores per task, and "long"
        holds 12, then 10, of n01's 16."""
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("long", cores=8, walltime=3600, fs_bps=100_000_000), now=0)
        sched.submit(make_spec("other", cores=12, walltime=7200), now=0)
        sched.submit(make_spec("wide", cores=16, tasks=2, walltime=600), now=0)
        assert sched.activate_due(0) == ["long", "other"]
        for now, delta, ext in ((1000, ResourceVector(cpu_cores=4, fs_bps=-50_000_000), 0),
                                (2000, ResourceVector(cpu_cores=-2), 600)):
            plan = sched.plan(now)
            replans = sched.replans
            assert sched.request_adjustment("long", delta, ext, now)[:3] == ("Granted", delta, ext)
            assert sched.plan(now) is plan and sched.replans == replans
            fresh = copy.copy(sched)
            fresh._plan, fresh._promised, fresh._fits = None, dict(sched._promised), {}
            expected = ReservationScheduler.plan(fresh, now)
            assert plan.planned == expected.planned == {"wide": (7_200_000, {0: "n01", 1: "n02"})}
            for nid in sched.node_ids:
                assert [plan.profile[nid].min_free(t, t) for t in range(now, 8_000_000, 100_000)] \
                    == [expected.profile[nid].min_free(t, t) for t in range(now, 8_000_000, 100_000)]

    def test_a_reduction_that_frees_room_for_a_queued_job_replans(self):
        sched = ReservationScheduler(two_node_cluster())
        sched.submit(make_spec("a", cores=12, walltime=3600), now=0)
        sched.submit(make_spec("b", cores=12, walltime=3600), now=0)
        sched.submit(make_spec("small", cores=8, walltime=600), now=0)
        assert sched.activate_due(0) == ["a", "b"]
        assert sched.plan(0).planned["small"][0] == 3_600_000
        replans = sched.replans
        # "b" keeps 8 of n02's 16 cores: "small" fits beside it and starts at once
        decision, _, _, _ = sched.request_adjustment("b", ResourceVector(cpu_cores=-4), 0, 60_000)
        assert decision == "Granted"
        assert sched.plan(60_000).planned["small"] == (60_000, {0: "n02"})
        assert sched.replans == replans + 1

    def test_deep_backlog_computes_at_most_22_plans(self):
        # 44 when every activation, grant, freeze and renewed promise replanned
        path = os.path.join(ROOT, "perfbench", "inputs", "deep-backlog.yaml")
        runner = ScenarioRunner(load_scenario(path))
        runner.run()
        assert runner.core.scheduler.replans <= 22


def random_queue(rng, sched, n_jobs):
    t = 0
    for i in range(n_jobs):
        cores = rng.choice([4, 8, 16])
        tasks = rng.randint(1, 2)
        wall = rng.choice([600, 1800, 3600])
        try:
            sched.submit(make_spec(f"job-{i:03d}", cores=cores, tasks=tasks, walltime=wall), t)
        except InsufficientCapacity:
            pass
        t += rng.choice([0, 1000])


class TestSchedulerProperties:
    def test_plan_capacity_safety_sweep(self):
        rng = random.Random(1)
        for trial in range(50):
            sched = ReservationScheduler(two_node_cluster())
            random_queue(rng, sched, rng.randint(1, 10))
            sched.activate_due(0)
            timelines = plan_intervals(sched, sched.plan(0))
            boundaries = sorted({start for ivs in timelines.values() for start, _, _ in ivs})
            for nid, ivs in timelines.items():
                cap = sched.capacity[nid]
                for t in boundaries:
                    used = ZERO
                    for start, end, usage in ivs:
                        if start <= t < end:
                            used = used.add(usage)
                    assert rv_le(used, cap), f"trial {trial}: node {nid} over capacity at {t}"

    def test_backfill_no_delay_vs_pure_fcfs(self):
        rng = random.Random(2)
        for trial in range(50):
            sched = ReservationScheduler(two_node_cluster())
            random_queue(rng, sched, rng.randint(2, 10))
            backfill = sched.plan(0)
            fcfs = fcfs_starts(sched, 0)
            for app_id in backfill.order:
                assert backfill.planned[app_id][0] <= fcfs[app_id]

    def test_conservative_prefix_stability(self):
        # planning any prefix of the queue gives the same starts as the full plan
        rng = random.Random(3)
        for trial in range(30):
            sched = ReservationScheduler(two_node_cluster())
            random_queue(rng, sched, rng.randint(2, 8))
            full = sched.plan(0)
            order = full.order
            for k in range(1, len(order)):
                probe = copy.deepcopy(sched)
                for app_id in order[k:]:
                    probe.cancel(app_id, 0)
                partial = probe.plan(0)
                for app_id in order[:k]:
                    assert partial.planned[app_id][0] == full.planned[app_id][0], \
                        f"trial {trial}: job {app_id} delayed by later arrivals"

    def test_release_never_delays_others(self):
        rng = random.Random(4)
        for trial in range(30):
            sched = ReservationScheduler(two_node_cluster())
            sched.submit(make_spec("base", cores=8, tasks=2, walltime=3600), 0)
            sched.activate_due(0)
            random_queue(rng, sched, rng.randint(1, 6))
            # a snapshot: the scheduler patches its cached plan in place
            before = {a: s for a, (s, _) in sched.plan(1000).planned.items()}
            sched.request_adjustment("base", ResourceVector(cpu_cores=-4), 0, 1000)
            after = sched.plan(1000)
            for app_id, start in before.items():
                assert after.planned[app_id][0] <= start

    def test_adjustment_soundness(self):
        rng = random.Random(5)
        for trial in range(30):
            sched = ReservationScheduler(two_node_cluster())
            sched.submit(make_spec("base", cores=8, tasks=1, walltime=3600), 0)
            sched.activate_due(0)
            random_queue(rng, sched, rng.randint(1, 5))
            delta = ResourceVector(cpu_cores=rng.choice([-4, 4, 16]),
                                   fs_bps=rng.choice([0, 200_000_000]))
            decision, granted, ext, _ = sched.request_adjustment(
                "base", delta, rng.choice([0, 600]), 1000)
            for d in RV_DIMS:
                assert abs(getattr(granted, d)) <= abs(getattr(delta, d))
            timelines = plan_intervals(sched, sched.plan(1000))
            boundaries = sorted({start for ivs in timelines.values() for start, _, _ in ivs})
            for nid, ivs in timelines.items():
                for t in boundaries:
                    used = ZERO
                    for start, end, usage in ivs:
                        if start <= t < end:
                            used = used.add(usage)
                    assert rv_le(used, sched.capacity[nid])

    def test_plan_deterministic(self):
        rng = random.Random(6)
        sched1 = ReservationScheduler(two_node_cluster())
        random_queue(rng, sched1, 8)
        rng = random.Random(6)
        sched2 = ReservationScheduler(two_node_cluster())
        random_queue(rng, sched2, 8)
        assert sched1.plan(0).planned == sched2.plan(0).planned

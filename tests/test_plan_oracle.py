"""The scheduler's plan equals the original interval-rescan planner.

`oracles.reference_plan` is the planner as it was before availability
profiles and cached plans. (a) compares the two on random histories of
submits, activations, releases, grows, extensions, cancels, completions and
freezes, with promises made at one instant and broken at a later one; (b)
compares them after every tick of the report corpus, which guards the cache
of the current plan. Both also compare the plan's availability profiles from
`now` on with those of a fresh computation, which guards the profiles that a
kept plan carries forward (a grant patches them in place of a recomputation).
(c) checks on the random histories that a computation which renewed a
promise and pinned no job is its own fixed point, which is why it is kept.
(d) repeats (a) on grow-heavy histories, whose grants reduce nothing, the
case in which a grant keeps the plan, and on the platform's runs of large
generated scenarios, which reach grants on a plan that pinned a job; (a)
itself counts the grants that reduce some dimension and kept the plan, pure
reductions and those that also raise or extend, which it must reach. (e)
compares `utilization_report` over random windows, and again over the
previous one, with `oracles.reference_utilization` on histories like (a)'s.
(f) checks that a run checked on every tick is the run the platform makes
alone: the checks read the plan off a copy.
Every random history and every corpus tick also compares the committed usage
the scheduler keeps, `_active` and `_ledger`, with rebuilds from scratch, and
every step of a random history checks that no node is overcommitted from
`now` on.
"""

import copy
import os
import random
from bisect import bisect_right

import pytest

from genscen import random_scenario
from oracles import (reference_active_profile, reference_ledger, reference_plan,
                     reference_utilization)
from symplat.harness import ScenarioRunner
from symplat.model import ApplicationSpec, NodeSpec, Phase, ResourceVector
from symplat.scenario import load_scenario
from symplat.scheduler import _ORIGIN, InsufficientCapacity, ReservationScheduler

GIB = 1 << 30
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fresh_copy(sched):
    """A copy of `sched` with no cached plan, no fit tables and an active
    profile rebuilt from `live`, on which `ReservationScheduler.plan`
    computes from scratch. A computation writes only the promises, the cached
    plan, the fit tables and the counter, so the copy holds its own of those
    and shares the rest."""
    fresh = copy.copy(sched)
    fresh._promised = dict(sched._promised)
    fresh._plan = None
    fresh._fits = {}
    fresh._active = reference_active_profile(sched)
    return fresh


def kept_copy(sched):
    """A copy of `sched` that keeps its cached plan, on which `plan` finds
    what `sched.plan` would and leaves `sched` as it was. A computation
    writes only the promises, the cached plan, the fit tables and the
    counter, so the copy holds its own of those and shares the rest."""
    kept = copy.copy(sched)
    kept._promised = dict(sched._promised)
    kept._fits = copy.deepcopy(sched._fits)
    return kept


def steps_from(profile, now):
    """The step function of `profile` over [now, inf) as [(t, free)], with
    no two neighbours equal."""
    i = bisect_right(profile.times, now) - 1
    steps = [(now, tuple(profile.free[i]))]
    for t, free in zip(profile.times[i + 1:], profile.free[i + 1:]):
        if tuple(free) != steps[-1][1]:
            steps.append((t, tuple(free)))
    return steps


def assert_kept_usage(sched, context):
    """The kept profiles equal their rebuilds over all time."""
    for kept, rebuilt in ((sched._active, reference_active_profile(sched)),
                          (sched._ledger, reference_ledger(sched))):
        for nid in sched.node_ids:
            assert steps_from(kept[nid], _ORIGIN) == steps_from(rebuilt[nid], _ORIGIN), \
                f"{context}: {nid}"


def assert_no_overcommit(sched, now, context):
    """No node's committed usage exceeds its capacity from `now` on."""
    for nid in sched.node_ids:
        for t, free in steps_from(sched._active[nid], now):
            assert min(free) >= 0, f"{context}: {nid} overcommitted at {t}"


def assert_same_plan(sched, now, context):
    """`sched`'s plan at `now` equals the reference's, and its profiles a
    fresh computation's. A computation may renew promises, so the plan is
    read off a copy that keeps the cached plan: the checked scheduler goes
    on as it would unchecked."""
    expected = reference_plan(sched, now)
    fresh = ReservationScheduler.plan(fresh_copy(sched), now)
    got = kept_copy(sched).plan(now)
    assert got.order == expected.order, context
    assert got.planned == expected.planned, context
    for nid in sched.node_ids:
        assert steps_from(got.profile[nid], now) == steps_from(fresh.profile[nid], now), \
            f"{context}: profile of {nid}"


def random_nodes(rng):
    nodes = []
    for i in range(rng.randint(1, 3)):
        cap = ResourceVector(cpu_cores=rng.choice([8, 16]), memory_bytes=32 * GIB,
                             fs_bps=rng.choice([400, 1000]) * 10**6,
                             net_in_bps=10**9, net_out_bps=10**9, fs_iops=10**5,
                             storage_bytes=10**12)
        nodes.append(NodeSpec(f"n{i:02d}", cap))
    return nodes


def random_spec(rng, app_id):
    cores = rng.choice([2, 4, 8])
    return ApplicationSpec(
        app_id=app_id, kind="container", image="img", task_count=rng.randint(1, 3),
        per_task_reservation=ResourceVector(cpu_cores=cores, memory_bytes=GIB,
                                            fs_bps=rng.choice([0, 100, 300]) * 10**6),
        walltime_limit_s=rng.choice([60, 300, 900]),
        trace=(Phase(kind="compute", work_amount=cores, demand=ResourceVector(cpu_cores=cores),
                     progress_at_end=1.0),),
    )


def random_adjust(rng, sched, active, now, grow=False):
    """Adjust a random Active job; with `grow`, by a delta with no negative
    component."""
    cpu, fs = ((0, 2, 4, 8), (0, 0, 100 * 10**6, 200 * 10**6)) if grow else (
        (-4, -2, 2, 8), (0, 0, -100 * 10**6, 200 * 10**6))
    delta = ResourceVector(cpu_cores=rng.choice(cpu), fs_bps=rng.choice(fs))
    ext = rng.choice([0, 0, 60, 600])
    if delta.is_zero() and ext == 0:
        ext = 60
    sched.request_adjustment(rng.choice(active), delta, ext, now)


def random_step(rng, sched, now, serial, grow=False):
    """Apply one random scheduler operation at `now`; with `grow`, its
    adjusts reduce nothing."""
    live = sorted(a for a, r in sched.reservations.items()
                  if r.status in ("Queued", "Active", "Frozen"))
    active = [a for a in live if sched.reservations[a].status == "Active"]
    roll = rng.random()
    if roll < 0.4 or not live:
        try:
            sched.submit(random_spec(rng, f"job-{serial:03d}"), now)
        except InsufficientCapacity:
            pass
    elif roll < 0.6:
        sched.activate_due(now)
    elif roll < 0.68:
        sched.cancel(rng.choice(live), now)
    elif roll < 0.76 and active:
        sched.finish(rng.choice(active), now, "Completed")
    elif roll < 0.9 and active:
        random_adjust(rng, sched, active, now, grow)
    elif active or any(sched.reservations[a].status == "Frozen" for a in live):
        frozen = [a for a in live if sched.reservations[a].status == "Frozen"]
        app_id = rng.choice(active + frozen)
        sched.set_frozen(app_id, app_id in active)


def grow_step(rng, sched, now, serial):
    """A step of the grow-heavy histories: a random step whose adjusts
    grow, then a grow of an Active job if there is one."""
    random_step(rng, sched, now, serial, grow=True)
    active = sorted(a for a, r in sched.reservations.items() if r.status == "Active")
    if active:
        random_adjust(rng, sched, active, now, grow=True)


def random_histories(seed, io_reservations, check, make=ReservationScheduler,
                     step=random_step):
    """Run 500 random histories of `step`s on schedulers from `make`,
    calling check(sched, now, context) after every step and at quiet
    instants, and checking the kept usage and that no node is overcommitted
    after every step. Returns how many checks were made."""
    rng = random.Random(seed)
    checks = 0
    for trial in range(500):
        sched = make(random_nodes(rng), io_reservations=io_reservations)
        now = 0
        for i in range(rng.randint(3, 10)):
            step(rng, sched, now, i)
            assert_kept_usage(sched, f"trial {trial} step {i} at {now}")
            assert_no_overcommit(sched, now, f"trial {trial} step {i} at {now}")
            check(sched, now, f"trial {trial} step {i} at {now}")
            checks += 1
            # quiet instants, where the plan may come from the cache: some
            # later, some exactly at the next planned start, where it expires
            for _ in range(rng.randint(0, 2)):
                starts = [s for s, _ in sched.plan(now).planned.values() if s > now]
                if starts and rng.random() < 0.5:
                    now = min(starts)
                else:
                    now += rng.choice([0, 1000, 60_000, 300_000])
                check(sched, now, f"trial {trial} step {i} quiet at {now}")
                checks += 1
            now += rng.choice([0, 1000, 30_000, 120_000])
    return checks


class ReductionCountingScheduler(ReservationScheduler):
    """Counts the grants that reduce some dimension and kept the plan: the
    pure reductions (no dimension raised, no extension granted) and the
    mixed ones (one dimension raised or the walltime extended too)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kept_reductions = self.kept_mixed = 0

    def request_adjustment(self, app_id, delta_per_task, extension_s, now):
        decision, granted, ext, reason = super().request_adjustment(
            app_id, delta_per_task, extension_s, now)
        if decision != "Denied" and min(granted) < 0 and self._plan is not None:
            if max(granted) <= 0 and ext == 0:
                self.kept_reductions += 1
            else:
                self.kept_mixed += 1
        return decision, granted, ext, reason


@pytest.mark.parametrize("io_reservations", [True, False], ids=["symmetric", "asymmetric"])
def test_random_queues_match_reference(io_reservations):
    seed = 11 if io_reservations else 12
    schedulers = set()

    def check(sched, now, context):
        schedulers.add(sched)
        assert_same_plan(sched, now, context)

    assert random_histories(seed, io_reservations, check,
                            make=ReductionCountingScheduler) >= 1000
    # the reduction keep: a grant that reduces and frees no room a queued job
    # can use, with or without an increase or an extension
    assert sum(s.kept_reductions for s in schedulers) > 0
    assert sum(s.kept_mixed for s in schedulers) > 0


@pytest.mark.parametrize("io_reservations", [True, False], ids=["symmetric", "asymmetric"])
def test_utilization_matches_reference(io_reservations):
    """(e) The report over a random window equals the reference scan, and so
    do the previous check's window, asked first, and [0, now): the scheduler
    keeps its last report, and a step that changed the ledger must clear it."""
    windows = random.Random(41 if io_reservations else 42)
    previous = []

    def check(sched, now, context):
        t0 = windows.randrange(now + 600_000)
        t1 = t0 + windows.choice([1, 1000, 60_000, 600_000, 10**7])
        for a, b in previous + ([(0, now)] if now else []) + [(t0, t1)]:
            assert sched.utilization_report(a, b) == reference_utilization(sched, a, b), \
                f"{context}: [{a}, {b})"
        previous[:] = [(t0, t1)]

    assert random_histories(41 if io_reservations else 42, io_reservations, check) >= 1000


class GrantCountingScheduler(ReservationScheduler):
    """Counts the grants that reduce nothing, and how many of them were made
    on a plan that pinned a job."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grants = self.pinned_grants = 0

    def request_adjustment(self, app_id, delta_per_task, extension_s, now):
        pinned = bool(self.plan(now).pinned)
        decision, granted, ext, reason = super().request_adjustment(
            app_id, delta_per_task, extension_s, now)
        if decision != "Denied" and min(granted) >= 0:
            self.grants += 1
            self.pinned_grants += pinned
        return decision, granted, ext, reason


@pytest.mark.parametrize("io_reservations", [True, False], ids=["symmetric", "asymmetric"])
def test_grow_heavy_histories_match_reference(io_reservations):
    """The grant keep: a grant that reduces nothing keeps the plan, patched.

    A grant on a plan that pinned a job clears it. These histories pin
    no job (a pin needs a promise not yet past, a job moved up to before it
    and a later job pushed past its own), so the platform's own calls reach
    it: the runs of the first ten large generated scenarios of acceptance
    criterion 1 (seeds 0, 10, ..., 90), on a scheduler with this test's I/O
    accounting (the platform adjusts only in symmetric mode)."""
    schedulers = set()

    def check(sched, now, context):
        schedulers.add(sched)
        assert_same_plan(sched, now, context)

    random_histories(31 if io_reservations else 32, io_reservations, check,
                     make=GrantCountingScheduler, step=grow_step)
    assert sum(s.grants for s in schedulers) >= 500
    for seed in range(0, 100, 10):
        scenario = random_scenario(seed, max_nodes=16, max_apps=64, duration_s=30)
        runner = ScenarioRunner(scenario)
        runner.core.scheduler = GrantCountingScheduler(
            scenario.nodes, grace_s=scenario.grace_s, io_reservations=io_reservations)
        runner.run(on_tick=lambda core: check(core.scheduler, core.now,
                                              f"{scenario.name} at {core.now}"))
    # and some on a pinned plan, which the grant clears
    assert sum(s.pinned_grants for s in schedulers) >= 1


class AdjustCountingScheduler(ReservationScheduler):
    """Counts the adjustments it grants."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.granted = 0

    def request_adjustment(self, app_id, delta_per_task, extension_s, now):
        out = super().request_adjustment(app_id, delta_per_task, extension_s, now)
        self.granted += out[0] != "Denied"
        return out


def test_a_checked_run_is_the_run_the_platform_makes_alone():
    """`assert_same_plan` computes no plan on the scheduler it checks: on the
    50 large generated scenarios of acceptance criterion 1 (seeds 0, 10, ...,
    490), on a scheduler without I/O reservations, a run checked on every
    tick grants as many adjustments as the run unchecked, and reports the
    same."""
    granted = {}
    for checked in (False, True):
        granted[checked] = []
        for seed in range(0, 500, 10):
            scenario = random_scenario(seed, max_nodes=16, max_apps=64, duration_s=30)
            runner = ScenarioRunner(scenario)
            sched = runner.core.scheduler = AdjustCountingScheduler(
                scenario.nodes, grace_s=scenario.grace_s, io_reservations=False)

            def check(core):
                assert_same_plan(core.scheduler, core.now, scenario.name)

            report = runner.run(on_tick=check if checked else None)
            granted[checked].append((sched.granted, report.to_json_str()))
    assert sum(g for g, _ in granted[False]) > 0
    assert [g for g, _ in granted[True]] == [g for g, _ in granted[False]]
    assert granted[True] == granted[False]


class FixedPointScheduler(ReservationScheduler):
    """After every computation that renewed a promise and pinned no job,
    computes again at the same instant on a copy and checks that the second
    computation finds the same plan and span and renews nothing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fixed_points = 0

    def plan(self, now):
        replans, promised = self.replans, dict(self._promised)
        plan = super().plan(now)
        if self.replans > replans and self._promised != promised and not plan.pinned:
            again = fresh_copy(self)
            second = ReservationScheduler.plan(again, now)
            context = f"renewed at {now}"
            assert second.order == plan.order and second.planned == plan.planned, context
            assert second.until == plan.until, context
            assert again._promised == self._promised, context
            self.fixed_points += 1
        return plan


@pytest.mark.parametrize("io_reservations", [True, False], ids=["symmetric", "asymmetric"])
def test_a_renewing_computation_is_its_own_fixed_point(io_reservations):
    schedulers = set()

    def check(sched, now, context):
        schedulers.add(sched)
        sched.plan(now)

    random_histories(21 if io_reservations else 22, io_reservations, check,
                     make=FixedPointScheduler)
    assert sum(s.fixed_points for s in schedulers) >= 1000


def corpus():
    out = [(f"{name}/{mode}", os.path.join(ROOT, "scenarios", f"{name}.yaml"), mode, None)
           for name in ("amr", "io-contention", "kalman", "native-only")
           for mode in ("symmetric", "asymmetric")]
    out += [(f"genscen/{seed}", None, None, seed) for seed in (3, 17, 42)]
    return out


@pytest.mark.parametrize("name,path,mode,seed", corpus(), ids=[c[0] for c in corpus()])
def test_plan_matches_reference_after_every_tick(name, path, mode, seed):
    scenario = load_scenario(path) if path else random_scenario(seed)
    ticks = 0

    def check(core):
        nonlocal ticks
        ticks += 1
        assert_kept_usage(core.scheduler, f"{name} at {core.now}")
        assert_same_plan(core.scheduler, core.now, f"{name} at {core.now}")

    ScenarioRunner(scenario, mode_override=mode).run(on_tick=check)
    assert ticks > 0

"""A tick that skips the scheduler skips nothing it would have done.

`PlatformCore.tick` calls `activate_due` and `enforce_walltime` only once
`now` reaches the scheduler's `next_due`: the cached plan's `due`, which the
last consult noted and a grant that un-drains its job may lower. Here the
core runs the report corpus, random generated scenarios and one such grant;
before every tick a deep copy of the scheduler is taken, and on every tick
that skipped the two calls, the copy must start nothing, emit no event and
leave its promises and drained set as they were.
"""

import copy
import os

import pytest

from genscen import random_scenario
from symplat.harness import ScenarioRunner
from symplat.scenario import load_scenario, scenario_from_dict
from symplat.scheduler import ReservationScheduler
from test_report_corpus import MODES, ROOT, SCENARIOS, SEEDS

# (seeds, random_scenario keywords): the default shape, and a busier one
# (two nodes, up to 20 apps over 120 s) in whose deeper queues a cached plan
# can expire before any planned start or drain instant
RANDOM_SETS = {"default": (range(100, 250), {}),
               "busy": (range(330, 370), {"max_nodes": 2, "max_apps": 20, "duration_s": 120})}

# one app alone on one node: 100 s of walltime with a 60 s grace window, so it
# drains at 40 s; at 50 s it asks for 30 s more, and with nothing queued the
# grant keeps the plan
UNDRAIN = {
    "schema": 1, "name": "undrain", "duration_s": 200, "grace_s": 60,
    "cluster": [{"node_id": "n01", "capacity": {"cpu_cores": 8, "memory_bytes": 8 << 30}}],
    "images": [{"image_id": "img", "name": "img", "owner": "t", "content_digest": "sha256:0"}],
    "apps": [{"tenant": "t", "spec": {
        "app_id": "job", "kind": "container", "image": "img", "task_count": 1,
        "walltime_limit_s": 100, "per_task_reservation": {"cpu_cores": 4, "memory_bytes": 1 << 30},
        "trace": [{"kind": "compute", "work_amount": 4000, "demand": {"cpu_cores": 4},
                   "progress_at_end": 1.0}]}}],
    "script": [{"at_s": 50, "op": "adjust", "tenant": "t", "operator": False,
                "payload": {"app_id": "job", "walltime_extension_s": 30}}],
}


def check_skipped_ticks(runner):
    """Run `runner`, checking every skipped tick; returns (ticks, skipped)."""
    core = runner.core
    sched = core.scheduler
    calls = []
    real_activate = sched.activate_due
    real_tick = core.tick
    counts = {"ticks": 0, "skipped": 0}

    def activate_due(now):
        calls.append(now)
        return real_activate(now)

    def tick():
        now = core.now
        before = copy.deepcopy(sched)
        del calls[:]
        result = real_tick()
        counts["ticks"] += 1
        if calls:
            return result
        counts["skipped"] += 1
        promised, drained = copy.deepcopy(before._promised), set(before._drained)
        context = f"{runner.scenario.name} t={now}"
        assert ReservationScheduler.activate_due(before, now) == [], context
        assert ReservationScheduler.enforce_walltime(before, now) == [], context
        assert before._promised == promised and before._drained == drained, context
        return result

    sched.activate_due = activate_due
    core.tick = tick
    runner.run()
    return counts["ticks"], counts["skipped"]


def corpus_runners():
    """(name, runner factory) for every run of the report corpus."""
    out = []
    for name in SCENARIOS:
        path = os.path.join(ROOT, "scenarios", f"{name}.yaml")
        for mode in MODES:
            out.append((f"{name}/{mode}", lambda p=path, m=mode:
                        ScenarioRunner(load_scenario(p), mode_override=m)))
    for seed in SEEDS:
        out.append((f"genscen/{seed}", lambda s=seed: ScenarioRunner(random_scenario(s))))
    return out


@pytest.mark.parametrize("name,runner", corpus_runners(), ids=[n for n, _ in corpus_runners()])
def test_skipped_ticks_of_the_report_corpus(name, runner):
    ticks, skipped = check_skipped_ticks(runner())
    assert 0 < skipped < ticks


@pytest.mark.parametrize("kind", sorted(RANDOM_SETS))
def test_skipped_ticks_of_random_scenarios(kind):
    seeds, shape = RANDOM_SETS[kind]
    ticks = skipped = 0
    for seed in seeds:
        t, s = check_skipped_ticks(ScenarioRunner(random_scenario(seed, **shape)))
        ticks, skipped = ticks + t, skipped + s
    # the scenarios reach both skipped and consulted ticks
    assert 0 < skipped < ticks


def test_no_computation_sees_a_past_promise():
    """A job starts at its planned start when the platform consults on time,
    so no plan computation finds a queued job whose promised start lies
    before `now` (promise repair would pin none: see `plan`). Over the report
    corpus, the deep-backlog benchmark input and busy generated scenarios."""
    runners = [make() for _, make in corpus_runners()]
    runners.append(ScenarioRunner(load_scenario(
        os.path.join(ROOT, "perfbench", "inputs", "deep-backlog.yaml"))))
    seeds, shape = RANDOM_SETS["busy"]
    runners += [ScenarioRunner(random_scenario(seed, **shape)) for seed in seeds[:10]]
    computations = 0
    for runner in runners:
        sched = runner.core.scheduler

        def plan(now, sched=sched, real_plan=sched.plan, name=runner.scenario.name):
            nonlocal computations
            if sched._plan is None or now > sched._plan.until:
                computations += 1
                past = sorted(a for a, (start, _) in sched._promised.items() if start < now)
                assert not past, f"{name} at {now}: promises of {past} are past"
            return real_plan(now)

        sched.plan = plan
        runner.run()
    assert computations >= 100


def test_a_grant_that_undrains_its_job_moves_its_drain_earlier():
    """The grant un-drains the job, whose due term falls from its old end_t
    (100 s) to its new drain instant (130 s - 60 s): the kept plan's `due`
    must fall with it, or the second Draining comes at 100 s."""
    report = ScenarioRunner(scenario_from_dict(UNDRAIN)).run()
    events = [(e["event"], e["effective_at"]) for e in report.events if e["type"] == "env_event"]
    assert events == [("Draining", 40_000), ("Adjusting", 50_000),
                      ("Draining", 70_000), ("Terminating", 130_000)]
    ticks, skipped = check_skipped_ticks(ScenarioRunner(scenario_from_dict(UNDRAIN)))
    assert 0 < skipped < ticks

"""A tick that skips the scheduler skips nothing it would have done.

`PlatformCore.tick` calls `activate_due` and `enforce_walltime` only once
`now` reaches the scheduler's `next_due`: the instant the last consult noted,
while the plan it noted it for is still cached. Here the core runs the report
corpus and random generated scenarios; before every tick a deep copy of the
scheduler is taken, and on every tick that skipped the two calls, the copy
must start nothing, emit no event and leave its promises and drained set as
they were.
"""

import copy
import os

import pytest

from genscen import random_scenario
from symplat.harness import ScenarioRunner
from symplat.scenario import load_scenario
from symplat.scheduler import ReservationScheduler
from test_report_corpus import MODES, ROOT, SCENARIOS, SEEDS

# (seeds, random_scenario keywords): the default shape, and a busier one
# (two nodes, up to 20 apps over 120 s) in whose deeper queues a cached plan
# can expire before any planned start or drain instant
RANDOM_SETS = {"default": (range(100, 250), {}),
               "busy": (range(330, 370), {"max_nodes": 2, "max_apps": 20, "duration_s": 120})}


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

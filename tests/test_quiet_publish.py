"""The quiet path of `MetricBus.publish` against its per-template path.

A tick whose templates all stand still hands the bus the previous tick's two
tuples again, and `publish` repeats its last call from a plan: it extends
every open run, evaluates only the subjects whose alarm state may change,
and hands each channel the tick's samples as one batch. Each run here is
made twice: as is, and with each tick's tuples copied to new lists, which
never repeat by identity, so that every tick takes the per-template path.
Both runs carry two subscriptions of this test's own, one polled every 7
ticks and one never polled, and must show the same report bytes, `query`
points over all time for every subject and metric, alarm log, and for each
subscription its `delivered`, gap count and messages.
"""

import os

import pytest

from genscen import random_scenario
from symplat.harness import ScenarioRunner
from symplat.model import NODE_METRICS, SAMPLE_METRICS
from symplat.scenario import load_scenario
from test_report_corpus import MODES, SCENARIOS, SEEDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = {"app": SAMPLE_METRICS, "node": NODE_METRICS}
POLL_EVERY = 7


def scenario(name):
    kind, arg = name.split("/")
    if kind == "genscen":
        return ScenarioRunner(random_scenario(int(arg)))
    if kind == "bench":
        return ScenarioRunner(load_scenario(
            os.path.join(ROOT, "perfbench", "inputs", f"{arg}.yaml")))
    return ScenarioRunner(load_scenario(os.path.join(ROOT, "scenarios", f"{kind}.yaml")),
                          mode_override=arg)


NAMES = ([f"{s}/{m}" for s in SCENARIOS for m in MODES] + [f"genscen/{s}" for s in SEEDS]
         + ["bench/fleet-telemetry", "bench/deep-backlog"])


def observe(name, copies):
    """What a run of `name` shows, and how many of its publishes were quiet;
    with `copies`, each tick's tuples are published as new lists."""
    runner = scenario(name)
    bus = runner.core.bus
    polled, unpolled = bus.subscribe(), bus.subscribe()
    publish, publish_quiet = bus.publish, bus._publish_quiet
    quiet = 0

    def counted(t, plan):
        nonlocal quiet
        quiet += 1
        return publish_quiet(t, plan)

    bus._publish_quiet = counted
    if copies:
        bus.publish = lambda t, tails, node_tails: publish(t, list(tails), list(node_tails))
    read = []
    ticks = 0

    def on_tick(core):
        nonlocal ticks
        ticks += 1
        if ticks % POLL_EVERY == 0:
            read.append(polled.poll())

    report = runner.run(on_tick).to_json_str()
    points = {(subject, metric): bus.query(subject, metric, -1, series.last_t + 1)
              for subject, series in bus.series.items() for metric in METRICS[subject[0]]}
    subs = [(sub.delivered, sub._gap, len(sub)) for sub in (polled, unpolled)]
    read += [polled.poll(), unpolled.poll()]
    return {"report": report, "points": points, "alarms": bus.alarm_log, "subs": subs,
            "read": read}, quiet


@pytest.mark.parametrize("name", NAMES)
def test_the_quiet_path_shows_what_the_per_template_path_shows(name):
    got, quiet = observe(name, copies=False)
    want, none = observe(name, copies=True)
    assert none == 0
    if name.endswith("/asymmetric"):  # nothing is published
        assert quiet == 0 and not got["points"]
    else:
        assert quiet > 0 and got["points"]
    for key in want:
        assert got[key] == want[key], f"{key} of {name}"

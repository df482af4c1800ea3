"""A kept read equals a fresh one.

`PlatformCore` keeps its last `env_model` answer and the scheduler its last
`utilization_report`. This drives a core through the in-process replay of
the wire-clocked inputs (see test_adjust_work.py) and through generated
scenarios, and after every op and every tick compares both reads with
answers built with the kept fields cleared. The previous default report's
window is asked again first, so a report that a change failed to clear is
returned stale. At the end every answer returned earlier still encodes to
the bytes it encoded to when returned: a result is read-only.
"""

import json

import pytest

from genscen import random_scenario
from symplat.harness import ScenarioRunner
from test_adjust_work import replay, wire_clocked_core


class ReadChecker:
    def __init__(self, core):
        self.core = core
        self.previous_t1 = None  # of the last default report
        self.answers = {}  # id -> (answer, its encoding when first returned)

    def keep(self, answer):
        self.answers.setdefault(id(answer), (answer, json.dumps(answer, sort_keys=True)))

    def read(self, op, payload, owner, field, context):
        """Ask for `op`, then again with its kept answer, `owner.field`, cleared."""
        got = self.core.handle(op, payload)
        setattr(owner, field, None)
        fresh = self.core.handle(op, payload)
        assert got == fresh, f"{context}: {op} {payload}"
        self.keep(got)
        self.keep(fresh)

    def __call__(self, context):
        core, sched = self.core, self.core.scheduler
        if core.now > 0:
            windows = [{}] if self.previous_t1 is None else [{"t1": self.previous_t1}, {}]
            for window in windows:
                self.read("utilization_report", window, sched, "_report", context)
            self.previous_t1 = core.now
        self.read("env_model", {}, core, "_env_model", context)

    def assert_unchanged(self):
        for answer, text in self.answers.values():
            assert json.dumps(answer, sort_keys=True) == text


def test_replay_reads_equal_fresh_ones():
    core, mix = wire_clocked_core()
    checker = ReadChecker(core)
    for op, result in replay(core, mix):
        if result is not None:
            checker.keep(result)
        checker(f"after {op} at {core.now}")
    checker.assert_unchanged()
    assert len(checker.answers) > 1000


class CheckedRunner(ScenarioRunner):
    """Checks both reads after every scripted op and every tick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checker = ReadChecker(self.core)

    def _exec(self, op, payload, tenant=None, operator=False):
        entry = super()._exec(op, payload, tenant=tenant, operator=operator)
        if "result" in entry:
            self.checker.keep(entry["result"])
        self.checker(f"{self.scenario.name}: after {op} at {self.core.now}")
        return entry


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_generated_scenario_reads_equal_fresh_ones(mode):
    kills = 0
    for seed in range(30):
        runner = CheckedRunner(random_scenario(seed), mode_override=mode)
        report = runner.run(on_tick=lambda core: runner.checker(
            f"{runner.scenario.name}: tick to {core.now}"))
        if report.utilization is not None:
            runner.checker.keep(report.utilization)
        runner.checker.assert_unchanged()
        kills += sum(r.status == "TerminatedWalltime"
                     for r in runner.core.scheduler.reservations.values())
    assert kills > 0  # walltime kills add to hollow_core_seconds

"""Scenario runner: drives a PlatformCore through a scenario and builds a report."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import PlatformCore
from .model import SymplatError


@dataclass
class Report:
    scenario: str
    mode: str
    seed: int
    finished_at_ms: int
    events: list
    apps: dict
    utilization: dict | None
    alarms: list
    op_log: list
    summary: dict

    def to_json(self):
        return dict(vars(self))

    def to_json_str(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def render_table(self):
        lines = [f"scenario: {self.scenario}  mode: {self.mode}  "
                 f"virtual end: {self.finished_at_ms // 1000} s"]
        header = f"{'app':<20} {'outcome':<20} {'start_s':>8} {'end_s':>8} {'dur_s':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for app_id in sorted(self.summary):
            row = self.summary[app_id]
            start = row.get("started_at_s")
            end = row.get("finished_at_s")
            dur = row.get("duration_s")
            lines.append(f"{app_id:<20} {row['outcome']:<20} "
                         f"{start if start is not None else '-':>8} "
                         f"{end if end is not None else '-':>8} "
                         f"{dur if dur is not None else '-':>8}")
        hollow = self.utilization["hollow_core_seconds"] if self.utilization else 0
        lines.append(f"hollow core-seconds: {hollow}   alarms: {len(self.alarms)}")
        return "\n".join(lines)


class ScenarioRunner:
    """Single-threaded deterministic execution of one scenario."""

    def __init__(self, scenario, mode_override=None):
        self.scenario = scenario
        self.mode = mode_override or scenario.mode
        self.events = []  # the core's records, which the report lists
        self.core = PlatformCore(
            scenario.nodes, scenario.images, mode=self.mode,
            grace_s=scenario.grace_s, retention_s=scenario.retention_s,
            record=self.events.append,
        )
        self.op_log = []

    def _exec(self, op, payload, tenant=None, operator=False):
        entry = {"t": self.core.now, "op": op}
        try:
            result = self.core.handle(op, payload, tenant=tenant, operator=operator)
            entry["result"] = result
        except SymplatError as exc:
            entry["error"] = {"code": exc.code, "message": str(exc)}
        self.op_log.append(entry)
        return entry

    def run(self, on_tick=None):
        """Execute the scenario; `on_tick(core)` is called after every tick."""
        core = self.core
        scenario = self.scenario
        submits = list(scenario.apps)
        script = list(scenario.script)

        while core.now < scenario.duration_ms:
            while submits and submits[0][1] <= core.now:
                spec, _, tenant = submits.pop(0)
                self._exec("submit", {"spec": spec.to_json()}, tenant=tenant)
            while script and script[0].at_ms <= core.now:
                op = script.pop(0)
                self._exec(op.op, op.payload, tenant=op.tenant, operator=op.operator)
            core.tick()
            if on_tick is not None:
                on_tick(core)
            if not submits and not script and not core.active_or_pending():
                break

        return self._build_report()

    def _build_report(self):
        core = self.core
        # last Started, and last Completed or Terminating, per app
        started_at, finished_at = {}, {}
        for entry in self.events:
            kind = (entry["type"], entry["event"])
            if kind == ("lifecycle", "Started"):
                started_at[entry["app_id"]] = entry["t"]
            elif kind in (("lifecycle", "Completed"), ("env_event", "Terminating")):
                finished_at[entry["app_id"]] = entry.get("t", entry.get("effective_at"))
        outcomes = {}
        summary = {}
        for app_id in sorted(core.scheduler.reservations):
            res = core.scheduler.reservations[app_id]
            outcomes[app_id] = res.status
            started = started_at.get(app_id)
            finished = finished_at.get(app_id)
            summary[app_id] = {"outcome": res.status}
            summary[app_id]["started_at_s"] = started // 1000 if started is not None else None
            summary[app_id]["finished_at_s"] = finished // 1000 if finished is not None else None
            summary[app_id]["duration_s"] = (
                (finished - started) // 1000 if started is not None and finished is not None
                else None)

        utilization = None
        if core.now > 0:
            utilization = core.scheduler.utilization_report(0, core.now)

        return Report(
            scenario=self.scenario.name,
            mode=self.mode,
            seed=self.scenario.seed,
            finished_at_ms=core.now,
            events=self.events,
            apps=outcomes,
            utilization=utilization,
            alarms=[a.to_json() for a in core.bus.alarm_log],
            op_log=self.op_log,
            summary=summary,
        )


def run_scenario(scenario, mode_override=None):
    return ScenarioRunner(scenario, mode_override=mode_override).run()

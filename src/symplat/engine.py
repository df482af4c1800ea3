"""Deterministic node engine: runs workload traces against reserved capacity.

Each 1000 ms tick, every task's effective rate per dimension is
min(demand, guaranteed + best-effort share), where the best-effort share is a
max-min fair split of the node's residual capacity among tasks demanding more
than their guarantee. cpu and memory are hard allocations (no best-effort):
a task never exceeds its reservation there. I/O dimensions are guaranteed only
when I/O reservations are enabled; otherwise everything I/O is best-effort.

Rates are piecewise constant: they are recomputed (a node re-filled) only when
one of its inputs changes, that is the node's task set, a task's phase, frozen
or done state, or an app's reservation. A quiet tick only advances work, adds
storage and emits samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    TICK_MS,
    LogicalStatus,
    PhysicalSample,
    NodeSample,
    RV_DIMS,
    ResourceVector,
    SymplatError,
)

# the dimensions a tick allocates, cpu and memory then the best-effort ones, in
# RV_DIMS order so that a vector indexes as a row (storage_bytes is a stock)
ALLOC_DIMS = RV_DIMS[:6]
BEST_EFFORT_DIMS = ALLOC_DIMS[2:]
_IDLE = (0,) * len(ALLOC_DIMS)


class UnknownApp(SymplatError):
    code = "unknown_app"


def _task_demand(app, task, wire_free):
    """The task's demand this tick over ALLOC_DIMS. `wire_free`: the app has
    several tasks, all on one node, so its net_io traffic never touches the wire."""
    if task.frozen or task.done:
        return _IDLE
    phase = app.trace[task.phase_index]
    if phase.kind == "net_io" and wire_free:
        return phase.demand[:2] + (0, 0) + phase.demand[4:]
    return phase.demand


def water_fill(pool, demands):
    """Max-min fair integer split of `pool` across `demands`.

    Returns per-entry allocations, each <= its demand, summing to
    min(pool, sum(demands)). Remainder units that do not divide evenly go one
    each to the earliest entries, so callers must pass demands in a canonical
    order for determinism.
    """
    alloc = [0] * len(demands)
    active = [i for i, d in enumerate(demands) if d > 0]
    remaining = pool
    while remaining > 0 and active:
        share = remaining // len(active)
        if share == 0:
            for i in active[:remaining]:
                alloc[i] += 1
            break
        still = []
        for i in active:
            give = min(share, demands[i] - alloc[i])
            alloc[i] += give
            remaining -= give
            if alloc[i] < demands[i]:
                still.append(i)
        if len(still) == len(active):
            # nobody saturated; distribute the sub-share remainder and stop
            for i in active[:remaining]:
                alloc[i] += 1
            break
        active = still
    return alloc


@dataclass
class TaskRuntime:
    app_id: str
    task_id: int
    node_id: str
    phase_index: int = 0
    work_done: int = 0
    frozen: bool = False
    storage_used: int = 0
    done: bool = False
    # [app_id, task_id, demand, reserved, effective] as of its node's last fill,
    # the vectors indexed in ALLOC_DIMS order
    row: list = field(default_factory=list, repr=False)


@dataclass
class AppRuntime:
    app_id: str
    kind: str
    trace: tuple
    reserved: ResourceVector  # per task
    tasks: dict[int, TaskRuntime] = field(default_factory=dict)
    status: LogicalStatus = field(default_factory=LogicalStatus)
    last_checkpoint_progress: float = 0.0
    last_checkpoint_t: int | None = None
    drain_deadline: int | None = None

    def colocated(self):
        return len({t.node_id for t in self.tasks.values()}) <= 1


@dataclass
class TickResult:
    samples: list
    node_samples: list
    completions: list  # app_ids that finished their whole trace this tick
    errors: list  # app_ids that entered logical Error this tick


class SimEngine:
    def __init__(self, nodes, io_guarantees=True):
        self.nodes = sorted(nodes, key=lambda n: n.node_id)
        self.capacity = {n.node_id: n.capacity for n in self.nodes}
        self.apps: dict[str, AppRuntime] = {}
        self.io_guarantees = io_guarantees
        self.refills = 0  # nodes re-filled
        self._layout = None  # (by app, by node) task order; None: rebuild on the next tick
        self._stale = set()  # nodes to re-fill on the next tick
        self._alloc_rows = []  # per node: its tasks' rows, see step_tick
        self._used = {nid: _IDLE for nid in self.capacity}  # per node: summed effective

    # -- lifecycle -------------------------------------------------------

    def add_app(self, spec, placement, now):
        app = AppRuntime(
            app_id=spec.app_id,
            kind=spec.kind,
            trace=spec.trace,
            reserved=spec.per_task_reservation,
            status=LogicalStatus(state="Running", progress=0.0, updated_at=now),
        )
        for tid in sorted(placement):
            app.tasks[tid] = TaskRuntime(app_id=spec.app_id, task_id=tid, node_id=placement[tid])
        self.apps[spec.app_id] = app
        self._layout = None
        self._invalidate(app)
        return app

    def remove_app(self, app_id):
        app = self.apps.pop(app_id, None)
        if app is not None:
            self._layout = None
            self._invalidate(app)
        return app

    def _invalidate(self, app):
        self._stale.update(t.node_id for t in app.tasks.values())

    def apply_env_event(self, ev):
        app = self.apps.get(ev.app_id)
        if app is None:
            raise UnknownApp(f"no app {ev.app_id} on this engine")
        if ev.event == "Draining":
            app.drain_deadline = ev.effective_at
        elif ev.event == "Terminating":
            self.remove_app(ev.app_id)
        elif ev.event in ("Freezing", "Thawed"):
            for t in app.tasks.values():
                t.frozen = ev.event == "Freezing"
            self._invalidate(app)
        elif ev.event == "Adjusting":
            if ev.detail is not None:
                app.reserved = app.reserved.add(ev.detail)
                self._invalidate(app)
        return app

    def set_logical_status(self, app_id, status):
        app = self.apps.get(app_id)
        if app is None:
            raise UnknownApp(f"no app {app_id} on this engine")
        app.status = status

    # -- tick ------------------------------------------------------------

    @property
    def last_allocations(self):
        """(app_id, task_id, dim, demand, reserved, effective) of the last tick:
        node by node, cpu and memory task by task, then each best-effort
        dimension across the node's tasks."""
        out = []
        for rows in self._alloc_rows:
            out += [(a, t, ALLOC_DIMS[i], d[i], r[i], e[i])
                    for a, t, d, r, e in rows for i in (0, 1)]
            out += [(a, t, ALLOC_DIMS[i], d[i], r[i], e[i])
                    for i in range(2, len(ALLOC_DIMS)) for a, t, d, r, e in rows]
        return out

    def _lay_out(self):
        """Order the tasks by app then task id, per app and per node."""
        by_node = {nid: [] for nid in self.capacity}
        by_app = []
        for app_id in sorted(self.apps):
            app = self.apps[app_id]
            wire_free = len(app.tasks) > 1 and app.colocated()
            tasks = [app.tasks[tid] for tid in sorted(app.tasks)]
            for task in tasks:
                by_node[task.node_id].append((app, task, wire_free))
            by_app.append((app, wire_free, tasks))
        self._layout = by_app, by_node
        self._alloc_rows = [[task.row for _, task, _ in members] for members in by_node.values()]

    def _fill(self, nid, members):
        """Recompute the rows of node `nid`'s tasks and its summed effective rates."""
        rows = []
        for app, task, wire_free in members:
            demand = _task_demand(app, task, wire_free)
            task.row[:] = app.app_id, task.task_id, demand, app.reserved, None
            rows.append(task.row)
        cap = self.capacity[nid]
        # hard dimensions: never more than reserved
        effs = [[min(d[0], r[0]), min(d[1], r[1])] for _, _, d, r, _ in rows]
        # contended rate dimensions: guarantee + max-min split of residual
        for i in range(2, len(ALLOC_DIMS)):
            guaranteed = ([min(d[i], r[i]) for _, _, d, r, _ in rows] if self.io_guarantees
                          else [0] * len(rows))
            extras = [max(0, row[2][i] - g) for row, g in zip(rows, guaranteed)]
            shares = water_fill(cap[i] - sum(guaranteed), extras)
            for e, g, share in zip(effs, guaranteed, shares):
                e.append(g + share)
        for row, e in zip(rows, effs):
            row[4] = e
        self._used[nid] = [sum(col) for col in zip(*effs)] if effs else _IDLE

    def step_tick(self, now):
        """Advance all tasks over [now, now+1000). Samples are stamped `now`."""
        if self._layout is None:
            self._lay_out()
        by_app, by_node = self._layout
        for nid in self._stale:
            self._fill(nid, by_node[nid])
        self.refills += len(self._stale)
        self._stale.clear()
        storage = dict.fromkeys(self.capacity, 0)

        samples = []
        completions = []
        errors = []
        for app, wire_free, tasks in by_app:
            app_finished_tasks = 0
            for task in tasks:
                r = task.row[4]  # cpu, memory, net_in, net_out, fs, fs_iops
                phase = app.trace[task.phase_index] if not task.done else None
                interproc = 0
                if phase is not None and not task.frozen:
                    advance = 0
                    if phase.kind == "compute":
                        advance = r[0] * (TICK_MS // 1000)
                    elif phase.kind == "fs_io":
                        advance = r[4] * (TICK_MS // 1000)
                        if phase.demand.storage_bytes > 0:
                            task.storage_used += advance
                            # storage is a stock: writing past the reservation
                            # is an application failure
                            if (app.reserved.storage_bytes > 0
                                    and task.storage_used > app.reserved.storage_bytes
                                    and app.status.state != "Error"):
                                app.status = LogicalStatus(
                                    state="Error", progress=app.status.progress, updated_at=now)
                                errors.append(app.app_id)
                    elif phase.kind == "net_io":
                        if wire_free:
                            # free intra-node traffic at the demanded rate
                            interproc = max(phase.demand.net_in_bps, phase.demand.net_out_bps)
                            advance = interproc * (TICK_MS // 1000)
                        else:
                            advance = (r[2] + r[3]) * (TICK_MS // 1000)
                            if len(app.tasks) > 1:
                                interproc = r[2] + r[3]
                    elif phase.kind in ("checkpoint", "idle"):
                        advance = TICK_MS // 1000
                    task.work_done += advance
                    if task.work_done >= phase.work_amount:
                        was_error = app.status.state == "Error"
                        self._complete_phase(app, task, phase, now + TICK_MS)
                        if app.status.state == "Error" and not was_error:
                            errors.append(app.app_id)
                samples.append(PhysicalSample(
                    t=now,
                    app_id=app.app_id,
                    task_id=task.task_id,
                    node_id=task.node_id,
                    cpu_cores_used=r[0],
                    memory_bytes_used=r[1],
                    fs_bps_used=r[4],
                    fs_iops_used=r[5],
                    storage_bytes_used=task.storage_used,
                    net_in_bps_used=r[2],
                    net_out_bps_used=r[3],
                    interproc_bps_used=interproc,
                ))
                storage[task.node_id] += task.storage_used
                if task.done:
                    app_finished_tasks += 1
            if app.tasks and app_finished_tasks == len(app.tasks):
                completions.append(app.app_id)

        node_samples = [
            NodeSample(
                t=now,
                node_id=nid,
                cpu_cores_used=used[0],
                memory_bytes_used=used[1],
                fs_bps_used=used[4],
                fs_iops_used=used[5],
                storage_bytes_used=storage[nid],
                net_in_bps_used=used[2],
                net_out_bps_used=used[3],
            )
            for nid, used in self._used.items()
        ]
        return TickResult(samples=samples, node_samples=node_samples,
                          completions=completions, errors=errors)

    @staticmethod
    def _task_progress(app, task):
        if task.done:
            return 1.0
        if task.phase_index == 0:
            return 0.0
        return app.trace[task.phase_index - 1].progress_at_end

    def _complete_phase(self, app, task, phase, completed_at):
        self._stale.add(task.node_id)
        task.work_done = 0
        task.phase_index += 1
        if task.phase_index >= len(app.trace):
            task.done = True
            task.phase_index = len(app.trace) - 1
        if app.status.state != "Error":
            # the app-level view tracks the least-advanced task
            progress = min(self._task_progress(app, t) for t in app.tasks.values())
            app.status = LogicalStatus(
                state=phase.emits_state, progress=progress, updated_at=completed_at,
            )
            if phase.kind == "checkpoint":
                app.last_checkpoint_progress = phase.progress_at_end
                app.last_checkpoint_t = completed_at

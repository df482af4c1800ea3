"""Deterministic node engine: runs workload traces against reserved capacity.

Each 1000 ms tick, every task's effective rate per dimension is
min(demand, guaranteed + best-effort share), where the best-effort share is a
max-min fair split of the node's residual capacity among tasks demanding more
than their guarantee. cpu and memory are hard allocations (no best-effort):
a task never exceeds its reservation there. I/O dimensions are guaranteed only
when I/O reservations are enabled; otherwise everything I/O is best-effort.

Rates are piecewise constant: they are recomputed (a node re-filled) only when
one of its inputs changes, that is the node's task set, a task's phase, frozen
or done state, or a task's guaranteed rate min(demand, reserved) in some
dimension. A granted adjustment that moves no task's guaranteed rate on a
node re-fills nothing there: its tasks' rates and templates stand. A re-fill
also rebuilds each of the node's tasks' template: its sample after `t`, its
work advance per tick, the ticks left in its phase and whether the phase
writes storage. A quiet tick counts each advancing task down; only a
storage-writing task adds storage and checks its overrun per tick. A tick
builds no sample: its `TickResult` holds each task's sample tail (the same
object tick after tick until a re-fill or a storage write replaces it) and
each node's, which the metric bus stores as they are, and builds its samples,
stamped `now`, only when they are read.
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
_ALLOC_INDEXES = range(len(ALLOC_DIMS))
_IDLE = (0,) * len(ALLOC_DIMS)
TICK_S = TICK_MS // 1000
# where storage_bytes_used sits in a task's and in a node's sample tail
_TASK_STORAGE = PhysicalSample._fields.index("storage_bytes_used") - 1
_NODE_STORAGE = NodeSample._fields.index("storage_bytes_used") - 1


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
    # its demand and effective rates as of its node's last fill, in ALLOC_DIMS order
    demand: tuple = field(default=(), repr=False)
    effective: list = field(default_factory=list, repr=False)
    # the template its node's last fill built: the fields of its sample after
    # `t`, the work it does per tick, the ticks left until its phase completes
    # (0: it does no work) and whether the phase writes storage
    tail: tuple = field(default=(), repr=False)
    advance: int = field(default=0, repr=False)
    left: int = field(default=0, repr=False)
    writes: bool = field(default=False, repr=False)


@dataclass
class AppRuntime:
    app_id: str
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
    now: int
    tails: list  # each task's template, in task order: its sample after `t`
    node_tails: list  # each node's sample after `t`, in node_id order
    completions: list  # app_ids that finished their whole trace this tick
    errors: list  # app_ids that entered logical Error this tick

    @property
    def samples(self):
        """The tick's task samples, built from its templates when read."""
        stamp = (self.now,)
        return [tuple.__new__(PhysicalSample, stamp + tail) for tail in self.tails]

    @property
    def node_samples(self):
        """The tick's node samples, built from their tails when read."""
        stamp = (self.now,)
        return [tuple.__new__(NodeSample, stamp + tail) for tail in self.node_tails]


class SimEngine:
    def __init__(self, nodes, io_guarantees=True):
        self.nodes = sorted(nodes, key=lambda n: n.node_id)
        self.capacity = {n.node_id: n.capacity for n in self.nodes}
        self.apps: dict[str, AppRuntime] = {}
        self.io_guarantees = io_guarantees
        self.refills = 0  # nodes re-filled
        self._layout = None  # (by app, by node) task order; None: rebuild on the next tick
        self._stale = set()  # nodes to re-fill on the next tick
        self._alloc_rows = []  # per node: its tasks as laid out for the last tick
        # per node: its sample after `t`, as of its last fill plus the storage written since
        self._node_tails = {nid: (nid, 0, 0, 0, 0, 0, 0, 0) for nid in self.capacity}
        self.last_t = None  # the `now` of the last tick
        # the samples of each removed app's last tick, in task order
        self._final_samples: dict[str, list[PhysicalSample]] = {}

    # -- lifecycle -------------------------------------------------------

    def add_app(self, spec, placement, now):
        app = AppRuntime(
            app_id=spec.app_id,
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
        app = self.apps.get(app_id)
        if app is not None:
            self._final_samples[app_id] = self.last_samples(app_id)
            del self.apps[app_id]
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
                self._reserve(app, app.reserved.add(ev.detail))
        return app

    def _reserve(self, app, reserved):
        """Give `app` a granted per-task reservation.

        A fill reads the reservation only as min(demand, reserved) per
        ALLOC_DIMS dimension, so only a node on which one of the app's tasks
        has that minimum move is re-filled. A task on a node already stale
        is re-filled anyway; it may not have been filled yet, or its demand
        may be stale. Every other task's demand is the one its node's rates
        were filled from, so a re-fill would compute the same rates and
        template.
        """
        old, app.reserved = app.reserved, reserved
        stale = self._stale
        for task in app.tasks.values():
            if task.node_id in stale:
                continue
            demand = task.demand
            if any(min(demand[i], old[i]) != min(demand[i], reserved[i]) for i in _ALLOC_INDEXES):
                stale.add(task.node_id)

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
        dimension across the node's tasks. Between a granted adjustment and
        the next tick, the reserved column shows each app's current
        reservation for every one of its tasks."""
        out = []
        for members in self._alloc_rows:
            rows = [(app.app_id, task.task_id, task.demand, app.reserved, task.effective)
                    for app, task, _ in members]
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
            by_app.append((app, tasks))
        self._layout = by_app, by_node
        self._alloc_rows = list(by_node.values())

    def _fill(self, nid, members):
        """Recompute the rates and templates of node `nid`'s tasks, and its sample tail."""
        rows = []  # (demand, reserved) per task
        for app, task, wire_free in members:
            task.demand = _task_demand(app, task, wire_free)
            rows.append((task.demand, app.reserved))
        cap = self.capacity[nid]
        # hard dimensions: never more than reserved
        effs = [[min(d[0], r[0]), min(d[1], r[1])] for d, r in rows]
        # contended rate dimensions: guarantee + max-min split of residual
        for i in range(2, len(ALLOC_DIMS)):
            guaranteed = ([min(d[i], r[i]) for d, r in rows] if self.io_guarantees
                          else [0] * len(rows))
            extras = [max(0, d[i] - g) for (d, _), g in zip(rows, guaranteed)]
            shares = water_fill(cap[i] - sum(guaranteed), extras)
            for e, g, share in zip(effs, guaranteed, shares):
                e.append(g + share)
        for (app, task, wire_free), e in zip(members, effs):
            task.effective = e
            self._build_template(app, task, wire_free, e)
        used = [sum(col) for col in zip(*effs)] if effs else _IDLE
        storage = sum(task.storage_used for _, task, _ in members)
        self._node_tails[nid] = (nid, used[0], used[1], used[4], used[5], storage,
                                 used[2], used[3])

    @staticmethod
    def _build_template(app, task, wire_free, r):
        """Set `task`'s template from its effective rates `r` (ALLOC_DIMS order)."""
        advance = interproc = left = 0
        writes = False
        if not (task.frozen or task.done):
            phase = app.trace[task.phase_index]
            if phase.kind == "compute":
                advance = r[0] * TICK_S
            elif phase.kind == "fs_io":
                advance = r[4] * TICK_S
                writes = phase.demand.storage_bytes > 0
            elif phase.kind == "net_io":
                if wire_free:
                    # free intra-node traffic at the demanded rate
                    interproc = max(phase.demand.net_in_bps, phase.demand.net_out_bps)
                    advance = interproc * TICK_S
                else:
                    advance = (r[2] + r[3]) * TICK_S
                    if len(app.tasks) > 1:
                        interproc = r[2] + r[3]
            elif phase.kind in ("checkpoint", "idle"):
                advance = TICK_S
            # the phase completes on the tick whose advance takes work_done to
            # work_amount; with no advance it never does
            remaining = phase.work_amount - task.work_done
            left = 1 if remaining <= 0 else -(-remaining // advance) if advance else 0
        task.tail = (app.app_id, task.task_id, task.node_id, r[0], r[1], r[4], r[5],
                     task.storage_used, r[2], r[3], interproc)
        task.advance, task.left, task.writes = advance, left, writes

    def step_tick(self, now):
        """Advance all tasks over [now, now+1000). The result holds the
        tick's templates; its samples, stamped `now`, are built when read."""
        if self._layout is None:
            self._lay_out()
        by_app, by_node = self._layout
        stale = self._stale
        if stale:
            for nid in stale:
                self._fill(nid, by_node[nid])
            self.refills += len(stale)
            stale.clear()
        self.last_t = now

        tails = []
        append = tails.append
        completions = []
        errors = []
        for app, tasks in by_app:
            finished = 0
            ended = ()  # the phases its tasks completed, in task order
            overran = False
            for task in tasks:
                if task.writes and self._write(app, task):
                    overran = True
                if task.left:
                    task.work_done += task.advance
                    task.left -= 1
                    if not task.left:
                        ended += (self._complete_phase(app, task),)
                append(task.tail)
                if task.done:
                    finished += 1
            if (ended or overran) and app.status.state != "Error":
                self._settle(app, ended, overran, now, errors)
            if tasks and finished == len(tasks):
                completions.append(app.app_id)

        return TickResult(now, tails, list(self._node_tails.values()), completions, errors)

    def last_samples(self, app_id):
        """The samples the last tick emitted for `app_id`'s tasks, in task
        order: for an app that has left, those of the last tick before it
        left; none for an app that never ran."""
        app = self.apps.get(app_id)
        if app is None:
            return self._final_samples.get(app_id, [])
        stamp = (self.last_t,)
        return [tuple.__new__(PhysicalSample, stamp + task.tail)
                for task in app.tasks.values() if task.tail]

    def _write(self, app, task):
        """Add a storage writer's advance to its storage and its node's.
        Returns whether the task's storage now exceeds its reservation."""
        advance = task.advance
        task.storage_used += advance
        tail = task.tail
        task.tail = tail[:_TASK_STORAGE] + (task.storage_used,) + tail[_TASK_STORAGE + 1:]
        node = self._node_tails[task.node_id]
        self._node_tails[task.node_id] = (node[:_NODE_STORAGE] + (node[_NODE_STORAGE] + advance,)
                                          + node[_NODE_STORAGE + 1:])
        return 0 < app.reserved.storage_bytes < task.storage_used

    @staticmethod
    def _task_progress(app, task):
        if task.done:
            return 1.0
        if task.phase_index == 0:
            return 0.0
        return app.trace[task.phase_index - 1].progress_at_end

    def _complete_phase(self, app, task):
        """Move `task` past the phase it completes this tick; returns that phase."""
        phase = app.trace[task.phase_index]
        self._stale.add(task.node_id)
        task.work_done = 0
        task.phase_index += 1
        if task.phase_index >= len(app.trace):
            task.done = True
            task.phase_index = len(app.trace) - 1
        return phase

    def _settle(self, app, ended, overran, now, errors):
        """Set the status of `app`, not in Error, once all its tasks have
        stepped on the tick starting `now`, from the phases they completed
        (`ended`, in task order) and whether one overran its storage.

        Storage is a stock, so writing past the reservation is an application
        failure: the state is Error if a completed phase emits Error or
        storage overran, else the last completed phase's. The progress is the
        least-advanced task's, and the checkpoint fields come from the last
        checkpoint phase completed. A status set from a completed phase is
        stamped at the end of the tick, one set by an overrun alone at `now`.
        """
        updated_at = now + TICK_MS if ended else now
        error = overran or any(phase.emits_state == "Error" for phase in ended)
        if error:
            errors.append(app.app_id)
        for phase in ended:
            if phase.kind == "checkpoint":
                app.last_checkpoint_progress = phase.progress_at_end
                app.last_checkpoint_t = updated_at
        app.status = LogicalStatus(
            state="Error" if error else ended[-1].emits_state,
            progress=min(self._task_progress(app, t) for t in app.tasks.values()),
            updated_at=updated_at)

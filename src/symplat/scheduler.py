"""Reservation scheduler: admission, FCFS + conservative backfill, mid-run adjustment.

The committed plan is a per-node set of piecewise-constant intervals. Queued jobs
are planned in FCFS order (submit time, then app_id); each planned job's intervals
are committed into the working timeline before the next job is planned, which
yields conservative backfill: a later job may slot in earlier only where it cannot
delay any job planned before it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .model import (
    IO_DIMS,
    RV_DIMS,
    ApplicationSpec,
    EmptyRange,
    PlatformEnvEvent,
    Reservation,
    ResourceVector,
    SymplatError,
    ZERO,
)


class InsufficientCapacity(SymplatError):
    code = "insufficient_capacity"


class NoSuchApp(SymplatError):
    code = "no_such_app"


class NotActive(SymplatError):
    code = "not_active"


class NativeAppRestriction(SymplatError):
    code = "native_app_restriction"


class DuplicateApp(SymplatError):
    code = "duplicate_app"


@dataclass(frozen=True)
class Interval:
    start: int
    end: int
    app_id: str
    usage: ResourceVector  # total committed on this node


@dataclass
class SchedulePlan:
    """Planned start and placement per queued job, plus the node timelines."""

    planned: dict[str, tuple[int, dict[int, str]]]
    timelines: dict[str, list[Interval]]
    order: list[str]  # queued app_ids in FCFS order


@dataclass
class UtilizationReport:
    t0: int
    t1: int
    per_node: dict[str, dict[str, float]]
    cluster: dict[str, float]
    hollow_core_seconds: int

    def to_json(self):
        return {
            "t0": self.t0,
            "t1": self.t1,
            "per_node": {n: dict(sorted(d.items())) for n, d in sorted(self.per_node.items())},
            "cluster": dict(sorted(self.cluster.items())),
            "hollow_core_seconds": self.hollow_core_seconds,
        }


@dataclass
class _FinishedJob:
    app_id: str
    status: str
    total_cores: int
    start_t: int
    finish_t: int
    last_checkpoint_t: int | None


def _min_free_over_window(capacity, intervals, start, end):
    """Component-wise minimum free capacity on one node over [start, end)."""
    points = {start}
    for iv in intervals:
        if iv.end > start and iv.start < end:
            points.add(max(iv.start, start))
    free_min = None
    for p in sorted(points):
        used = ZERO
        for iv in intervals:
            if iv.start <= p < iv.end:
                used = used.add(iv.usage)
        free = capacity.sub(used)
        free_min = free if free_min is None else free_min.min_with(free)
    return free_min


def _first_fit(node_ids, free_by_node, per_task, task_count):
    """Assign identical tasks to nodes in node_id order; None if infeasible."""
    placement = {}
    remaining = {n: free_by_node[n] for n in node_ids}
    for tid in range(task_count):
        placed = False
        for nid in node_ids:
            if per_task.le(remaining[nid]):
                placement[tid] = nid
                remaining[nid] = remaining[nid].sub(per_task)
                placed = True
                break
        if not placed:
            return None
    return placement


class ReservationScheduler:
    """Single serialized state machine over one cluster's reservations."""

    def __init__(self, nodes, grace_s=60, io_reservations=True):
        self.nodes = sorted(nodes, key=lambda n: n.node_id)
        self.node_ids = [n.node_id for n in self.nodes]
        self.capacity = {n.node_id: n.capacity for n in self.nodes}
        self.grace_ms = grace_s * 1000
        self.io_reservations = io_reservations
        self.reservations: dict[str, Reservation] = {}
        self.specs: dict[str, ApplicationSpec] = {}
        self._submit_order: dict[str, tuple[int, str]] = {}
        self._drained: set[str] = set()
        self._finished: list[_FinishedJob] = []
        self._promised: dict[str, tuple[int, dict[int, str]]] = {}
        self._seq = itertools.count()

    # -- helpers -------------------------------------------------------------

    def effective_per_task(self, spec_or_rv):
        """Reservation vector as the scheduler accounts it.

        With I/O reservations disabled (asymmetric baseline) the I/O dimensions
        are ignored for admission and placement: everything I/O is best-effort.
        """
        rv = spec_or_rv if isinstance(spec_or_rv, ResourceVector) else spec_or_rv.per_task_reservation
        if self.io_reservations:
            return rv
        return ResourceVector(cpu_cores=rv.cpu_cores, memory_bytes=rv.memory_bytes)

    def _active_intervals(self):
        timelines = {n: [] for n in self.node_ids}
        for app_id in sorted(self.reservations):
            res = self.reservations[app_id]
            if res.status not in ("Active", "Frozen"):
                continue
            per_task = self.effective_per_task(res.per_task)
            for nid, count in res.node_task_counts().items():
                timelines[nid].append(
                    Interval(res.start_t, res.end_t, app_id, per_task.scale(count))
                )
        return timelines

    def _queued_order(self):
        queued = [a for a, r in self.reservations.items() if r.status == "Queued"]
        return sorted(queued, key=lambda a: self._submit_order[a])

    def _earliest_fit(self, timelines, app_id, now):
        """Earliest (start, placement) for a queued job against `timelines`."""
        res = self.reservations[app_id]
        per_task = self.effective_per_task(res.per_task)
        wall = res.walltime_ms()
        candidates = {now}
        for ivs in timelines.values():
            for iv in ivs:
                if iv.end > now:
                    candidates.add(iv.end)
        for s in sorted(candidates):
            free = {
                n: _min_free_over_window(self.capacity[n], timelines[n], s, s + wall)
                for n in self.node_ids
            }
            placement = _first_fit(self.node_ids, free, per_task, self.specs[app_id].task_count)
            if placement is not None:
                return s, placement
        return None, None

    def _commit(self, timelines, app_id, start, placement, per_task, wall):
        counts = {}
        for tid in sorted(placement):
            counts[placement[tid]] = counts.get(placement[tid], 0) + 1
        for nid, count in counts.items():
            timelines[nid].append(Interval(start, start + wall, app_id, per_task.scale(count)))

    # -- operations ----------------------------------------------------------

    def submit(self, spec, now):
        spec.validate()
        if spec.app_id in self.reservations:
            raise DuplicateApp(f"app {spec.app_id} already submitted")
        per_task = self.effective_per_task(spec)
        free = {n: self.capacity[n] for n in self.node_ids}
        if _first_fit(self.node_ids, free, per_task, spec.task_count) is None:
            raise InsufficientCapacity(
                f"app {spec.app_id}: no feasible placement on an empty cluster"
            )
        res = Reservation(
            app_id=spec.app_id,
            placement={},
            per_task=spec.per_task_reservation,
            start_t=now,
            end_t=now + spec.walltime_limit_s * 1000,
            status="Queued",
        )
        self.reservations[spec.app_id] = res
        self.specs[spec.app_id] = spec
        self._submit_order[spec.app_id] = (now, spec.app_id)
        return res

    def plan(self, now):
        """Plan all queued jobs.

        A queued job's planned start, once published, is a promise: replanning
        (after a release, completion, or new arrival) may move starts earlier
        but never later. A greedy replan alone can break that -- a job slotting
        into freed capacity can push a later job past its promise -- so the
        greedy pass is repaired by pinning the moved-up jobs back at their
        promised starts until every promise holds again.
        """
        order = self._queued_order()
        pinned: set[str] = set()
        for _ in range(len(order) + 1):
            timelines = self._active_intervals()
            planned = {}
            for app_id in order:
                res = self.reservations[app_id]
                if app_id in pinned:
                    start, placement = self._promised[app_id]
                else:
                    start, placement = self._earliest_fit(timelines, app_id, now)
                planned[app_id] = (start, placement)
                self._commit(
                    timelines, app_id, start, placement,
                    self.effective_per_task(res.per_task), res.walltime_ms(),
                )
            violators = [
                a for a in order
                if a in self._promised and planned[a][0] > max(self._promised[a][0], now)
            ]
            if not violators:
                break
            cutoff = order.index(violators[0])
            newly = {
                a for a in order[:cutoff]
                if a in self._promised and a not in pinned and planned[a] != self._promised[a]
            }
            if not newly:
                break
            pinned |= newly
        for a in order:
            if a not in self._promised or planned[a][0] <= self._promised[a][0]:
                self._promised[a] = planned[a]
        return SchedulePlan(planned=planned, timelines=timelines, order=order)

    def activate_due(self, now):
        """Start queued jobs whose planned start has arrived. Returns app_ids."""
        started = []
        plan = self.plan(now)
        for app_id in plan.order:
            start, placement = plan.planned[app_id]
            if start <= now:
                res = self.reservations[app_id]
                res.placement = placement
                res.start_t = now
                res.end_t = now + self.specs[app_id].walltime_limit_s * 1000
                res.status = "Active"
                self._promised.pop(app_id, None)
                started.append(app_id)
        return started

    def request_adjustment(self, app_id, delta_per_task, extension_s, now):
        """Grant/deny a mid-run change of per-task resources and/or walltime.

        Reductions are granted unconditionally. Increases and extensions are
        granted up to the largest amount that fits the current plan without
        delaying any planned start; extensions as the largest feasible prefix.
        """
        if app_id not in self.reservations:
            raise NoSuchApp(f"no app {app_id}")
        if self.specs[app_id].kind == "native":
            raise NativeAppRestriction(f"native app {app_id} cannot be adjusted")
        res = self.reservations[app_id]
        if res.status != "Active":
            raise NotActive(f"app {app_id} is {res.status}, not Active")
        if delta_per_task.is_zero() and extension_s == 0:
            raise SymplatError("scheduler_error", "adjustment requests at least one change")

        plan = self.plan(now)
        timelines = {n: list(ivs) for n, ivs in plan.timelines.items()}
        counts = res.node_task_counts()
        my_usage = {n: self.effective_per_task(res.per_task).scale(c) for n, c in counts.items()}

        # Extension: scan [end_t, end_t + ext) on the job's nodes for the first
        # instant where the job's current usage no longer fits.
        granted_ext = 0
        if extension_s > 0:
            new_end = res.end_t + extension_s * 1000
            conflict_t = new_end
            for nid, usage in my_usage.items():
                points = {res.end_t}
                for iv in timelines[nid]:
                    if iv.app_id == app_id:
                        continue
                    if iv.end > res.end_t and iv.start < new_end:
                        points.add(max(iv.start, res.end_t))
                for p in sorted(points):
                    if p >= conflict_t:
                        break
                    used = ZERO
                    for iv in timelines[nid]:
                        if iv.app_id != app_id and iv.start <= p < iv.end:
                            used = used.add(iv.usage)
                    if not usage.le(self.capacity[nid].sub(used)):
                        conflict_t = min(conflict_t, p)
                        break
            granted_ext = (conflict_t - res.end_t) // 1000

        # Increases: per dimension, the largest per-task amount that fits the
        # residual on every hosting node over the (possibly extended) window.
        window_end = res.end_t + granted_ext * 1000
        increases = {d: getattr(delta_per_task, d) for d in RV_DIMS if getattr(delta_per_task, d) > 0}
        # reductions always succeed, but a reservation cannot go below zero
        granted = {d: -min(-getattr(delta_per_task, d), res.per_task.get(d))
                   for d in RV_DIMS if getattr(delta_per_task, d) < 0}
        if increases:
            for nid, count in counts.items():
                others = [iv for iv in timelines[nid] if iv.app_id != app_id]
                free = _min_free_over_window(
                    self.capacity[nid], others, now, window_end
                ).sub(my_usage[nid])
                for d in increases:
                    if not self.io_reservations and d in IO_DIMS:
                        continue  # best-effort dims: nothing to grant in this mode
                    room = getattr(free, d) // count
                    increases[d] = max(0, min(increases[d], room))
            for d, v in increases.items():
                if not self.io_reservations and d in IO_DIMS:
                    v = 0
                granted[d] = v

        granted_delta = ResourceVector(**granted)
        fully = granted_ext == extension_s and all(
            getattr(granted_delta, d) == getattr(delta_per_task, d) for d in RV_DIMS
        )
        nothing = granted_delta.is_zero() and granted_ext == 0
        if nothing:
            return "Denied", ZERO, 0, "no capacity for any requested increase"

        res.per_task = res.per_task.add(granted_delta)
        res.end_t += granted_ext * 1000
        if res.app_id in self._drained and now < res.end_t - self.grace_ms:
            self._drained.discard(res.app_id)
        decision = "Granted" if fully else "PartiallyGranted"
        reason = "granted in full" if fully else "granted maximal feasible amount"
        return decision, granted_delta, granted_ext, reason

    def enforce_walltime(self, now, checkpoint_t=None):
        """Emit Draining/Terminating for Active jobs reaching their limit.

        `checkpoint_t` maps app_id to the virtual time of its last completed
        checkpoint (or None); it feeds the hollow-utilization ledger.
        """
        checkpoint_t = checkpoint_t or (lambda app_id: None)
        events = []
        for app_id in sorted(self.reservations):
            res = self.reservations[app_id]
            if res.status not in ("Active", "Frozen"):
                continue
            drain_t = res.end_t - self.grace_ms
            if now >= drain_t and app_id not in self._drained:
                self._drained.add(app_id)
                events.append(PlatformEnvEvent(
                    event="Draining", app_id=app_id,
                    reason="walltime limit approaching", effective_at=max(drain_t, now),
                ))
            if now >= res.end_t:
                self.finish(app_id, now, "TerminatedWalltime",
                            last_checkpoint_t=checkpoint_t(app_id))
                events.append(PlatformEnvEvent(
                    event="Terminating", app_id=app_id,
                    reason="walltime limit reached", effective_at=now,
                ))
        return events

    def finish(self, app_id, now, status, last_checkpoint_t=None):
        res = self.reservations[app_id]
        res.status = status
        spec = self.specs[app_id]
        self._finished.append(_FinishedJob(
            app_id=app_id,
            status=status,
            total_cores=spec.per_task_reservation.cpu_cores * spec.task_count,
            start_t=res.start_t,
            finish_t=now,
            last_checkpoint_t=last_checkpoint_t,
        ))
        self._drained.discard(app_id)

    def cancel(self, app_id, now):
        if app_id not in self.reservations:
            raise NoSuchApp(f"no app {app_id}")
        res = self.reservations[app_id]
        if res.status == "Queued":
            res.status = "Cancelled"
            self._promised.pop(app_id, None)
        elif res.status in ("Active", "Frozen"):
            self.finish(app_id, now, "Cancelled")
        return res

    def set_frozen(self, app_id, frozen):
        res = self.reservations.get(app_id)
        if res is None:
            raise NoSuchApp(f"no app {app_id}")
        if self.specs[app_id].kind == "native":
            raise NativeAppRestriction(f"native app {app_id} cannot be frozen")
        if frozen and res.status == "Active":
            res.status = "Frozen"
        elif not frozen and res.status == "Frozen":
            res.status = "Active"
        return res

    def committed_at(self, t):
        """Per-node committed usage at instant t (Active/Frozen reservations)."""
        usage = {n: ZERO for n in self.node_ids}
        for nid, ivs in self._active_intervals().items():
            for iv in ivs:
                if iv.start <= t < iv.end:
                    usage[nid] = usage[nid].add(iv.usage)
        return usage

    def utilization_report(self, t0, t1):
        """Mean committed/capacity per dimension, plus hollow core-seconds.

        The report covers finished and current commitments reconstructible
        from reservation windows.
        """
        if not t0 < t1:
            raise EmptyRange(f"invalid range [{t0}, {t1})")
        span = t1 - t0
        per_node = {}
        committed = {n: 0 for n in self.node_ids}
        sums = {n: {d: 0 for d in RV_DIMS} for n in self.node_ids}
        for app_id in sorted(self.reservations):
            res = self.reservations[app_id]
            if res.status == "Queued":
                continue
            per_task = self.effective_per_task(res.per_task)
            for nid, count in res.node_task_counts().items():
                overlap = min(res.end_t, t1) - max(res.start_t, t0)
                if overlap <= 0:
                    continue
                usage = per_task.scale(count)
                for d in RV_DIMS:
                    sums[nid][d] += getattr(usage, d) * overlap
        cluster = {d: 0.0 for d in RV_DIMS}
        cluster_cap = {d: 0 for d in RV_DIMS}
        for n in self.node_ids:
            per_node[n] = {}
            for d in RV_DIMS:
                cap = getattr(self.capacity[n], d)
                per_node[n][d] = (sums[n][d] / (cap * span)) if cap else 0.0
                cluster[d] += sums[n][d]
                cluster_cap[d] += cap
        for d in RV_DIMS:
            cluster[d] = cluster[d] / (cluster_cap[d] * span) if cluster_cap[d] else 0.0
        hollow = 0
        for job in self._finished:
            if job.status != "TerminatedWalltime":
                continue
            since = job.last_checkpoint_t if job.last_checkpoint_t is not None else job.start_t
            hollow += job.total_cores * (job.finish_t - since) // 1000
        return UtilizationReport(t0=t0, t1=t1, per_node=per_node, cluster=cluster,
                                 hollow_core_seconds=hollow)

"""Reservation scheduler: admission, FCFS + conservative backfill, mid-run adjustment.

Each node's commitments form an availability profile: free capacity as a step
function of time (the "profile" of conservative backfilling, Mu'alem &
Feitelson, IEEE TPDS 2001). Queued jobs are planned in FCFS order (submit
time, which a queued reservation holds as its start_t, then app_id); each
planned job is subtracted from the profile before the next job is planned,
so a later job may slot in earlier only where it cannot delay any job
planned before it.

Committed usage is kept, not rebuilt. `_active` holds each node's profile of
the Active and Frozen reservations, the base every plan computation copies;
`_ledger` holds each node's committed usage of every reservation ever placed,
over its window [start_t, end_t), which `utilization_report` integrates.
Both change in `_commit`, called from three places: `activate_due` reserves
a started job's window in both, a grant in `request_adjustment` releases the
job's old usage and window from both and reserves the new ones, and `finish`
releases the window from `_active` alone. The last `utilization_report` is
kept for its window until the ledger or `hollow_core_seconds` changes: a
`_commit` to the ledger, or a walltime kill in `finish`.

The plan is recomputed only when its result can change: after a submit, a
cancel of a queued job, a finish before the job's end, a grant that reduces
usage where a task of some queued job fits beside the job's new usage, a
`now` later than the earliest start the last computation found, or an
activation or grant on a plan whose promise repair pinned a job; a
computation that renewed a promise is kept too, when it pinned no job. Every
other change keeps the cached plan or patches it in place, by a proof
written where it happens, so a caller reads a returned plan before its next
scheduler call. A plan is current for every `now` up to its `until` (a
caller's `now` never decreases), and nothing is due before its `due`: _ORIGIN ("consult now") until a consult
(`activate_due` then `enforce_walltime`) notes it, which `next_due` reads.
So the platform consults the scheduler on a tick only from that instant on,
or once a mutation has cleared the plan. Each computation reuses one fit
table per job shape.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass

from .model import (
    HARD_DIMS,
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

_ORIGIN = -(2**63)  # first breakpoint of every profile, before any reservation
_FIT_TABLE_SIZE = 4096  # free vectors one fit table remembers before it starts over


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


def node_usage(need, placement):
    """{node_id: the summed `need` of its tasks in `placement`, in RV_DIMS order}."""
    return {nid: tuple([q * count for q in need])
            for nid, count in Counter(placement.values()).items()}


class _FitCounts(dict):
    """free vector -> how many copies of `need` fit in it, at most `limit`.

    Holds at most _FIT_TABLE_SIZE vectors: a full table is emptied before it
    takes the next one, so a table that lives as long as a `serve` stays
    bounded.
    """

    def __init__(self, need, limit):
        super().__init__()
        self.need = need
        self.limit = limit

    def __missing__(self, free):
        count = self.limit
        for f, q in zip(free, self.need):
            if q > 0:
                count = min(count, f // q)
            elif f < q:
                count = 0
        if len(self) >= _FIT_TABLE_SIZE:
            self.clear()
        self[free] = count = max(count, 0)
        return count


class AvailabilityProfile:
    """Free capacity of one node as a step function of time.

    `free[i]` (a tuple in RV_DIMS order) is in force on [times[i], times[i+1]);
    the last entry holds forever.
    """

    __slots__ = ("times", "free")

    def __init__(self, times, free):
        self.times = times
        self.free = free

    def copy(self):
        return AvailabilityProfile(self.times[:], self.free[:])

    def _split(self, t):
        """Index of the segment that starts at `t`, adding a breakpoint if needed."""
        i = bisect_right(self.times, t) - 1
        if self.times[i] != t:
            i += 1
            self.times.insert(i, t)
            self.free.insert(i, self.free[i - 1])
        return i

    def reserve(self, start, end, usage):
        """Subtract `usage` over [start, end); a negative usage releases."""
        if end <= start:
            return
        i, j = self._split(start), self._split(end)
        for k in range(i, j):
            self.free[k] = tuple(f - u for f, u in zip(self.free[k], usage))
        for k in (j, i):  # drop breakpoints across which nothing changes
            if 0 < k < len(self.times) and self.free[k] == self.free[k - 1]:
                del self.times[k], self.free[k]

    def min_free(self, start, end):
        """Component-wise minimum over [start, end); the value at `start` if empty."""
        i = bisect_right(self.times, start) - 1
        j = max(i + 1, bisect_left(self.times, end))
        return tuple(map(min, *self.free[i:j])) if j - i > 1 else self.free[i]

    def integral(self, t0, t1):
        """Per-dimension integral of the step function over [t0, t1), t0 < t1,
        exact in ints (value times ms)."""
        i = bisect_right(self.times, t0) - 1
        j = bisect_left(self.times, t1)  # segments i..j-1 meet [t0, t1)
        if j - i == 1:
            return [f * (t1 - t0) for f in self.free[i]]
        edges = [t0, *self.times[i + 1:j], t1]
        widths = [b - a for a, b in zip(edges, edges[1:])]
        return [sum(map(operator.mul, column, widths)) for column in zip(*self.free[i:j])]

    def first_shortfall(self, start, end, need):
        """Earliest instant in [start, end) at which `need` does not fit; `end` if none."""
        i = bisect_right(self.times, start) - 1
        while i < len(self.times) and self.times[i] < end:
            if any(q > f for q, f in zip(need, self.free[i])):
                return max(self.times[i], start)
            i += 1
        return end

    def fit_counts(self, fit, wall, now):
        """Step function [(s, k)]: from instant s >= now on, k tasks fit over
        all of [s, s + wall) (`fit` counts them in one free vector), until
        the next step.

        A sliding-window minimum over the segments: the window loses segment
        a when s reaches its end and gains segment b + 1 once s + wall passes
        that segment's start.
        """
        times = self.times
        a = bisect_right(times, now) - 1
        b = bisect_left(times, now + wall) - 1
        last = len(times) - 1
        counts = [0] * a + list(map(fit.__getitem__, self.free[a:]))
        window = deque()  # segment indices with strictly increasing counts
        for i in range(a, b + 1):
            while window and counts[window[-1]] >= counts[i]:
                window.pop()
            window.append(i)
        steps = [(now, counts[window[0]])]
        while a < last:
            s = times[a + 1]
            if b < last and times[b + 1] - wall + 1 <= s:
                b += 1
                s = times[b] - wall + 1
                while window and counts[window[-1]] >= counts[b]:
                    window.pop()
                window.append(b)
            if times[a + 1] == s:
                a += 1
                if window[0] < a:
                    window.popleft()
            if counts[window[0]] != steps[-1][1]:
                steps.append((s, counts[window[0]]))
        return steps


@dataclass
class SchedulePlan:
    """Planned start and placement per queued job (in FCFS order), each
    node's availability profile with all of them committed, and the cache
    state the scheduler patches in place (see the module docstring)."""

    planned: dict[str, tuple[int, dict[int, str]]]
    profile: dict[str, AvailabilityProfile]
    pinned: set[str]  # jobs promise repair held at their promised start
    until: float
    due: float = _ORIGIN

    @property
    def order(self):
        return list(self.planned)


class ReservationScheduler:
    """Single serialized state machine over one cluster's reservations."""

    def __init__(self, nodes, grace_s=60, io_reservations=True):
        self.nodes = sorted(nodes, key=lambda n: n.node_id)
        self.node_ids = [n.node_id for n in self.nodes]
        self.capacity = {n.node_id: n.capacity for n in self.nodes}
        self.grace_ms = grace_s * 1000
        self.io_reservations = io_reservations
        self.reservations: dict[str, Reservation] = {}
        # the Queued/Active/Frozen ones, in submit order: what a tick or a plan scans
        self.live: dict[str, Reservation] = {}
        self.specs: dict[str, ApplicationSpec] = {}
        self._drained: set[str] = set()
        # kept committed usage, see the module docstring; the ledger is a step
        # function of usage, not of free capacity, so it counts up from ZERO
        self._active = {n: AvailabilityProfile([_ORIGIN], [c]) for n, c in self.capacity.items()}
        self._ledger = {n: AvailabilityProfile([_ORIGIN], [ZERO]) for n in self.node_ids}
        self.hollow_core_seconds = 0  # of walltime-killed jobs, since their last checkpoint
        self._report = None  # (t0, t1, report) of the last utilization_report
        self._promised: dict[str, tuple[int, dict[int, str]]] = {}
        self._plan: SchedulePlan | None = None
        self.replans = 0  # plan computations, cached returns excluded
        # (per-task need, task_count) of each queued shape -> its fit table,
        # kept across computations and pruned by each to the shapes queued
        self._fits: dict[tuple[ResourceVector, int], _FitCounts] = {}

    # -- helpers -------------------------------------------------------------

    def effective_per_task(self, rv):
        """Reservation vector as the scheduler accounts it.

        With I/O reservations disabled (asymmetric baseline) the I/O dimensions
        are ignored for admission and placement: everything I/O is best-effort.
        """
        return rv if self.io_reservations else rv.only(HARD_DIMS)

    def _commit(self, res, sign, ledger=True):
        """Commit (sign 1) or release (sign -1) `res`'s usage over
        [start_t, end_t) in `_active`, and in `_ledger` too unless told not."""
        need = self.effective_per_task(res.per_task)
        if ledger:
            self._report = None
        for nid, usage in node_usage(need, res.placement).items():
            self._active[nid].reserve(res.start_t, res.end_t, [sign * u for u in usage])
            if ledger:
                self._ledger[nid].reserve(res.start_t, res.end_t, [-sign * u for u in usage])

    def _fits_beside(self, order, usage):
        """Whether one task of some job in `order` fits on some node of
        `usage` ({node_id: usage}) beside that node's usage there."""
        needs = {self.effective_per_task(self.reservations[a].per_task) for a in order}
        return any(all(q <= c - u for q, c, u in zip(need, self.capacity[nid], used))
                   for nid, used in usage.items() for need in needs)

    def _queued_order(self):
        # a queued reservation's start_t is its submit time until it starts
        queued = [(r.start_t, a) for a, r in self.live.items() if r.status == "Queued"]
        return [a for _, a in sorted(queued)]

    def _earliest_fit(self, profile, fit, wall, now):
        """Earliest (start, placement) for `fit.limit` tasks of `fit.need` on
        `profile`.

        Tasks go to nodes in node_id order, as many on each as fit over the
        whole window (first fit); the start is the first instant from `now`
        at which the nodes together hold all tasks.
        """
        task_count = fit.limit
        steps = sorted(
            (s, i, k) for i, nid in enumerate(self.node_ids)
            for s, k in profile[nid].fit_counts(fit, wall, now)
        )
        counts = [0] * len(self.node_ids)
        total = 0
        for j, (s, i, k) in enumerate(steps):
            total += k - counts[i]
            counts[i] = k
            if total >= task_count and (j + 1 == len(steps) or steps[j + 1][0] != s):
                tids = iter(range(task_count))
                return s, {tid: nid for nid, k in zip(self.node_ids, counts)
                           for tid in itertools.islice(tids, k)}
        return None, None

    # -- operations ----------------------------------------------------------

    def submit(self, spec, now):
        spec.validate()
        if spec.app_id in self.reservations:
            raise DuplicateApp(f"app {spec.app_id} already submitted")
        fit = _FitCounts(self.effective_per_task(spec.per_task_reservation), spec.task_count)
        room = sum(fit[self.capacity[n]] for n in self.node_ids)
        if room < spec.task_count:
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
        self.reservations[spec.app_id] = self.live[spec.app_id] = res
        self.specs[spec.app_id] = spec
        self._plan = None
        return res

    def plan(self, now):
        """Plan all queued jobs.

        A queued job's planned start, once published, is a promise: replanning
        (after a release, completion, or new arrival) may move starts earlier
        but never later. A greedy replan alone can break that -- a job slotting
        into freed capacity can push a later job past its promise -- so the
        greedy pass is repaired by pinning the moved-up jobs back at their
        promised starts until every promise holds again. A job whose promised
        start is before `now` is no pin candidate: it can start at `now` at
        the earliest, so its promised window is no longer one it can hold.

        The result is kept until a mutation clears it and reused for every
        later `now` up to the earliest start that any pass computed (one
        instant before it for a job already past its promise, whose promise
        check reads `now`): up to there every earliest fit and every promise
        check would come out the same. `now` never decreases between calls:
        the platform's clock only advances, so no earlier `now` is asked of a
        kept plan.

        A computation that renewed a promise is kept only when it pinned no
        job, for then it is its own fixed point. Its one pass is the greedy
        pass, which reads no promise, so a second computation at the same
        `now` finds the same starts. A renewed promise equals its planned
        start, so its job is no violator and no pin candidate, and it is past
        its promise in neither computation. Every other promise is unchanged.
        So the second computation finds the same violators, pins nothing, and
        computes the same span. A computation that pinned a job and renewed a
        promise is not kept: the next one repairs from the renewed promise.
        """
        if self._plan is not None and now <= self._plan.until:
            return self._plan
        self.replans += 1
        order = self._queued_order()
        tables, self._fits = self._fits, {}  # only the shapes still queued keep theirs
        jobs = {}
        for app_id in order:
            res = self.reservations[app_id]
            shape = (self.effective_per_task(res.per_task), self.specs[app_id].task_count)
            fit = tables.get(shape)
            if fit is None:  # `is None`, not `or`: an empty table is falsy
                fit = tables[shape] = _FitCounts(*shape)
            self._fits[shape] = fit
            jobs[app_id] = (fit, res.walltime_ms())
        pinned: set[str] = set()
        until = float("inf")
        for _ in range(len(order) + 1):
            profile = {n: p.copy() for n, p in self._active.items()}
            planned = {}
            for app_id in order:
                fit, wall = jobs[app_id]
                if app_id in pinned:
                    start, placement = self._promised[app_id]
                else:
                    start, placement = self._earliest_fit(profile, fit, wall, now)
                    past_promise = app_id in self._promised and self._promised[app_id][0] < start
                    until = min(until, start - 1 if past_promise else start)
                planned[app_id] = (start, placement)
                for nid, usage in node_usage(fit.need, placement).items():
                    profile[nid].reserve(start, start + wall, usage)
            violators = [
                a for a in order
                if a in self._promised and planned[a][0] > max(self._promised[a][0], now)
            ]
            if not violators:
                break
            cutoff = order.index(violators[0])
            newly = {
                a for a in order[:cutoff]
                if a in self._promised and a not in pinned and self._promised[a][0] >= now
                and planned[a] != self._promised[a]
            }
            if not newly:
                break
            pinned |= newly
        renewed = False
        for a in order:
            if a not in self._promised or planned[a][0] <= self._promised[a][0]:
                renewed = renewed or self._promised.get(a) != planned[a]
                self._promised[a] = planned[a]
        plan = SchedulePlan(planned, profile, pinned, until=until)
        self._plan = None if renewed and pinned else plan
        return plan

    def next_due(self):
        """The first instant at which `activate_due` or `enforce_walltime` can
        act: the cached plan's `due`, or _ORIGIN ("consult now") if none."""
        return _ORIGIN if self._plan is None else self._plan.due

    def activate_due(self, now):
        """Start queued jobs whose planned start has arrived. Returns app_ids.

        When the plan pinned no job, the plan without the started jobs is
        kept. Each started job starts exactly at its planned start: a fresh
        plan starts no job before `now`, and a cached one none before the end
        of its span, which is at least `now`. So the job's reservation
        commits the window and placement the plan reserved for it, and the
        profiles are unchanged. For each job j still queued, the profile
        before j in a fresh computation lacks no usage that the plan had
        subtracted before j; it may also hold started jobs that came after j
        in FCFS order. So it is at most the plan's, and j starts no earlier.
        It is also at least the plan's final profile plus j's own usage, and
        the final profile has no negative room where a planned job runs, so
        j still fits at its planned start, on the same nodes in the same
        first-fit counts. Nothing was pinned, so the greedy pass is the whole
        computation. No promise changes, so the span is recomputed from the
        start terms left. Its `due` is at most `now`: none noted it yet, or a
        consult did, no later than the started jobs' starts.
        """
        started = []
        plan = self.plan(now)
        for app_id, (start, placement) in plan.planned.items():
            if start <= now:
                res = self.reservations[app_id]
                res.placement = placement
                res.start_t = now
                res.end_t = now + self.specs[app_id].walltime_limit_s * 1000
                res.status = "Active"
                self._commit(res, 1)
                self._promised.pop(app_id, None)
                started.append(app_id)
        if started and plan.pinned:
            self._plan = None
        elif started:
            for app_id in started:
                del plan.planned[app_id]
            plan.until = min(
                (s - 1 if self._promised[a][0] < s else s for a, (s, _) in plan.planned.items()),
                default=float("inf"))
        return started

    def request_adjustment(self, app_id, delta_per_task, extension_s, now):
        """Grant/deny a mid-run change of per-task resources and/or walltime.

        Reductions are granted unconditionally. Increases and extensions are
        granted up to the largest amount that fits the current plan without
        delaying any planned start; extensions as the largest feasible prefix.

        A grant on a plan that pinned no job keeps the plan's starts and
        patches its profiles in place, the job's new usage over its new window
        replacing its old usage in the profiles of its nodes, unless it
        reduces some dimension and a task of some queued job fits on one of
        the job's nodes beside the job's new usage U' there. Any other grant
        clears the plan.

        Let end' be the job's new end_t. The grant changes free capacity only
        on the job's nodes over [start_t, end'), and start_t <= now. When no
        queued job's per-task need fits beside U' on any of those nodes, a
        window [s, s + wall) with s >= now that meets [now, end') on one of
        them holds an instant at which U' is committed, beside usage that the
        greedy pass only adds to, so after the grant it fits 0 tasks. Every
        other window sees the same free vectors as before. So no fit count
        from `now` on rises; when nothing is reduced none can, since the grant
        only takes capacity. The increases and the extension were checked
        against the plan's own profiles, so every planned job still fits at
        its planned start, and first fit, whose counts can only have fallen,
        takes the same counts on the same nodes there and finds no earlier
        start. (No planned job has a task on those nodes while U' is held, or
        that task would fit beside U'.) Nothing was pinned, so the greedy pass
        is the whole computation; the starts, the promises and the span are
        the same.

        A kept plan keeps its `due` (see `enforce_walltime` for its terms):
        with the same starts and span only this job's term can move, through
        its end_t, which no grant lowers. It moves earlier only when the
        grant un-drains the job, from the old end_t to the new end_t - grace,
        earlier for an extension shorter than the grace window, so that grant
        lowers `due` to the job's new drain instant.
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

        # the planned profile of each hosting node, less this job's own usage
        plan = self.plan(now)
        my_usage = node_usage(self.effective_per_task(res.per_task), res.placement)
        others = {}
        for nid, usage in my_usage.items():
            others[nid] = plan.profile[nid].copy()
            others[nid].reserve(res.start_t, res.end_t, [-u for u in usage])

        # Extension: the largest prefix of [end_t, end_t + ext) over which the
        # job's current usage still fits on every hosting node.
        granted_ext = 0
        if extension_s > 0:
            new_end = res.end_t + extension_s * 1000
            conflict_t = min([new_end] + [
                others[nid].first_shortfall(res.end_t, new_end, usage)
                for nid, usage in my_usage.items()
            ])
            granted_ext = (conflict_t - res.end_t) // 1000

        # Increases: per dimension, the largest per-task amount that fits the
        # residual on every hosting node over the (possibly extended) window.
        window_end = res.end_t + granted_ext * 1000
        room = delta_per_task
        if max(delta_per_task) > 0:
            for nid, count in Counter(res.placement.values()).items():
                free = others[nid].min_free(now, window_end)
                room = [min(r, (f - u) // count) for r, f, u in zip(room, free, my_usage[nid])]
        granted_delta = ResourceVector._make(
            max(q, -have) if q <= 0  # reductions always succeed, but never below zero
            else 0 if not self.io_reservations and d in IO_DIMS  # best-effort in this mode
            else max(0, r)
            for d, q, have, r in zip(RV_DIMS, delta_per_task, res.per_task, room)
        )
        fully = granted_ext == extension_s and granted_delta == delta_per_task
        nothing = granted_delta.is_zero() and granted_ext == 0
        if nothing:
            return "Denied", ZERO, 0, "no capacity for any requested increase"

        self._commit(res, -1)
        res.per_task = res.per_task.add(granted_delta)
        res.end_t += granted_ext * 1000
        self._commit(res, 1)
        new_usage = node_usage(self.effective_per_task(res.per_task), res.placement)
        self._plan = None
        if not plan.pinned and (min(granted_delta) >= 0
                                or not self._fits_beside(plan.order, new_usage)):
            for nid, usage in new_usage.items():
                others[nid].reserve(res.start_t, res.end_t, usage)
                plan.profile[nid] = others[nid]
            self._plan = plan
        if res.app_id in self._drained and now < res.end_t - self.grace_ms:
            self._drained.discard(res.app_id)
            plan.due = min(plan.due, res.end_t - self.grace_ms)  # read only if kept
        decision = "Granted" if fully else "PartiallyGranted"
        reason = "granted in full" if fully else "granted maximal feasible amount"
        return decision, granted_delta, granted_ext, reason

    def enforce_walltime(self, now, checkpoint_t=None):
        """Emit Draining/Terminating for Active jobs reaching their limit.

        `checkpoint_t` maps app_id to the virtual time of its last completed
        checkpoint (or None); it feeds `hollow_core_seconds`.

        It ends a consult, so it notes the cached plan's `due`: the earliest
        of the instant after the plan's span, every planned start, and the
        drain instant (end_t - grace) of each undrained running job or the
        end_t of a drained one.
        """
        checkpoint_t = checkpoint_t or (lambda app_id: None)
        events = []
        due = float("inf")
        for app_id in sorted(self.live):
            res = self.live[app_id]
            if res.status == "Queued":
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
            else:
                due = min(due, res.end_t if app_id in self._drained else drain_t)
        if (plan := self._plan) is not None:
            plan.due = min(due, plan.until + 1, *(start for start, _ in plan.planned.values()))
        return events

    def finish(self, app_id, now, status, last_checkpoint_t=None):
        """End a running job. Its window leaves `_active` but stays in the
        ledger (ROADMAP item 1). A finish at or after its end_t keeps the
        plan: it releases nothing from `now` on, and no computation from
        `now` on reads the profiles before `now`."""
        res = self.live.pop(app_id)
        res.status = status
        self._commit(res, -1, ledger=False)
        if now < res.end_t:
            self._plan = None
        if status == "TerminatedWalltime":
            self._report = None
            spec = self.specs[app_id]
            since = res.start_t if last_checkpoint_t is None else last_checkpoint_t
            self.hollow_core_seconds += (spec.per_task_reservation.cpu_cores * spec.task_count
                                         * (now - since) // 1000)
        self._drained.discard(app_id)

    def cancel(self, app_id, now):
        if app_id not in self.reservations:
            raise NoSuchApp(f"no app {app_id}")
        res = self.reservations[app_id]
        if res.status == "Queued":
            res.status = "Cancelled"
            del self.live[app_id]
            self._promised.pop(app_id, None)
            self._plan = None
        elif res.status in ("Active", "Frozen"):
            self.finish(app_id, now, "Cancelled")
        else:
            raise NotActive(f"app {app_id} is {res.status}, not live")
        return res

    def set_frozen(self, app_id, frozen):
        res = self.reservations.get(app_id)
        if res is None:
            raise NoSuchApp(f"no app {app_id}")
        if self.specs[app_id].kind == "native":
            raise NativeAppRestriction(f"native app {app_id} cannot be frozen")
        if frozen and res.status != "Active":
            raise NotActive(f"app {app_id} is {res.status}, not Active")
        if not frozen and res.status != "Frozen":
            raise SymplatError("not_frozen", f"app {app_id} is not frozen")
        # keeps the plan: planning and `next_due` count Active and Frozen alike
        res.status = "Frozen" if frozen else "Active"
        return res

    def committed_at(self, t):
        """Per-node committed usage at instant t (Active/Frozen reservations)."""
        return {n: self.capacity[n].sub(self._active[n].min_free(t, t))
                for n in self.node_ids}

    def utilization_report(self, t0, t1):
        """The report as sent: the mean committed/capacity per dimension over
        [t0, t1) per node and for the cluster, integrated from the ledger of
        every placed reservation's window, and `hollow_core_seconds`, which
        ignores [t0, t1).

        The report reads nothing else, so the last one is returned again for
        the same window until `_commit` changes the ledger or `finish` adds
        to `hollow_core_seconds`; both clear it. A caller only reads it."""
        if not t0 < t1:
            raise EmptyRange(f"invalid range [{t0}, {t1})")
        kept = self._report
        if kept is not None and kept[0] == t0 and kept[1] == t1:
            return kept[2]
        span = t1 - t0
        sums = {n: self._ledger[n].integral(t0, t1) for n in self.node_ids}  # exact ints
        per_node = {n: {} for n in self.node_ids}
        cluster = {}
        for i, d in enumerate(RV_DIMS):
            # a float from 0.0 in node order: an int total divides differently above 2**53
            committed, capacity = 0.0, 0
            for n in self.node_ids:
                cap = self.capacity[n][i]
                per_node[n][d] = sums[n][i] / (cap * span) if cap else 0.0
                committed += sums[n][i]
                capacity += cap
            cluster[d] = committed / (capacity * span) if capacity else 0.0
        report = {"t0": t0, "t1": t1, "per_node": per_node, "cluster": cluster,
                  "hollow_core_seconds": self.hollow_core_seconds}
        self._report = (t0, t1, report)
        return report

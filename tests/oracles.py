"""Independent oracles used by the test suite.

These intentionally re-derive expected results by brute force or closed form,
without touching the implementation paths they check.
"""

from __future__ import annotations

import copy
import itertools
import operator
from collections import Counter, deque
from fractions import Fraction
from types import SimpleNamespace

from symplat.engine import ALLOC_DIMS, _task_demand, water_fill
from symplat.model import (NODE_METRICS, RV_DIMS, SAMPLE_METRICS, TICK_MS, ZERO, NodeSample,
                           PhysicalSample, ResourceVector)
from symplat.scheduler import _ORIGIN, AvailabilityProfile, node_usage


def rv_le(a, b):
    """Whether resource vector `a` is at most `b` in every dimension."""
    return all(map(operator.le, a, b))


def rv_scale(v, k):
    """Resource vector `v` times `k`, component-wise."""
    return ResourceVector._make(x * k for x in v)


def rv_min(a, b):
    """The component-wise minimum of resource vectors `a` and `b`."""
    return ResourceVector._make(map(min, a, b))


def waterfill_oracle(pool, demands):
    """Exact max-min fair shares as Fractions, by progressive filling.

    Raise the common water level until either the pool is exhausted or a
    demand saturates; saturated entries drop out and the level keeps rising
    for the rest.
    """
    n = len(demands)
    shares = [Fraction(0)] * n
    remaining = Fraction(pool)
    active = [i for i in range(n) if demands[i] > 0]
    while active and remaining > 0:
        step = min(
            min(Fraction(demands[i]) - shares[i] for i in active),
            remaining / len(active),
        )
        for i in active:
            shares[i] += step
        remaining -= step * len(active)
        active = [i for i in active if shares[i] < demands[i]]
    return shares


def alarm_oracle(stream, bc):
    """Replay a (t, value) stream against one boundary condition.

    Returns the list of timestamps at which an alarm fires. Windowed mean over
    trailing window_s seconds, edge-triggered, re-armed after a full window of
    continuous satisfaction.
    """
    fired = []
    armed = True
    satisfied_run_ms = 0
    history = []
    for t, value in stream:
        history.append((t, value))
        lo = t - bc.window_s * 1000
        window = [v for ts, v in history if lo < ts <= t]
        mean = sum(window) / len(window)
        violated = mean < bc.threshold if bc.bound == "min" else mean > bc.threshold
        if violated:
            if armed:
                fired.append(t)
                armed = False
            satisfied_run_ms = 0
        else:
            if not armed:
                satisfied_run_ms += 1000
                if satisfied_run_ms >= bc.window_s * 1000:
                    armed = True
                    satisfied_run_ms = 0
    return fired


def reference_window_mean(bus, subject, metric, t, window_s):
    """Mean of `bus`'s retained points of (subject, metric) with t in
    (t - window_s, t], by a full scan, or None when there are none.

    Only retained points count, so a window wider than the bus's retention
    covers the retention, and a boundary registered late sees what is
    already retained.
    """
    lo = t - window_s * 1000
    # integer ms: [lo + 1, t + 1) is (lo, t]
    vals = [v for _, v in bus.query(subject, metric, lo + 1, t + 1)]
    if not vals:
        return None
    return sum(vals) / len(vals)


def publish_samples(bus, *samples):
    """Publish `samples` to `bus` as ticks of templates, in order: each
    stretch of consecutive samples with one t, task samples before node
    samples, goes in one `MetricBus.publish`. Returns the alarms raised."""
    alarms = []
    i = 0
    while i < len(samples):
        t = samples[i][0]
        tails, node_tails = [], []
        while i < len(samples) and samples[i][0] == t:
            if isinstance(samples[i], NodeSample):
                node_tails.append(tuple(samples[i][1:]))
            elif node_tails:
                break
            else:
                tails.append(tuple(samples[i][1:]))
            i += 1
        alarms += bus.publish(t, tails, node_tails)
    return alarms


class ReferenceStore:
    """The metric store as it kept one sample per point: a deque of samples
    per subject, which drops those at or before t - retention whenever the
    subject gets a sample at t, and refuses a sample behind the subject's
    newest. `query` orders the points of one t by the order in which their
    streams (an app's task, or a node) first published."""

    def __init__(self, retention_s=3600):
        self.retention_ms = retention_s * 1000
        self.series = {}  # subject -> its retained samples, by t
        self.rank = {}  # (subject, task id or None) -> its order of first publish
        self.streams = Counter()  # subject -> its streams

    @staticmethod
    def subject(sample):
        return ("app" if isinstance(sample, PhysicalSample) else "node", sample[1])

    def store(self, sample):
        """Store `sample`; False if it is refused."""
        subject = self.subject(sample)
        dq = self.series.setdefault(subject, deque())
        t = sample[0]
        if dq and t < dq[-1][0]:
            return False
        dq.append(sample)
        horizon = t - self.retention_ms
        while dq[0][0] <= horizon:
            dq.popleft()
        stream = (subject, getattr(sample, "task_id", None))
        if stream not in self.rank:
            self.rank[stream] = len(self.rank)
            self.streams[subject] += 1
        return True

    def query(self, subject, metric, t0, t1):
        """Retained (t, value) points of `metric` with t in [t0, t1)."""
        sample_type = PhysicalSample if subject[0] == "app" else NodeSample
        if metric not in (SAMPLE_METRICS if subject[0] == "app" else NODE_METRICS):
            return []
        i = sample_type._fields.index(metric)
        points = []
        for s in reversed(self.series[subject]):  # newest first: a trailing window stops early
            if s[0] < t0:
                break
            if s[0] < t1:
                points.append(s)
        points.reverse()
        if self.streams[subject] > 1:
            rank = self.rank
            points.sort(key=lambda s: (s[0], rank[(subject, s[2])]))
        return [(s[0], s[i]) for s in points]


class ReferenceBoundaries:
    """Boundary conditions re-evaluated with `reference_window_mean`.

    Mirror `register_boundary`/`drop_boundary` here and call `evaluate` after
    each `MetricBus.publish`: it returns the alarms the bus should have raised
    (as (bc_id, subject, t, observed, threshold) tuples, in bc_id order) and
    keeps each boundary's (in_violation, satisfied_since, armed) state.
    Alarms are edge-triggered and re-arm after a full window of satisfaction;
    registering an existing bc_id replaces it and resets its state.
    """

    def __init__(self):
        self.boundaries = {}
        self.state = {}

    def register(self, bc):
        self.boundaries[bc.bc_id] = bc
        self.state[bc.bc_id] = (False, None, True)

    def drop(self, bc_id):
        del self.boundaries[bc_id]
        del self.state[bc_id]

    def evaluate(self, bus, sample, subject):
        alarms = []
        for bc_id in sorted(self.boundaries):
            bc = self.boundaries[bc_id]
            if bc.subject != subject or not hasattr(sample, bc.metric):
                continue
            mean = reference_window_mean(bus, subject, bc.metric, sample.t, bc.window_s)
            if mean is None:
                continue
            in_violation, since, armed = self.state[bc_id]
            if mean < bc.threshold if bc.bound == "min" else mean > bc.threshold:
                if armed and not in_violation:
                    alarms.append((bc_id, subject, sample.t, mean, bc.threshold))
                    armed = False
                in_violation, since = True, None
            elif in_violation or not armed:
                since = sample.t if since is None else since
                if sample.t - since + 1000 >= bc.window_s * 1000:
                    in_violation, since, armed = False, None, True
            self.state[bc_id] = (in_violation, since, armed)
        return alarms


def reference_allocations(engine):
    """The allocation `engine`'s next tick should run with, computed from
    scratch over every node as each tick did before allocations were cached.

    Call it before `step_tick`. Returns (allocations in `last_allocations`
    order, {node_id: summed effective rates over ALLOC_DIMS}), nodes in
    `engine.nodes` order.
    """
    io_guarantees = engine.io_guarantees
    ordered_apps = [engine.apps[a] for a in sorted(engine.apps)]
    # one row per task: [app_id, task_id, demand, reserved, effective],
    # the vectors indexed in ALLOC_DIMS order
    by_node = {n.node_id: [] for n in engine.nodes}
    for app in ordered_apps:
        reserved = app.reserved
        wire_free = len(app.tasks) > 1 and app.colocated()
        for tid in sorted(app.tasks):
            task = app.tasks[tid]
            row = [app.app_id, tid, _task_demand(app, task, wire_free), reserved, None]
            by_node[task.node_id].append(row)

    node_used = {}
    for nid, rows in by_node.items():
        if not rows:
            node_used[nid] = [0] * len(ALLOC_DIMS)
            continue
        cap = engine.capacity[nid]
        # hard dimensions: never more than reserved
        effs = [[min(d[0], r[0]), min(d[1], r[1])] for _, _, d, r, _ in rows]
        # contended rate dimensions: guarantee + max-min split of residual
        for i in range(2, len(ALLOC_DIMS)):
            guaranteed = ([min(d[i], r[i]) for _, _, d, r, _ in rows] if io_guarantees
                          else [0] * len(rows))
            extras = [max(0, row[2][i] - g) for row, g in zip(rows, guaranteed)]
            shares = water_fill(cap[i] - sum(guaranteed), extras)
            for e, g, share in zip(effs, guaranteed, shares):
                e.append(g + share)
        for row, e in zip(rows, effs):
            row[4] = e
        node_used[nid] = [sum(col) for col in zip(*effs)]

    allocations = []
    for rows in by_node.values():
        allocations += [(a, t, ALLOC_DIMS[i], d[i], r[i], e[i])
                        for a, t, d, r, e in rows for i in (0, 1)]
        allocations += [(a, t, ALLOC_DIMS[i], d[i], r[i], e[i])
                        for i in range(2, len(ALLOC_DIMS)) for a, t, d, r, e in rows]
    return allocations, node_used


def reference_step(engine, now):
    """What `engine`'s next tick, stamped `now`, should do, stepped from
    scratch: every task's advance is re-derived from its phase kind and the
    `reference_allocations` rates, and its phase ends on the tick whose
    advance takes work_done to work_amount, as each tick did before the
    engine cached templates.

    Call it before `step_tick`; it changes nothing. Returns a namespace with
    `states` ({(app_id, task_id): (phase_index, work_done, storage_used,
    done)} after the tick), `samples`, `completions` and `errors` in the
    engine's order, and `overshoots`, the phase completions whose last advance
    took work_done past work_amount.
    """
    allocations, _ = reference_allocations(engine)
    rates = {}
    for app_id, tid, dim, _, _, eff in allocations:
        rates.setdefault((app_id, tid), {})[dim] = eff
    tick_s = TICK_MS // 1000
    out = SimpleNamespace(states={}, samples=[], completions=[], errors=[], overshoots=0)
    for app_id in sorted(engine.apps):
        app = engine.apps[app_id]
        wire_free = len(app.tasks) > 1 and app.colocated()
        in_error = app.status.state == "Error"
        finished = 0
        for tid in sorted(app.tasks):
            task = app.tasks[tid]
            r = rates[(app_id, tid)]
            index, work, storage, done = (task.phase_index, task.work_done,
                                          task.storage_used, task.done)
            interproc = 0
            if not done and not task.frozen:
                phase = app.trace[index]
                advance = 0
                if phase.kind == "compute":
                    advance = r["cpu_cores"] * tick_s
                elif phase.kind == "fs_io":
                    advance = r["fs_bps"] * tick_s
                    if phase.demand.storage_bytes > 0:
                        storage += advance
                        cap = app.reserved.storage_bytes
                        if cap > 0 and storage > cap and not in_error:
                            in_error = True
                            out.errors.append(app_id)
                elif phase.kind == "net_io":
                    if wire_free:
                        interproc = max(phase.demand.net_in_bps, phase.demand.net_out_bps)
                        advance = interproc * tick_s
                    else:
                        advance = (r["net_in_bps"] + r["net_out_bps"]) * tick_s
                        if len(app.tasks) > 1:
                            interproc = r["net_in_bps"] + r["net_out_bps"]
                else:
                    advance = tick_s
                work += advance
                if work >= phase.work_amount:
                    out.overshoots += work > phase.work_amount
                    work, index = 0, index + 1
                    if index == len(app.trace):
                        done, index = True, index - 1
                    if not in_error and phase.emits_state == "Error":
                        in_error = True
                        out.errors.append(app_id)
            out.states[(app_id, tid)] = (index, work, storage, done)
            out.samples.append(PhysicalSample(
                t=now, app_id=app_id, task_id=tid, node_id=task.node_id,
                cpu_cores_used=r["cpu_cores"], memory_bytes_used=r["memory_bytes"],
                fs_bps_used=r["fs_bps"], fs_iops_used=r["fs_iops"],
                storage_bytes_used=storage, net_in_bps_used=r["net_in_bps"],
                net_out_bps_used=r["net_out_bps"], interproc_bps_used=interproc))
            finished += done
        if app.tasks and finished == len(app.tasks):
            out.completions.append(app_id)
    return out


def brute_force_placement(node_ids, capacities, per_task, task_count):
    """Lexicographically smallest feasible task -> node map, or None.

    Enumerates every assignment in node-id order; feasible iff per-node sums
    fit capacity in all dimensions. Exponential: keep task_count small.
    """
    for combo in itertools.product(node_ids, repeat=task_count):
        ok = True
        for nid in set(combo):
            count = combo.count(nid)
            for d in RV_DIMS:
                if getattr(per_task, d) * count > getattr(capacities[nid], d):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return {tid: combo[tid] for tid in range(task_count)}
    return None


def fcfs_starts(sched, now):
    """Planned starts under pure FCFS (no backfill): app_id -> start.

    Queued jobs go in submit order, each at the first instant no earlier than
    the job before it where a first-fit placement (tasks to nodes in node-id
    order) keeps every node within capacity over the job's whole walltime,
    against the running reservations and the jobs already placed.
    """
    tasks = {n: [] for n in sched.node_ids}  # node -> [(start, end, per-task usage)]
    for res in sched.reservations.values():
        if res.status in ("Active", "Frozen"):
            for nid in res.placement.values():
                tasks[nid].append((res.start_t, res.end_t, sched.effective_per_task(res.per_task)))

    def free(nid, start, end):
        points = {start} | {a for a, _, _ in tasks[nid] if start < a < end}
        cap = sched.capacity[nid]
        return {d: min(getattr(cap, d) - sum(getattr(u, d) for a, b, u in tasks[nid] if a <= p < b)
                       for p in points)
                for d in RV_DIMS}

    def first_fit(start, end, per_task, task_count):
        room = {n: free(n, start, end) for n in sched.node_ids}
        placement = []
        for _ in range(task_count):
            fits = [n for n in sched.node_ids
                    if all(getattr(per_task, d) <= room[n][d] for d in RV_DIMS)]
            if not fits:
                return None
            for d in RV_DIMS:
                room[fits[0]][d] -= getattr(per_task, d)
            placement.append(fits[0])
        return placement

    queued = sorted((r for r in sched.reservations.values() if r.status == "Queued"),
                    key=lambda r: (r.start_t, r.app_id))
    starts = {}
    base = now
    for res in queued:
        per_task = sched.effective_per_task(res.per_task)
        wall = res.walltime_ms()
        ends = {b for ivs in tasks.values() for _, b, _ in ivs if b > base}
        for start in sorted({base} | ends):
            placement = first_fit(start, start + wall, per_task, sched.specs[res.app_id].task_count)
            if placement is not None:
                break
        for nid in placement:
            tasks[nid].append((start, start + wall, per_task))
        starts[res.app_id] = base = start
    return starts


def _ref_min_free_over_window(capacity, intervals, start, end):
    points = {start}
    for iv_start, iv_end, _ in intervals:
        if iv_end > start and iv_start < end:
            points.add(max(iv_start, start))
    free_min = None
    for p in sorted(points):
        used = ZERO
        for iv_start, iv_end, usage in intervals:
            if iv_start <= p < iv_end:
                used = used.add(usage)
        free = capacity.sub(used)
        free_min = free if free_min is None else rv_min(free_min, free)
    return free_min


def _ref_first_fit(node_ids, free_by_node, per_task, task_count):
    placement = {}
    remaining = dict(free_by_node)
    for tid in range(task_count):
        for nid in node_ids:
            if rv_le(per_task, remaining[nid]):
                placement[tid] = nid
                remaining[nid] = remaining[nid].sub(per_task)
                break
        else:
            return None
    return placement


def active_intervals(sched):
    """node -> [(start, end, usage)] of the Active/Frozen reservations."""
    timelines = {n: [] for n in sched.node_ids}
    for app_id in sorted(sched.reservations):
        res = sched.reservations[app_id]
        if res.status in ("Active", "Frozen"):
            per_task = sched.effective_per_task(res.per_task)
            for nid, count in Counter(res.placement.values()).items():
                timelines[nid].append((res.start_t, res.end_t, rv_scale(per_task, count)))
    return timelines


def rebuilt_profiles(sched, reservations, base, sign):
    """Per node, the step function that starts at `base[node]` and moves by
    `sign` times the usage of each of `reservations` over its [start_t,
    end_t), replayed from scratch. A queued reservation has no placement, so
    it moves nothing."""
    profile = {n: AvailabilityProfile([_ORIGIN], [base[n]]) for n in sched.node_ids}
    for res in reservations:
        need = sched.effective_per_task(res.per_task)
        for nid, usage in node_usage(need, res.placement).items():
            profile[nid].reserve(res.start_t, res.end_t, [-sign * u for u in usage])
    return profile


def reference_active_profile(sched):
    """What the scheduler keeps as `_active`, rebuilt from `live`: the free
    capacity left by the Active/Frozen reservations, which every plan starts
    from."""
    live = [r for r in sched.live.values() if r.status != "Queued"]
    return rebuilt_profiles(sched, live, sched.capacity, -1)


def reference_ledger(sched):
    """What the scheduler keeps as `_ledger`, rebuilt from every reservation
    ever placed, finished ones included: their committed usage."""
    zero = dict.fromkeys(sched.node_ids, ZERO)
    return rebuilt_profiles(sched, sched.reservations.values(), zero, 1)


def plan_intervals(sched, plan):
    """node -> [(start, end, usage)] committed by `plan`: the Active/Frozen
    reservations plus every queued job at its planned start and placement."""
    timelines = active_intervals(sched)
    for app_id, (start, placement) in plan.planned.items():
        res = sched.reservations[app_id]
        per_task = sched.effective_per_task(res.per_task)
        for nid in placement.values():
            timelines[nid].append((start, start + res.walltime_ms(), per_task))
    return timelines


def reference_plan(sched, now):
    """The queue plan by the original interval-rescan planner: FCFS with
    conservative backfill plus promise repair, every candidate start rechecked
    against every interval.

    Reads `sched` and returns a SimpleNamespace with `planned` and `order`;
    the promise bookkeeping runs on a deep copy of `sched._promised`.
    """
    promised = copy.deepcopy(sched._promised)
    # a queued reservation's start_t is its submit time
    order = sorted((a for a, r in sched.reservations.items() if r.status == "Queued"),
                   key=lambda a: (sched.reservations[a].start_t, a))

    def earliest_fit(timelines, app_id):
        res = sched.reservations[app_id]
        per_task = sched.effective_per_task(res.per_task)
        wall = res.walltime_ms()
        candidates = {now} | {end for ivs in timelines.values() for _, end, _ in ivs if end > now}
        for s in sorted(candidates):
            free = {n: _ref_min_free_over_window(sched.capacity[n], timelines[n], s, s + wall)
                    for n in sched.node_ids}
            placement = _ref_first_fit(sched.node_ids, free, per_task,
                                       sched.specs[app_id].task_count)
            if placement is not None:
                return s, placement
        return None, None

    pinned = set()
    for _ in range(len(order) + 1):
        timelines = active_intervals(sched)
        planned = {}
        for app_id in order:
            res = sched.reservations[app_id]
            if app_id in pinned:
                start, placement = promised[app_id]
            else:
                start, placement = earliest_fit(timelines, app_id)
            planned[app_id] = (start, placement)
            per_task = sched.effective_per_task(res.per_task)
            for nid in placement.values():
                timelines[nid].append((start, start + res.walltime_ms(), per_task))
        violators = [a for a in order
                     if a in promised and planned[a][0] > max(promised[a][0], now)]
        if not violators:
            break
        cutoff = order.index(violators[0])
        newly = {a for a in order[:cutoff]
                 if a in promised and a not in pinned and promised[a][0] >= now
                 and planned[a] != promised[a]}
        if not newly:
            break
        pinned |= newly
    return SimpleNamespace(planned=planned, order=order)


def reference_utilization(sched, t0, t1):
    """`sched.utilization_report(t0, t1)` by a per-reservation, per-dimension
    scan: every placed reservation's usage on each node, times its overlap
    with [t0, t1), summed as ints; the cluster sum is a float accumulated
    from 0.0 in node order, as the report does."""
    span = t1 - t0
    sums = {n: {d: 0 for d in RV_DIMS} for n in sched.node_ids}
    for app_id in sorted(sched.reservations):
        res = sched.reservations[app_id]
        if res.status == "Queued":
            continue
        per_task = sched.effective_per_task(res.per_task)
        for nid, count in Counter(res.placement.values()).items():
            overlap = min(res.end_t, t1) - max(res.start_t, t0)
            if overlap <= 0:
                continue
            usage = rv_scale(per_task, count)
            for d in RV_DIMS:
                sums[nid][d] += getattr(usage, d) * overlap
    per_node = {}
    cluster = {d: 0.0 for d in RV_DIMS}
    cluster_cap = {d: 0 for d in RV_DIMS}
    for n in sched.node_ids:
        per_node[n] = {}
        for d in RV_DIMS:
            cap = getattr(sched.capacity[n], d)
            per_node[n][d] = (sums[n][d] / (cap * span)) if cap else 0.0
            cluster[d] += sums[n][d]
            cluster_cap[d] += cap
    for d in RV_DIMS:
        cluster[d] = cluster[d] / (cluster_cap[d] * span) if cluster_cap[d] else 0.0
    return {"t0": t0, "t1": t1, "per_node": per_node, "cluster": cluster,
            "hollow_core_seconds": sched.hollow_core_seconds}

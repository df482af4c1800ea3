"""Platform core: the serialized command stream behind the API and harness.

One instance owns the scheduler, the node engine and the metric bus, advances
virtual time in 1000 ms ticks, and exposes the operation table that both the
wire service and the scenario runner drive. It keeps no copy of its layers'
state, only its last `env_model` answer (see there). A tick consults the
scheduler (`activate_due`, `enforce_walltime`) only once `now` reaches the
scheduler's own `next_due`; a quiet tick only steps the engine, which
hands out its cached sample templates, and publishes them to the metric bus
in one call, which builds a sample only for a reader. The engine keeps each
app's last samples, also after the app has left it. The core keeps no
history: it hands each env event and lifecycle record to
`record` (by default a discard), pushes every platform event to event
subscribers and applies it to the running app in one place. In asymmetric
mode (the static baseline) adjustment, boundary conditions and subscriptions
are disabled and I/O reservations are ignored: all I/O becomes best-effort.
"""

from __future__ import annotations

from . import model
from .engine import SimEngine
from .model import (
    TICK_MS,
    InvalidValue,
    LogicalStatus,
    PlatformEnvEvent,
    ResourceVector,
    SymplatError,
    checked,
)
from .scheduler import ReservationScheduler
from .telemetry import EVENT_KINDS, BoundaryCondition, MetricBus

OPERATOR_OPS = {"drain_node", "freeze_app", "thaw_app"}
SYMMETRIC_ONLY_OPS = {"adjust", "register_boundary", "drop_boundary",
                      "subscribe_metrics", "subscribe_events"}


class PlatformCore:
    def __init__(self, nodes, images=(), mode="symmetric", grace_s=60, retention_s=3600,
                 *, record=lambda _: None):
        if mode not in ("symmetric", "asymmetric"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        symmetric = mode == "symmetric"
        self.scheduler = ReservationScheduler(nodes, grace_s=grace_s, io_reservations=symmetric)
        self.engine = SimEngine(nodes, io_guarantees=symmetric)
        self.bus = MetricBus(retention_s=retention_s)
        self.images = {}
        for img in images:
            self.images[img.image_id] = img
        self.owners: dict[str, str] = {}  # app_id -> tenant
        self.now = 0
        self.record = record  # called with each record, in order
        # its completions and errors are acted on at the start of the next tick
        self.last_tick_result = None
        self._env_model = None  # (now, plan, result) of the last env_model, see there

    # ------------------------------------------------------------------
    # event plumbing

    def _record_event(self, ev):
        """Record `ev`, push it to event subscribers, then apply it to the
        app's engine state if the app is running."""
        fields = ev.to_json()
        self.record({"type": "env_event", **fields})
        self.bus.fan_out({"type": "event", **fields}, ("app", ev.app_id))
        if ev.app_id in self.engine.apps:
            self.engine.apply_env_event(ev)

    def _record_lifecycle(self, name, app_id, t, **extra):
        self.record({"type": "lifecycle", "event": name, "app_id": app_id, "t": t, **extra})

    def _checkpoint_t(self, app_id):
        app = self.engine.apps.get(app_id)
        return app.last_checkpoint_t if app else None

    # ------------------------------------------------------------------
    # clock

    def tick(self):
        """Advance the platform over [now, now + 1000)."""
        now = self.now
        last = self.last_tick_result
        if last is not None:
            # policy: a logical Error observed via telemetry terminates the
            # reservation one tick later
            for app_id in last.errors:
                if app_id in self.engine.apps:
                    self._record_event(PlatformEnvEvent(
                        event="Terminating", app_id=app_id,
                        reason="logical error state", effective_at=now))
                    self.scheduler.finish(app_id, now, "TerminatedError")
            for app_id in last.completions:
                if app_id in self.engine.apps:
                    self.scheduler.finish(app_id, now, "Completed")
                    self.engine.remove_app(app_id)
                    self._record_lifecycle("Completed", app_id, now)

        sched = self.scheduler
        if now >= sched.next_due():
            for app_id in sched.activate_due(now):
                spec = sched.specs[app_id]
                res = sched.reservations[app_id]
                self.engine.add_app(spec, res.placement, now)
                placement = {str(k): v for k, v in sorted(res.placement.items())}
                self._record_lifecycle("Started", app_id, now, placement=placement)
            for ev in sched.enforce_walltime(now, checkpoint_t=self._checkpoint_t):
                self._record_event(ev)

        result = self.last_tick_result = self.engine.step_tick(now)
        if self.mode == "symmetric":
            self.bus.publish(now, result.tails, result.node_tails)
        self.now = now + TICK_MS
        return result

    def active_or_pending(self):
        last = self.last_tick_result
        return self.scheduler.live or (last is not None and (last.completions or last.errors))

    # ------------------------------------------------------------------
    # operation table

    def handle(self, op, payload, tenant=None, operator=False, outbox=None):
        """Run one API operation. Raises SymplatError with a machine-readable code.

        The result is read-only: `env_model` and `utilization_report` return
        the same object again while nothing they read has changed, and the
        wire service reuses the encoding of a result it has already encoded.

        `outbox` is the caller's wire connection channel: subscriptions made
        by this call deliver into it, and only its own subscriptions (or any,
        for an operator) can be unsubscribed through it.
        """
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise SymplatError("unknown_op", f"unknown operation {op!r}")
        if op in OPERATOR_OPS and not operator:
            raise SymplatError("forbidden", f"{op} requires the operator flag")
        if op in SYMMETRIC_ONLY_OPS and self.mode != "symmetric":
            raise SymplatError("policy_disabled", f"{op} is not available in asymmetric mode")
        if not isinstance(payload, dict):
            raise SymplatError("malformed_message", "payload must be an object")
        try:
            return handler(payload, tenant=tenant, operator=operator, outbox=outbox)
        except KeyError as exc:
            raise SymplatError("malformed_message", f"missing field {exc}") from exc
        except (TypeError, AttributeError) as exc:  # a field of the wrong type
            raise InvalidValue(f"malformed field: {exc}") from exc

    def _require_owner(self, app_id, tenant, operator):
        if operator:
            return
        if app_id not in self.owners:
            raise SymplatError("no_such_app", f"no app {app_id}")
        if tenant is not None and self.owners[app_id] != tenant:
            raise SymplatError("forbidden", f"app {app_id} belongs to another tenant")

    def _op_register_image(self, payload, tenant=None, **_):
        img = model.EnvironmentImage.from_json(payload)
        if img.image_id in self.images:
            raise SymplatError("duplicate_image", f"image {img.image_id} already registered")
        self.images[img.image_id] = img
        return {"image_id": img.image_id}

    def _op_submit(self, payload, tenant=None, **_):
        spec = model.ApplicationSpec.from_json(payload["spec"])
        if spec.kind == "container" and spec.image not in self.images:
            raise SymplatError("unknown_image", f"image {spec.image!r} is not registered")
        res = self.scheduler.submit(spec, self.now)
        self.owners[spec.app_id] = tenant or "anonymous"
        self._record_lifecycle("Submitted", spec.app_id, self.now)
        return {"reservation": res.to_json()}

    def _op_cancel(self, payload, tenant=None, operator=False, **_):
        app_id = payload["app_id"]
        self._require_owner(app_id, tenant, operator)
        res = self.scheduler.reservations.get(app_id)
        was_live = res is not None and res.status in ("Active", "Frozen")
        res = self.scheduler.cancel(app_id, self.now)
        if was_live:
            for name in ("Draining", "Terminating"):
                self._record_event(PlatformEnvEvent(event=name, app_id=app_id,
                                                    reason="cancelled by tenant",
                                                    effective_at=self.now))
        return {"reservation": res.to_json()}

    def _op_status(self, payload, **_):
        app_id = payload["app_id"]
        res = self.scheduler.reservations.get(app_id)
        if res is None:
            raise SymplatError("no_such_app", f"no app {app_id}")
        app = self.engine.apps.get(app_id)
        status = app.status if app else LogicalStatus(updated_at=self.now)
        out = {"reservation": res.to_json(), "logical": status.to_json()}
        if app and app.drain_deadline is not None:
            out["drain_deadline"] = app.drain_deadline
        return out

    def _op_physical_model(self, payload, **_):
        app_id = payload["app_id"]
        if app_id not in self.owners:
            raise SymplatError("no_such_app", f"no app {app_id}")
        samples = self.engine.last_samples(app_id)
        return {"app_id": app_id, "tasks": [s.to_json() for s in samples]}

    def _op_env_model(self, payload, **_):
        """The nodes, their last samples and the planned queue, at `now`.

        The last answer is returned again while `now` and the plan object
        that `scheduler.plan(now)` returns are both unchanged. The nodes never
        change. The node samples change only in a tick, and every tick
        advances `now`. The queue's order and planned starts change only with
        a new plan object, or in `activate_due`'s in-place delete, which runs
        only inside a tick. A kept grant patches only the plan's `profile`
        and `due`, which the answer does not read, and a finish at `end_t`
        keeps the plan as it is. The kept answer holds the plan, so no later
        plan can take its identity.
        """
        plan = self.scheduler.plan(self.now)
        kept = self._env_model
        if kept is not None and kept[0] == self.now and kept[1] is plan:
            return kept[2]
        queue = [{"app_id": a, "planned_start": plan.planned[a][0]} for a in plan.order]
        result = {
            "nodes": [n.to_json() for n in self.scheduler.nodes],
            # the last tick sampled every node, in node_id order
            "node_samples": [ns.to_json() for ns in self.last_tick_result.node_samples]
                            if self.last_tick_result else [],
            "queue": queue,
            "now": self.now,
        }
        self._env_model = (self.now, plan, result)
        return result

    def _op_set_logical_state(self, payload, tenant=None, operator=False, **_):
        app_id = payload["app_id"]
        self._require_owner(app_id, tenant, operator)
        app = self.engine.apps.get(app_id)
        if app is None:
            raise SymplatError("no_such_app", f"app {app_id} is not running")
        requested = LogicalStatus(
            state=payload.get("state", app.status.state),
            progress=payload.get("progress", app.status.progress),
            updated_at=self.now,
        )
        accepted = model.logical_transition(
            app.status, requested, self.now,
            checkpoint_progress=app.last_checkpoint_progress,
        )
        self.engine.set_logical_status(app_id, accepted)
        return {"logical": accepted.to_json()}

    def _op_report_progress(self, payload, tenant=None, operator=False, **_):
        payload = dict(payload)
        payload.setdefault("state", None)
        app = self.engine.apps.get(payload["app_id"])
        if app is not None and payload["state"] is None:
            payload["state"] = app.status.state
        return self._op_set_logical_state(payload, tenant=tenant, operator=operator)

    def _op_adjust(self, payload, tenant=None, operator=False, **_):
        app_id = payload["app_id"]
        self._require_owner(app_id, tenant, operator)
        delta = ResourceVector.from_json(payload.get("delta_per_task", {}))
        extension_s = checked("walltime_extension_s", payload.get("walltime_extension_s", 0),
                              least=0)
        decision, granted_delta, granted_ext, reason = self.scheduler.request_adjustment(
            app_id, delta, extension_s, self.now)
        if decision != "Denied":
            # push before response: subscribers hear about the grant first
            self._record_event(PlatformEnvEvent(
                event="Adjusting", app_id=app_id, reason=reason,
                effective_at=self.now, detail=granted_delta,
            ))
        return {
            "decision": decision,
            "granted_delta": granted_delta.to_json(),
            "granted_extension_s": granted_ext,
            "reason": reason,
        }

    def _op_register_boundary(self, payload, **_):
        bc = BoundaryCondition.from_json(payload)
        self.bus.register_boundary(bc)
        return {"bc_id": bc.bc_id}

    def _op_drop_boundary(self, payload, **_):
        self.bus.drop_boundary(payload["bc_id"])
        return {"bc_id": payload["bc_id"]}

    def _op_subscribe_metrics(self, payload, outbox=None, **_):
        subject = payload.get("subject") or {}
        kind = checked("subject kind", subject.get("kind"), (str, type(None)))
        if kind not in ("app", "node", None):
            raise InvalidValue(f"subject kind must be app or node, got {kind!r}")
        subject_id = checked("subject id", subject.get("id"), (str, type(None)))
        sub = self.bus.subscribe(kind, subject_id, outbox=outbox)
        return {"subscription_id": sub.sub_id}

    def _op_subscribe_events(self, payload, outbox=None, **_):
        app_id = checked("app_id", payload.get("app_id"), (str, type(None)))
        sub = self.bus.subscribe("app", app_id, kinds=EVENT_KINDS, outbox=outbox)
        return {"subscription_id": sub.sub_id}

    def _op_unsubscribe(self, payload, operator=False, outbox=None, **_):
        sub_id = payload["subscription_id"]
        sub = self.bus.subscriptions.get(sub_id)
        if sub is not None and not operator and sub.outbox is not outbox:
            raise SymplatError("forbidden", f"subscription {sub_id} belongs to another connection")
        self.bus.unsubscribe(sub_id)
        return {"subscription_id": sub_id}

    def _op_drain_node(self, payload, **_):
        node_id = payload["node_id"]
        if node_id not in self.scheduler.capacity:
            raise SymplatError("no_such_node", f"no node {node_id}")
        drained = []
        for app_id in sorted(self.engine.apps):
            app = self.engine.apps[app_id]
            if any(t.node_id == node_id for t in app.tasks.values()):
                self._record_event(PlatformEnvEvent(event="Draining", app_id=app_id,
                                                    reason=f"operator drain of {node_id}",
                                                    effective_at=self.now))
                drained.append(app_id)
        return {"node_id": node_id, "draining": drained}

    def _op_freeze_app(self, payload, frozen=True, **_):
        app_id = payload["app_id"]
        self.scheduler.set_frozen(app_id, frozen)
        self._record_event(PlatformEnvEvent(
            event="Freezing" if frozen else "Thawed", app_id=app_id,
            reason="operator freeze" if frozen else "operator thaw", effective_at=self.now))
        return {"app_id": app_id, "frozen": frozen}

    def _op_thaw_app(self, payload, **_):
        return self._op_freeze_app(payload, frozen=False)

    def _op_utilization_report(self, payload, **_):
        t0 = checked("t0", payload.get("t0", 0), least=0)
        t1 = checked("t1", payload.get("t1", self.now), least=0)
        return self.scheduler.utilization_report(t0, t1)

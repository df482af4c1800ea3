"""Shared domain types: resource vectors, application specs, state machines.

Everything here is a plain value type. Virtual time is integer milliseconds,
all rates are integer base-units per second evaluated over 1000 ms ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

TICK_MS = 1000

RV_DIMS = (
    "cpu_cores",
    "memory_bytes",
    "net_in_bps",
    "net_out_bps",
    "fs_bps",
    "fs_iops",
    "storage_bytes",
)

# cpu/memory are hard allocations; the rest are rate dimensions that can
# receive a best-effort share of a node's residual capacity.
HARD_DIMS = ("cpu_cores", "memory_bytes")
RATE_DIMS = ("cpu_cores", "net_in_bps", "net_out_bps", "fs_bps", "fs_iops")
IO_DIMS = ("net_in_bps", "net_out_bps", "fs_bps", "fs_iops", "storage_bytes")

_COMPONENT_MAX = 2**63 - 1

LOGICAL_STATES = ("Running", "Checkpointing", "Restoring", "Idle", "Error")
ENV_EVENTS = ("Draining", "Terminating", "Adjusting", "Freezing", "Thawed")
RESERVATION_STATUSES = (
    "Queued",
    "Active",
    "Frozen",
    "Completed",
    "TerminatedWalltime",
    "TerminatedError",
    "Cancelled",
)
PHASE_KINDS = ("compute", "fs_io", "net_io", "checkpoint", "idle")


class SymplatError(Exception):
    """Base of every refused operation; `code` is its machine-readable wire name.

    Raise the base as `SymplatError(code, message)`; a subclass fixes `code`
    as a class attribute and takes only the message.
    """

    code = "symplat_error"

    def __init__(self, *args):
        if len(args) == 2:
            self.code = args[0]
        super().__init__(args[-1])


class ComponentOverflow(SymplatError):
    code = "component_overflow"


class TerminalState(SymplatError):
    code = "terminal_state"


class ProgressRegression(SymplatError):
    code = "progress_regression"


class InvalidValue(SymplatError):
    code = "invalid_value"


class EmptyRange(SymplatError):
    code = "empty_range"


@dataclass(frozen=True)
class ResourceVector:
    cpu_cores: int = 0
    memory_bytes: int = 0
    net_in_bps: int = 0
    net_out_bps: int = 0
    fs_bps: int = 0
    fs_iops: int = 0
    storage_bytes: int = 0

    def get(self, dim):
        return getattr(self, dim)

    def add(self, other):
        out = {}
        for d in RV_DIMS:
            v = getattr(self, d) + getattr(other, d)
            if v > _COMPONENT_MAX:
                raise ComponentOverflow(f"{d} overflows on add")
            out[d] = v
        return ResourceVector(**out)

    def sub(self, other):
        """Component-wise difference; may go negative (used for deltas)."""
        return ResourceVector(**{d: getattr(self, d) - getattr(other, d) for d in RV_DIMS})

    def scale(self, k):
        out = {}
        for d in RV_DIMS:
            v = getattr(self, d) * k
            if v > _COMPONENT_MAX:
                raise ComponentOverflow(f"{d} overflows on scale")
            out[d] = v
        return ResourceVector(**out)

    def le(self, other):
        return all(getattr(self, d) <= getattr(other, d) for d in RV_DIMS)

    def is_nonnegative(self):
        return all(getattr(self, d) >= 0 for d in RV_DIMS)

    def is_zero(self):
        return all(getattr(self, d) == 0 for d in RV_DIMS)

    def min_with(self, other):
        return ResourceVector(**{d: min(getattr(self, d), getattr(other, d)) for d in RV_DIMS})

    def only(self, dims):
        """Copy with every dimension not in `dims` zeroed."""
        return ResourceVector(**{d: getattr(self, d) for d in dims})

    def to_json(self):
        return {d: getattr(self, d) for d in RV_DIMS}

    @classmethod
    def from_json(cls, obj):
        unknown = set(obj) - set(RV_DIMS)
        if unknown:
            raise InvalidValue(f"unknown resource dimensions: {sorted(unknown)}")
        vals = {}
        for d in RV_DIMS:
            v = obj.get(d, 0)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidValue(f"{d} must be an integer, got {v!r}")
            vals[d] = v
        return cls(**vals)


ZERO = ResourceVector()


def rv_add(a, b):
    return a.add(b)


def rv_le(a, b):
    return a.le(b)


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    capacity: ResourceVector

    def validate(self):
        if not self.node_id:
            raise InvalidValue("node_id must be non-empty")
        if not self.capacity.is_nonnegative():
            raise InvalidValue(f"node {self.node_id}: capacity components must be >= 0")
        if self.capacity.cpu_cores <= 0 or self.capacity.memory_bytes <= 0:
            raise InvalidValue(f"node {self.node_id}: cpu_cores and memory_bytes must be > 0")

    def to_json(self):
        return {"node_id": self.node_id, "capacity": self.capacity.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(node_id=obj["node_id"], capacity=ResourceVector.from_json(obj["capacity"]))


@dataclass(frozen=True)
class EnvironmentImage:
    image_id: str
    name: str
    owner: str
    content_digest: str

    def to_json(self):
        return {
            "image_id": self.image_id,
            "name": self.name,
            "owner": self.owner,
            "content_digest": self.content_digest,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            image_id=obj["image_id"],
            name=obj["name"],
            owner=obj["owner"],
            content_digest=obj["content_digest"],
        )


@dataclass(frozen=True)
class Phase:
    kind: str
    work_amount: int  # core-seconds (compute), bytes (I/O), seconds (idle/checkpoint)
    demand: ResourceVector
    emits_state: str = "Running"
    progress_at_end: float = 1.0

    def validate(self, prev_progress):
        if self.kind not in PHASE_KINDS:
            raise InvalidValue(f"unknown phase kind {self.kind!r}")
        if self.work_amount <= 0:
            raise InvalidValue("phase work_amount must be > 0")
        if self.emits_state not in LOGICAL_STATES:
            raise InvalidValue(f"unknown logical state {self.emits_state!r}")
        if not 0.0 <= self.progress_at_end <= 1.0:
            raise InvalidValue("progress_at_end must be in [0,1]")
        if self.progress_at_end < prev_progress:
            raise InvalidValue("progress_at_end must be non-decreasing across phases")
        if not self.demand.is_nonnegative():
            raise InvalidValue("phase demand must be non-negative")

    def to_json(self):
        return {
            "kind": self.kind,
            "work_amount": self.work_amount,
            "demand": self.demand.to_json(),
            "emits_state": self.emits_state,
            "progress_at_end": self.progress_at_end,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            kind=obj["kind"],
            work_amount=obj["work_amount"],
            demand=ResourceVector.from_json(obj.get("demand", {})),
            emits_state=obj.get("emits_state", "Running"),
            progress_at_end=obj.get("progress_at_end", 1.0),
        )


@dataclass(frozen=True)
class ApplicationSpec:
    app_id: str
    kind: str  # "container" | "native"
    task_count: int
    per_task_reservation: ResourceVector
    walltime_limit_s: int
    trace: tuple[Phase, ...] = ()
    image: str | None = None

    def validate(self):
        if not self.app_id:
            raise InvalidValue("app_id must be non-empty")
        if self.kind not in ("container", "native"):
            raise InvalidValue(f"app {self.app_id}: kind must be container or native")
        if self.kind == "container" and not self.image:
            raise InvalidValue(f"app {self.app_id}: container apps require an image")
        if self.kind == "native" and self.image:
            raise InvalidValue(f"app {self.app_id}: native apps carry no image")
        if self.task_count < 1:
            raise InvalidValue(f"app {self.app_id}: task_count must be >= 1")
        if self.walltime_limit_s <= 0:
            raise InvalidValue(f"app {self.app_id}: walltime_limit_s must be > 0")
        if not self.per_task_reservation.is_nonnegative():
            raise InvalidValue(f"app {self.app_id}: reservation must be non-negative")
        if self.kind == "native" and not self.per_task_reservation.only(IO_DIMS).is_zero():
            raise InvalidValue(
                f"app {self.app_id}: native apps may only reserve cpu_cores/memory_bytes"
            )
        prev = 0.0
        for ph in self.trace:
            ph.validate(prev)
            prev = ph.progress_at_end
        if self.trace and self.trace[-1].progress_at_end != 1.0:
            raise InvalidValue(f"app {self.app_id}: final phase must end at progress 1.0")

    def total_reservation(self):
        return self.per_task_reservation.scale(self.task_count)

    def to_json(self):
        obj = {
            "app_id": self.app_id,
            "kind": self.kind,
            "task_count": self.task_count,
            "per_task_reservation": self.per_task_reservation.to_json(),
            "walltime_limit_s": self.walltime_limit_s,
            "trace": [ph.to_json() for ph in self.trace],
        }
        if self.image is not None:
            obj["image"] = self.image
        return obj

    @classmethod
    def from_json(cls, obj):
        return cls(
            app_id=obj["app_id"],
            kind=obj["kind"],
            task_count=obj["task_count"],
            per_task_reservation=ResourceVector.from_json(obj["per_task_reservation"]),
            walltime_limit_s=obj["walltime_limit_s"],
            trace=tuple(Phase.from_json(p) for p in obj.get("trace", [])),
            image=obj.get("image"),
        )


@dataclass(frozen=True)
class LogicalStatus:
    state: str = "Running"
    progress: float = 0.0
    updated_at: int = 0

    def to_json(self):
        return {"state": self.state, "progress": self.progress, "updated_at": self.updated_at}

    @classmethod
    def from_json(cls, obj):
        return cls(state=obj["state"], progress=obj["progress"], updated_at=obj["updated_at"])


def logical_transition(current, requested, now, checkpoint_progress=0.0):
    """Apply an application-requested logical state change.

    Error is terminal. Progress may only decrease while entering Restoring,
    and never below the last completed checkpoint's progress.
    """
    if requested.state not in LOGICAL_STATES:
        raise InvalidValue(f"unknown logical state {requested.state!r}")
    if not 0.0 <= requested.progress <= 1.0:
        raise InvalidValue("progress must be in [0,1]")
    if current.state == "Error":
        raise TerminalState(f"application is in terminal Error state (progress {current.progress})")
    if requested.progress < current.progress:
        if requested.state != "Restoring":
            raise ProgressRegression(
                f"progress {requested.progress} < {current.progress} outside Restoring"
            )
        if requested.progress < checkpoint_progress:
            raise ProgressRegression(
                f"restore below last checkpoint progress {checkpoint_progress}"
            )
    return LogicalStatus(state=requested.state, progress=requested.progress, updated_at=now)


@dataclass(frozen=True)
class PlatformEnvEvent:
    event: str
    app_id: str
    reason: str
    effective_at: int
    detail: ResourceVector | None = None  # Adjusting only: the granted delta

    def to_json(self):
        obj = {
            "event": self.event,
            "app_id": self.app_id,
            "reason": self.reason,
            "effective_at": self.effective_at,
        }
        if self.detail is not None:
            obj["detail"] = self.detail.to_json()
        return obj

    @classmethod
    def from_json(cls, obj):
        detail = obj.get("detail")
        return cls(
            event=obj["event"],
            app_id=obj["app_id"],
            reason=obj["reason"],
            effective_at=obj["effective_at"],
            detail=ResourceVector.from_json(detail) if detail is not None else None,
        )


SAMPLE_METRICS = (
    "cpu_cores_used",
    "memory_bytes_used",
    "fs_bps_used",
    "fs_iops_used",
    "storage_bytes_used",
    "net_in_bps_used",
    "net_out_bps_used",
    "interproc_bps_used",
)


@dataclass(frozen=True)
class PhysicalSample:
    t: int
    app_id: str
    task_id: int
    node_id: str
    cpu_cores_used: int = 0
    memory_bytes_used: int = 0
    fs_bps_used: int = 0
    fs_iops_used: int = 0
    storage_bytes_used: int = 0
    net_in_bps_used: int = 0
    net_out_bps_used: int = 0
    interproc_bps_used: int = 0

    def to_json(self):
        obj = {"t": self.t, "app_id": self.app_id, "task_id": self.task_id, "node_id": self.node_id}
        for m in SAMPLE_METRICS:
            obj[m] = getattr(self, m)
        return obj

    @classmethod
    def from_json(cls, obj):
        return cls(**{k: obj[k] for k in ("t", "app_id", "task_id", "node_id")},
                   **{m: obj.get(m, 0) for m in SAMPLE_METRICS})


NODE_METRICS = (
    "cpu_cores_used",
    "memory_bytes_used",
    "fs_bps_used",
    "fs_iops_used",
    "storage_bytes_used",
    "net_in_bps_used",
    "net_out_bps_used",
)


@dataclass(frozen=True)
class NodeSample:
    t: int
    node_id: str
    cpu_cores_used: int = 0
    memory_bytes_used: int = 0
    fs_bps_used: int = 0
    fs_iops_used: int = 0
    storage_bytes_used: int = 0
    net_in_bps_used: int = 0
    net_out_bps_used: int = 0

    def to_json(self):
        obj = {"t": self.t, "node_id": self.node_id}
        for m in NODE_METRICS:
            obj[m] = getattr(self, m)
        return obj

    @classmethod
    def from_json(cls, obj):
        return cls(t=obj["t"], node_id=obj["node_id"],
                   **{m: obj.get(m, 0) for m in NODE_METRICS})


@dataclass
class Reservation:
    app_id: str
    placement: dict[int, str]  # task_id -> node_id
    per_task: ResourceVector
    start_t: int
    end_t: int
    status: str = "Queued"

    def walltime_ms(self):
        return self.end_t - self.start_t

    def node_task_counts(self):
        counts = {}
        for tid in sorted(self.placement):
            nid = self.placement[tid]
            counts[nid] = counts.get(nid, 0) + 1
        return counts

    def to_json(self):
        return {
            "app_id": self.app_id,
            "placement": {str(k): v for k, v in sorted(self.placement.items())},
            "per_task": self.per_task.to_json(),
            "start_t": self.start_t,
            "end_t": self.end_t,
            "status": self.status,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            app_id=obj["app_id"],
            placement={int(k): v for k, v in obj["placement"].items()},
            per_task=ResourceVector.from_json(obj["per_task"]),
            start_t=obj["start_t"],
            end_t=obj["end_t"],
            status=obj["status"],
        )

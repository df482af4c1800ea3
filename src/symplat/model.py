"""Shared domain types: resource vectors, application specs, state machines.

Everything here is a plain value type. Virtual time is integer milliseconds,
all rates are integer base-units per second evaluated over 1000 ms ticks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

TICK_MS = 1000

_COMPONENT_MAX = 2**63 - 1

# the most tasks one app may have: its activating tick places every one of
# them, and a spec that reserves nothing fits any count
MAX_TASKS = 1024

LOGICAL_STATES = ("Running", "Checkpointing", "Restoring", "Idle", "Error")
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


def checked(name, value, kinds=(int,), least=None, most=None, error=InvalidValue):
    """`value` if its type is exactly one of `kinds` (a bool is no int, a float
    no int) and it lies in [least, most] (NaN lies in no range); else raise
    `error` naming `name`. Every number and flag read from outside comes here."""
    if type(value) not in kinds:
        raise error(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    if not ((least is None or least <= value) and (most is None or value <= most)):
        raise error(f"{name} must be " + (f">= {least}" if most is None else
                                          f"<= {most}" if least is None else
                                          f"in [{least}, {most}]"))
    return value


class ResourceVector(NamedTuple):
    """An extended resource vector: an immutable tuple in RV_DIMS order."""

    cpu_cores: int = 0
    memory_bytes: int = 0
    net_in_bps: int = 0
    net_out_bps: int = 0
    fs_bps: int = 0
    fs_iops: int = 0
    storage_bytes: int = 0

    # vector arithmetic goes through the methods below, never through tuple
    # concatenation or repetition
    __add__ = __mul__ = __rmul__ = None

    def add(self, other):
        vals = tuple(map(operator.add, self, other))
        if max(vals) > _COMPONENT_MAX:
            d = next(d for d, v in zip(RV_DIMS, vals) if v > _COMPONENT_MAX)
            raise ComponentOverflow(f"{d} overflows on add")
        return self._make(vals)

    def sub(self, other):
        """Component-wise difference; may go negative (used for deltas)."""
        return self._make(map(operator.sub, self, other))

    def is_nonnegative(self):
        return min(self) >= 0

    def is_zero(self):
        return not any(self)

    def only(self, dims):
        """Copy with every dimension not in `dims` zeroed."""
        return self._make(v if d in dims else 0 for d, v in zip(RV_DIMS, self))

    def to_json(self):
        return dict(zip(RV_DIMS, self))

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise InvalidValue(f"a resource vector must be an object, got {obj!r}")
        unknown = set(obj) - set(RV_DIMS)
        if unknown:
            raise InvalidValue(f"unknown resource dimensions: {sorted(unknown)}")
        return cls._make(checked(d, obj.get(d, 0), most=_COMPONENT_MAX) for d in RV_DIMS)


RV_DIMS = ResourceVector._fields

# cpu/memory are hard allocations; the rest are rate dimensions that can
# receive a best-effort share of a node's residual capacity.
HARD_DIMS = ("cpu_cores", "memory_bytes")
IO_DIMS = ("net_in_bps", "net_out_bps", "fs_bps", "fs_iops", "storage_bytes")

ZERO = ResourceVector()


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    capacity: ResourceVector

    def validate(self):
        if not checked("node_id", self.node_id, (str,)):
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

    @classmethod
    def from_json(cls, obj):
        return cls(
            image_id=checked("image_id", obj["image_id"], (str,)),
            name=checked("name", obj["name"], (str,)),
            owner=checked("owner", obj["owner"], (str,)),
            content_digest=checked("content_digest", obj["content_digest"], (str,)),
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
        checked("phase work_amount", self.work_amount, least=1)
        if self.emits_state not in LOGICAL_STATES:
            raise InvalidValue(f"unknown logical state {self.emits_state!r}")
        checked("progress_at_end", self.progress_at_end, (int, float), 0, 1)
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
        if not checked("app_id", self.app_id, (str,)):
            raise InvalidValue("app_id must be non-empty")
        if self.kind not in ("container", "native"):
            raise InvalidValue(f"app {self.app_id}: kind must be container or native")
        if self.kind == "container" and not self.image:
            raise InvalidValue(f"app {self.app_id}: container apps require an image")
        if self.kind == "native" and self.image:
            raise InvalidValue(f"app {self.app_id}: native apps carry no image")
        checked(f"app {self.app_id}: task_count", self.task_count, least=1, most=MAX_TASKS)
        checked(f"app {self.app_id}: walltime_limit_s", self.walltime_limit_s, least=1)
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
        if not self.trace or self.trace[-1].progress_at_end != 1.0:
            raise InvalidValue(f"app {self.app_id}: the trace must end at progress 1.0")

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


def logical_transition(current, requested, now, checkpoint_progress=0.0):
    """Apply an application-requested logical state change.

    Error is terminal. Progress may only decrease while entering Restoring,
    and never below the last completed checkpoint's progress.
    """
    if requested.state not in LOGICAL_STATES:
        raise InvalidValue(f"unknown logical state {requested.state!r}")
    checked("progress", requested.progress, (int, float), 0, 1)
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


class PhysicalSample(NamedTuple):
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
        return self._asdict()


SAMPLE_METRICS = PhysicalSample._fields[4:]


class NodeSample(NamedTuple):
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
        return self._asdict()


NODE_METRICS = NodeSample._fields[2:]


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

    def to_json(self):
        return {
            "app_id": self.app_id,
            "placement": {str(k): v for k, v in sorted(self.placement.items())},
            "per_task": self.per_task.to_json(),
            "start_t": self.start_t,
            "end_t": self.end_t,
            "status": self.status,
        }

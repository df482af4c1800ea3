"""Every operation survives any one field of the wrong type or range.

For each op of the operation table, one field of a valid payload (nested
fields included) is replaced by a value of another JSON type, a float that is
NaN or infinite, or an integer beyond 64 bits. The op either answers or
refuses with a SymplatError that changed nothing, and the platform keeps
working: its clock ticks, and `utilization_report` and `env_model` answer.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from symplat.core import OPERATOR_OPS, PlatformCore
from symplat.model import SymplatError

from test_api import IMAGE, app_spec, cluster

BOUNDARY = {"bc_id": "b1", "subject": {"kind": "app", "id": "solver-1"},
            "metric": "cpu_cores_used", "bound": "max", "threshold": 2, "window_s": 3}

# a valid payload for each op, against the platform `platform()` builds
VALID = {
    "register_image": {"image_id": "img-2", "name": "n", "owner": "o", "content_digest": "d"},
    "submit": {"spec": app_spec("solver-3", walltime=60).to_json()},
    "cancel": {"app_id": "solver-1"},
    "status": {"app_id": "solver-1"},
    "physical_model": {"app_id": "solver-1"},
    "env_model": {},
    "set_logical_state": {"app_id": "solver-1", "state": "Running", "progress": 0.5},
    "report_progress": {"app_id": "solver-1", "progress": 0.5},
    "adjust": {"app_id": "solver-1", "delta_per_task": {"cpu_cores": 1},
               "walltime_extension_s": 30},
    "register_boundary": {**BOUNDARY, "bc_id": "b2"},
    "drop_boundary": {"bc_id": "b1"},
    "subscribe_metrics": {"subject": {"kind": "app", "id": "solver-1"}},
    "subscribe_events": {"app_id": "solver-1"},
    "unsubscribe": {"subscription_id": "sub-1"},
    "drain_node": {"node_id": "n01"},
    "freeze_app": {"app_id": "solver-1"},
    "thaw_app": {"app_id": "solver-2"},
    "utilization_report": {"t0": 0, "t1": 2000},
}

WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.5, -1.0]),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.sampled_from([2**64, -2**64]),
)


def platform():
    """Two running apps, solver-2 frozen, a boundary and a subscription."""
    core = PlatformCore(cluster(), images=[IMAGE], mode="symmetric")
    for app_id in ("solver-1", "solver-2"):
        core.handle("submit", {"spec": app_spec(app_id).to_json()}, tenant="alice")
    core.tick()
    core.handle("freeze_app", {"app_id": "solver-2"}, operator=True)
    core.handle("register_boundary", BOUNDARY)
    core.handle("subscribe_metrics", {})
    core.tick()
    return core


def field_paths(obj, prefix=()):
    """The key path of every field in `obj`, nested ones included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def state(core):
    """What a refused op must leave as it was."""
    return (dict(core.bus.boundaries), dict(core.bus.subscriptions), dict(core.images),
            dict(core.owners),
            {a: r.to_json() for a, r in core.scheduler.reservations.items()})


# each op's field paths, plus a field it does not know
PATHS = [(op, path) for op in sorted(VALID)
         for path in [*field_paths(VALID[op]), ("unknown",)]]


def test_every_op_has_a_valid_payload():
    assert {name[4:] for name in dir(PlatformCore) if name.startswith("_op_")} == set(VALID)


@given(case=st.sampled_from(PATHS), value=WRONG)
@settings(derandomize=True, deadline=None, max_examples=1000)
def test_one_wrong_field_leaves_the_platform_working(case, value):
    op, path = case
    payload = copy.deepcopy(VALID[op])
    obj = payload
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    core = platform()
    before = state(core)
    try:
        core.handle(op, payload, tenant="alice", operator=op in OPERATOR_OPS)
    except SymplatError:
        assert state(core) == before
    for _ in range(5):
        core.tick()
    core.handle("utilization_report", {})
    core.handle("env_model", {})


@pytest.mark.parametrize("op, payload", [
    # a subscription to a kind no sample has would never deliver
    ("subscribe_metrics", {"subject": {"kind": "pod", "id": "x"}}),
    ("register_image", {**VALID["register_image"], "name": 5}),
    ("register_image", {**VALID["register_image"], "owner": [1]}),
    ("register_image", {**VALID["register_image"], "content_digest": None}),
    ("submit", {"spec": {**VALID["submit"]["spec"], "task_count": 1025}}),
])
def test_refused_as_invalid_value_leaving_the_platform_as_it_was(op, payload):
    core = platform()
    before = state(core)
    with pytest.raises(SymplatError) as err:
        core.handle(op, payload, tenant="alice", operator=op in OPERATOR_OPS)
    assert err.value.code == "invalid_value"
    assert state(core) == before

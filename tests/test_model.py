import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplat.model import (
    RV_DIMS,
    ApplicationSpec,
    ComponentOverflow,
    InvalidValue,
    LogicalStatus,
    NodeSample,
    NodeSpec,
    Phase,
    PhysicalSample,
    ProgressRegression,
    ResourceVector,
    TerminalState,
    ZERO,
    logical_transition,
)

from oracles import rv_le

GIB = 1 << 30

rv_values = st.integers(min_value=0, max_value=10**15)
rvs = st.builds(ResourceVector, **{d: rv_values for d in RV_DIMS})


class TestResourceVector:
    def test_add_zero_identity(self):
        b = ResourceVector(cpu_cores=4, memory_bytes=8 * GIB)
        assert ZERO.add(b) == b

    def test_add_component_sums(self):
        a = ResourceVector(cpu_cores=2, fs_bps=100_000_000)
        b = ResourceVector(cpu_cores=2, fs_bps=50_000_000)
        assert a.add(b) == ResourceVector(cpu_cores=4, fs_bps=150_000_000)

    def test_fold_sixteen_tasks(self):
        total = ZERO
        for _ in range(16):
            total = total.add(ResourceVector(cpu_cores=8))
        assert total.cpu_cores == 128

    def test_add_overflow_is_hard_error(self):
        huge = ResourceVector(cpu_cores=2**62)
        with pytest.raises(ComponentOverflow):
            huge.add(huge)

    def test_le_zero_vector(self):
        assert rv_le(ZERO, ResourceVector(cpu_cores=1))

    def test_le_reflexive(self):
        a = ResourceVector(cpu_cores=4, memory_bytes=8 * GIB)
        assert rv_le(a, a)

    def test_le_single_component_violation(self):
        a = ResourceVector(cpu_cores=5, memory_bytes=8 * GIB)
        b = ResourceVector(cpu_cores=4, memory_bytes=8 * GIB)
        assert not rv_le(a, b)

    @given(rvs, rvs, rvs)
    def test_partial_order_transitive(self, a, b, c):
        if rv_le(a, b) and rv_le(b, c):
            assert rv_le(a, c)

    @given(rvs, rvs)
    def test_le_of_own_sum(self, a, b):
        assert rv_le(a, a.add(b))

    @given(rvs, rvs)
    def test_add_commutative(self, a, b):
        assert a.add(b) == b.add(a)

    @given(rvs)
    def test_tuple_in_rv_dims_order(self, v):
        assert list(v.to_json()) == list(RV_DIMS)
        assert ResourceVector.from_json(v.to_json()) == v
        assert ResourceVector(*v) == v

    @given(rvs, rvs)
    def test_no_tuple_arithmetic(self, v, w):
        for op in (lambda: v + w, lambda: v * 2, lambda: 2 * v):
            with pytest.raises(TypeError):
                op()

    @given(rvs, st.integers(min_value=0, max_value=len(RV_DIMS) - 1))
    def test_overflow_names_first_dimension(self, v, first):
        # every dimension from `first` on overflows when doubled
        big = ResourceVector(*(x + 2**62 if i >= first else x for i, x in enumerate(v)))
        with pytest.raises(ComponentOverflow, match=f"^{RV_DIMS[first]} overflows on add"):
            big.add(big)

    def test_from_json_rejects_a_non_object(self):
        for obj in (["cpu_cores"], "cpu_cores", 4, None):
            with pytest.raises(InvalidValue):
                ResourceVector.from_json(obj)


class TestLogicalTransition:
    def test_non_error_transitions_allowed(self):
        cur = LogicalStatus(state="Running", progress=0.4)
        nxt = logical_transition(cur, LogicalStatus(state="Checkpointing", progress=0.4), now=5000)
        assert nxt.state == "Checkpointing"
        assert nxt.updated_at == 5000

    def test_error_is_terminal(self):
        cur = LogicalStatus(state="Error", progress=0.2)
        with pytest.raises(TerminalState):
            logical_transition(cur, LogicalStatus(state="Running", progress=0.3), now=0)

    def test_progress_regression_rejected(self):
        cur = LogicalStatus(state="Running", progress=0.6)
        with pytest.raises(ProgressRegression):
            logical_transition(cur, LogicalStatus(state="Running", progress=0.5), now=0)

    def test_restoring_may_regress_to_checkpoint(self):
        cur = LogicalStatus(state="Running", progress=0.6)
        nxt = logical_transition(cur, LogicalStatus(state="Restoring", progress=0.5),
                                 now=0, checkpoint_progress=0.5)
        assert nxt.progress == 0.5

    def test_restoring_below_checkpoint_rejected(self):
        cur = LogicalStatus(state="Running", progress=0.6)
        with pytest.raises(ProgressRegression):
            logical_transition(cur, LogicalStatus(state="Restoring", progress=0.3),
                               now=0, checkpoint_progress=0.5)

    def test_checkpoint_restore_replay_matches_transition_table(self):
        # hand-computed acceptance table for a checkpoint/restore trace
        steps = [
            # (state, progress, checkpoint_progress, accepted)
            ("Running", 0.2, 0.0, True),
            ("Checkpointing", 0.5, 0.0, True),
            ("Running", 0.5, 0.5, True),
            ("Running", 0.7, 0.5, True),
            ("Restoring", 0.5, 0.5, True),
            ("Restoring", 0.4, 0.5, False),
            ("Running", 0.6, 0.5, True),
            ("Running", 0.55, 0.5, False),
            ("Error", 0.6, 0.5, True),
            ("Running", 0.9, 0.5, False),  # terminal
        ]
        cur = LogicalStatus(state="Running", progress=0.0)
        for state, progress, ckpt, accepted in steps:
            req = LogicalStatus(state=state, progress=progress)
            if accepted:
                cur = logical_transition(cur, req, now=0, checkpoint_progress=ckpt)
            else:
                with pytest.raises((TerminalState, ProgressRegression)):
                    logical_transition(cur, req, now=0, checkpoint_progress=ckpt)

    @given(st.lists(st.tuples(
        st.sampled_from(("Running", "Checkpointing", "Restoring", "Idle", "Error")),
        st.floats(min_value=0.0, max_value=1.0)), max_size=30))
    def test_no_accepted_transition_leaves_error(self, seq):
        cur = LogicalStatus(state="Running", progress=0.0)
        for state, progress in seq:
            try:
                nxt = logical_transition(cur, LogicalStatus(state=state, progress=progress),
                                         now=0)
            except (TerminalState, ProgressRegression):
                continue
            if cur.state == "Error":
                pytest.fail("transition accepted out of Error")
            if nxt.state != "Restoring":
                assert nxt.progress >= cur.progress
            cur = nxt


def sample_spec():
    return ApplicationSpec(
        app_id="a1", kind="container", image="img", task_count=2,
        per_task_reservation=ResourceVector(cpu_cores=2, memory_bytes=GIB),
        walltime_limit_s=100,
        trace=(
            Phase(kind="compute", work_amount=40, demand=ResourceVector(cpu_cores=2),
                  emits_state="Running", progress_at_end=0.5),
            Phase(kind="checkpoint", work_amount=5, demand=ResourceVector(),
                  emits_state="Checkpointing", progress_at_end=1.0),
        ),
    )


class TestValidation:
    def test_native_with_io_reservation_rejected(self):
        spec = ApplicationSpec(
            app_id="nat", kind="native", task_count=1,
            per_task_reservation=ResourceVector(cpu_cores=2, fs_bps=100),
            walltime_limit_s=10,
        )
        with pytest.raises(Exception, match="native"):
            spec.validate()

    def test_container_requires_image(self):
        spec = ApplicationSpec(
            app_id="c", kind="container", task_count=1,
            per_task_reservation=ResourceVector(cpu_cores=1),
            walltime_limit_s=10,
        )
        with pytest.raises(Exception, match="image"):
            spec.validate()

    def test_trace_progress_must_not_decrease(self):
        spec = ApplicationSpec(
            app_id="c", kind="container", image="i", task_count=1,
            per_task_reservation=ResourceVector(cpu_cores=1),
            walltime_limit_s=10,
            trace=(
                Phase(kind="compute", work_amount=10, demand=ZERO, progress_at_end=0.8),
                Phase(kind="compute", work_amount=10, demand=ZERO, progress_at_end=0.5),
            ),
        )
        with pytest.raises(Exception, match="non-decreasing"):
            spec.validate()


class TestSerialization:
    @given(rvs)
    def test_resource_vector_roundtrip(self, rv):
        encoded = json.dumps(rv.to_json())
        assert ResourceVector.from_json(json.loads(encoded)) == rv

    def test_application_spec_roundtrip(self):
        spec = sample_spec()
        encoded = json.dumps(spec.to_json())
        assert ApplicationSpec.from_json(json.loads(encoded)) == spec

    def test_sample_json_key_order(self):
        metrics = ["cpu_cores_used", "memory_bytes_used", "fs_bps_used", "fs_iops_used",
                   "storage_bytes_used", "net_in_bps_used", "net_out_bps_used"]
        s = PhysicalSample(t=0, app_id="a", task_id=0, node_id="n1")
        assert list(s.to_json()) == ["t", "app_id", "task_id", "node_id", *metrics,
                                     "interproc_bps_used"]
        assert list(NodeSample(t=0, node_id="n1").to_json()) == ["t", "node_id", *metrics]

    def test_node_spec_roundtrip(self):
        n = NodeSpec(node_id="n1", capacity=ResourceVector(cpu_cores=8, memory_bytes=GIB))
        assert NodeSpec.from_json(json.loads(json.dumps(n.to_json()))) == n

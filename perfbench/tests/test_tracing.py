import itertools

from tracing import NO_CTX, Spans, Tracer


def fake_clock(step=10):
    ticks = itertools.count(0, step)
    return lambda: next(ticks)


class Work:
    def outer(self, n):
        for _ in range(n):
            self.inner()
        return n

    def inner(self):
        return 1

    def boom(self):
        raise KeyError("x")


def test_self_time_is_duration_minus_children():
    tr = Tracer(clock=fake_clock())
    tr.wrap(Work, "outer", "outer", ctx=lambda args, parent: 7)
    tr.wrap(Work, "inner", "inner")
    try:
        assert Work().outer(2) == 2
    finally:
        tr.uninstall()
    spans = tr.spans()
    # clock reads: outer open 0, inner 10-20, inner 30-40, outer close 50
    agg = spans.by_name()
    assert agg["outer"]["total_ns"] == 50 and agg["outer"]["self_ns"] == 30
    assert agg["inner"]["calls"] == 2 and agg["inner"]["self_ns"] == 20
    assert list(spans.ctx) == [7, 7, 7]  # children share the parent's context id
    assert spans.roots_ns() == 50
    assert spans.tail_after_last_child("outer", "inner") == 10


def test_overlapping_children_are_counted_once():
    # parent 0-100 with children 10-50 and 30-70 (union 10-70) and one
    # reaching past the parent's end (90-120, clipped to 90-100)
    spans = Spans(["p", "c"], [0, 1, 1, 1], [0, 10, 30, 90], [100, 50, 70, 120],
                  [-1, 0, 0, 0], [NO_CTX] * 4)
    assert spans.self_times()[0] == 100 - 60 - 10


def test_open_spans_are_ignored():
    spans = Spans(["p", "c"], [0, 1], [0, 10], [0, 20], [-1, 0], [NO_CTX] * 2)
    agg = spans.by_name()
    assert "p" not in agg and agg["c"]["total_ns"] == 10
    assert spans.roots_ns() == 0


def test_raised_calls_are_recorded_and_counted():
    tr = Tracer(clock=fake_clock())
    tr.wrap(Work, "boom", "boom")
    try:
        Work().boom()
    except KeyError:
        pass
    finally:
        tr.uninstall()
    assert tr.counts["boom.raised"] == 1
    assert tr.spans().by_name()["boom"]["calls"] == 1


def test_uninstall_restores_originals():
    original = Work.__dict__["inner"]
    tr = Tracer()
    tr.wrap(Work, "inner", "inner")
    assert Work.__dict__["inner"] is not original
    tr.uninstall()
    assert Work.__dict__["inner"] is original


def test_after_hook_records_counts():
    tr = Tracer(clock=fake_clock())
    tr.wrap(Work, "outer", "outer", after=lambda t, args, r: t.counts.update({"n": r}))
    try:
        Work().outer(3)
        Work().outer(4)
    finally:
        tr.uninstall()
    assert tr.counts["n"] == 7


def test_write_round_trips(tmp_path):
    import json

    tr = Tracer(clock=fake_clock())
    tr.wrap(Work, "outer", "outer")
    tr.wrap(Work, "inner", "inner")
    try:
        Work().outer(1)
    finally:
        tr.uninstall()
    path = tmp_path / "spans.json"
    tr.spans().write(str(path))
    doc = json.loads(path.read_text())
    assert doc["names"] == ["outer", "inner"]
    assert doc["spans"] == [[0, 0, 30, -1, -1], [1, 10, 20, 0, -1]]

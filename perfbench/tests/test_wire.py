import pytest

import wire


class FakeConn:
    """Answers each request from `replies`: op -> result, or an error when
    the op maps to None."""

    def __init__(self, replies):
        self.replies = replies
        self.pending = []
        self.seq = 0

    def send(self, op, payload):
        self.seq += 1
        msg_id = f"r{self.seq}"
        self.pending.append((msg_id, op))
        return msg_id

    def read(self):
        msg_id, op = self.pending.pop(0)
        result = self.replies[op]
        if result is None:
            return {"id": msg_id, "error": {"code": "internal", "message": "boom"}}
        return {"id": msg_id, "result": result}


def test_an_env_model_error_ends_the_session_as_a_failed_request():
    req = wire.Requester(FakeConn({"env_model": None}))
    with pytest.raises(wire.SessionEnded):
        wire.closed_loop(req, wire.Mix([]), [("status", "a")], 1.0, [], None)
    assert req.attempted == 1 and len(req.failures) == 1 and "env_model" in req.failures[0]


def test_a_malformed_env_model_result_fails_too():
    req = wire.Requester(FakeConn({"env_model": {"queue": []}}))
    with pytest.raises(wire.SessionEnded):
        wire.virtual_now(req)
    assert "malformed" in req.failures[0]


def test_warm_up_gives_up_on_a_stopped_clock():
    req = wire.Requester(FakeConn({"env_model": {"now": 0}}))
    with pytest.raises(wire.SessionEnded):
        wire.warm_up(req, limit_s=0.05)
    assert req.failures == ["the clock did not reach 2 virtual seconds within 0.05 s"]
    assert req.attempted >= 2


def test_warm_up_returns_once_the_clock_has_ticked_twice():
    req = wire.Requester(FakeConn({"env_model": {"now": 2000}}))
    wire.warm_up(req, limit_s=0.05)
    assert req.failures == [] and req.attempted == 1

import hashlib
import types

import common
import sim
from sim import Repeats

EXPECTED = {
    "default_seed": 1,
    "paper-replay": {"kalman/symmetric": "aa"},
    "deep-backlog": {"deep-backlog/symmetric": "bb"},
}


def test_digest_is_sha256_of_the_report_text():
    text = '{"a":1}'
    assert common.digest(text) == hashlib.sha256(text.encode()).hexdigest()


def test_recorded_digests_apply_to_the_default_seed_and_to_paper_replay():
    assert common.expected_digest(EXPECTED, "deep-backlog", "deep-backlog/symmetric", 1) == "bb"
    assert common.expected_digest(EXPECTED, "deep-backlog", "deep-backlog/symmetric", 7) is None
    # the shipped scenarios do not depend on the seed
    assert common.expected_digest(EXPECTED, "paper-replay", "kalman/symmetric", 7) == "aa"
    assert common.expected_digest(EXPECTED, "fleet-telemetry", "x", 1) is None


def test_committed_expectations_cover_every_simulation_workload():
    expected = common.load_expected()
    assert expected["default_seed"] == 1
    assert len(expected["paper-replay"]) == 8
    for workload in common.SIM_WORKLOADS:
        assert expected[workload], workload


def _repeats(workload, seed):
    r = Repeats(sp=None, workload=workload, seed=seed)
    r.expected = EXPECTED
    return r


def _report(errors=0):
    ops = [{"op": "status", "result": {}}] + [{"op": "adjust", "error": {"code": "x"}}] * errors
    return types.SimpleNamespace(op_log=ops)


def test_check_flags_a_mismatch_with_the_recording():
    r = _repeats("deep-backlog", 1)
    r.check("deep-backlog/symmetric", "bb", _report())
    assert r.failures == []
    r.check("deep-backlog/symmetric", "cc", _report())
    assert len(r.failures) == 1 and "recorded" in r.failures[0]


def test_check_flags_drift_between_repetitions_at_other_seeds():
    r = _repeats("deep-backlog", 9)
    r.check("deep-backlog/symmetric", "d1", _report())
    r.check("deep-backlog/symmetric", "d1", _report())
    assert r.failures == []
    r.check("deep-backlog/symmetric", "d2", _report())
    assert len(r.failures) == 1 and "differs" in r.failures[0]
    assert r.digests == {"deep-backlog/symmetric": "d1"}


def test_scripted_op_errors_fail_generated_workloads_only():
    r = _repeats("deep-backlog", 9)
    r.check("deep-backlog/symmetric", "d1", _report(errors=1))
    assert len(r.failures) == 1 and "scripted op failed" in r.failures[0]
    # asymmetric paper runs refuse adjust by design; their digest covers it
    p = _repeats("paper-replay", 9)
    p.check("kalman/symmetric", "aa", _report(errors=1))
    assert p.failures == []


def test_rates_are_medians_of_whole_repetitions():
    r = _repeats("deep-backlog", 9)
    r.rss_mib = 30.0
    # (runs, ticks, run_ns, loop_ns) per repetition; the second holds a 1 s pause
    r.totals["scaled"] = [(2, 100, 1e9, 2e9), (2, 100, 2e9, 4e9), (2, 100, 1.25e9, 2.5e9)]
    r.tick_ns["scaled"] = {"k": [[1000.0] * 100, [1000.0] * 99 + [1e9], [1000.0] * 100]}
    metrics, info = sim.end_to_end(r)
    assert metrics["ticks_per_s"] == 80.0        # 100 ticks in the median repetition's 1.25 s
    assert metrics["clock_ticks_per_s"] == 40.0
    assert metrics["req_per_s"] == 0.8
    assert sim.end_to_end(r, "raw")[0]["ticks_per_s"] == 0.0   # nothing measured raw


def test_tick_percentiles_are_over_a_typical_run():
    r = _repeats("deep-backlog", 9)
    ticks = [1000.0] * 98 + [5e6, 6e6]
    # a pause on a different tick in each repetition is left out of the percentiles ...
    r.tick_ns["scaled"] = {"k": [ticks[:10] + [1e9] + ticks[11:], list(ticks), ticks[:20] + [1e9] + ticks[21:]]}
    r.totals["scaled"] = [(1, 100, 1.0, 1.0)]
    metrics, info = sim.end_to_end(r)
    assert metrics["rtt_us_p50"] == 1.0 and metrics["rtt_us_p99"] == 5000.0
    assert info["rtt_samples"] == 100 and info["rtt_beyond_p99"] == 1
    # ... and what is left out is stated: the median repetition holds one pause
    typical = sum(ticks)
    assert info["tick_share"] == typical / (typical - 1000.0 + 1e9)
    assert sim.typical_ticks({"a": [[1, 5], [3, 2], [2, 9]], "b": [[7], [8], [6]]}) == [2, 5, 7]

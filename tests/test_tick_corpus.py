"""Golden tick corpus: every tick of the report corpus must stay byte-identical.

Reports do not pin per-task rates, so for each run of `test_report_corpus.py`
this hashes, tick by tick, the `TickResult` (samples, node samples,
completions, errors), `engine.last_allocations` and the alarms raised during
that tick. `tick_digests.json` holds, per run, the tick count and the sha256
over the per-tick digests in order. Re-record only for an intended change of
behaviour:

    PYTHONPATH=src python tests/test_tick_corpus.py --record
"""

import hashlib
import json
import os
import sys

import pytest

from test_report_corpus import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "tick_digests.json")


def tick_record(core, alarms):
    result = core.last_tick_result
    return {
        "t": core.now,
        "samples": [s.to_json() for s in result.samples],
        "node_samples": [ns.to_json() for ns in result.node_samples],
        "completions": result.completions,
        "errors": result.errors,
        "allocations": core.engine.last_allocations,
        "alarms": [a.to_json() for a in alarms],
    }


def run_digest(build):
    """(tick count, sha256 over the sha256 of every tick's record)."""
    chain = hashlib.sha256()
    ticks = 0
    seen_alarms = 0

    def on_tick(core):
        nonlocal ticks, seen_alarms
        log = core.bus.alarm_log
        record = tick_record(core, log[seen_alarms:])
        seen_alarms = len(log)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        chain.update(hashlib.sha256(line.encode()).digest())
        ticks += 1

    build(on_tick)
    return {"ticks": ticks, "sha256": chain.hexdigest()}


@pytest.fixture(scope="module")
def recorded():
    with open(DIGESTS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,build", corpus(), ids=[n for n, _ in corpus()])
def test_tick_digest(recorded, name, build):
    assert run_digest(build) == recorded[name], f"ticks of {name} changed"


def test_corpus_is_complete(recorded):
    assert sorted(recorded) == sorted(n for n, _ in corpus())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_tick_corpus.py --record")
    with open(DIGESTS, "w") as fh:
        json.dump({name: run_digest(build) for name, build in corpus()}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")

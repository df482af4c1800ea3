import json
import os
import re

from common import ROOT, WORKLOADS
from layers import PER_LAYER
from run import END_TO_END

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_declares_exactly_what_run_py_prints():
    doc = load()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER


def test_shape_and_limits():
    doc = load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"] and doc["command"][1].startswith("perfbench/")
    assert 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])

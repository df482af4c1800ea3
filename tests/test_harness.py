import functools
import json
import textwrap
import threading
import time

import pytest

from symplat import api, cli
from symplat.api import WireServer
from symplat.cli import main
from symplat.core import PlatformCore
from symplat.harness import run_scenario
from symplat.scenario import (
    ParseError,
    ValidationError,
    load_scenario,
    scenario_from_dict,
)

SCENARIO_DIR = "scenarios"

MINIMAL = {
    "schema": 1,
    "name": "minimal",
    "duration_s": 30,
    "cluster": [
        {"node_id": "n01", "capacity": {
            "cpu_cores": 16, "memory_bytes": 1 << 36, "fs_bps": 500_000_000,
            "net_in_bps": 10**9, "net_out_bps": 10**9, "fs_iops": 100_000,
            "storage_bytes": 10**12}},
    ],
    "images": [
        {"image_id": "img-0", "name": "base", "owner": "ops", "content_digest": "sha256:0"},
    ],
    "apps": [
        {"spec": {
            "app_id": "tiny", "kind": "container", "image": "img-0",
            "task_count": 1,
            "per_task_reservation": {"cpu_cores": 4, "memory_bytes": 1 << 30},
            "walltime_limit_s": 60,
            "trace": [{"kind": "compute", "work_amount": 40,
                       "demand": {"cpu_cores": 4}, "progress_at_end": 1.0}],
        }, "submit_at_s": 0, "tenant": "alice"},
    ],
}


def scenario_doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


# (where the first entry of a section is spoiled, what goes there (None:
# nothing), the refusal): one form for a missing field and one for an entry
# that is not a mapping, in every section, and a value of the wrong type
BAD_ENTRIES = [
    (("cluster", 0, "node_id"), None, "cluster[0]: missing field 'node_id'"),
    (("cluster", 0, "node_id"), 5, "cluster[0]: node_id must be str, got 5"),
    (("cluster", 0), "n01", "cluster[0]: entry must be dict, got 'n01'"),
    (("images", 0, "name"), None, "images[0]: missing field 'name'"),
    (("images", 0), 5, "images[0]: entry must be dict, got 5"),
    (("apps", 0, "spec", "kind"), None, "apps[0]: missing field 'kind'"),
    (("apps", 0, "spec"), "tiny", "apps[0]: entry must be dict, got 'tiny'"),
]
BAD_ENTRY_IDS = ["cluster-missing", "cluster-int-node-id", "cluster-scalar", "images-missing",
                 "images-scalar", "apps-missing", "apps-scalar"]


def spoiled(path, value):
    """The minimal scenario with `value` at `path`, or nothing there if it is None."""
    doc = scenario_doc()
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    if value is None:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    return doc


class TestScenarioValidation:
    def test_minimal_parses(self):
        scenario = scenario_from_dict(scenario_doc())
        assert scenario.name == "minimal"
        assert scenario.duration_ms == 30_000
        assert [spec.app_id for spec, _, _ in scenario.apps] == ["tiny"]

    def test_schema_field_required(self):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(scenario_doc(schema=2))
        assert err.value.fieldpath == "schema"

    def test_bad_mode(self):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(scenario_doc(mode="turbo"))
        assert err.value.fieldpath == "mode"

    def test_unknown_image_reference_pinpointed(self):
        doc = scenario_doc()
        doc["apps"][0]["spec"]["image"] = "missing"
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.fieldpath == "apps[0]"
        assert "missing" in str(err.value)

    def test_duplicate_node_ids(self):
        doc = scenario_doc()
        doc["cluster"].append(doc["cluster"][0])
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.fieldpath == "cluster"

    def test_script_op_outside_duration(self):
        doc = scenario_doc(script=[{"at_s": 99999, "op": "freeze_app",
                                    "payload": {"app_id": "tiny"}}])
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.fieldpath == "script[0]"

    def test_file_error_names_the_field_path_once(self, tmp_path):
        doc = scenario_doc()
        doc["apps"][0]["spec"]["task_count"] = 0
        path = tmp_path / "zero-tasks.yaml"
        path.write_text(json.dumps(doc))  # JSON is YAML
        with pytest.raises(ValidationError) as err:
            load_scenario(str(path))
        assert str(err.value) == "apps[0]: app tiny: task_count must be in [1, 1024]"

    @pytest.mark.parametrize("path, value, refusal", BAD_ENTRIES, ids=BAD_ENTRY_IDS)
    def test_an_entry_is_refused_in_one_form(self, path, value, refusal):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(spoiled(path, value))
        assert (str(err.value), err.value.fieldpath) == (refusal, f"{path[0]}[0]")

    @pytest.mark.parametrize("field, value", [
        ("grace_s", "60"), ("grace_s", -1), ("grace_s", True),
        ("retention_s", 0), ("retention_s", 1.5), ("retention_s", False),
    ])
    def test_grace_and_retention_must_be_integers_in_range(self, field, value):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(scenario_doc(**{field: value}))
        assert err.value.fieldpath == field

    @pytest.mark.parametrize("path, value, fieldpath", [
        (("duration_s",), True, "duration_s"),
        (("apps", 0, "submit_at_s"), True, "apps[0]"),
        (("apps", 0, "spec", "task_count"), 1.5, "apps[0]"),
        (("apps", 0, "spec", "walltime_limit_s"), 1.5, "apps[0]"),
        (("script", 0, "at_s"), True, "script[0]"),
        (("script", 0, "operator"), "false", "script[0]"),
        (("script", 0, "tenant"), 5, "script[0]"),
        (("script", 0), 5, "script[0]"),
        (("cluster",), 5, "cluster"),
        (("seed",), "abc", "seed"),
        (("seed",), 1.5, "seed"),
        (("name",), ["a"], "name"),
        (("apps", 0, "tenant"), 5, "apps[0]"),
    ])
    def test_fields_take_their_exact_type(self, path, value, fieldpath):
        doc = scenario_doc(script=[{"at_s": 1, "op": "status", "payload": {"app_id": "tiny"}}])
        scenario_from_dict(doc)  # valid as it stands
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.fieldpath == fieldpath

    @pytest.mark.parametrize("entry, key", [("apps", "submit_at_s"), ("script", "at_s")])
    @pytest.mark.parametrize("after_s", [0, 20])
    def test_validate_refuses_an_entry_no_tick_reaches(self, entry, key, after_s, tmp_path,
                                                       capsys):
        """A run ticks while now < duration_s, so nothing at duration_s or later runs."""
        doc = scenario_doc(script=[{"at_s": 1, "op": "status", "payload": {"app_id": "tiny"}}])
        doc[entry][0][key] = doc["duration_s"] + after_s
        path = tmp_path / "late.yaml"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {entry}[0]: {key} must be in [0, 29]")

    def test_entries_at_the_last_tick_run(self):
        doc = scenario_doc(script=[{"at_s": 29, "op": "status", "payload": {"app_id": "late"}}])
        late = json.loads(json.dumps(doc["apps"][0]))
        late["spec"]["app_id"], late["submit_at_s"] = "late", 29
        doc["apps"].append(late)
        report = run_scenario(scenario_from_dict(doc)).to_json()
        assert sorted(report["apps"]) == ["late", "tiny"]
        assert [(e["t"], e["op"]) for e in report["op_log"]] == [
            (0, "submit"), (29_000, "submit"), (29_000, "status")]
        assert "result" in report["op_log"][-1]

    def test_a_scenario_without_end_keeps_its_later_submits(self):
        """`serve` of a `duration_s: 0` scenario has no end and submits only its t=0 apps."""
        doc = scenario_doc(duration_s=0)
        doc["apps"][0]["submit_at_s"] = 50
        assert scenario_from_dict(doc).apps[0][1] == 50_000

    def test_least_grace_and_retention_run(self):
        scenario = scenario_from_dict(scenario_doc(grace_s=0, retention_s=1))
        assert (scenario.grace_s, scenario.retention_s) == (0, 1)
        assert run_scenario(scenario).apps["tiny"] == "Completed"

    def test_yaml_syntax_error_carries_location(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("schema: 1\nname: [unclosed\n")
        with pytest.raises(ParseError) as err:
            load_scenario(str(bad))
        assert err.value.path == str(bad)
        assert err.value.line is not None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(str(tmp_path / "nope.yaml"))


class TestRunner:
    def test_empty_scenario_yields_empty_report(self):
        doc = scenario_doc(apps=[], duration_s=0)
        report = run_scenario(scenario_from_dict(doc))
        assert report.apps == {}
        assert report.events == []
        assert report.utilization is None

    def test_run_is_byte_identical_across_runs(self):
        a = run_scenario(scenario_from_dict(scenario_doc()))
        b = run_scenario(scenario_from_dict(scenario_doc()))
        assert a.to_json_str() == b.to_json_str()

    def test_early_exit_when_work_is_done(self):
        # 40 work at 4 cores/s finishes after 10 ticks, well before duration_s
        report = run_scenario(scenario_from_dict(scenario_doc()))
        assert report.apps["tiny"] == "Completed"
        assert report.summary["tiny"]["duration_s"] == 10
        assert report.finished_at_ms < 30_000

    def test_script_errors_recorded_not_fatal(self):
        doc = scenario_doc(script=[{"at_s": 1, "op": "freeze_app",
                                    "payload": {"app_id": "no-such-app"}}])
        report = run_scenario(scenario_from_dict(doc))
        errors = [e for e in report.op_log if "error" in e]
        assert len(errors) == 1 and errors[0]["error"]["code"] == "no_such_app"
        assert report.apps["tiny"] == "Completed"

    def test_mode_dominance_on_shipped_scenarios(self):
        for name in ("kalman", "amr", "io-contention", "native-only"):
            scenario_path = f"{SCENARIO_DIR}/{name}.yaml"
            sym = run_scenario(load_scenario(scenario_path), mode_override="symmetric")
            asym = run_scenario(load_scenario(scenario_path), mode_override="asymmetric")
            assert (sym.utilization["hollow_core_seconds"]
                    <= asym.utilization["hollow_core_seconds"]), name

    def test_report_lists_every_event_and_alarm_once(self):
        doc = scenario_doc(script=[
            {"at_s": 2, "op": "freeze_app", "payload": {"app_id": "tiny"}},
            {"at_s": 4, "op": "thaw_app", "payload": {"app_id": "tiny"}},
        ])
        report = run_scenario(scenario_from_dict(doc))
        env = [e["event"] for e in report.events if e["type"] == "env_event"]
        assert env.count("Freezing") == 1
        assert env.count("Thawed") == 1

    def test_render_table_mentions_every_app(self):
        report = run_scenario(scenario_from_dict(scenario_doc()))
        table = report.render_table()
        assert "tiny" in table and "Completed" in table
        assert "hollow core-seconds" in table


class TestCli:
    def test_run_exit_zero_and_json_output(self, capsys):
        assert main(["run", f"{SCENARIO_DIR}/kalman.yaml"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["apps"]["kalman"] == "Completed"

    def test_run_table_output(self, capsys):
        assert main(["run", f"{SCENARIO_DIR}/kalman.yaml", "--table"]) == 0
        assert "kalman" in capsys.readouterr().out

    def test_mode_override_flag(self, capsys):
        assert main(["run", f"{SCENARIO_DIR}/kalman.yaml", "--mode", "asymmetric"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["apps"]["kalman"] == "TerminatedWalltime"

    def test_validate_ok(self, capsys):
        assert main(["validate", f"{SCENARIO_DIR}/kalman.yaml"]) == 0

    def test_missing_scenario_file_is_usage_error(self, capsys):
        assert main(["run", "does-not-exist.yaml"]) == 2

    def test_invalid_scenario_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(textwrap.dedent("""\
            schema: 1
            duration_s: -5
        """))
        assert main(["validate", str(bad)]) == 2
        assert "duration_s" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("grace_s", "60"), ("retention_s", 0)])
    def test_run_of_invalid_limits_is_usage_error(self, field, value, tmp_path, capsys):
        path = tmp_path / "limits.yaml"
        path.write_text(json.dumps(scenario_doc(**{field: value})))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_validate_refuses_a_fractional_task_count(self, tmp_path, capsys):
        doc = scenario_doc()
        doc["apps"][0]["spec"]["task_count"] = 1.5
        path = tmp_path / "fractional.yaml"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: apps[0]: ")

    def test_run_refuses_a_node_id_that_is_no_string(self, tmp_path, capsys):
        """Node ids are sorted, so a node_id 5 beside n01 must be refused
        before the run."""
        doc = scenario_doc()
        doc["cluster"].insert(0, {**doc["cluster"][0], "node_id": 5})
        path = tmp_path / "int-node.yaml"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "error: cluster[0]: node_id must be str, got 5\n"

    def test_validate_bounds_task_count_at_1024(self, tmp_path, capsys):
        doc = scenario_doc()
        path = tmp_path / "wide.yaml"
        for task_count, status in ((1024, 0), (1025, 2)):
            doc["apps"][0]["spec"]["task_count"] = task_count
            path.write_text(json.dumps(doc))
            assert main(["validate", str(path)]) == status
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: apps[0]: ")

    @pytest.mark.parametrize("entry, key, value", [
        ("cluster", "capacity", {"cpu_cores": 16, "memory_bytes": 2**64}),
        ("images", "image_id", 5),
        ("images", "name", 5),
        ("images", "owner", [1]),
        ("images", "content_digest", None),
    ])
    def test_validate_refuses_a_wrong_entry_field(self, entry, key, value, tmp_path, capsys):
        doc = scenario_doc()
        doc[entry][0][key] = value
        path = tmp_path / "wrong.yaml"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {entry}[0]: ")

    @pytest.mark.parametrize("path, value, refusal", BAD_ENTRIES, ids=BAD_ENTRY_IDS)
    def test_validate_refuses_a_bad_entry_in_one_form(self, path, value, refusal,
                                                     tmp_path, capsys):
        scenario = tmp_path / "bad-entry.yaml"
        scenario.write_text(json.dumps(spoiled(path, value)))
        assert main(["validate", str(scenario)]) == 2
        assert capsys.readouterr().err == f"error: {refusal}\n"

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_connection_refused_is_runtime_error(self):
        assert main(["status", "x", "--connect", "127.0.0.1:1"]) == 1

    @pytest.mark.parametrize("argv, env", [
        (["serve", f"{SCENARIO_DIR}/kalman.yaml", "--listen", "foo:bar"], None),
        (["status", "x", "--connect", "127.0.0.1:notaport"], None),
        (["status", "x"], "127.0.0.1:notaport"),
        (["adjust", "x", "--delta", "{cpu"], None),
    ])
    def test_malformed_address_or_delta_is_usage_error(self, argv, env, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("CHPC_LISTEN", env)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_serve_refuses_a_file_at_its_socket_path(self, tmp_path, capsys):
        doc = tmp_path / "minimal.yaml"
        doc.write_text(json.dumps(MINIMAL))
        notes = tmp_path / "notes.txt"
        notes.write_bytes(b"not a socket\n")
        assert main(["serve", str(doc), "--listen", str(notes), "--speedup", "1000"]) == 1
        assert notes.read_bytes() == b"not a socket\n"
        assert capsys.readouterr().err.startswith("error: ")

    def test_serve_reports_a_bind_failure_with_its_path(self, tmp_path, capsys):
        doc = tmp_path / "minimal.yaml"
        doc.write_text(json.dumps(MINIMAL))
        listen = str(tmp_path / "missing" / "x.sock")
        assert main(["serve", str(doc), "--listen", listen, "--speedup", "1000"]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot listen on {listen}: No such file or directory\n")

    def test_serve_reports_a_refused_app_and_keeps_serving(self, tmp_path, capsys):
        doc = scenario_doc(duration_s=5)
        doc["cluster"][0]["capacity"]["cpu_cores"] = 4
        doc["apps"][0]["spec"]["per_task_reservation"]["cpu_cores"] = 8
        path = tmp_path / "wide.yaml"
        path.write_text(json.dumps(doc))
        sock = tmp_path / "x.sock"
        assert main(["serve", str(path), "--listen", str(sock), "--speedup", "1000"]) == 0
        refusal, listening = capsys.readouterr().err.splitlines()
        assert refusal.startswith("refused tiny [insufficient_capacity]: ")
        assert listening.startswith(f"listening on {sock}")
        assert not sock.exists()

    def test_client_commands_against_a_live_server(self, tmp_path, capsys):
        scen = scenario_from_dict(MINIMAL)
        records = []
        core = PlatformCore(scen.nodes, scen.images, record=records.append)
        spec, _, tenant = scen.apps[0]
        core.handle("submit", {"spec": spec.to_json()}, tenant=tenant)
        core.tick()  # activates the app
        sock = str(tmp_path / "symplat.sock")
        server = WireServer(core, sock).start()

        def run(*argv):
            assert main([*argv, "--connect", sock, "--tenant", tenant]) == 0
            return json.loads(capsys.readouterr().out)

        try:
            status = run("status", "tiny")
            assert (status["reservation"]["status"], status["logical"]["state"]) == (
                "Active", "Running")
            adjust = run("adjust", "tiny", "--delta", '{"cpu_cores": 2}', "--extension-s", "30")
            assert (adjust["decision"], adjust["granted_delta"]["cpu_cores"],
                    adjust["granted_extension_s"]) == ("Granted", 2, 30)
            report = run("report", "--t0", "0", "--t1", "1")
            assert report == core.scheduler.utilization_report(0, 1000)
            # freeze, thaw and drain are operator commands: the client must say
            # so in its hello
            assert run("freeze", "tiny") == {"app_id": "tiny", "frozen": True}
            assert core.scheduler.reservations["tiny"].status == "Frozen"
            assert run("thaw", "tiny") == {"app_id": "tiny", "frozen": False}
            assert core.scheduler.reservations["tiny"].status == "Active"
            assert run("drain", "n01") == {"node_id": "n01", "draining": ["tiny"]}
            assert records[-1]["event"] == "Draining"
        finally:
            server.stop()

    def test_submit_of_a_spec_file_and_a_refused_request(self, tmp_path, capsys):
        scen = scenario_from_dict(MINIMAL)
        spec = tmp_path / "tiny.yaml"
        spec.write_text(json.dumps(MINIMAL["apps"][0]["spec"]))  # JSON is YAML
        sock = str(tmp_path / "symplat.sock")
        server = WireServer(PlatformCore(scen.nodes, scen.images), sock).start()  # no clock
        try:
            assert main(["submit", str(spec), "--connect", sock, "--tenant", "alice"]) == 0
            reservation = json.loads(capsys.readouterr().out)["reservation"]
            assert (reservation["app_id"], reservation["status"]) == ("tiny", "Queued")
            assert server.core.owners["tiny"] == "alice"
            assert main(["status", "ghost", "--connect", sock]) == 1
            assert capsys.readouterr().err.startswith("error [no_such_app]: ")
        finally:
            server.stop()

    @pytest.mark.parametrize("mode", [["--duration", "1"], ["--follow"]],
                             ids=["duration", "follow"])
    def test_metrics_prints_the_pushes_of_its_app(self, mode, tmp_path, capsys):
        doc = scenario_doc()
        doc["apps"][0]["spec"]["trace"][0]["work_amount"] = 4000  # runs past the test
        scen = scenario_from_dict(doc)
        core = PlatformCore(scen.nodes, scen.images)
        spec, _, tenant = scen.apps[0]
        core.handle("submit", {"spec": spec.to_json()}, tenant=tenant)
        sock = str(tmp_path / "symplat.sock")
        server = WireServer(core, sock, speedup=50).start()
        codes = []
        reader = threading.Thread(target=lambda: codes.append(main(
            ["metrics", "--app-id", "tiny", "--events", *mode, "--connect", sock])))
        reader.start()
        try:
            reader.join(1.2)  # a follower streams until the server stops
        finally:
            server.stop()
        reader.join(5.0)
        assert not reader.is_alive() and codes == [0]
        pushes = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        samples = [p for p in pushes if p["type"] == "sample"]
        assert samples and {p["app_id"] for p in samples} == {"tiny"}
        assert {p["type"] for p in pushes} <= {"sample", "event"}

    def test_metrics_follow_waits_out_a_quiet_stream(self, tmp_path, monkeypatch):
        # a client timeout shorter than the wait: following must outlast it
        monkeypatch.setattr(cli, "WireClient", functools.partial(api.WireClient, timeout=0.3))
        scen = scenario_from_dict(MINIMAL)
        sock = str(tmp_path / "symplat.sock")
        server = WireServer(PlatformCore(scen.nodes, scen.images), sock).start()  # no clock
        codes = []
        follower = threading.Thread(
            target=lambda: codes.append(main(["metrics", "--follow", "--connect", sock])))
        follower.start()
        try:
            follower.join(1.0)
            assert follower.is_alive(), codes
        finally:
            server.stop()
        follower.join(5.0)
        assert not follower.is_alive() and codes == [0]

    def test_metrics_duration_stops_at_its_deadline(self, tmp_path, capsys):
        scen = scenario_from_dict(MINIMAL)
        sock = str(tmp_path / "symplat.sock")
        server = WireServer(PlatformCore(scen.nodes, scen.images), sock).start()  # no clock
        try:
            start = time.monotonic()
            assert main(["metrics", "--duration", "1", "--connect", sock]) == 0
            assert time.monotonic() - start < 3
        finally:
            server.stop()

"""Command line interface: scenario runs, the live wire service, thin clients.

Exit codes: 0 success, 1 runtime error, 2 usage or parse error. Diagnostics go
to stderr; machine-readable output (report JSON, metric lines) goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import yaml

from .api import WireClient, WireServer
from .core import PlatformCore
from .harness import run_scenario
from .model import SymplatError
from .scenario import ParseError, ValidationError, load_scenario

DEFAULT_LISTEN = "127.0.0.1:7077"


def _listen(address):
    """The address given, else $CHPC_LISTEN, else DEFAULT_LISTEN."""
    return address or os.environ.get("CHPC_LISTEN") or DEFAULT_LISTEN


def _client(args, **kwargs):
    return WireClient(_listen(args.connect), tenant=args.tenant, **kwargs)


def _load(path):
    try:
        return load_scenario(path)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_run(args):
    scenario = _load(args.scenario)
    report = run_scenario(scenario, mode_override=args.mode)
    if args.table:
        print(report.render_table())
    else:
        print(report.to_json_str())
    return 0


def cmd_validate(args):
    _load(args.scenario)
    print(f"{args.scenario}: ok", file=sys.stderr)
    return 0


def cmd_serve(args):
    scenario = _load(args.scenario)
    core = PlatformCore(scenario.nodes, scenario.images, mode=args.mode or scenario.mode,
                        grace_s=scenario.grace_s, retention_s=scenario.retention_s)
    listen = _listen(args.listen)
    try:
        server = WireServer(core, listen, speedup=args.speedup,
                            duration_ms=scenario.duration_ms or None)
    except OSError as exc:  # not a missing scenario, even when it is an ENOENT
        reason = os.strerror(exc.errno) if exc.errno else exc
        print(f"error: cannot listen on {listen}: {reason}", file=sys.stderr)
        return 1
    try:
        # serve submits only the t=0 apps: later submissions and the scenario's
        # `script` are not replayed, clients send them through the API; a
        # refused submit is reported, as `run` logs it, and serving goes on
        for spec, submit_at, tenant in scenario.apps:
            if submit_at == 0:
                try:
                    core.handle("submit", {"spec": spec.to_json()}, tenant=tenant)
                except SymplatError as exc:
                    print(f"refused {spec.app_id} [{exc.code}]: {exc}", file=sys.stderr)
        server.start()
        print(f"listening on {server.address}, speedup {args.speedup}", file=sys.stderr)
        while True:
            time.sleep(0.2)
            if scenario.duration_ms and core.now >= scenario.duration_ms:
                break
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _request(args, op, payload, operator=False):
    client = _client(args, operator=operator)
    try:
        result = client.request(op, payload)
    finally:
        client.close()
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_submit(args):
    with open(args.spec_file, "r", encoding="utf-8") as fh:
        spec = yaml.safe_load(fh)
    return _request(args, "submit", {"spec": spec})


def cmd_one_argument(args):
    return _request(args, args.op, {args.argument: getattr(args, args.argument)},
                    operator=args.operator)


def cmd_adjust(args):
    payload = {"app_id": args.app_id, "walltime_extension_s": args.extension_s}
    if args.delta:
        payload["delta_per_task"] = json.loads(args.delta)
    return _request(args, "adjust", payload)


def cmd_metrics(args):
    # a follower waits for pushes as long as the server runs, however quiet
    client = _client(args, timeout=None) if args.follow else _client(args)
    payload = {}
    if args.app_id:
        payload["subject"] = {"kind": "app", "id": args.app_id}
    client.request("subscribe_metrics", payload)
    if args.events:
        client.request("subscribe_events", {})
    try:
        if args.follow:
            while True:
                push = client.next_push()
                print(json.dumps(push["push"], sort_keys=True), flush=True)
        else:
            deadline = time.monotonic() + args.duration
            while (left := deadline - time.monotonic()) > 0:
                client.sock.settimeout(min(left, client.sock.gettimeout()))  # nor past the deadline
                try:
                    push = client.next_push()
                except (TimeoutError, OSError):
                    break
                print(json.dumps(push["push"], sort_keys=True), flush=True)
    except (KeyboardInterrupt, ConnectionError):
        pass
    finally:
        client.close()
    return 0


def cmd_report(args):
    payload = {}
    if args.t0 is not None:
        payload["t0"] = args.t0 * 1000
    if args.t1 is not None:
        payload["t1"] = args.t1 * 1000
    return _request(args, "utilization_report", payload)


def build_parser():
    p = argparse.ArgumentParser(prog="symplat",
                                description="symmetric cluster platform simulator")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a scenario to completion")
    runp.add_argument("scenario")
    runp.add_argument("--mode", choices=["symmetric", "asymmetric"])
    runp.add_argument("--table", action="store_true", help="render a text table instead of JSON")
    runp.set_defaults(func=cmd_run)

    vp = sub.add_parser("validate", help="parse and validate a scenario file")
    vp.add_argument("scenario")
    vp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("serve", help="serve the platform API against a live simulation")
    sp.add_argument("scenario")
    sp.add_argument("--mode", choices=["symmetric", "asymmetric"])
    sp.add_argument("--listen", help="host:port or unix socket path (default $CHPC_LISTEN)")
    sp.add_argument("--speedup", type=float, default=1.0,
                    help="virtual ticks per real second")
    sp.set_defaults(func=cmd_serve)

    def add_client_args(cp):
        cp.add_argument("--connect", help="server address (default $CHPC_LISTEN)")
        cp.add_argument("--tenant", default="default")

    cp = sub.add_parser("submit", help="submit an application spec")
    cp.add_argument("spec_file")
    add_client_args(cp)
    cp.set_defaults(func=cmd_submit)

    cp = sub.add_parser("adjust", help="request a resource/walltime adjustment")
    cp.add_argument("app_id")
    cp.add_argument("--delta", help="JSON resource delta per task")
    cp.add_argument("--extension-s", type=int, default=0)
    add_client_args(cp)
    cp.set_defaults(func=cmd_adjust)

    # the commands that send one request naming one app or node
    for name, op, argument, operator, help_ in (
            ("status", "status", "app_id", False, "reservation and logical status of an app"),
            ("freeze", "freeze_app", "app_id", True, "freeze an app (operator)"),
            ("thaw", "thaw_app", "app_id", True, "thaw a frozen app (operator)"),
            ("drain", "drain_node", "node_id", True, "drain a node (operator)")):
        cp = sub.add_parser(name, help=help_)
        cp.add_argument(argument)
        add_client_args(cp)
        cp.set_defaults(func=cmd_one_argument, op=op, argument=argument, operator=operator)

    cp = sub.add_parser("metrics", help="stream samples and alarms")
    cp.add_argument("--app-id")
    cp.add_argument("--follow", action="store_true")
    cp.add_argument("--events", action="store_true", help="also stream platform events")
    cp.add_argument("--duration", type=float, default=2.0,
                    help="seconds to stream when not following")
    add_client_args(cp)
    cp.set_defaults(func=cmd_metrics)

    cp = sub.add_parser("report", help="fetch a utilization report")
    cp.add_argument("--t0", type=int, help="window start, virtual seconds")
    cp.add_argument("--t1", type=int, help="window end, virtual seconds")
    add_client_args(cp)
    cp.set_defaults(func=cmd_report)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except SymplatError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a malformed address or --delta
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Every symplat name that the benchmark's traced runs wrap, swap or read exists.

`perfbench/layers.py` and `perfbench/server.py` replace methods by name
(`tracer.wrap(<owner>, "<name>", ...)`) and put a timing proxy on the wire
server's `core_lock` through its `_server` attribute, and `bus_totals` reads
a metric bus's attributes and its subscriptions'. A rename in symplat breaks
only the traced run, or makes a traced count read 0, so this test reads
both files (and changes neither) and looks each name up where the benchmark
does.
"""

import ast
import importlib
import os

from symplat.api import WireServer
from symplat.core import PlatformCore
from symplat.model import NodeSample, NodeSpec, ResourceVector
from symplat.telemetry import CHANNEL_DEPTH, MetricBus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOOK_FILES = [os.path.join(ROOT, "perfbench", name) for name in ("layers.py", "server.py")]


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def dotted(node, aliases):
    """`m.core.PlatformCore` -> ["m", "core", "PlatformCore"], through local
    names bound to such a chain (`sched = m.scheduler.ReservationScheduler`)."""
    if isinstance(node, ast.Attribute):
        return dotted(node.value, aliases) + [node.attr]
    if isinstance(node, ast.Name):
        return dotted(aliases[node.id], aliases) if node.id in aliases else [node.id]
    raise AssertionError(f"unexpected owner expression {ast.dump(node)}")


def wrap_targets(tree):
    """(owner chain below the symplat namespace, method name) of every
    `tracer.wrap(owner, "name", ...)` call."""
    aliases = {n.targets[0].id: n.value for n in ast.walk(tree)
               if isinstance(n, ast.Assign) and len(n.targets) == 1
               and isinstance(n.targets[0], ast.Name)
               and isinstance(n.value, (ast.Attribute, ast.Name))}
    targets = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tracer"):
            owner, name = node.args[:2]
            targets.append((dotted(owner, aliases)[1:], name.value))
    return targets


def server_attributes(tree):
    """Attribute chains below the wire server assigned to, such as
    ["_server", "core_lock"] for `server._server.core_lock = ...`."""
    chains = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    chain = dotted(target, {})
                    if chain[0] == "server":
                        chains.append(chain[1:])
    return chains


def test_every_wrapped_method_exists():
    targets = [t for path in HOOK_FILES for t in wrap_targets(parse(path))]
    assert len(targets) >= 14
    for chain, name in targets:
        owner = importlib.import_module("symplat." + chain[0])
        for attr in chain[1:]:
            owner = getattr(owner, attr)
        # the tracer reads a class's own __dict__, so an inherited method will not do
        found = name in owner.__dict__ if isinstance(owner, type) else hasattr(owner, name)
        assert found, f"perfbench wraps {'.'.join(chain)}.{name}, which symplat lacks"


def test_the_timed_lock_reaches_the_server(tmp_path):
    chains = server_attributes(parse(os.path.join(ROOT, "perfbench", "server.py")))
    assert ["_server", "core_lock"] in chains and ["core_lock"] in chains
    node = NodeSpec("n01", ResourceVector(cpu_cores=4, memory_bytes=1 << 30))
    srv = WireServer(PlatformCore([node]), str(tmp_path / "hooks.sock"))
    try:
        for chain in chains:
            owner = srv
            for attr in chain:
                assert hasattr(owner, attr), f"perfbench sets server.{'.'.join(chain)}"
                owner = getattr(owner, attr)
    finally:
        srv.stop()


def bus_reads(tree):
    """(attributes read off the bus, attributes read off a subscription,
    names a subscription is asked for through `getattr`) in `bus_totals`."""
    (func,) = [n for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and n.name == "bus_totals"]
    bus_attrs, sub_attrs, sub_getattrs = set(), set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "bus":
                bus_attrs.add(node.attr)
            elif node.value.id != "tracer":
                sub_attrs.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"):
            sub_getattrs.add(node.args[1].value)
    return bus_attrs, sub_attrs, sub_getattrs


def test_the_bus_totals_read_real_figures():
    bus_attrs, sub_attrs, sub_getattrs = bus_reads(
        parse(os.path.join(ROOT, "perfbench", "layers.py")))
    assert {"series", "subscriptions", "alarm_log"} <= bus_attrs
    assert "delivered" in sub_attrs and "_gap" in sub_getattrs
    bus = MetricBus()
    sub = bus.subscribe()  # a library subscription, never polled
    for t in range(0, (CHANNEL_DEPTH + 3) * 1000, 1000):
        bus.publish(t, [], [("n01", *[0] * (len(NodeSample._fields) - 2))])
    for name in bus_attrs:
        assert hasattr(bus, name), f"perfbench reads MetricBus.{name}"
    for name in sub_attrs | sub_getattrs:
        assert hasattr(sub, name), f"perfbench reads Subscription.{name}"
    # read with a default of 0: only a figure shows that the name is right
    assert (sub.delivered, sub._gap) == (CHANNEL_DEPTH + 3, 3)
    assert sum(len(s) for s in bus.series.values()) == CHANNEL_DEPTH + 3

"""Paths, the checkout check, report digests and child-process helpers shared
by the benchmark's entry point and its worker processes."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

SIM_WORKLOADS = ("paper-replay", "fleet-telemetry", "deep-backlog")
WORKLOADS = SIM_WORKLOADS + ("wire-clocked",)
SETUP_SAMPLES = 5  # process start to first tick (or first hello reply), median reported


class CheckoutError(RuntimeError):
    pass


def require_checkout():
    """The benchmark measures the symplat sources next to it, never an
    installed copy: fail unless `src/symplat` and the shipped scenarios exist."""
    for path in (os.path.join(SRC, "symplat", "__init__.py"), os.path.join(ROOT, "scenarios")):
        if not os.path.exists(path):
            raise CheckoutError(f"not a symplat checkout: {os.path.relpath(path, ROOT)} is missing")


def import_symplat():
    """Import symplat from the checkout's `src/`; returns its modules."""
    require_checkout()
    sys.path.insert(0, SRC)
    import symplat
    from symplat import api, core, engine, harness, scenario, scheduler, telemetry

    if not os.path.abspath(symplat.__file__).startswith(SRC + os.sep):
        raise CheckoutError(f"imported symplat from {symplat.__file__}, not from {SRC}")
    return types.SimpleNamespace(api=api, core=core, engine=engine, harness=harness,
                                 scenario=scenario, scheduler=scheduler, telemetry=telemetry)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(path=EXPECTED):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(expected, workload, key, seed):
    """The recorded digest for run `key` of `workload` at `seed`, or None when
    none is recorded (generated workloads at other than the default seed)."""
    runs = expected.get(workload, {})
    if workload != "paper-replay" and seed != expected["default_seed"]:
        return None
    return runs.get(key)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def spawn(args, **kwargs):
    """Start `python3 <args>` from the checkout root with stdout piped."""
    return subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, **kwargs)


def time_to_line(proc, marker, started):
    """Seconds from `started` until `proc` prints the line `marker`."""
    for line in proc.stdout:
        if line.strip() == marker:
            return time.perf_counter() - started
    raise RuntimeError(f"worker exited with {proc.wait()} before printing {marker!r}")

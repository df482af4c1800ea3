"""Record the report digests that the correctness check compares against.

    python3 perfbench/record.py

Runs every simulation workload once at the default seed with the checkout's
symplat and rewrites `perfbench/expected.json`. Re-record only for a change
that is meant to alter reports, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from common import EXPECTED, SIM_WORKLOADS, digest, import_symplat
from gen import DEFAULT_SEED
from sim import load_runs


def main():
    sp = import_symplat()
    out = {"default_seed": DEFAULT_SEED}
    for workload in SIM_WORKLOADS:
        runs = load_runs(sp, workload, DEFAULT_SEED)
        out[workload] = {
            key: digest(sp.harness.ScenarioRunner(scen, mode_override=mode).run().to_json_str())
            for key, scen, mode in sorted(runs, key=lambda r: r[0])
        }
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

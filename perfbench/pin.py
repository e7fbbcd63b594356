"""Regenerate ``pins.json``: the outputs every benchmark run is checked
against.

Run it once at the commit whose outputs are the reference, from the
repository root::

    python3 perfbench/pin.py

It executes every training task, the autoplan call, and every spec
the serve-mixed workload can draw (in-process, through the same
``execute_task`` the server's workers call), and writes their pinned
fields.  A later commit that changes simulated results must not
re-pin silently: a mismatch is what the pins exist to catch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    from repro.autoplan import autoplan
    from repro.jobspec import task_from_spec
    from repro.runtime.task import execute_task

    pins = {"training": {}, "autoplan": None, "serve": {}}
    for workload in workloads.TRAINING:
        for task in workloads.training_tasks(workload):
            pins["training"][task.label] = checks.training_pin(
                execute_task(task))
            print("pinned", task.label, flush=True)
    job, cluster = workloads.autoplan_inputs()
    pins["autoplan"] = checks.autoplan_pin(autoplan(job, cluster))
    print("pinned", workloads.AUTOPLAN, flush=True)
    for spec in workloads.TRAINING_SPECS + workloads.INFERENCE_SPECS:
        task = task_from_spec(spec)
        record = json.loads(json.dumps(execute_task(task)))
        if not record["ok"]:
            raise SystemExit(f"serve spec fails, cannot be in the mix: {spec}")
        pins["serve"][task.cache_key()] = checks.serve_pin(record)
    print("pinned", len(pins["serve"]), "serve content keys", flush=True)
    with open(checks.PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

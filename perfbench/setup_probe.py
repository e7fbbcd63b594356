"""One set-up of an in-process workload, in a fresh interpreter.

Prints the host seconds from interpreter start-up (after the script
itself loaded) to built inputs: importing ``repro`` and building the
job, server and cluster objects.  ``run.py`` runs it several times and
reports the median as ``setup_s``.

Usage: ``python3 perfbench/setup_probe.py <workload>``
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.preload()
    if sys.argv[1] == workloads.AUTOPLAN:
        workloads.autoplan_inputs()
    else:
        workloads.training_tasks(sys.argv[1])
    print(time.perf_counter() - START)

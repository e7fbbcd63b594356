"""Host wall-time benchmark of the plan -> simulate -> serve loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-dgx1-mpress --seed 1 \
        --seconds 35 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):
``train-dgx1-mpress``, ``autoplan-dgx1`` and ``serve-mixed``.  Every
operation's output is checked against ``pins.json``; a mismatch fails
the run (exit 1) and is never reported as a timing.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
spends half of ``--seconds`` untraced and half with spans installed
around each layer (serve-mixed plays its whole schedule once on a stock
server and once on a traced one), and reports the per-layer metrics.
All times are host seconds, never simulated seconds.  The last line of
standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List

from common import HERE, ROOT, Run, src_env

import checks
import workloads

# Without the program there is nothing to time: fail here, before any
# result line is printed.
import repro  # noqa: F401

# Median of this many fresh-interpreter set-ups is ``setup_s``.
SETUP_PROBES = 5

_PIPELINE = ("core.profiler", "core.planner", "sim.lowering",
             "sim.incremental", "sim.fastpath", "runtime.task",
             "runtime.task.digest")
# Layers a traced run must see fire, so a layer whose wrapper was never
# reached fails the run instead of reporting 0 s.
EXPECTED_LAYERS = {
    "train-dgx1-mpress": _PIPELINE + ("core.device_mapping",),
    "autoplan-dgx1": _PIPELINE + ("autoplan.candidates",
                                  "autoplan.pricing", "parallel.cluster"),
}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str) -> List[float]:
    """Set-up times of fresh interpreters (imports + building inputs)."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            check=True, capture_output=True, text=True, env=src_env(),
            cwd=ROOT, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def measure(one_pass: Callable[[], float], seconds: float) -> List[float]:
    """Repeat passes until the next one would end well past ``seconds``.

    The garbage of the pass before is collected outside the timed
    region, so no pass pays for its predecessor's objects.
    """
    times: List[float] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        times.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(times) >= seconds:
            return times


def in_process(workload: str, seed: int, seconds: float, trace: bool,
               run: Run) -> None:
    """Training task lists and the autoplan call, timed in this process."""
    import repro.runtime.task as task_module
    from repro.autoplan import autoplan

    workloads.preload()
    pins = checks.load_pins()
    autoplan_report = {}

    def training_pass() -> float:
        tasks = workloads.training_tasks(workload)
        run.attempted += len(tasks)
        start = time.perf_counter()
        # Looked up on the module at call time, where the traced run
        # installs its wrapper.
        records = [task_module.execute_task(task) for task in tasks]
        elapsed = time.perf_counter() - start
        checks.check_training(pins, [task.label for task in tasks], records)
        return elapsed

    def autoplan_pass() -> float:
        job, cluster = workloads.autoplan_inputs()
        run.attempted += 1
        start = time.perf_counter()
        report = autoplan(job, cluster)
        elapsed = time.perf_counter() - start
        checks.expect("autoplan report", checks.autoplan_pin(report),
                      pins["autoplan"])
        autoplan_report["simulated_fraction"] = report.simulated_fraction
        return elapsed

    one_pass = autoplan_pass if workload == workloads.AUTOPLAN \
        else training_pass
    unit = "autoplan() call" if workload == workloads.AUTOPLAN \
        else "pass over the task list"
    if not trace:
        setups = setup_seconds(workload)
        passes = measure(one_pass, seconds)
        run.put("wall_s", statistics.median(passes), len(passes))
        run.put("setup_s", statistics.median(setups), len(setups))
        run.put("peak_rss_mib", peak_rss_mib())
        run.notes.append(f"wall_s is the median {unit}; passes: "
                         + ", ".join(f"{t:.3f}" for t in passes))
        return

    from spans import Tracer

    from repro.sim.fastpath import reference_runs

    untraced = measure(one_pass, seconds / 2)
    tracer = Tracer()
    with tracer:
        traced = measure(one_pass, seconds / 2)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-{seed}.json")
    missing = [name for name in EXPECTED_LAYERS[workload]
               if not tracer.fired(name)]
    if missing:
        raise checks.OutputMismatch(
            f"traced run saw no call into layers {missing}; a wrapper "
            f"is not where the program looks the function up")

    n = len(traced)
    self_s, counts = tracer.self_s, tracer.counts
    for layer in ("core.device_mapping", "core.planner", "core.profiler",
                  "sim.lowering", "sim.incremental", "sim.fastpath",
                  "runtime.task", "parallel.cluster"):
        run.put(f"{layer}.self_s", self_s.get(layer, 0.0) / n, n)
    for layer in ("core.device_mapping", "core.profiler", "sim.lowering",
                  "sim.fastpath", "parallel.cluster"):
        run.put(f"{layer}.calls", counts.get(f"{layer}.calls", 0) / n, n)
    run.put("core.device_mapping.mappings_evaluated",
            counts.get("core.device_mapping.mappings_evaluated", 0) / n, n)
    run.put("core.planner.emulations",
            counts.get("core.planner.emulations", 0) / n, n)
    run.put("sim.lowering.instructions",
            counts.get("sim.lowering.instructions", 0) / n, n)
    runs = counts.get("sim.incremental.calls", 0)
    run.put("sim.incremental.runs", runs / n, n)
    run.put("sim.incremental.reuse_ratio",
            counts.get("sim.incremental.reused", 0) / runs if runs else 0.0, n)
    run.put("sim.reference_runs", reference_runs(), n)
    run.put("runtime.task.digest_s",
            self_s.get("runtime.task.digest", 0.0) / n, n)
    run.put("runtime.task.digest_calls",
            counts.get("runtime.task.digest.calls", 0) / n, n)
    run.put("autoplan.candidates_s",
            self_s.get("autoplan.candidates", 0.0) / n, n)
    run.put("autoplan.pricing_s", self_s.get("autoplan.pricing", 0.0) / n, n)
    run.put("autoplan.simulated_fraction",
            autoplan_report.get("simulated_fraction", 0.0), n)
    run.put("trace.overhead",
            statistics.median(traced) / statistics.median(untraced) - 1.0,
            len(traced) + len(untraced))
    if run.metrics["sim.reference_runs"] != 0:
        raise checks.OutputMismatch(
            "a fault-free workload replayed on the reference interpreter")


def declared(section: str) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares in ``section``."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def emit(run: Run, trace: bool, correct: bool) -> None:
    """Print each metric with its unit and sample count, then the result.

    A per-layer metric whose layer does not run on the workload is 0.
    """
    names = declared("per_layer" if trace else "end_to_end")
    undeclared = set(run.metrics) - set(names)
    if undeclared:
        raise ValueError(f"metrics missing from BENCHMARK.json: "
                         f"{sorted(undeclared)}")
    metrics = {}
    if correct:
        for name, unit in names.items():
            if not trace and name not in run.metrics:
                raise ValueError(f"end-to-end metric {name} not measured")
            value = run.metrics.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<40} {value:>14.6f} {unit:<6} "
                  f"(n={run.samples.get(name, 0)})")
    for note in run.notes:
        print(note)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run()
    trace = bool(args.trace)
    try:
        if args.workload == workloads.SERVE:
            import serve_load

            serve_load.serve_mixed(args.seed, args.seconds, trace, run)
        else:
            in_process(args.workload, args.seed, args.seconds, trace, run)
    except checks.OutputMismatch as error:
        print(f"OUTPUT MISMATCH: {error}", file=sys.stderr)
        emit(run, trace, correct=False)
        return 1
    except Exception:  # noqa: BLE001 — any failure is reported, not timed
        traceback.print_exc()
        run.failed += 1
        emit(run, trace, correct=False)
        return 1
    correct = run.failed == 0
    emit(run, trace, correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Sweep runtime: ordering, parallel determinism, caching, crash retry."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    ResultCache,
    RuntimeConfig,
    SimTask,
    SweepRuntime,
    run_tasks,
)
from repro.runtime import task as task_module
from tests.conftest import tiny_job, tiny_model

_PARENT_PID = os.getpid()


def _tiny_tasks(n_systems: int = 3):
    job = tiny_job()
    small = tiny_job(model=tiny_model(n_layers=4, hidden=128),
                     system="pipedream")
    systems = ("none", "recomputation", "gpu-cpu-swap")[:n_systems]
    tasks = [SimTask(label=f"tiny/{system}", job=job, system=system)
             for system in systems]
    tasks.append(SimTask(label="tiny-pd/none", job=small, system="none"))
    return tasks


def _dump(records):
    return json.dumps(records, sort_keys=True)


def test_results_come_back_in_submission_order():
    tasks = _tiny_tasks()
    report = run_tasks(tasks)
    assert [o.task.label for o in report.outcomes] == [t.label for t in tasks]
    assert [r["label"] for r in report.records()] == [t.label for t in tasks]


def test_parallel_and_serial_sweeps_are_byte_identical():
    tasks = _tiny_tasks()
    serial = SweepRuntime(RuntimeConfig(jobs=1)).run(tasks)
    parallel = SweepRuntime(RuntimeConfig(jobs=4)).run(tasks)
    assert serial.failed == 0 and parallel.failed == 0
    for left, right in zip(serial.records(), parallel.records()):
        assert _dump(left) == _dump(right)


def test_cache_round_trip_skips_execution(tmp_path):
    tasks = _tiny_tasks(n_systems=2)
    cache = ResultCache(str(tmp_path))
    first = SweepRuntime(RuntimeConfig(jobs=1, cache=cache)).run(tasks)
    assert first.executed == len(tasks) and first.cached == 0
    second = SweepRuntime(RuntimeConfig(jobs=1, cache=cache)).run(tasks)
    assert second.executed == 0 and second.cached == len(tasks)
    assert _dump(first.records()) == _dump(second.records())


def test_parallel_rerun_hits_serial_cache(tmp_path):
    tasks = _tiny_tasks(n_systems=2)
    cache = ResultCache(str(tmp_path))
    SweepRuntime(RuntimeConfig(jobs=1, cache=cache)).run(tasks)
    rerun = SweepRuntime(RuntimeConfig(jobs=4, cache=cache)).run(tasks)
    assert rerun.cached == len(tasks) and rerun.executed == 0


def test_cache_hit_reports_callers_label(tmp_path):
    cache = ResultCache(str(tmp_path))
    job = tiny_job()
    original = SimTask(label="first-name", job=job, system="none")
    SweepRuntime(RuntimeConfig(cache=cache)).run([original])
    renamed = SimTask(label="second-name", job=job, system="none")
    report = SweepRuntime(RuntimeConfig(cache=cache)).run([renamed])
    assert report.cached == 1
    assert report.records()[0]["label"] == "second-name"


def test_progress_events_cover_every_task():
    tasks = _tiny_tasks(n_systems=2)
    events = []
    runtime = SweepRuntime(RuntimeConfig(progress=events.append))
    runtime.run(tasks)
    assert [e.done for e in events] == list(range(1, len(tasks) + 1))
    assert all(e.total == len(tasks) for e in events)
    assert all(e.ok for e in events)
    assert "[1/" in events[0].line()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RuntimeConfig(jobs=0)
    with pytest.raises(ConfigurationError):
        RuntimeConfig(retries=-1)


def test_report_summary_counts():
    report = run_tasks(_tiny_tasks(n_systems=1))
    text = report.summary()
    assert "tasks=2" in text and "failed=0" in text


# -- crash/retry semantics ---------------------------------------------------
#
# ``_poisoned_execute`` replaces the pool's ``execute_task`` reference.
# With the fork start method, workers inherit both this module and the
# monkeypatch, so a task labelled ``bad/*`` kills its worker with
# ``os._exit`` (unhandleable, like a segfault), while the same task in
# the parent's inline fallback raises an ordinary exception instead —
# never taking pytest down.


def _poisoned_execute(task):
    if task.label.startswith("bad/"):
        if os.getpid() != _PARENT_PID:
            os._exit(17)
        raise RuntimeError("poisoned config")
    return task_module.execute_task(task)


def test_inline_failure_is_recorded_not_raised(monkeypatch):
    monkeypatch.setattr("repro.runtime.pool.execute_task",
                        _poisoned_execute)
    bad = SimTask(label="bad/only", job=tiny_job(), system="none")
    report = SweepRuntime(RuntimeConfig(jobs=1, retries=1)).run([bad])
    outcome = report.outcomes[0]
    assert not outcome.ok
    assert outcome.record is None
    assert "RuntimeError" in outcome.error
    assert outcome.attempts == 2          # retries + 1
    assert report.failed == 1


def test_worker_crash_is_excluded_and_survivors_finish(monkeypatch):
    monkeypatch.setattr("repro.runtime.pool.execute_task",
                        _poisoned_execute)
    job = tiny_job()
    tasks = [
        SimTask(label="tiny/none", job=job, system="none"),
        SimTask(label="bad/crasher", job=job, system="none"),
        SimTask(label="tiny/recomputation", job=job,
                system="recomputation"),
    ]
    report = SweepRuntime(RuntimeConfig(jobs=2, retries=1)).run(tasks)
    by_label = {o.task.label: o for o in report.outcomes}
    crashed = by_label["bad/crasher"]
    assert not crashed.ok
    assert crashed.source == "inline"     # excluded from the pool
    assert "RuntimeError" in crashed.error
    assert by_label["tiny/none"].ok
    assert by_label["tiny/recomputation"].ok
    assert report.failed == 1
    assert report.pool_generations >= 2   # the broken pool was rebuilt
    # Submission order is preserved even through crash recovery.
    assert [o.task.label for o in report.outcomes] == [t.label for t in tasks]


def test_worker_exception_retries_then_records(monkeypatch):
    # An ordinary exception in a worker (pool stays healthy) is also
    # retried and ultimately recorded, not raised.
    def _raise(task):
        raise ValueError("boom")

    monkeypatch.setattr("repro.runtime.pool.execute_task", _raise)
    bad = SimTask(label="tiny/none", job=tiny_job(), system="none")
    report = SweepRuntime(RuntimeConfig(jobs=2, retries=1)).run([bad])
    outcome = report.outcomes[0]
    assert not outcome.ok
    assert report.failed == 1


# -- one executor -------------------------------------------------------------


def test_parallel_sweep_runs_each_repeated_key_once(tmp_path):
    base = _tiny_tasks(n_systems=2)
    tasks = base + [base[0], base[1], base[0], base[2]]
    serial = SweepRuntime(RuntimeConfig(jobs=1)).run(tasks)
    cache = ResultCache(str(tmp_path))
    parallel = SweepRuntime(RuntimeConfig(jobs=2, cache=cache)).run(tasks)
    assert serial.failed == 0 and parallel.failed == 0
    assert _dump(parallel.records()) == _dump(serial.records())
    # A repeat either coalesced onto its twin in flight or read the
    # record its twin cached: one simulation per distinct key.
    distinct = {task.cache_key() for task in tasks}
    assert parallel.executed == len(distinct) == len(base)
    coalesced = sum(o.source == "coalesced" for o in parallel.outcomes)
    assert parallel.cached + coalesced == len(tasks) - len(base)


def test_sweep_and_backend_share_crash_semantics(monkeypatch):
    from repro.runtime.pool import ExecutionBackend

    monkeypatch.setattr("repro.runtime.pool.execute_task",
                        _poisoned_execute)
    bad = SimTask(label="bad/crasher", job=tiny_job(), system="none")
    swept = SweepRuntime(RuntimeConfig(jobs=2, retries=1)).run(
        [bad]).outcomes[0]
    backend = ExecutionBackend(jobs=2, retries=1)
    try:
        served = backend.execute(bad)
    finally:
        backend.shutdown()
    for outcome in (swept, served):
        assert not outcome.ok
        assert outcome.source == "inline"       # excluded from the pool
        assert outcome.attempts == 3            # 2 pool attempts + inline
        assert outcome.error.startswith("RuntimeError:")
    assert backend.pool_generations == 2        # each crash broke a pool

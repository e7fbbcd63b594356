"""Parallel sweep runtime with content-addressed result caching.

Design-space sweeps (the paper's Figures 7-9 and the resilience
grids) are embarrassingly parallel and heavily repetitive — the same
cells recur across benchmarks, CLI invocations, and CI runs.  This
package makes those sweeps fast and repeatable:

* :class:`SimTask` — one simulation as picklable, hashable data;
* :class:`ResultCache` — content-addressed on-disk records, keyed by
  a canonical hash of (job, system, planner config, fault schedule,
  plan, code salt);
* :class:`ExecutionBackend` — the one executor (cache, in-flight
  coalescing, fork pool, worker-crash retry and exclusion) behind
  both sweeps and ``repro serve``;
* :class:`SweepRuntime` — drives it over a sweep, inline at
  ``jobs=1``, with deterministic result ordering and structured
  progress reporting;
* :mod:`repro.runtime.presets` — the named grids of the paper's
  figures, shared by the CLI and the benchmark suite.

See ``docs/runtime.md`` for cache layout and invalidation rules.
"""

from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.pool import (
    ExecutionBackend,
    ProgressEvent,
    RuntimeConfig,
    RuntimeReport,
    SweepRuntime,
    TaskOutcome,
    run_tasks,
)
from repro.runtime.presets import preset_tasks
from repro.runtime.task import (
    RECORD_VERSION,
    RUNTIME_CACHE_SALT,
    SimTask,
    execute_task,
    peak_gib,
    records_to_csv,
    trace_digest,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "ExecutionBackend",
    "ProgressEvent",
    "RuntimeConfig",
    "RuntimeReport",
    "SweepRuntime",
    "TaskOutcome",
    "run_tasks",
    "preset_tasks",
    "RECORD_VERSION",
    "RUNTIME_CACHE_SALT",
    "SimTask",
    "execute_task",
    "peak_gib",
    "records_to_csv",
    "trace_digest",
]

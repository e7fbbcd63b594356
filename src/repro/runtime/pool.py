"""The executor: one cache layer, one fork pool, one retry-with-exclusion.

:class:`ExecutionBackend` resolves one task at a time, in four layers:

1. **cache** — a task whose content address is already on disk
   returns instantly, re-labelled with the caller's label;
2. **in-flight coalescing** — concurrent callers asking for the same
   content address wait for *one* simulation: the first becomes the
   owner; a caller with the owner's label shares its record (source
   ``"coalesced"``), one with another label then resolves afresh,
   through the cache (or by running, without one);
3. **pool** — the owner submits the task to a persistent, pre-warmed
   fork pool, retrying up to ``retries`` times.  An ordinary worker
   exception is retried on the same pool; a worker death breaks the
   pool, which is discarded and rebuilt (a new *pool generation*);
4. **exclusion** — a task that exhausts its pool attempts is run once
   inline in the calling process, where an ordinary exception is
   catchable, so one poisoned config can never wedge the executor.
   Persistent errors are recorded per task, never raised.

Both entry points share it.  ``repro serve`` keeps one backend for the
server's lifetime (``repro.serve``).  :class:`SweepRuntime` owns one
for the duration of ``run(tasks)``: with ``jobs > 1`` it fans the
tasks over ``jobs`` threads calling :meth:`ExecutionBackend.execute`;
with ``jobs == 1`` it runs inline, without pool or threads, through
the same function as the exclusion attempt with a budget of
``retries + 1`` attempts.

Results come back **in submission order** regardless of completion
order, so a sweep's output is byte-identical whatever ``jobs`` is.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.task import SimTask, execute_task


def _check_slots(jobs: int, retries: int) -> None:
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")


def _warmup() -> int:
    """No-op worker task used to pre-spawn pool processes."""
    import os

    return os.getpid()


@dataclass(frozen=True)
class ProgressEvent:
    """One progress tick, emitted as each task resolves."""

    done: int
    total: int
    label: str
    source: str            # "cache" | "pool" | "inline" | "coalesced"
    ok: bool
    elapsed: float

    def line(self) -> str:
        status = "" if self.ok else " FAILED"
        return (f"[{self.done}/{self.total}] {self.source:<6} "
                f"{self.label}{status} ({self.elapsed:.1f}s)")


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of one sweep execution."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    retries: int = 2
    progress: Optional[Callable[[ProgressEvent], None]] = None

    def __post_init__(self) -> None:
        _check_slots(self.jobs, self.retries)


@dataclass
class TaskOutcome:
    """How one task resolved.

    ``key`` is the task's content address (``None`` when an uncached
    inline run never needed it).
    """

    key: Optional[str]
    record: Optional[Dict]
    source: str            # "cache" | "pool" | "inline" | "coalesced" | "error"
    attempts: int = 1
    error: Optional[str] = None
    task: Optional[SimTask] = None

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclass
class _Inflight:
    """Rendezvous for callers coalesced onto one running simulation."""

    label: str
    done: threading.Event = field(default_factory=threading.Event)
    record: Optional[Dict] = None
    error: Optional[str] = None


class ExecutionBackend:
    """Execute tasks on a persistent fork pool with a shared cache.

    Thread-safe: any number of threads may call :meth:`execute`
    concurrently.  ``jobs`` is the pool's worker count; the pool is
    built on first use, so a run that only hits the cache never forks.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 retries: int = 2):
        _check_slots(jobs, retries)
        self.jobs = jobs
        self.cache = cache
        self.retries = retries
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._inflight: Dict[str, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.executed = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.failures = 0
        self.inline_runs = 0
        self.pool_generations = 0
        self._closed = False

    # -- pool lifecycle ---------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        import multiprocessing

        with self._pool_lock:
            if self._closed:
                raise RuntimeError("backend is shut down")
            if self._pool is None:
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:          # pragma: no cover — non-POSIX
                    context = multiprocessing.get_context()
                self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                                 mp_context=context)
                self.pool_generations += 1
                # Spawn the workers now, before caller threads are
                # hammering the queue, so forks happen from a quiet
                # process.
                for future in [self._pool.submit(_warmup)
                               for _ in range(self.jobs)]:
                    try:
                        future.result()
                    except BrokenProcessPool:   # pragma: no cover
                        break
            return self._pool

    def _discard_pool(self, broken: ProcessPoolExecutor) -> None:
        """Throw away a broken pool generation (next use rebuilds)."""
        with self._pool_lock:
            if self._pool is broken:
                self._pool = None
        broken.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = False) -> None:
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    # -- execution --------------------------------------------------------

    def _cached(self, task: SimTask, key: Optional[str]) -> Optional[TaskOutcome]:
        """The cache layer: a hit re-labelled with the caller's label."""
        if self.cache is None or key is None:
            return None
        record = self.cache.get(key)
        if record is None:
            return None
        with self._counter_lock:
            self.cache_hits += 1
        # The stored label belongs to whichever caller produced the
        # entry; report the caller's.
        return TaskOutcome(key=key, record=dict(record, label=task.label),
                           source="cache", task=task)

    def _settle(self, outcome: TaskOutcome) -> TaskOutcome:
        """Write a fresh result to the cache and count it."""
        if outcome.ok and self.cache is not None:
            self.cache.put(outcome.key, outcome.record)
        with self._counter_lock:
            if outcome.ok:
                self.executed += 1
            else:
                self.failures += 1
        return outcome

    def execute(self, task: SimTask) -> TaskOutcome:
        """Resolve one task: cache hit, coalesce, pool, or inline.

        Never raises on task failure — persistent errors come back in
        ``TaskOutcome.error``.  Cached records are re-labelled with
        the *caller's* task label.
        """
        key = task.cache_key()
        hit = self._cached(task, key)
        if hit is not None:
            return hit

        # Coalesce concurrent requests for the same content address:
        # the first requester becomes the owner and simulates; the
        # rest wait for it.  A waiter with the owner's label shares its
        # record.  One with another label is another sweep cell, whose
        # outcome (a crash included) stays its own: once the owner is
        # done it resolves afresh — from the record the owner cached,
        # or by running.
        while True:
            with self._inflight_lock:
                entry = self._inflight.get(key)
                if entry is None:
                    entry = self._inflight[key] = _Inflight(task.label)
                    break
            entry.done.wait()
            if entry.label != task.label:
                hit = self._cached(task, key)
                if hit is not None:
                    return hit
                continue
            with self._counter_lock:
                self.coalesced += 1
                if entry.record is None:
                    self.failures += 1
            record = dict(entry.record) if entry.record is not None else None
            return TaskOutcome(key=key, record=record, source="coalesced",
                               error=entry.error, task=task)

        try:
            outcome = self._run_with_retries(task, key)
        except BaseException:
            # The owner must never leave waiters hanging, even on an
            # interpreter-level abort.
            entry.error = "backend aborted"
            with self._inflight_lock:
                self._inflight.pop(key, None)
            entry.done.set()
            raise
        self._settle(outcome)
        # Publish to waiters only after the cache write: a request
        # landing between the two would otherwise miss both layers
        # and duplicate the simulation.
        entry.record = outcome.record
        entry.error = outcome.error
        with self._inflight_lock:
            self._inflight.pop(key, None)
        entry.done.set()
        return outcome

    def execute_inline(self, task: SimTask) -> TaskOutcome:
        """Resolve one task in this process: cache hit, or inline runs.

        Up to ``retries + 1`` attempts, no pool and no coalescing — the
        path of a single caller that wants neither forks nor threads.
        """
        key = task.cache_key() if self.cache is not None else None
        hit = self._cached(task, key)
        if hit is not None:
            return hit
        return self._settle(_run_inline(task, key, budget=self.retries + 1))

    # -- single-task retry/exclusion --------------------------------------

    def _run_with_retries(self, task: SimTask, key: str) -> TaskOutcome:
        """Pool attempts up to ``retries``+1, then the inline exclusion."""
        attempts = 0
        while attempts <= self.retries:
            attempts += 1
            pool = self._ensure_pool()
            try:
                future = pool.submit(execute_task, task)
            except (RuntimeError, BrokenProcessPool):
                # Pool broken by a concurrent task's crash; rebuild
                # without charging this task an attempt.
                self._discard_pool(pool)
                attempts -= 1
                continue
            try:
                record = future.result()
            except BrokenProcessPool:
                # A worker died (crash, OOM-kill): this generation is
                # gone.  It cannot say which task killed it, so every
                # task in flight on it is charged one attempt.
                self._discard_pool(pool)
                continue
            except Exception:   # noqa: BLE001 — retried on the same pool
                continue
            return TaskOutcome(key=key, record=record, source="pool",
                               attempts=attempts, task=task)
        # Exclusion: one last inline attempt in the calling process,
        # where a crashing config raises a catchable exception instead
        # of killing a worker.
        with self._counter_lock:
            self.inline_runs += 1
        return _run_inline(task, key, budget=1, spent=attempts)

    # -- introspection ----------------------------------------------------

    def counters(self) -> Dict:
        with self._counter_lock:
            return {
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "coalesced": self.coalesced,
                "failures": self.failures,
                "inline_runs": self.inline_runs,
                "pool_generations": self.pool_generations,
            }


def _run_inline(task: SimTask, key: Optional[str], budget: int,
                spent: int = 0) -> TaskOutcome:
    """Up to ``budget`` attempts in this process, after ``spent`` elsewhere."""
    error = None
    for attempt in range(1, budget + 1):
        try:
            record = execute_task(task)
        except Exception as exc:    # noqa: BLE001 — recorded per-task
            error = f"{type(exc).__name__}: {exc}"
            continue
        return TaskOutcome(key=key, record=record, source="inline",
                           attempts=spent + attempt, task=task)
    return TaskOutcome(key=key, record=None, source="inline",
                       attempts=spent + budget, error=error, task=task)


@dataclass
class RuntimeReport:
    """Everything one ``run`` produced, in submission order."""

    outcomes: List[TaskOutcome]
    elapsed: float
    pool_generations: int = 1

    def records(self) -> List[Optional[Dict]]:
        return [outcome.record for outcome in self.outcomes]

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.ok and o.source in ("pool", "inline"))

    @property
    def cached(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "cache")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def retried(self) -> int:
        return sum(1 for o in self.outcomes if o.attempts > 1)

    @property
    def tasks_per_second(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return len(self.outcomes) / self.elapsed

    def summary(self) -> str:
        return (f"tasks={len(self.outcomes)} executed={self.executed} "
                f"cached={self.cached} failed={self.failed} "
                f"retried={self.retried} elapsed={self.elapsed:.2f}s "
                f"({self.tasks_per_second:.2f} tasks/s)")


class SweepRuntime:
    """Executes independent simulation tasks, possibly in parallel."""

    def __init__(self, config: Optional[RuntimeConfig] = None):
        self.config = config if config is not None else RuntimeConfig()

    def run(self, tasks: Sequence[SimTask]) -> RuntimeReport:
        started = time.time()
        tasks = list(tasks)
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        config = self.config
        backend = ExecutionBackend(jobs=min(config.jobs, max(1, len(tasks))),
                                   cache=config.cache, retries=config.retries)

        done_count = 0

        def emit(index: int, outcome: TaskOutcome) -> None:
            nonlocal done_count
            outcomes[index] = outcome
            done_count += 1
            if config.progress is not None:
                config.progress(ProgressEvent(
                    done=done_count,
                    total=len(tasks),
                    label=outcome.task.label,
                    source=outcome.source,
                    ok=outcome.ok,
                    elapsed=time.time() - started,
                ))

        try:
            if config.jobs == 1:
                for index, task in enumerate(tasks):
                    emit(index, backend.execute_inline(task))
            else:
                with ThreadPoolExecutor(max_workers=backend.jobs) as threads:
                    futures = {threads.submit(backend.execute, task): index
                               for index, task in enumerate(tasks)}
                    for future in as_completed(futures):
                        emit(futures[future], future.result())
        finally:
            backend.shutdown(wait=True)

        return RuntimeReport(
            outcomes=outcomes,
            elapsed=time.time() - started,
            pool_generations=max(1, backend.pool_generations),
        )


def run_tasks(
    tasks: Sequence[SimTask],
    runtime: Optional[SweepRuntime] = None,
) -> RuntimeReport:
    """Run tasks through ``runtime`` (default: serial, uncached)."""
    if runtime is None:
        runtime = SweepRuntime()
    return runtime.run(tasks)

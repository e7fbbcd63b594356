"""Job lifecycle state shared between HTTP handlers and dispatchers.

A *job* is one client submission: an ordered list of tasks plus the
tenant it bills to.  The registry is the single source of truth the
HTTP layer reads (polling, long-poll waits, progress streams) and the
dispatcher threads write (unit started / unit resolved).  Every state
change bumps a per-job ``version`` and wakes the registry condition,
which is what makes long-polling and progress streams cheap: a reader
sleeps on the condition instead of spinning on ``GET /jobs/<id>``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.runtime.task import SimTask
from repro.runtime.pool import TaskOutcome

QUEUED = "queued"
RUNNING = "running"
DONE = "done"


class JobState:
    """One submission's tasks and their resolutions (registry-locked)."""

    def __init__(self, job_id: str, tenant: str, priority: int,
                 tasks: Sequence[SimTask]):
        self.id = job_id
        self.tenant = tenant
        self.priority = priority
        self.tasks = list(tasks)
        n = len(self.tasks)
        self.unit_status: List[str] = [QUEUED] * n
        self.records: List[Optional[Dict]] = [None] * n
        self.sources: List[Optional[str]] = [None] * n
        self.errors: List[Optional[str]] = [None] * n
        self.attempts: List[int] = [0] * n
        self.version = 0
        self.created = time.time()
        self.finished: Optional[float] = None

    # -- derived ----------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.tasks)

    @property
    def done(self) -> int:
        return sum(1 for s in self.unit_status if s == DONE)

    @property
    def running(self) -> int:
        return sum(1 for s in self.unit_status if s == RUNNING)

    @property
    def status(self) -> str:
        if self.done == self.total:
            return DONE
        if self.running or self.done:
            return RUNNING
        return QUEUED

    @property
    def executed(self) -> int:
        return sum(1 for i, s in enumerate(self.sources)
                   if s in ("pool", "inline") and self.records[i] is not None)

    @property
    def cached(self) -> int:
        return sum(1 for s in self.sources if s == "cache")

    @property
    def coalesced(self) -> int:
        return sum(1 for s in self.sources if s == "coalesced")

    @property
    def failed(self) -> int:
        return sum(1 for i, s in enumerate(self.unit_status)
                   if s == DONE and self.records[i] is None)

    # -- JSON shapes -------------------------------------------------------

    def summary(self) -> Dict:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "status": self.status,
            "total": self.total,
            "done": self.done,
            "running": self.running,
            "executed": self.executed,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "failed": self.failed,
            "version": self.version,
            "created": self.created,
            "finished": self.finished,
        }

    def detail(self, results: str = "summary") -> Dict:
        """``results``: "none" | "summary" (per-task rows) | "full"."""
        payload = self.summary()
        if results in ("summary", "full"):
            payload["tasks"] = [
                {
                    "index": i,
                    "label": task.label,
                    "status": self.unit_status[i],
                    "source": self.sources[i],
                    "attempts": self.attempts[i],
                    "error": self.errors[i],
                    "ok": (self.records[i] is not None
                           if self.unit_status[i] == DONE else None),
                }
                for i, task in enumerate(self.tasks)
            ]
        if results == "full":
            payload["records"] = list(self.records)
        return payload


class JobRegistry:
    """Thread-safe registry of every job the server has accepted."""

    def __init__(self):
        self._cond = threading.Condition()
        self._jobs: Dict[str, JobState] = {}
        self._seq = 0
        self._tenants: Dict[str, Dict[str, int]] = {}

    # -- writes ------------------------------------------------------------

    def create(self, tenant: str, priority: int,
               tasks: Sequence[SimTask]) -> JobState:
        with self._cond:
            self._seq += 1
            job = JobState(f"j{self._seq:06d}", tenant, priority, tasks)
            self._jobs[job.id] = job
            account = self._tenants.setdefault(tenant, {
                "jobs": 0, "tasks": 0, "executed": 0, "cached": 0,
                "coalesced": 0, "failed": 0,
            })
            account["jobs"] += 1
            account["tasks"] += len(job.tasks)
            return job

    def mark_running(self, job_id: str, index: int) -> None:
        with self._cond:
            job = self._jobs[job_id]
            job.unit_status[index] = RUNNING
            job.version += 1
            self._cond.notify_all()

    def record(self, job_id: str, index: int,
               resolution: TaskOutcome) -> None:
        with self._cond:
            job = self._jobs[job_id]
            job.unit_status[index] = DONE
            job.records[index] = resolution.record
            job.sources[index] = resolution.source
            job.errors[index] = resolution.error
            job.attempts[index] = resolution.attempts
            job.version += 1
            if job.done == job.total:
                job.finished = time.time()
            account = self._tenants[job.tenant]
            if resolution.source == "cache":
                account["cached"] += 1
            elif resolution.source == "coalesced":
                account["coalesced"] += 1
            elif resolution.ok:
                account["executed"] += 1
            if not resolution.ok:
                account["failed"] += 1
            self._cond.notify_all()

    # -- reads -------------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobState]:
        with self._cond:
            return self._jobs.get(job_id)

    def summaries(self) -> List[Dict]:
        with self._cond:
            return [job.summary() for job in self._jobs.values()]

    def detail(self, job_id: str, results: str = "summary") -> Optional[Dict]:
        with self._cond:
            job = self._jobs.get(job_id)
            return job.detail(results) if job is not None else None

    def tenants(self) -> Dict[str, Dict[str, int]]:
        with self._cond:
            return {name: dict(account)
                    for name, account in self._tenants.items()}

    def wait(self, job_id: str, after_version: int = -1,
             timeout: Optional[float] = None,
             until_done: bool = False) -> Optional[Dict]:
        """Block until the job changes (or completes), then snapshot.

        Returns the job summary, or None for an unknown id.  With
        ``until_done`` the wait only ends at completion (or timeout);
        otherwise any version above ``after_version`` wakes it.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    return None
                ready = (job.status == DONE if until_done
                         else job.version > after_version)
                if ready:
                    return job.summary()
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return job.summary()
                self._cond.wait(timeout=remaining)

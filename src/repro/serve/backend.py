"""The sweep server's executor, which is the runtime's.

:class:`~repro.runtime.pool.ExecutionBackend` (cache, in-flight
coalescing, persistent fork pool, retry-with-exclusion) serves both
``repro sweep`` and ``repro serve``; see ``docs/runtime.md``.  The
server keeps one for its lifetime and always pools.  ``TaskResolution``
is the serve-side name of :class:`~repro.runtime.pool.TaskOutcome`.
"""

from repro.runtime.pool import ExecutionBackend
from repro.runtime.pool import TaskOutcome as TaskResolution

__all__ = ["ExecutionBackend", "TaskResolution"]

"""Request/response schemas of the sweep server's JSON API.

Submission bodies reuse the job-spec vocabulary (``repro.jobspec``):
one task spec is exactly a job spec plus ``system``/``label``/fault
keys, so any checked-in experiment spec can be POSTed verbatim.  Two
submission shapes exist::

    {"tenant": "alice", "priority": 1, "preset": "fig7"}
    {"tenant": "bob", "tasks": [
        {"model": "bert-0.35", "server": "dgx1", "system": "mpress"},
        {"model": "gpt-5.3", "server": "dgx1", "system": "recomputation",
         "nodes": 2, "tp": 2, "dp": 2},
        {"model": "gpt-5.3", "server": "dgx1", "nodes": 2, "shape": "auto"}
    ]}

``"shape": "auto"`` tasks run the autoplan shape search
(:mod:`repro.autoplan`) server-side; the record carries the ranked
report under ``"autoplan"`` and the winner's metrics at top level,
and the search's frontier shapes share the tenant-wide result cache
with explicit-shape sweeps of the same grid.

Validation errors raise :class:`~repro.errors.ConfigurationError`,
which the HTTP layer maps to a 400 with the message in the body; a
body over :data:`MAX_BODY_BYTES` is a 413.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.jobspec import MAX_NODES  # noqa: F401 — a request bound, below
from repro.jobspec import task_from_spec
from repro.runtime.task import SimTask

DEFAULT_TENANT = "default"

# Bounds on what one untrusted request may ask for.  None is a CLI
# option: they guard the server, not a workload.
#
# One submission is bounded so a single client cannot enqueue an
# unbounded amount of work in one request; sweeps larger than this
# should be split (and will then interleave fairly anyway).
MAX_TASKS_PER_REQUEST = 4096
# A request body longer than this is answered 413 before it is read
# (room for the task cap at ~2 KiB per spec).
MAX_BODY_BYTES = 8 * 2**20
# A task spec naming more servers than ``MAX_NODES`` (imported above
# from ``repro.jobspec``, where specs are read) is a 400.


@dataclass(frozen=True)
class SubmitRequest:
    """A validated job submission."""

    tenant: str
    priority: int
    tasks: List[SimTask]


def parse_submit(payload: Dict) -> SubmitRequest:
    """Validate a ``POST /v1/jobs`` body into tasks."""
    if not isinstance(payload, dict):
        raise ConfigurationError("submit body must be a JSON object")
    unknown = set(payload) - {"tenant", "priority", "preset", "tasks"}
    if unknown:
        raise ConfigurationError(f"unknown submit keys: {sorted(unknown)}")

    tenant = payload.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise ConfigurationError("tenant must be a non-empty string")
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ConfigurationError("priority must be an integer")

    preset = payload.get("preset")
    specs = payload.get("tasks")
    if (preset is None) == (specs is None):
        raise ConfigurationError(
            "submit body needs exactly one of 'preset' or 'tasks'")
    if preset is not None:
        from repro.runtime.presets import preset_tasks

        tasks = preset_tasks(preset)
    else:
        if not isinstance(specs, list) or not specs:
            raise ConfigurationError("'tasks' must be a non-empty list")
        tasks = [task_from_spec(spec) for spec in specs]
    if len(tasks) > MAX_TASKS_PER_REQUEST:
        raise ConfigurationError(
            f"submission of {len(tasks)} tasks exceeds the per-request "
            f"cap of {MAX_TASKS_PER_REQUEST}")
    return SubmitRequest(tenant=tenant, priority=priority, tasks=tasks)

"""Thin facade: lower a (job, plan) and interpret the result.

This module used to be the simulator's 1000-line monolith; the logic
now lives in three layers (the split mirrors MPress Runtime's
planning/execution separation, Figure 5):

* :mod:`repro.sim.lowering` — walks the data-flow program and emits a
  typed :class:`~repro.sim.ir.InstructionProgram`;
* :mod:`repro.sim.interpreter` — replays the program on the
  discrete-event engine/stream/memory substrate;
* :mod:`repro.sim.events` — the bus observers (tracing, counters,
  auditing, fault reporting) subscribe to.

:func:`simulate` and :class:`PipelineExecutor` keep their historical
signatures so callers (CLI, runtime cache tasks, planner, tests) are
untouched; repeated-emulation callers should hold a
:class:`~repro.sim.lowering.Lowering` and re-lower per plan instead.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.plan import MemorySavingPlan
from repro.faults.spec import FaultSchedule
from repro.job import TrainingJob
from repro.sim.fastpath import run_program
from repro.sim.interpreter import SimulationResult
from repro.sim.ir import ExecOptions
from repro.sim.lowering import Lowering

__all__ = [
    "ExecOptions",
    "PipelineExecutor",
    "SimulationResult",
    "simulate",
    "strict_run",
]


class PipelineExecutor:
    """Builds and runs the instruction program of one training iteration set."""

    def __init__(
        self,
        job: TrainingJob,
        plan: Optional[MemorySavingPlan] = None,
        options: ExecOptions = ExecOptions(),
    ):
        self.job = job
        self.options = options
        # Lower eagerly: invalid plans (bad device map, inconsistent
        # entries) are rejected at construction, as they always were.
        self.program = Lowering(job, options).lower(plan)
        self.plan = self.program.plan

    def run(self) -> SimulationResult:
        # Unobserved fault-free runs take the compiled fast path; runs
        # with a fault schedule replay on the reference interpreter.
        # Both produce bit-identical results (docs/fastpath.md).
        return run_program(self.program)


def simulate(
    job: TrainingJob,
    plan: Optional[MemorySavingPlan] = None,
    strict: bool = True,
    prefetch_lead: int = 3,
    gpu_capacity_override: Optional[int] = None,
    faults: Optional[FaultSchedule] = None,
) -> SimulationResult:
    """Run one simulated training job and return its outcome.

    ``strict=True`` models real hardware — exceeding GPU memory
    aborts the job (result.ok is False).  ``strict=False`` records
    the overflow instead; this is the *emulator* mode the planner
    iterates with.

    ``faults`` injects a timed hardware fault schedule; the result
    then carries a :class:`~repro.faults.report.ResilienceReport`.
    """
    options = ExecOptions(
        strict=strict,
        prefetch_lead=prefetch_lead,
        gpu_capacity_override=gpu_capacity_override,
        faults=faults,
    )
    return PipelineExecutor(job, plan, options).run()


def strict_run(
    job: TrainingJob,
    plan: MemorySavingPlan,
    options: ExecOptions,
    prior: SimulationResult,
    prior_options: ExecOptions,
) -> SimulationResult:
    """The strict run of ``plan`` under ``options``, reusing ``prior``.

    ``prior`` is a run of ``plan`` under ``prior_options`` that did not
    enforce capacity.  ``strict`` is read in one place,
    :meth:`DeviceMemory.alloc`, which raises only when
    ``in_use + size > capacity``.  If ``prior`` succeeded and none of
    its books ever peaked above capacity, that condition never held,
    so a replay under ``options`` (``prior_options`` with
    ``strict=True``) would take the same path event for event:
    ``prior`` is returned with its books marked strict.  Otherwise,
    and always under a fault schedule, the plan is replayed afresh
    (docs/planner.md).
    """
    memory = prior.memory
    books = memory.gpus + [memory.host]
    if (
        options.faults is not None
        or not prior.ok
        or prior.plan is not plan
        or replace(prior_options, strict=True) != options
        or any(book.peak > book.capacity for book in books)
    ):
        return PipelineExecutor(job, plan, options).run()
    memory.strict = True
    for book in books:
        book.strict = True
    return prior

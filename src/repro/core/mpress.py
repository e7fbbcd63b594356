"""MPress facade: static planning plus runtime execution.

:class:`MPress` wires the whole Figure 5 pipeline: profile, plan
(with device mapping, cost model, rewriter, emulator iterations),
then execute the plan on the simulated server under real memory
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.plan import MemorySavingPlan
from repro.core.planner import Planner, PlannerConfig, PlannerReport, baseline_config
from repro.faults.spec import FaultSchedule
from repro.job import TrainingJob
from repro.sim.executor import ExecOptions, SimulationResult, strict_run


@dataclass
class MPressResult:
    """Plan, planning trajectory, and the strict training run."""

    job: TrainingJob
    plan: MemorySavingPlan
    planner_report: PlannerReport
    simulation: SimulationResult

    @property
    def ok(self) -> bool:
        return self.simulation.ok

    @property
    def tflops(self) -> float:
        return self.simulation.tflops

    @property
    def samples_per_second(self) -> float:
        return self.simulation.samples_per_second


class MPress:
    """The complete system: plan once offline, then train."""

    def __init__(
        self,
        job: TrainingJob,
        config: Optional[PlannerConfig] = None,
        faults: Optional[FaultSchedule] = None,
        reserve_bytes: int = 0,
    ):
        self.job = job
        self.config = config if config is not None else PlannerConfig()
        self.faults = faults
        self.reserve_bytes = reserve_bytes
        self._plan: Optional[MemorySavingPlan] = None
        self._report: Optional[PlannerReport] = None

    def build_plan(self) -> MemorySavingPlan:
        """Run MPress Static (profiler/planner/rewriter/emulator loop)."""
        if self._plan is None:
            planner = Planner(self.job, self.config, faults=self.faults,
                              reserve_bytes=self.reserve_bytes)
            self._plan, self._report = planner.build()
        return self._plan

    @property
    def planner_report(self) -> PlannerReport:
        if self._report is None:
            self.build_plan()
        return self._report

    def run(self) -> MPressResult:
        """Plan, then execute under strict memory constraints.

        The planner already emulated the returned plan; when that run
        never exceeded any device's capacity it *is* the strict run
        (:func:`~repro.sim.executor.strict_run`), else the plan
        is replayed afresh.
        """
        plan = self.build_plan()
        options = ExecOptions(
            strict=True,
            prefetch_lead=self.config.prefetch_lead,
            faults=self.faults,
        )
        emulation = self.planner_report.emulation
        simulation = strict_run(
            self.job, plan, options, emulation.result, emulation.options
        )
        return MPressResult(
            job=self.job,
            plan=plan,
            planner_report=self.planner_report,
            simulation=simulation,
        )


def run_system(
    job: TrainingJob, system: str, faults: Optional[FaultSchedule] = None,
    reserve_bytes: int = 0,
) -> MPressResult:
    """Run one of the paper's five system configurations.

    ``system``: "none" (the original PipeDream/DAPPLE, no memory
    optimization), "recomputation", "gpu-cpu-swap", "d2d-only"
    (MPress with D2D swap only), or "mpress" (all three techniques).
    An optional fault schedule is injected into the training run (and
    informs planning for the planner-backed systems).
    ``reserve_bytes`` shrinks the planner's fit target (hybrid DP
    runs reserve gradient-bucket staging space); "none" has no
    planner, so the reserve is advisory there.
    """
    if system == "none":
        from repro.core.profiler import Profiler

        profiler = Profiler(job)
        profile = profiler.run()
        plan = profile.baseline.plan
        simulation = strict_run(
            job, plan, ExecOptions(faults=faults), profile.baseline,
            profiler.options,
        )
        report = PlannerReport(
            profile=profile,
            device_map=plan.device_map,
            mapping=None,
            feasible=not any(profile.overflow(job.server.gpu_memory)),
        )
        return MPressResult(
            job=job, plan=plan, planner_report=report, simulation=simulation
        )
    return MPress(job, baseline_config(system), faults=faults,
                  reserve_bytes=reserve_bytes).run()

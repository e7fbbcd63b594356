"""Profiler: collect the basic stats the planner needs (Fig. 5, steps 1-2).

The profiler runs one training iteration of the target job with *no*
memory compaction and unlimited-capacity accounting (the emulator's
non-strict mode), then extracts tensor sizes, per-stage compute
latencies, per-tensor live intervals, per-stage peak memory, and the
Table I memory breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.plan import empty_plan
from repro.graph.liveness import LiveInterval, live_intervals
from repro.graph.tensor import TensorClass, TensorKind, tensor_classes_for
from repro.job import TrainingJob
from repro.sim.executor import PipelineExecutor, SimulationResult
from repro.sim.ir import ExecOptions


@dataclass
class ProfileStats:
    """Everything MPress Static learns from the profiling run."""

    job: TrainingJob
    classes: List[TensorClass]
    intervals: Dict[tuple, LiveInterval]
    stage_peaks: List[int]
    baseline: SimulationResult

    @property
    def baseline_minibatch_time(self) -> float:
        return self.baseline.minibatch_time

    def classes_of_stage(self, stage: int) -> List[TensorClass]:
        return [cls for cls in self.classes if cls.stage == stage]

    def overflow(self, per_gpu_capacity: int) -> List[int]:
        """Per-stage bytes beyond capacity (the D2D export demand)."""
        return [max(0, peak - per_gpu_capacity) for peak in self.stage_peaks]

    def spare(self, per_gpu_capacity: int) -> List[int]:
        """Per-stage bytes of unused capacity (the D2D import supply)."""
        return [max(0, per_gpu_capacity - peak) for peak in self.stage_peaks]

    def total_demand(self) -> int:
        """Total GPU memory the uncompacted job needs (Table II)."""
        return sum(self.stage_peaks)

    def imbalance(self) -> float:
        """Most-used over least-used stage peak (the Figure 2 ratio)."""
        least = min(self.stage_peaks)
        if least <= 0:
            return float("inf")
        return max(self.stage_peaks) / least

    def memory_breakdown(self) -> Dict[str, int]:
        """Bytes by data type (Table I's categories)."""
        breakdown = {"activation": 0, "optimizer": 0, "params+grads": 0}
        for cls in self.classes:
            if cls.kind is TensorKind.ACTIVATION:
                breakdown["activation"] += cls.peak_bytes
            elif cls.kind is TensorKind.OPTIMIZER_STATE:
                breakdown["optimizer"] += cls.peak_bytes
            else:
                breakdown["params+grads"] += cls.peak_bytes
        return breakdown

    def memory_breakdown_percent(self) -> Dict[str, float]:
        breakdown = self.memory_breakdown()
        total = sum(breakdown.values())
        if total == 0:
            return {key: 0.0 for key in breakdown}
        return {key: 100.0 * value / total for key, value in breakdown.items()}


class Profiler:
    """Runs the profiling iteration and assembles :class:`ProfileStats`."""

    # The profiling run's options; ``run_system("none")`` checks them
    # before reusing the run as its strict one.
    options = ExecOptions(strict=False)

    def __init__(self, job: TrainingJob):
        self.job = job

    def run(self) -> ProfileStats:
        job = self.job
        plan = empty_plan(job.n_stages)
        result = PipelineExecutor(job, plan, self.options).run()
        classes = tensor_classes_for(
            job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
        )
        stage_of_device = {device: stage for stage, device in enumerate(plan.device_map)}
        intervals = live_intervals(result.trace, classes, stage_of_device)
        stage_peaks = [
            result.memory.gpu(plan.device_map[stage]).peak for stage in range(job.n_stages)
        ]
        return ProfileStats(
            job=job,
            classes=classes,
            intervals=intervals,
            stage_peaks=stage_peaks,
            baseline=result,
        )

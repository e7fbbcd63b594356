"""Layer 3 of the autoplan pipeline: the frontier executor.

Orders every priced candidate by estimated throughput, then fully
simulates only the top-K frontier (``frontier_fraction`` of the valid
grid) through the existing machinery: each frontier shape becomes a
content-addressed cluster :class:`~repro.runtime.task.SimTask` —
byte-identical in key to the cells of an exhaustive
``analysis.cluster_scaling`` sweep, so the two share cache entries —
executed under :func:`~repro.parallel.cluster.shared_chain_memo` so
congruent chains across shapes lower through one ``Lowering``
skeleton family and simulate once.

The result is an :class:`AutoPlanReport`: a ranked table (simulated
frontier first, estimate-only tail after), every rejected shape with
its reason, and the pruning counters the acceptance gate reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.hardware.server import Server
from repro.job import TrainingJob
from repro.parallel.cluster import ClusterConfig, shared_chain_memo
from repro.autoplan.candidates import (
    GiB,
    RejectedShape,
    ShapeCandidate,
    default_budget_bytes,
    generate_candidates,
)
from repro.autoplan.pricing import (
    CandidatePrice,
    price_candidate,
    price_to_json,
)


@dataclass(frozen=True)
class AutoPlanConfig:
    """Knobs of one shape search (hashable, cache-key material)."""

    budget_gib: Optional[float] = None    # None: smallest GPU's memory
    frontier_fraction: float = 0.25
    max_frontier: Optional[int] = None
    sequence_parallel: bool = False
    algorithm: str = "auto"
    bucket_bytes: Optional[int] = None
    placement_mode: str = "auto"
    power_of_two: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.frontier_fraction <= 1.0:
            raise ConfigurationError(
                f"frontier fraction must be in (0, 1], got "
                f"{self.frontier_fraction}")
        if self.max_frontier is not None and self.max_frontier < 1:
            raise ConfigurationError(
                f"max frontier must be >= 1, got {self.max_frontier}")
        if self.budget_gib is not None and self.budget_gib <= 0:
            raise ConfigurationError(
                f"per-GPU budget must be positive, got {self.budget_gib}")


@dataclass(frozen=True)
class RankedShape:
    """One row of the report: a priced shape, simulated or not."""

    price: CandidatePrice
    est_samples_per_second: float
    simulated: bool
    ok: Optional[bool] = None             # None until simulated
    samples_per_second: Optional[float] = None
    minibatch_time: Optional[float] = None
    peak_gib: Optional[float] = None
    tflops: Optional[float] = None
    cache_key: Optional[str] = None
    record: Optional[dict] = None         # the frontier task's raw record
    error: Optional[str] = None           # why a frontier task gave no record

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.price.shape

    @property
    def ranking_samples_per_second(self) -> float:
        """Simulated throughput when available, the estimate otherwise."""
        if self.simulated and self.samples_per_second is not None:
            return self.samples_per_second
        return self.est_samples_per_second


@dataclass
class AutoPlanReport:
    """Ranked outcome of one shape search, with pruning counters."""

    cluster_name: str
    system: str
    budget_gib: float
    config: AutoPlanConfig
    ranked: List[RankedShape] = field(default_factory=list)
    rejected: List[RejectedShape] = field(default_factory=list)
    n_enumerated: int = 0
    n_valid: int = 0
    n_rejected: int = 0
    n_priced: int = 0
    n_simulated: int = 0
    n_failed: int = 0                     # frontier tasks that raised

    @property
    def best(self) -> Optional[RankedShape]:
        return self.ranked[0] if self.ranked else None

    @property
    def simulated_fraction(self) -> float:
        """Share of the valid grid the frontier actually simulated."""
        if self.n_valid == 0:
            return 0.0
        return self.n_simulated / self.n_valid

    def to_json(self, job: TrainingJob) -> dict:
        """Machine-readable report (``repro autoplan --json``)."""
        return {
            "cluster": self.cluster_name,
            "system": self.system,
            "budget_gib": self.budget_gib,
            "counters": {
                "n_enumerated": self.n_enumerated,
                "n_valid": self.n_valid,
                "n_rejected": self.n_rejected,
                "n_priced": self.n_priced,
                "n_simulated": self.n_simulated,
                "n_failed": self.n_failed,
                "frontier_fraction": self.config.frontier_fraction,
                "simulated_fraction": self.simulated_fraction,
            },
            "best": self._row_json(self.best, job) if self.best else None,
            "ranked": [self._row_json(row, job) for row in self.ranked],
            "rejected": [
                {"tp": r.tp, "dp": r.dp, "pp": r.pp,
                 "sequence_parallel": r.sequence_parallel,
                 "reason": r.reason}
                for r in self.rejected
            ],
        }

    @staticmethod
    def _row_json(row: RankedShape, job: TrainingJob) -> dict:
        payload = price_to_json(row.price, job)
        payload.update({
            "simulated": row.simulated,
            "ok": row.ok,
            "samples_per_second": row.ranking_samples_per_second,
            "minibatch_time": row.minibatch_time,
            "peak_gib": row.peak_gib,
            "tflops": row.tflops,
            "cache_key": row.cache_key,
            "error": row.error,
        })
        return payload

    def summary(self) -> str:
        """Human-readable ranking table."""
        lines = [
            f"autoplan over {self.cluster_name} "
            f"(system={self.system}, budget={self.budget_gib:.1f} GiB/GPU)",
            f"  grid: {self.n_enumerated} shapes enumerated, "
            f"{self.n_valid} valid, {self.n_rejected} rejected; "
            f"simulated {self.n_simulated} "
            f"({100 * self.simulated_fraction:.0f}% of valid)"
            + (f", {self.n_failed} failed" if self.n_failed else ""),
            "  rank  shape (tp,dp,pp)  mode     samples/s  "
            "sync tail  peak GiB  how",
        ]
        for rank, row in enumerate(self.ranked, start=1):
            price = row.price
            peak = (row.peak_gib if row.peak_gib is not None
                    else price.peak_demand_bytes / GiB)
            lines.append(
                f"  {rank:>4}  ({price.tp},{price.dp},{price.pp})"
                f"{'':<{max(1, 12 - len(str(price.shape)))}}"
                f"{price.placement_mode:<8} "
                f"{row.ranking_samples_per_second:>9.2f}  "
                f"{price.contended_sync_seconds * 1e3:>7.1f}ms  "
                f"{peak:>8.2f}  "
                f"{_how(row)}")
        for row in self.ranked:
            if row.error is not None:
                lines.append(f"  ({row.price.tp},{row.price.dp},{row.price.pp}) "
                             f"failed: {row.error}")
        if self.rejected:
            lines.append(f"  rejected shapes ({len(self.rejected)}):")
            for reject in self.rejected:
                lines.append(
                    f"    ({reject.tp},{reject.dp},{reject.pp}): "
                    f"{reject.reason}")
        return "\n".join(lines)

    def json_text(self, job: TrainingJob) -> str:
        return json.dumps(self.to_json(job), indent=2, sort_keys=True)


def _how(row: RankedShape) -> str:
    if row.error is not None:
        return "failed"
    return "simulated" if row.simulated else "estimated"


def _as_cluster(cluster) -> Cluster:
    """Accept a Cluster or a single Server (wrapped as a 1-box cluster)."""
    if isinstance(cluster, Server):
        return Cluster(name=cluster.name, servers=(cluster,))
    return cluster


def shape_cluster_config(shape: Tuple[int, int, int],
                         config: AutoPlanConfig) -> ClusterConfig:
    """The ClusterConfig a frontier shape executes (and caches) under.

    Built with the same defaulting as
    :func:`repro.analysis.cluster_scaling.cluster_scaling_tasks`, so a
    frontier task's cache key is byte-identical to the matching cell
    of an exhaustive grid sweep — the two workloads warm each other.
    """
    tp, dp, pp = shape
    kwargs = {"tp": tp, "dp": dp, "pp": pp,
              "algorithm": config.algorithm,
              "sequence_parallel": config.sequence_parallel}
    if config.bucket_bytes is not None:
        kwargs["bucket_bytes"] = config.bucket_bytes
    if config.placement_mode != "auto":
        kwargs["placement_mode"] = config.placement_mode
    return ClusterConfig(**kwargs)


def frontier_size(n_valid: int, config: AutoPlanConfig) -> int:
    """How many top-priced shapes get the full simulation."""
    if n_valid == 0:
        return 0
    size = max(1, math.ceil(config.frontier_fraction * n_valid))
    if config.max_frontier is not None:
        size = min(size, config.max_frontier)
    return min(size, n_valid)


def autoplan(
    job: TrainingJob,
    cluster,
    budget_gib: Optional[float] = None,
    config: Optional[AutoPlanConfig] = None,
    system: str = "mpress",
    runtime=None,
) -> AutoPlanReport:
    """One search pipeline from a job to its best (tp, dp, pp) shape.

    ``cluster`` may be a :class:`~repro.hardware.cluster.Cluster` or a
    single :class:`~repro.hardware.server.Server`.  ``runtime`` (a
    ``SweepRuntime``) adds caching/parallelism to the frontier;
    ``None`` executes serially in-process.
    """
    from repro.runtime.pool import run_tasks
    from repro.runtime.task import SimTask, peak_gib

    cluster = _as_cluster(cluster)
    if config is None:
        config = AutoPlanConfig()
    if budget_gib is not None:
        config = AutoPlanConfig(**{
            **{f: getattr(config, f) for f in config.__dataclass_fields__},
            "budget_gib": budget_gib})
    budget_bytes = (int(config.budget_gib * GiB)
                    if config.budget_gib is not None
                    else default_budget_bytes(cluster))

    candidates, rejected = generate_candidates(
        job, cluster,
        budget_bytes=budget_bytes,
        sequence_parallel=config.sequence_parallel,
        placement_mode=config.placement_mode,
        bucket_bytes=config.bucket_bytes,
        power_of_two=config.power_of_two,
    )

    flat_server = cluster.as_server()
    priced: List[Tuple[ShapeCandidate, CandidatePrice]] = []
    for candidate in candidates:
        cluster_config = shape_cluster_config(candidate.shape, config)
        price = price_candidate(job, cluster, candidate, cluster_config,
                                budget_bytes, flat_server=flat_server)
        priced.append((candidate, price))
    # Estimated-throughput order; exact ties resolve on the canonical
    # ascending shape tuple so rankings are reproducible.
    priced.sort(key=lambda pair: (-pair[1].samples_per_second(job),
                                  pair[1].shape))

    k = frontier_size(len(priced), config)
    frontier = priced[:k]
    tail = priced[k:]

    tasks = [
        SimTask(
            label=(f"autoplan/{system}/{cluster.name}"
                   f"/tp={price.tp},dp={price.dp},pp={price.pp}"),
            job=job,
            system=system,
            cluster=cluster,
            cluster_config=shape_cluster_config(candidate.shape, config),
        )
        for candidate, price in frontier
    ]
    with shared_chain_memo():
        outcomes = run_tasks(tasks, runtime).outcomes

    simulated_rows: List[RankedShape] = []
    for (candidate, price), task, outcome in zip(frontier, tasks, outcomes):
        record = outcome.record
        ok = record is not None and bool(record["ok"])
        simulated_rows.append(RankedShape(
            price=price,
            est_samples_per_second=price.samples_per_second(job),
            simulated=True,
            ok=ok,
            samples_per_second=(
                record["samples_per_second"] if record is not None else 0.0),
            minibatch_time=(
                record["minibatch_time"] if record is not None else None),
            peak_gib=peak_gib(record) if record is not None else None,
            tflops=record["tflops"] if record is not None else None,
            cache_key=task.cache_key(),
            record=record,
            error=(None if record is not None
                   else outcome.error or "task produced no record"),
        ))
    # Simulated rows first, by measured throughput (failed runs sink);
    # the estimate-only tail keeps its pricing order after them.
    simulated_rows.sort(key=lambda row: (
        not (row.ok or False),
        -(row.samples_per_second or 0.0),
        row.shape))
    estimated_rows = [
        RankedShape(price=price,
                    est_samples_per_second=price.samples_per_second(job),
                    simulated=False)
        for candidate, price in tail
    ]

    report = AutoPlanReport(
        cluster_name=cluster.name,
        system=system,
        budget_gib=budget_bytes / GiB,
        config=config,
        ranked=simulated_rows + estimated_rows,
        rejected=list(rejected),
        n_enumerated=len(candidates) + len(rejected),
        n_valid=len(candidates),
        n_rejected=len(rejected),
        n_priced=len(priced),
        n_simulated=len(tasks),
        n_failed=sum(1 for outcome in outcomes if outcome.record is None),
    )
    return report

"""Sweep tasks: one content-addressed simulation unit.

A :class:`SimTask` is the runtime's unit of work — everything one
simulation needs, as picklable data (no callables), so it can cross a
process boundary and be hashed into a cache key.  Three shapes cover
every sweep in the repository:

* **system runs** — ``run_system(job, system)``, the Figures 7/8
  columns;
* **planner-config runs** — ``MPress(job, config).run()``, the
  Figure 9 ablation variants;
* **plan replays** — ``simulate(job, plan, faults=...)``, the
  resilience campaigns that re-execute a fixed plan under faults;
* **ZeRO baselines** — the analytic ``run_zero`` models.

Executing a task produces a plain-JSON *record* (metrics, per-GPU
peaks, the plan payload, a trace digest) rather than the live
``SimulationResult`` — records are small, picklable, cacheable, and
deterministic, which is what makes content-addressed caching and
golden-trace regression possible.

The simulator behind :func:`execute_task` lowers each run through the
instruction IR (``repro.sim.lowering`` → ``repro.sim.interpreter``;
see ``docs/architecture.md``).  That pipeline replays the exact same
event stream as the pre-IR executor, so cache keys, record payloads,
and trace digests are unchanged — ``RUNTIME_CACHE_SALT`` deliberately
stays at its pre-refactor value and shared cache directories remain
warm across the split.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.autoplan.search import AutoPlanConfig
from repro.core.plan import MemorySavingPlan
from repro.core.planner import PlannerConfig
from repro.core.serialization import (
    canonical_payload,
    config_digest,
    plan_to_dict,
)
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSchedule
from repro.hardware.cluster import Cluster
from repro.inference.workload import InferenceConfig
from repro.job import TrainingJob
from repro.parallel.cluster import ClusterConfig
from repro.parallel.hybrid import HybridConfig

# Code-relevant version salt: bump whenever simulator/planner
# semantics change, so stale cache entries can never satisfy a sweep
# run against newer code (see docs/runtime.md).
RUNTIME_CACHE_SALT = "repro-runtime-1"

# Schema version of the record dicts below.
RECORD_VERSION = 1

_SYSTEMS = ("none", "recomputation", "gpu-cpu-swap", "d2d-only", "mpress")
_ZERO_SYSTEMS = ("zero-offload", "zero-infinity")


@dataclass(frozen=True)
class SimTask:
    """One independent simulation in a sweep.

    ``label`` is cosmetic (progress lines, tables) and excluded from
    the cache key; every other field is semantic.  When ``plan`` is
    set the task *replays* that plan through the executor instead of
    planning from scratch; when ``config`` is set the task runs the
    MPress facade under that explicit planner configuration.  When
    ``hybrid`` is set the task runs ``run_hybrid`` — ``system``
    names the per-replica memory system and the hybrid layer adds
    gradient synchronisation on top.  When ``cluster`` is set (with a
    ``cluster_config``) the task runs ``run_cluster`` over that
    multi-server fabric instead of ``job.server``.  When ``autoplan``
    is set the task is a *shape search*: ``run_cluster`` picks the
    TP x DP x PP shape itself over ``cluster`` (no ``cluster_config``
    — the search's whole point is that none was chosen).  When
    ``inference`` is set the task simulates an LLM *serving* episode
    (``repro.inference``) on ``job.model`` / ``job.server`` instead of
    a training run; ``system`` is cosmetic there and the serving
    config's ``kv_swap`` selects the memory policy.
    """

    label: str
    job: TrainingJob
    system: str = "mpress"
    config: Optional[PlannerConfig] = None
    faults: Optional[FaultSchedule] = None
    plan: Optional[MemorySavingPlan] = None
    record_trace: bool = True
    hybrid: Optional[HybridConfig] = None
    cluster: Optional[Cluster] = None
    cluster_config: Optional[ClusterConfig] = None
    autoplan: Optional[AutoPlanConfig] = None
    inference: Optional[InferenceConfig] = None

    def __post_init__(self) -> None:
        known = _SYSTEMS + _ZERO_SYSTEMS
        if self.system not in known:
            raise ConfigurationError(
                f"unknown sweep system {self.system!r}; options: {sorted(known)}"
            )
        if self.system in _ZERO_SYSTEMS and (
            self.config is not None or self.plan is not None
        ):
            raise ConfigurationError(
                "ZeRO tasks take no planner config or plan"
            )
        if self.hybrid is not None:
            if self.system not in _SYSTEMS:
                raise ConfigurationError(
                    "hybrid tasks need a pipeline system, not "
                    f"{self.system!r}"
                )
            if self.config is not None or self.plan is not None \
                    or self.faults is not None:
                raise ConfigurationError(
                    "hybrid tasks take no planner config, plan, or faults"
                )
        if self.autoplan is not None:
            if self.cluster is None:
                raise ConfigurationError(
                    "autoplan tasks need a Cluster (the shape search space)"
                )
            if self.cluster_config is not None:
                raise ConfigurationError(
                    "autoplan tasks pick the shape themselves; drop the "
                    "explicit ClusterConfig"
                )
        elif (self.cluster is None) != (self.cluster_config is None):
            raise ConfigurationError(
                "cluster tasks need both a Cluster and a ClusterConfig"
            )
        if self.cluster is not None:
            if self.system not in _SYSTEMS:
                raise ConfigurationError(
                    "cluster tasks need a pipeline system, not "
                    f"{self.system!r}"
                )
            if self.hybrid is not None or self.config is not None \
                    or self.plan is not None or self.faults is not None:
                raise ConfigurationError(
                    "cluster tasks take no hybrid config, planner config, "
                    "plan, or faults"
                )
        if self.inference is not None:
            if self.system not in _SYSTEMS:
                raise ConfigurationError(
                    "inference tasks need a pipeline system, not "
                    f"{self.system!r}"
                )
            if (self.config is not None or self.plan is not None
                    or self.faults is not None or self.hybrid is not None
                    or self.cluster is not None or self.autoplan is not None):
                raise ConfigurationError(
                    "inference tasks take no planner config, plan, faults, "
                    "hybrid, cluster, or autoplan settings"
                )

    @property
    def is_zero(self) -> bool:
        return self.system in _ZERO_SYSTEMS

    def key_payload(self) -> Dict:
        """The semantic content hashed into the cache key.

        The ``hybrid`` key is only present for hybrid tasks, so the
        payloads — and therefore the content addresses — of every
        pre-hybrid task are byte-identical to what they always were
        and shared cache directories stay warm.

        Execution strategy is deliberately absent: the fast-path tape
        interpreter and the reference interpreter produce bit-identical
        records (docs/fastpath.md, tests/test_fastpath_equivalence.py),
        so fast-path results share cache entries with full simulations
        and a cache warmed by either path serves both.
        """
        payload = {
            "job": canonical_payload(self.job),
            "system": self.system,
            "config": canonical_payload(self.config),
            "faults": canonical_payload(self.faults),
            "plan": (
                canonical_payload(plan_to_dict(self.plan))
                if self.plan is not None else None
            ),
        }
        if self.hybrid is not None:
            payload["hybrid"] = canonical_payload(self.hybrid)
        if self.cluster is not None:
            # Same gating as ``hybrid``: only cluster tasks carry these
            # keys, so every single-server payload stays byte-identical.
            payload["cluster"] = canonical_payload(self.cluster)
            payload["cluster_config"] = canonical_payload(self.cluster_config)
        if self.autoplan is not None:
            # Gated like the keys above: only shape-search tasks carry
            # it, so every pre-autoplan content address is unchanged.
            payload["autoplan"] = canonical_payload(self.autoplan)
        if self.inference is not None:
            # Gated: only serving tasks carry the key, so every
            # training-task content address is unchanged.
            payload["inference"] = canonical_payload(self.inference)
        return payload

    def cache_key(self) -> str:
        """Content address of this task's result."""
        return config_digest(self.key_payload(), salt=RUNTIME_CACHE_SALT)


def trace_digest(trace) -> str:
    """SHA-256 of the chrome-trace lowering of a simulation trace.

    Byte-identical re-simulation implies equal digests; goldens and
    cache records store the digest instead of the (large) trace.
    """
    from repro.sim.chrome_trace import trace_to_events

    text = json.dumps(
        trace_to_events(trace), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trace_digester() -> Callable[[object], str]:
    """:func:`trace_digest` of a simulation, once per distinct trace.

    Congruent chains and replicas share one simulation result, so a
    cluster or hybrid record names the same trace many times.  The
    memo holds each trace it keys on by identity, so an id is never
    reused while it lives; it lives only as long as the one record
    being built, never as module state (``repro serve`` is long-lived).
    """
    digests: Dict[int, Tuple[object, str]] = {}

    def digest(simulation) -> str:
        trace = simulation.trace
        entry = digests.get(id(trace))
        if entry is None:
            entry = digests[id(trace)] = (trace, trace_digest(trace))
        return entry[1]

    return digest


def execute_task(task: SimTask) -> Dict:
    """Run one task to completion and lower the outcome to a record.

    This is the function sweep workers execute; everything it returns
    must be plain JSON so the result cache can persist it verbatim.
    """
    if task.inference is not None:
        return _execute_inference(task)
    if task.is_zero:
        return _execute_zero(task)
    if task.autoplan is not None:
        return _execute_autoplan(task)
    if task.cluster is not None:
        return _execute_cluster(task)
    if task.hybrid is not None:
        return _execute_hybrid(task)
    if task.plan is not None:
        from repro.sim.executor import simulate

        simulation = simulate(
            task.job, task.plan, strict=True, faults=task.faults
        )
        return _simulation_record(task, simulation, plan=task.plan,
                                  feasible=None)
    if task.config is not None:
        from repro.core.mpress import MPress

        result = MPress(task.job, task.config, faults=task.faults).run()
    else:
        from repro.core.mpress import run_system

        result = run_system(task.job, task.system, faults=task.faults)
    return _simulation_record(
        task,
        result.simulation,
        plan=result.plan,
        feasible=result.planner_report.feasible,
    )


def _simulation_record(task: SimTask, simulation, plan, feasible) -> Dict:
    record = {
        "version": RECORD_VERSION,
        "label": task.label,
        "system": task.system,
        "ok": simulation.ok,
        "oom": str(simulation.oom) if simulation.oom is not None else None,
        "tflops": simulation.tflops,
        "samples_per_second": simulation.samples_per_second,
        "minibatch_time": simulation.minibatch_time,
        "makespan": simulation.makespan if simulation.ok else 0.0,
        "peak_bytes_per_gpu": (
            list(simulation.peak_memory_per_gpu) if simulation.ok else []
        ),
        "feasible": feasible,
        "plan": plan_to_dict(plan) if plan is not None else None,
        "trace_digest": trace_digest(simulation.trace) if simulation.ok else None,
        "n_trace_events": len(simulation.trace.events) if simulation.ok else 0,
        "resilience": None,
        "zero": None,
    }
    report = simulation.resilience
    if report is not None:
        record["resilience"] = {
            "n_faults": len(task.faults) if task.faults is not None else 0,
            "n_failures": len(report.failures),
            "goodput_samples_per_second": report.goodput_samples_per_second,
            "recovery_seconds": report.total_recovery_seconds,
            "lost_seconds": report.lost_seconds,
        }
    return record


def _execute_inference(task: SimTask) -> Dict:
    from repro.inference.run import run_serving

    outcome = run_serving(task.job.model, task.job.server, task.inference)
    record = _simulation_record(
        task, outcome.simulation, plan=None, feasible=outcome.simulation.ok
    )
    record["inference"] = outcome.metrics.to_json()
    return record


def _execute_hybrid(task: SimTask) -> Dict:
    from repro.parallel.hybrid import run_hybrid

    result = run_hybrid(task.job, task.hybrid, system=task.system)
    ok = result.ok
    digest = _trace_digester()
    return {
        "version": RECORD_VERSION,
        "label": task.label,
        "system": task.system,
        "ok": ok,
        "oom": result.oom,
        "tflops": result.tflops,
        "samples_per_second": result.samples_per_second,
        "minibatch_time": result.minibatch_time,
        "makespan": result.makespan if ok else 0.0,
        "peak_bytes_per_gpu": result.peak_memory_per_gpu() if ok else [],
        "feasible": all(
            replica.planner_report.feasible for replica in result.replicas
        ),
        "plan": None,
        "trace_digest": (
            digest(result.replicas[0].simulation) if ok else None
        ),
        "n_trace_events": (
            len(result.replicas[0].simulation.trace.events) if ok else 0
        ),
        "resilience": None,
        "zero": None,
        "hybrid": {
            "dp": result.dp,
            "placement_mode": result.placement.mode,
            "groups": [list(group) for group in result.placement.groups],
            "bucket_bytes": task.hybrid.bucket_bytes,
            "collective_mode": task.hybrid.collective_mode,
            "overlap": task.hybrid.overlap,
            "replica_minibatch_time": result.replica_minibatch_time,
            "exposed_allreduce": result.exposed_allreduce,
            "stage_allreduce": [
                {
                    "stage": sync.stage,
                    "devices": list(sync.devices),
                    "algorithm": sync.algorithm,
                    "grad_bytes": sync.grad_bytes,
                    "n_buckets": sync.n_buckets,
                    "allreduce_seconds": sync.allreduce_seconds,
                    "exposed_seconds": sync.exposed_seconds,
                }
                for sync in result.stage_allreduce
            ],
            "replica_trace_digests": [
                digest(replica.simulation) if replica.ok else None
                for replica in result.replicas
            ],
        },
    }


def _execute_autoplan(task: SimTask) -> Dict:
    """Run a shape search and record the winner plus the full ranking.

    Top-level metrics mirror the winning shape's cluster record (so
    CSV export and sweep tables read autoplan cells like any other);
    the ``autoplan`` sub-dict carries the ranked report, rejection
    reasons and pruning counters.
    """
    from repro.autoplan import autoplan as run_autoplan

    report = run_autoplan(task.job, task.cluster, config=task.autoplan,
                          system=task.system)
    best = report.best
    winner = best.record if best is not None else None
    ok = winner is not None and bool(winner["ok"])
    return {
        "version": RECORD_VERSION,
        "label": task.label,
        "system": task.system,
        "ok": ok,
        "oom": winner["oom"] if winner is not None else None,
        "tflops": winner["tflops"] if ok else 0.0,
        "samples_per_second": winner["samples_per_second"] if ok else 0.0,
        "minibatch_time": winner["minibatch_time"] if ok else 0.0,
        "makespan": winner["makespan"] if ok else 0.0,
        "peak_bytes_per_gpu": (
            list(winner["peak_bytes_per_gpu"]) if ok else []
        ),
        "feasible": winner["feasible"] if winner is not None else None,
        "plan": None,
        "trace_digest": winner["trace_digest"] if winner is not None else None,
        "n_trace_events": winner["n_trace_events"] if winner is not None else 0,
        "resilience": None,
        "zero": None,
        "autoplan": report.to_json(task.job),
    }


def _execute_cluster(task: SimTask) -> Dict:
    from repro.parallel.cluster import run_cluster

    result = run_cluster(task.job, task.cluster, task.cluster_config,
                         system=task.system)
    ok = result.ok
    first = result.chains[0][0]
    digest = _trace_digester()
    return {
        "version": RECORD_VERSION,
        "label": task.label,
        "system": task.system,
        "ok": ok,
        "oom": result.oom,
        "tflops": result.tflops,
        "samples_per_second": result.samples_per_second,
        "minibatch_time": result.minibatch_time,
        "makespan": result.makespan if ok else 0.0,
        "peak_bytes_per_gpu": result.peak_memory_per_gpu() if ok else [],
        "feasible": all(
            chain.planner_report.feasible
            for replica in result.chains for chain in replica
        ),
        "plan": None,
        "trace_digest": digest(first.simulation) if ok else None,
        "n_trace_events": (
            len(first.simulation.trace.events) if ok else 0
        ),
        "resilience": None,
        "zero": None,
        "cluster": {
            "n_servers": result.cluster.n_servers,
            "fabric": result.cluster.fabric.link_type.value,
            "tp": result.tp,
            "dp": result.dp,
            "pp": result.pp,
            "sequence_parallel": task.cluster_config.sequence_parallel,
            "placement_mode": result.placement.mode,
            "chains": [
                [list(chain) for chain in replica]
                for replica in result.placement.chains
            ],
            "bucket_bytes": task.cluster_config.bucket_bytes,
            "collective_mode": task.cluster_config.collective_mode,
            "overlap": task.cluster_config.overlap,
            "chain_minibatch_time": result.chain_minibatch_time,
            "exposed_tp_sync": result.exposed_tp_sync,
            "exposed_allreduce": result.exposed_allreduce,
            "tp_sync": [
                {
                    "stage": sync.stage,
                    "n_groups": sync.n_groups,
                    "microbatch_seconds": sync.microbatch_seconds,
                    "minibatch_seconds": sync.minibatch_seconds,
                }
                for sync in result.tp_sync
            ],
            "stage_allreduce": [
                {
                    "stage": sync.stage,
                    "devices": list(sync.devices),
                    "algorithm": sync.algorithm,
                    "grad_bytes": sync.grad_bytes,
                    "n_buckets": sync.n_buckets,
                    "allreduce_seconds": sync.allreduce_seconds,
                    "exposed_seconds": sync.exposed_seconds,
                }
                for sync in result.stage_allreduce
            ],
            "chain_trace_digests": [
                [
                    digest(chain.simulation) if chain.ok else None
                    for chain in replica
                ]
                for replica in result.chains
            ],
        },
    }


def _execute_zero(task: SimTask) -> Dict:
    from repro.baselines.zero import run_zero

    variant = task.system.split("-", 1)[1]
    result = run_zero(
        task.job.model,
        task.job.server,
        variant,
        task.job.samples_per_minibatch,
    )
    return {
        "version": RECORD_VERSION,
        "label": task.label,
        "system": task.system,
        "ok": result.ok,
        "oom": None if result.ok else result.reason,
        "tflops": result.tflops,
        "samples_per_second": (
            task.job.samples_per_minibatch / result.minibatch_time
            if result.ok and result.minibatch_time > 0 else 0.0
        ),
        "minibatch_time": result.minibatch_time,
        "makespan": result.minibatch_time,
        "peak_bytes_per_gpu": (
            [result.per_gpu_memory] * task.job.server.n_gpus
            if result.ok else []
        ),
        "feasible": result.ok,
        "plan": None,
        "trace_digest": None,
        "n_trace_events": 0,
        "resilience": None,
        "zero": {
            "variant": result.variant,
            "reason": result.reason,
            "compute_time": result.compute_time,
            "comm_exposed": result.comm_exposed,
            "offload_exposed": result.offload_exposed,
            "host_bytes": result.host_bytes,
        },
    }


def peak_gib(record: Dict) -> float:
    """Largest per-GPU peak of a record, in GiB (0.0 for OOM cells)."""
    peaks = record.get("peak_bytes_per_gpu") or []
    return max(peaks) / 2**30 if peaks else 0.0


RECORD_CSV_FIELDS = ["label", "system", "ok", "tflops", "samples_per_second",
                     "minibatch_time", "peak_gib"]


def records_to_csv(records) -> str:
    """Render runtime records as CSV text (one row per task).

    Formatting matches :func:`repro.analysis.sweep.to_csv`, so two
    runs of the same grid produce byte-identical files whenever their
    records match — the property the cache-roundtrip CI job asserts.
    """
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=RECORD_CSV_FIELDS)
    writer.writeheader()
    for record in records:
        if record is None:
            continue
        writer.writerow({
            "label": record["label"],
            "system": record["system"],
            "ok": int(bool(record["ok"])),
            "tflops": f"{record['tflops']:.3f}",
            "samples_per_second": f"{record['samples_per_second']:.3f}",
            "minibatch_time": f"{record['minibatch_time']:.6f}",
            "peak_gib": f"{peak_gib(record):.3f}",
        })
    return buffer.getvalue()

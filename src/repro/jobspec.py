"""JSON job specifications for the CLI and scripting.

A job spec is a small JSON document describing one training job —
model, server, pipeline system, batch geometry — so experiments are
reproducible from checked-in files instead of command lines::

    {
      "model": "gpt-10.3",
      "server": "dgx1",
      "pipeline": "dapple",
      "microbatch_size": 2,
      "microbatches_per_minibatch": 16,
      "n_minibatches": 2
    }

Cluster keys (``nodes``, ``fabric``, ``tp``, ``dp``, ``pp``,
``sequence_parallel``) describe a 3D-parallel run; they are ignored by
:func:`load_job` (which builds the per-replica job) and consumed by
:func:`cluster_from_spec` / :func:`cluster_config_from_spec`.

``"shape": "auto"`` hands the (tp, dp, pp) choice to the unified
auto-parallel planner (:mod:`repro.autoplan`) instead of reading the
explicit degrees; ``budget_gib`` optionally tightens the per-GPU
memory budget the shape search plans under.

``"workload": "inference"`` switches a task spec to an LLM-serving
simulation (:mod:`repro.inference`); the optional ``"inference"``
object carries the arrival process, KV pool cap, and swap policy::

    {"model": "gpt-5.3", "server": "dgx1", "workload": "inference",
     "inference": {"n_requests": 32, "kv_swap": "d2d"}}
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Dict

from repro.errors import ConfigurationError
from repro.job import TrainingJob, dapple_job, gpipe_job, pipedream_job

# A cluster spec names at most this many servers.  ``make_cluster``
# builds every server, so an unbounded ``nodes`` (say ``10**12``) from
# an untrusted request would never return; no real fabric comes close.
MAX_NODES = 1024

_REQUIRED = ("model", "server")
_OPTIONAL = {
    "pipeline": None,
    "microbatch_size": None,
    "microbatches_per_minibatch": None,
    "n_minibatches": None,
    "mfu": None,
}
_CLUSTER = {
    "nodes": 1,
    "fabric": "ib-edr",
    "tp": 1,
    "dp": 1,
    "pp": 0,
    "sequence_parallel": False,
    "shape": "explicit",
    "budget_gib": None,
}
_SERVING = {
    "workload": "training",
    "inference": None,
}
_BUILDERS = {"pipedream": pipedream_job, "dapple": dapple_job, "gpipe": gpipe_job}

_KINDS = {str: "a string", bool: "true or false", int: "an integer",
          float: "a finite number"}
_NO_DEFAULT = object()


def _read(spec: Dict, key: str, kind: type, default=_NO_DEFAULT):
    """``spec[key]``, checked to be a JSON value of ``kind``.

    ``kind`` is ``str``, ``bool``, ``int`` or ``float`` (any finite
    number, kept as given so cache keys do not move); booleans are not
    numbers.  An absent or null value reads as ``default``, and is an
    error when there is none.
    """
    value = spec.get(key)
    if value is None and default is not _NO_DEFAULT:
        return default
    if kind is str or kind is bool:
        ok = isinstance(value, kind)
    elif isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, int)
    else:
        try:
            ok = isinstance(value, (int, float)) and math.isfinite(float(value))
        except OverflowError:       # an int past the float range
            ok = False
    if not ok:
        raise ConfigurationError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    return value


def job_from_spec(spec: Dict) -> TrainingJob:
    """Build a :class:`TrainingJob` from a parsed spec dict."""
    unknown = (set(spec) - set(_REQUIRED) - set(_OPTIONAL) - set(_CLUSTER)
               - set(_SERVING))
    if unknown:
        raise ConfigurationError(f"unknown job spec keys: {sorted(unknown)}")
    for key in _REQUIRED:
        if key not in spec:
            raise ConfigurationError(f"job spec missing required key {key!r}")

    from repro.cli import _build_server, _default_pipeline, _parse_model

    model_spec = _read(spec, "model", str)
    model = _parse_model(model_spec)
    server = _build_server(_read(spec, "server", str))
    pipeline = (_read(spec, "pipeline", str, None)
                or _default_pipeline(model_spec))
    builder = _BUILDERS.get(pipeline)
    if builder is None:
        raise ConfigurationError(f"unknown pipeline {pipeline!r}")

    kwargs = {}
    for key, kind in (("microbatch_size", int),
                      ("microbatches_per_minibatch", int),
                      ("n_minibatches", int), ("mfu", float)):
        if spec.get(key) is not None:
            kwargs[key] = _read(spec, key, kind)
    return builder(model, server, **kwargs)


def load_job(path: str) -> TrainingJob:
    """Read a job spec file and build the job."""
    with open(path) as handle:
        try:
            spec = json.load(handle)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"{path}: invalid JSON ({error})")
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{path}: job spec must be a JSON object")
    return job_from_spec(spec)


def cluster_from_spec(spec: Dict, force: bool = False):
    """The spec's :class:`~repro.hardware.cluster.Cluster`, or ``None``.

    ``None`` when the spec describes a single box with no tensor
    parallelism — callers fall back to the plain job path.  ``force``
    builds the (one-server) cluster anyway; the autoplan path needs a
    real cluster even for a single box, since the shape search itself
    decides whether tensor parallelism pays.
    """
    from repro.cli import SERVERS
    from repro.hardware.cluster import make_cluster
    from repro.hardware.links import FABRICS

    nodes = _read(spec, "nodes", int, 1)
    if not 1 <= nodes <= MAX_NODES:
        raise ConfigurationError(
            f"nodes must be between 1 and {MAX_NODES}, got {nodes}")
    if not force and nodes <= 1 and _read(spec, "tp", int, 1) <= 1:
        return None
    fabric_name = _read(spec, "fabric", str, "ib-edr")
    fabric = FABRICS.get(fabric_name)
    if fabric is None:
        raise ConfigurationError(
            f"unknown fabric {fabric_name!r}; options: {sorted(FABRICS)}")
    builder = SERVERS.get(spec["server"])
    if builder is None:
        raise ConfigurationError(
            f"unknown server {spec['server']!r}; options: {sorted(SERVERS)}")
    return make_cluster(builder, nodes, name=f"{nodes}x-{spec['server']}",
                        fabric=fabric)


def cluster_config_from_spec(spec: Dict):
    """The spec's :class:`~repro.parallel.cluster.ClusterConfig`."""
    from repro.parallel.cluster import ClusterConfig

    return ClusterConfig(
        tp=_read(spec, "tp", int, 1),
        dp=_read(spec, "dp", int, 1),
        pp=_read(spec, "pp", int, 0),
        sequence_parallel=_read(spec, "sequence_parallel", bool, False),
    )


def autoplan_config_from_spec(spec: Dict):
    """The spec's :class:`~repro.autoplan.AutoPlanConfig`, or ``None``.

    ``None`` unless the spec says ``"shape": "auto"``.  Explicit
    parallelism degrees contradict an automatic shape search, so
    mixing them is an error rather than a silent override.
    """
    shape = _read(spec, "shape", str, "explicit")
    if shape not in ("explicit", "auto"):
        raise ConfigurationError(
            f"unknown shape {shape!r}; options: ['auto', 'explicit']")
    budget = _read(spec, "budget_gib", float, None)
    if shape != "auto":
        if budget is not None:
            raise ConfigurationError(
                'budget_gib only applies to "shape": "auto" specs')
        return None
    for key, default in (("tp", 1), ("dp", 1), ("pp", 0)):
        if (_read(spec, key, int, default) or default) != default:
            raise ConfigurationError(
                f'"shape": "auto" picks tp/dp/pp itself; drop the '
                f"explicit {key}={spec[key]}")
    from repro.autoplan import AutoPlanConfig

    return AutoPlanConfig(
        budget_gib=float(budget) if budget is not None else None,
        sequence_parallel=_read(spec, "sequence_parallel", bool, False),
    )


def inference_config_from_spec(spec: Dict):
    """The spec's :class:`~repro.inference.InferenceConfig`, or ``None``.

    ``None`` for training specs.  ``"workload": "inference"`` switches
    the spec to a serving simulation; the optional ``"inference"``
    object carries :class:`InferenceConfig` fields (arrival process,
    KV pool cap, swap policy, ...).  Cluster keys describe training
    sharding and contradict a serving spec, so mixing is an error.
    """
    workload = _read(spec, "workload", str, "training")
    if workload not in ("training", "inference"):
        raise ConfigurationError(
            f"unknown workload {workload!r}; options: "
            f"['inference', 'training']")
    if workload != "inference":
        if spec.get("inference") is not None:
            raise ConfigurationError(
                '"inference" settings only apply to '
                '"workload": "inference" specs')
        return None
    for key, default in (("nodes", 1), ("tp", 1), ("dp", 1), ("pp", 0)):
        if (_read(spec, key, int, default) or default) != default:
            raise ConfigurationError(
                f'"workload": "inference" specs describe one server; '
                f"drop the cluster key {key}={spec[key]}")
    if _read(spec, "shape", str, "explicit") == "auto":
        raise ConfigurationError(
            '"shape": "auto" is a training-shape search; inference '
            "specs set pp inside the \"inference\" object instead")

    from repro.inference import InferenceConfig

    params = spec.get("inference") or {}
    if not isinstance(params, dict):
        raise ConfigurationError('"inference" must be a JSON object')
    fields = {f.name for f in dataclasses.fields(InferenceConfig)}
    unknown = set(params) - fields
    if unknown:
        raise ConfigurationError(
            f"unknown inference keys: {sorted(unknown)}")
    params = dict(params)
    for f in dataclasses.fields(InferenceConfig):
        if f.name in params and f.name != "trace":
            kind = int if f.name == "kv_pool_mib" else type(f.default)
            params[f.name] = _read(params, f.name, kind, f.default)
    if params.get("trace") is not None:
        params["trace"] = _trace_from_spec(params["trace"])
    return InferenceConfig(**params)


def _trace_from_spec(trace) -> tuple:
    """``[[arrival_s, prompt, output], ...]`` as InferenceConfig's tuples."""
    entries = []
    for entry in trace if isinstance(trace, list) else [trace]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ConfigurationError(
                "trace must be a list of [arrival_s, prompt, output] "
                f"triples, got {entry!r}")
        row = dict(zip(("trace arrival_s", "trace prompt", "trace output"),
                       entry))
        entries.append((_read(row, "trace arrival_s", float),
                        _read(row, "trace prompt", int),
                        _read(row, "trace output", int)))
    return tuple(entries)


_TASK = {
    "label": None,
    "system": "mpress",
    "faults_seed": None,
    "faults_horizon": 60.0,
    "hybrid_dp": None,
}


def task_from_spec(spec: Dict) -> "SimTask":
    """Build a runtime :class:`~repro.runtime.SimTask` from a spec dict.

    This is the deserialization path of the sweep server (``repro
    serve``): one task spec is a job spec plus task-level keys —
    ``system`` (default ``"mpress"``), a cosmetic ``label``,
    ``faults_seed``/``faults_horizon`` (a seeded random campaign over
    ``n_gpus`` devices), and ``hybrid_dp`` (a DP×PP hybrid run).
    Cluster specs (``nodes``/``tp``/...) lower to cluster tasks, the
    same split as :func:`cluster_from_spec`; ``"shape": "auto"``
    specs lower to autoplan tasks (the shape search picks tp/dp/pp).
    """
    from repro.faults.spec import random_schedule
    from repro.runtime.task import SimTask

    if not isinstance(spec, dict):
        raise ConfigurationError("task spec must be a JSON object")
    spec = dict(spec)
    task_keys = {key: spec.pop(key, None) for key in _TASK}
    label = _read(task_keys, "label", str, None)
    system = _read(task_keys, "system", str, _TASK["system"])
    faults_seed = _read(task_keys, "faults_seed", int, None)
    horizon = _read(task_keys, "faults_horizon", float, _TASK["faults_horizon"])
    hybrid_dp = _read(task_keys, "hybrid_dp", int, None)
    job = job_from_spec(spec)
    inference = inference_config_from_spec(spec)
    if inference is not None:
        if faults_seed is not None:
            raise ConfigurationError(
                "fault injection applies to training tasks, not "
                '"workload": "inference"')
        if hybrid_dp is not None:
            raise ConfigurationError(
                "hybrid_dp applies to training tasks, not "
                '"workload": "inference"')
        if label is None:
            label = (f"serving/{spec['model']}/{spec['server']}"
                     f"/kv={inference.kv_swap}")
        return SimTask(label=label, job=job, system=system,
                       inference=inference)
    autoplan = autoplan_config_from_spec(spec)
    if autoplan is not None:
        cluster = cluster_from_spec(spec, force=True)
        cluster_config = None
    else:
        cluster = cluster_from_spec(spec)
        cluster_config = cluster_config_from_spec(spec) \
            if cluster is not None else None
    faults = None
    if faults_seed is not None:
        faults = random_schedule(
            seed=faults_seed,
            n_devices=job.server.n_gpus,
            horizon=float(horizon),
        )
    hybrid = None
    if hybrid_dp is not None:
        from repro.parallel.hybrid import HybridConfig

        hybrid = HybridConfig(dp=hybrid_dp)
    if label is None:
        label = f"{spec['model']}/{spec['server']}/{system}"
        if autoplan is not None:
            label += "/shape=auto"
        if cluster_config is not None:
            label += (f"/tp={cluster_config.tp},dp={cluster_config.dp},"
                      f"pp={cluster_config.pp}")
        if hybrid is not None:
            label += f"/dp={hybrid.dp}"
        if faults_seed is not None:
            label += f"/faults={faults_seed}"
    return SimTask(label=label, job=job, system=system, faults=faults,
                   hybrid=hybrid, cluster=cluster,
                   cluster_config=cluster_config, autoplan=autoplan)


def job_to_spec(job: TrainingJob, model_spec: str, server_name: str) -> Dict:
    """Render a job back into a spec dict (for saving experiments)."""
    return {
        "model": model_spec,
        "server": server_name,
        "pipeline": job.system,
        "microbatch_size": job.microbatch_size,
        "microbatches_per_minibatch": job.microbatches_per_minibatch,
        "n_minibatches": job.n_minibatches,
        "mfu": job.mfu,
    }

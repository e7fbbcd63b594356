"""Inputs of the three benchmark workloads, built fresh on every call.

Every builder returns new job, server and cluster objects, so a pass
never inherits lazily computed state (``TrainingJob.stage_plan`` and
``schedule`` are cached properties) from the pass before it.
"""

from __future__ import annotations

import random
from typing import Dict, List

TRAINING = ("train-dgx1-mpress",)
AUTOPLAN = "autoplan-dgx1"
SERVE = "serve-mixed"
ALL = TRAINING + (AUTOPLAN, SERVE)


def preload() -> None:
    """Import what a pass would otherwise import lazily on first use."""
    import repro.autoplan  # noqa: F401
    import repro.core.mpress  # noqa: F401
    import repro.parallel.cluster  # noqa: F401
    import repro.runtime.task  # noqa: F401
    import repro.sim.chrome_trace  # noqa: F401


def training_tasks(workload: str) -> list:
    """The task list one pass of a training workload executes."""
    from repro.hardware.server import dgx1_server
    from repro.job import pipedream_job
    from repro.models import bert_variant
    from repro.runtime.task import SimTask

    if workload == "train-dgx1-mpress":
        return [SimTask("dgx1/bert-0.64/mpress",
                        pipedream_job(bert_variant(0.64), dgx1_server()),
                        "mpress")]
    raise ValueError(f"not a training workload: {workload}")


def autoplan_inputs():
    """``(job, cluster)`` of the shape search: GPT-5.3B DAPPLE on one DGX-1."""
    from repro.hardware.cluster import dgx1_cluster
    from repro.job import dapple_job
    from repro.models import gpt_variant

    cluster = dgx1_cluster(1)
    return dapple_job(gpt_variant(5.3), cluster.servers[0]), cluster


# -- serve-mixed job mix -------------------------------------------------------

TENANTS = ("alice", "bob", "carol")

# Cheap training specs: each executes once per episode and is a cache
# hit (or coalesce) every later time it is drawn.  None of them OOMs.
TRAINING_SPECS = [
    {"model": model, "server": "dgx1", "system": system}
    for model, systems in (
        ("bert-0.35", ("none", "recomputation", "gpu-cpu-swap", "mpress")),
        ("bert-0.64", ("recomputation", "gpu-cpu-swap")),
        ("gpt-5.3", ("none", "recomputation", "gpu-cpu-swap", "mpress",
                     "zero-offload")),
    )
    for system in systems
]

# Fresh inference specs: a distinct serving seed is a distinct content
# key, so each one misses the cache and writes a new entry.  The pool
# is finite so that every record it can produce is pinned.
KV_SWAPS = ("d2d", "pcie", "none")
N_INFERENCE_SEEDS = 100
INFERENCE_REQUESTS = 8
INFERENCE_SPECS = [
    {"model": "gpt-5.3", "server": "dgx1", "workload": "inference",
     "inference": {"seed": seed, "n_requests": INFERENCE_REQUESTS,
                   "kv_swap": kv}}
    for seed in range(N_INFERENCE_SEEDS) for kv in KV_SWAPS
]

# The server's first job spawns its worker pool and takes the worker's
# first-use costs (lazy imports) of both task kinds.  It runs during
# set-up, and its specs are outside the measured mix (dgx2, never drawn).
WARMUP_SPECS = [
    {"model": "bert-0.35", "server": "dgx2", "system": "none"},
    {"model": "gpt-5.3", "server": "dgx2", "workload": "inference",
     "inference": {"n_requests": INFERENCE_REQUESTS}},
]


def serve_schedule(seed: int, n_jobs: int, rate: float,
                   training_share: float) -> List[Dict]:
    """Open-loop arrival schedule: ``n_jobs`` Poisson arrivals at ``rate``.

    Each job carries one spec not drawn before, which misses the cache
    (an unused training spec with probability ``training_share``, else
    the next unused inference spec), followed by zero to two repeats of
    content keys already drawn in this episode, which are cache hits
    (or coalesces while the first is still running).  So every job
    waits for exactly one simulation, and half the specs repeat on
    average.  Fresh training specs are spread over the episode rather
    than front-loaded, so their one-time cost does not pile up at the
    start.
    """
    if n_jobs > len(TRAINING_SPECS) + len(INFERENCE_SPECS):
        raise ValueError(f"{n_jobs} jobs need more fresh specs than the "
                         f"pinned pool holds; run fewer seconds")
    rng = random.Random(seed)
    fresh_training = list(TRAINING_SPECS)
    fresh_inference = list(INFERENCE_SPECS)
    rng.shuffle(fresh_training)
    rng.shuffle(fresh_inference)
    seen: List[Dict] = []
    schedule = []
    due = 0.0
    for index in range(n_jobs):
        due += rng.expovariate(rate)
        if fresh_training and rng.random() < training_share:
            fresh = fresh_training.pop()
        else:
            fresh = fresh_inference.pop()
        seen.append(fresh)
        specs = [fresh] + [rng.choice(seen) for _ in range(rng.randint(0, 2))]
        schedule.append({"index": index, "due": due,
                         "tenant": TENANTS[index % len(TENANTS)],
                         "tasks": specs})
    return schedule

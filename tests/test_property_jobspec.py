"""Fuzz of the task-spec boundary: a task or a ConfigurationError.

``jobspec.task_from_spec`` and ``serve.schemas.parse_submit`` read
untrusted JSON (``POST /v1/jobs`` bodies).  Every key they know is
drawn either from its plausible values or from arbitrary JSON, so
each example mixes well-typed, wrong-typed and out-of-range values;
whole specs are sometimes arbitrary JSON too (unknown keys, lists).
Whatever comes in, the result is a ``SimTask`` (or a
``SubmitRequest``) or a ``ConfigurationError`` — which the server
turns into a 400 — never another exception.  Node counts stay within
``MAX_NODES``, so no example builds a huge cluster.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.inference import InferenceConfig
from repro.jobspec import (
    MAX_HYBRID_DP,
    MAX_INFERENCE_REQUESTS,
    MAX_MICROBATCH_SIZE,
    MAX_MICROBATCHES_PER_MINIBATCH,
    MAX_MINIBATCHES,
    MAX_NODES,
    task_from_spec,
)
from repro.runtime import SimTask
from repro.serve import parse_submit

_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=8))
JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)
# Arbitrary JSON, except that an integer is a node count within bounds.
NODES = (st.integers(min_value=-2, max_value=MAX_NODES)
         | JSON.filter(lambda v: isinstance(v, bool) or not isinstance(v, int)))


def _either(plausible):
    """Mostly ``plausible``, one draw in six arbitrary JSON: examples
    with a single bad value reach the deep paths (clusters, autoplan,
    serving) instead of all failing at the first key read."""
    return st.integers(0, 5).flatmap(lambda n: JSON if n == 0 else plausible)


def _inference_field(field: dataclasses.Field):
    if field.name == "trace":
        triple = st.tuples(st.floats(-1, 10), st.integers(-1, 64),
                           st.integers(-1, 64)).map(list)
        return _either(st.lists(triple, max_size=4))
    if field.name == "arrival":
        return _either(st.sampled_from(["poisson", "uniform", "trace"]))
    if field.name == "kv_swap":
        return _either(st.sampled_from(["d2d", "pcie", "none"]))
    if isinstance(field.default, float):
        return _either(st.floats(-1, 64))
    return _either(st.integers(-2, 64))


INFERENCE = _either(st.fixed_dictionaries({}, optional={
    field.name: _inference_field(field)
    for field in dataclasses.fields(InferenceConfig)}))

SPEC_KEYS = {
    "model": _either(st.sampled_from(["bert-0.35", "gpt-5.3", "bert-7"])),
    "server": _either(st.sampled_from(["dgx1", "dgx2"])),
    "pipeline": _either(st.sampled_from(["pipedream", "dapple", "gpipe"])),
    "microbatch_size": _either(st.integers(-1, 16)),
    "microbatches_per_minibatch": _either(st.integers(-1, 32)),
    "n_minibatches": _either(st.integers(-1, 4)),
    "mfu": _either(st.floats(-0.5, 1.5)),
    "nodes": NODES,
    "fabric": _either(st.sampled_from(["ib-edr", "ib-hdr", "eth-100g"])),
    "tp": _either(st.integers(-1, 8)),
    "dp": _either(st.integers(-1, 8)),
    "pp": _either(st.integers(-1, 8)),
    "sequence_parallel": _either(st.booleans()),
    "shape": _either(st.sampled_from(["explicit", "auto"])),
    "budget_gib": _either(st.floats(-1, 64)),
    "workload": _either(st.sampled_from(["training", "inference"])),
    "inference": INFERENCE,
    "label": _either(st.text(max_size=12)),
    "system": _either(st.sampled_from(
        ["none", "mpress", "recomputation", "zero-offload"])),
    "faults_seed": _either(st.integers(-5, 5)),
    "faults_horizon": _either(st.floats(-1, 100)),
    "hybrid_dp": _either(st.integers(-1, 4)),
}
SPECS = st.fixed_dictionaries(
    {"model": SPEC_KEYS["model"], "server": SPEC_KEYS["server"]},
    optional={k: v for k, v in SPEC_KEYS.items()
              if k not in ("model", "server")})

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(spec=SPECS | JSON)
def test_task_from_spec_gives_a_task_or_a_configuration_error(spec):
    try:
        task = task_from_spec(spec)
    except ConfigurationError:
        return
    assert isinstance(task, SimTask)


@FUZZ
@given(tenant=_either(st.sampled_from(["alice", "bob"])),
       priority=_either(st.integers(-3, 3)),
       specs=st.lists(SPECS | JSON, max_size=3) | JSON)
def test_parse_submit_gives_a_request_or_a_configuration_error(
        tenant, priority, specs):
    try:
        request = parse_submit({"tenant": tenant, "priority": priority,
                                "tasks": specs})
    except ConfigurationError:
        return
    assert all(isinstance(task, SimTask) for task in request.tasks)


@pytest.mark.parametrize("nodes", [MAX_NODES + 1, 10**12, -1, 0])
def test_node_count_outside_the_bound_is_rejected(nodes):
    with pytest.raises(ConfigurationError, match="nodes"):
        task_from_spec({"model": "gpt-5.3", "server": "dgx1",
                        "nodes": nodes, "tp": 2})


@pytest.mark.parametrize("extra, key", [
    ({"n_minibatches": "x"}, "n_minibatches"),
    ({"mfu": "x"}, "mfu"),
    ({"workload": "inference", "inference": {"n_requests": "a"}},
     "n_requests"),
    ({"model": 5}, "model"),
    ({"server": ["dgx1"]}, "server"),
    ({"nodes": "two"}, "nodes"),
    ({"nodes": 1e300}, "nodes"),
    ({"tp": "x"}, "tp"),
    ({"faults_seed": "x"}, "faults_seed"),
    ({"hybrid_dp": "x"}, "hybrid_dp"),
    ({"shape": "auto", "budget_gib": "x"}, "budget_gib"),
    ({"nodes": 2, "sequence_parallel": "yes"}, "sequence_parallel"),
    ({"workload": "inference", "inference": {"trace": [[0, "a", 1]]}},
     "trace"),
])
def test_wrong_typed_value_names_its_key(extra, key):
    spec = dict({"model": "gpt-5.3", "server": "dgx1"}, **extra)
    with pytest.raises(ConfigurationError, match=key):
        parse_submit({"tasks": [spec]})


def test_ignored_cluster_keys_on_one_box_are_rejected():
    """A one-box, tp=1 spec used to drop wrong-typed cluster keys on
    the floor and return a plain task."""
    with pytest.raises(ConfigurationError, match="dp"):
        task_from_spec({"model": "bert-0.35", "server": "dgx1", "dp": "x",
                        "fabric": 5, "pp": [1], "sequence_parallel": "yes"})


@pytest.mark.parametrize("extra, key", [
    ({"dp": 2}, "dp"), ({"pp": 2}, "pp"), ({"fabric": "ib-hdr"}, "fabric"),
    ({"fabric": 5}, "fabric"), ({"sequence_parallel": True},
                                "sequence_parallel"),
    ({"sequence_parallel": "yes"}, "sequence_parallel"),
])
def test_one_box_spec_names_the_cluster_key_it_would_ignore(extra, key):
    spec = dict({"model": "bert-0.35", "server": "dgx1"}, **extra)
    with pytest.raises(ConfigurationError, match=key):
        task_from_spec(spec)


def test_one_box_spec_may_spell_out_the_defaults():
    task = task_from_spec({"model": "bert-0.35", "server": "dgx1", "dp": 1,
                           "pp": 0, "fabric": "ib-edr",
                           "sequence_parallel": False, "tp": 1, "nodes": 1})
    assert task.cluster is None


_BOUNDED = [
    ("microbatch_size", MAX_MICROBATCH_SIZE, {}),
    ("microbatches_per_minibatch", MAX_MICROBATCHES_PER_MINIBATCH, {}),
    ("n_minibatches", MAX_MINIBATCHES, {}),
    ("hybrid_dp", MAX_HYBRID_DP, {}),
    ("n_requests", MAX_INFERENCE_REQUESTS, {"workload": "inference"}),
]


def _sized_spec(key, value, extra):
    spec = {"model": "gpt-5.3", "server": "dgx1", **extra}
    if key == "n_requests":
        spec["inference"] = {key: value}
    else:
        spec[key] = value
    return spec


@pytest.mark.parametrize("key, bound, extra", _BOUNDED)
def test_size_over_its_bound_names_key_and_bound(key, bound, extra):
    for value in (bound + 1, 10**9):
        with pytest.raises(ConfigurationError,
                           match=f"{key} must be at most {bound}"):
            task_from_spec(_sized_spec(key, value, extra))
    assert isinstance(task_from_spec(_sized_spec(key, bound, extra)), SimTask)


def test_size_bounds_sit_far_above_every_preset():
    """Bounds leave room: the largest value any preset, golden or
    benchmark uses is at most a tenth of its bound."""
    from repro.runtime.presets import PRESETS

    largest = {"microbatch_size": 0, "microbatches_per_minibatch": 0,
               "n_minibatches": 0, "hybrid_dp": 0, "n_requests": 0}
    for name in PRESETS:
        for task in PRESETS[name]():
            job = task.job
            for key in ("microbatch_size", "microbatches_per_minibatch",
                        "n_minibatches"):
                largest[key] = max(largest[key], getattr(job, key))
            if task.hybrid is not None:
                largest["hybrid_dp"] = max(largest["hybrid_dp"], task.hybrid.dp)
            if task.inference is not None:
                largest["n_requests"] = max(largest["n_requests"],
                                            task.inference.n_requests)
    for key, bound, _extra in _BOUNDED:
        assert 10 * largest[key] <= bound, (key, largest[key], bound)

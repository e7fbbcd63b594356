"""Property-based tests for the device-mapping search."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.device_mapping import (
    _automorphisms,
    _lane_matrix,
    assign_spare_memory,
    search_device_mapping,
)
from repro.hardware.links import NVLINK2
from repro.hardware.topology import Topology, dgx1_topology, dgx2_topology

from tests.conftest import small_topology
from tests.mapping_oracle import oracle_search

TOPO = dgx1_topology()

byte_vectors = st.lists(
    st.integers(min_value=0, max_value=30 * 2**30), min_size=8, max_size=8
)


@given(overflow=byte_vectors, spare=byte_vectors)
@settings(max_examples=30, deadline=None)
def test_assignment_invariants(overflow, spare):
    evaluation = assign_spare_memory(TOPO, tuple(range(8)), overflow, spare)
    # Per-importer totals never exceed that importer's spare.
    received = {}
    for exporter, alloc in evaluation.assignments.items():
        assert overflow[exporter] > 0
        for importer, amount in alloc.items():
            assert amount > 0
            received[importer] = received.get(importer, 0) + amount
    for importer, amount in received.items():
        assert amount <= spare[importer]
    # Per-exporter totals never exceed the exporter's demand.
    for exporter, alloc in evaluation.assignments.items():
        assert sum(alloc.values()) <= overflow[exporter]
    # Placed fraction is consistent.
    total_overflow = sum(overflow)
    placed = sum(sum(a.values()) for a in evaluation.assignments.values())
    if total_overflow:
        assert abs(evaluation.placed_fraction - placed / total_overflow) < 1e-9
    # Only NVLink-reachable pairs are used.
    for exporter, alloc in evaluation.assignments.items():
        for importer in alloc:
            assert TOPO.lanes(exporter, importer) > 0


@given(overflow=byte_vectors, spare=byte_vectors)
@settings(max_examples=10, deadline=None)
def test_search_returns_valid_permutation(overflow, spare):
    result = search_device_mapping(TOPO, overflow, spare, mode="greedy")
    assert sorted(result.device_map) == list(range(8))
    assert 0.0 <= result.placed_fraction <= 1.0


@given(overflow=byte_vectors, spare=byte_vectors)
@settings(max_examples=10, deadline=None)
def test_search_never_worse_than_identity(overflow, spare):
    from repro.core.device_mapping import _score

    identity_eval = assign_spare_memory(TOPO, tuple(range(8)), overflow, spare)
    result = search_device_mapping(TOPO, overflow, spare, mode="greedy")
    # Greedy anchors stage 0 at device 0 but still covers all 5040
    # such mappings (the identity among them), so its *score* (the search
    # objective — revenue over transfer time, which may trade a sliver
    # of placed bytes for a faster layout) cannot lose to identity's.
    assert result.score >= _score(identity_eval) - 1e-9


@given(overflow=byte_vectors, spare=byte_vectors)
@settings(max_examples=20, deadline=None)
def test_switched_topology_places_all_reachable(overflow, spare):
    # A stage never both overflows and offers spare (the planner
    # derives them from the same peak), so zero out the conflicts.
    spare = [0 if overflow[i] > 0 else spare[i] for i in range(8)]
    topo = dgx2_topology()
    evaluation = assign_spare_memory(topo, tuple(range(8)), overflow, spare)
    # Full crossbar: placement is only limited by totals.
    expected = min(sum(overflow), sum(spare))
    placed = sum(sum(a.values()) for a in evaluation.assignments.values())
    assert placed >= expected * 0.99 - 8  # rounding slack


# -- pruned search vs full enumeration ----------------------------------------


def _direct_topology(n, bricks):
    adjacency = {
        frozenset(pair): count
        for pair, count in zip(itertools.combinations(range(n), 2), bricks)
        if count > 0
    }
    return Topology(n_gpus=n, kind="direct", nvlink=NVLINK2,
                    lane_budget=2 * (n - 1), adjacency=adjacency)


def _rigid_topology():
    """5-GPU path 0-1-2-3-4 whose only lane automorphism is the identity."""
    return _direct_topology(5, [1, 0, 0, 0, 2, 0, 0, 3, 0, 1])


@st.composite
def random_topologies(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    bricks = draw(st.lists(st.integers(min_value=0, max_value=2),
                           min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    return _direct_topology(n, bricks)


# Zero, a handful of bytes (where the water-fill's rounding bites), or GiBs.
byte_amounts = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=30 * 2**30),
)


def _demand_vectors(n):
    # Overflow and spare are drawn independently, so some stages both
    # overflow and offer spare.
    vector = st.lists(byte_amounts, min_size=n, max_size=n)
    return st.tuples(vector, vector)


@st.composite
def search_inputs(draw):
    topo = draw(st.one_of(
        st.sampled_from([small_topology(), _rigid_topology()]),
        random_topologies(),
    ))
    overflow, spare = draw(_demand_vectors(topo.n_gpus))
    mode = draw(st.sampled_from(["exact", "greedy"]))
    limit = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=200)))
    return topo, overflow, spare, mode, limit


def _assert_matches_oracle(topo, overflow, spare, mode, limit=None):
    result = search_device_mapping(topo, overflow, spare, mode=mode,
                                   max_mappings=limit)
    expected = oracle_search(topo, overflow, spare, mode, max_mappings=limit)
    assert result.device_map == expected.device_map
    assert result.score == expected.score
    assert result.placed_fraction == expected.placed_fraction
    assert result.assignments == expected.assignments


def test_rigid_topology_has_only_the_identity():
    assert _automorphisms(_lane_matrix(_rigid_topology())) == [tuple(range(5))]


@given(inputs=search_inputs())
@settings(max_examples=60, deadline=None)
def test_pruned_search_matches_full_enumeration(inputs):
    _assert_matches_oracle(*inputs)


# The oracle scores all 8! DGX-1 mappings in seconds, so few examples.
@pytest.mark.parametrize("mode", ["exact", "greedy"])
@given(vectors=_demand_vectors(8))
@settings(max_examples=3, deadline=None)
def test_pruned_search_matches_full_enumeration_dgx1(mode, vectors):
    overflow, spare = vectors
    _assert_matches_oracle(TOPO, overflow, spare, mode)

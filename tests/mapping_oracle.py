"""Reference device-mapping search: full enumeration, no pruning.

The straightforward Fig. 6 search the pruned search in
``repro.core.device_mapping`` must reproduce exactly: score every
permutation (or every permutation fixing stage 0 on device 0) in lex
order, reading lane counts from the topology for each pair, and keep
the first strict maximum.  Test-only; the library never runs it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.device_mapping import MappingResult, _Evaluation, _score
from repro.hardware.topology import Topology


def oracle_assign(
    topology: Topology,
    device_map: Tuple[int, ...],
    overflow: List[int],
    spare: List[int],
) -> _Evaluation:
    """Lane-weighted water-fill of spare memory for one mapping."""
    n = len(device_map)
    lane_bandwidth = topology.nvlink.sustained_bandwidth
    remaining = {s: spare[s] for s in range(n) if spare[s] > 0}
    assignments: Dict[int, Dict[int, int]] = {}
    total_overflow = sum(overflow)
    placed_total = 0
    weighted_revenue = 0.0
    max_seconds = 0.0

    exporters = sorted(
        (s for s in range(n) if overflow[s] > 0), key=lambda s: -overflow[s]
    )
    for exporter in exporters:
        e_dev = device_map[exporter]
        lanes = {
            imp: topology.lanes(e_dev, device_map[imp])
            for imp in remaining
            if topology.lanes(e_dev, device_map[imp]) > 0
        }
        if not lanes:
            continue
        demand = overflow[exporter]
        alloc: Dict[int, int] = {}
        active = dict(lanes)
        while demand > 0 and active:
            total_lanes = sum(active.values())
            progressed = False
            for imp, lane in sorted(active.items()):
                slack = remaining[imp] - alloc.get(imp, 0)
                take = min(slack, max(1, (demand * lane) // total_lanes), demand)
                if take <= 0:
                    continue
                alloc[imp] = alloc.get(imp, 0) + take
                demand -= take
                progressed = True
                if demand <= 0:
                    break
            active = {
                imp: lane
                for imp, lane in active.items()
                if remaining[imp] - alloc.get(imp, 0) > 0
            }
            if not progressed:
                break
        if not alloc:
            continue
        assignments[exporter] = alloc
        for imp, amount in alloc.items():
            remaining[imp] -= amount
            if remaining[imp] <= 0:
                del remaining[imp]
        placed = sum(alloc.values())
        placed_total += placed
        weight = overflow[exporter] / total_overflow if total_overflow else 0.0
        weighted_revenue += placed * (1.0 + weight)
        seconds = max(
            amount / (topology.lanes(e_dev, device_map[imp]) * lane_bandwidth)
            for imp, amount in alloc.items()
        )
        max_seconds = max(max_seconds, seconds)

    placed_fraction = placed_total / total_overflow if total_overflow else 1.0
    return _Evaluation(assignments, placed_fraction, weighted_revenue, max_seconds)


def oracle_search(
    topology: Topology,
    overflow: List[int],
    spare: List[int],
    mode: str,
    max_mappings: Optional[int] = None,
) -> MappingResult:
    """Score every mapping of ``mode`` ("exact" or "greedy") in lex order.

    ``mappings_evaluated`` counts every permutation scored.
    """
    n = topology.n_gpus
    if mode == "exact":
        source = itertools.permutations(range(n))
    else:
        source = ((0,) + rest for rest in itertools.permutations(range(1, n)))
    best_score = -1.0
    best = None
    evaluated = 0
    for device_map in itertools.islice(source, max_mappings):
        evaluation = oracle_assign(topology, device_map, overflow, spare)
        evaluated += 1
        score = _score(evaluation)
        if score > best_score:
            best_score = score
            best = (device_map, evaluation)
    device_map, evaluation = best
    return MappingResult(
        device_map=list(device_map),
        score=best_score,
        placed_fraction=evaluation.placed_fraction,
        assignments=evaluation.assignments,
        mappings_evaluated=evaluated,
    )

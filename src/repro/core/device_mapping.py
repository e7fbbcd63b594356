"""Device-mapping search (the paper's Figure 6 algorithm).

Inter-operator training is agnostic to *which* GPU hosts which stage,
but D2D swap is not: an overflowing stage must be NVLink-adjacent to
peers with spare memory, and on the asymmetric DGX-1 topology the
per-pair lane counts differ.  The search enumerates stage-to-device
mappings, assigns spare memory from light GPUs to neighbouring
overflowed GPUs, and scores each (mapping, assignment) pair by the
ratio of revenue (overflow bytes placed, weighted toward the most
pressured exporters) to cost (the maximal exporter D2D transfer
time) — higher is better (Fig. 6, line 22).

The enumeration is exact but pruned by the topology's symmetry.  A
score reads the topology only through the n×n lane matrix ``L``, so
an automorphism ``g`` of that matrix (``L[g[a]][g[b]] == L[a][b]``
for all devices) turns mapping ``m`` into ``g∘m`` with the same lane
count between every pair of stages, and both score bit-identically.
The search therefore scores only the lexicographically smallest
mapping of each orbit: a depth-first walk in lex order keeps a prefix
only if its newest device is the smallest in its orbit under the
automorphisms fixing the earlier devices pointwise.  DGX-1's hybrid
cube-mesh has 16 automorphisms, so 40,320 / 16 = 2,520 mappings are
scored.  The answer is unchanged: the search keeps the first strict
maximum in lex order, and that mapping is the smallest of its own
orbit (a smaller orbit member would score the same and come first),
so it is never pruned.  The same holds for a ``max_mappings`` cut,
since the first K permutations contain every lex-smaller orbit
member of each one, and for greedy mode, whose anchored mappings are
closed under the automorphisms fixing device 0.

On symmetric (switched) topologies every mapping is equivalent, so
the search short-circuits to the identity mapping, as the paper
notes ("randomly maps stages to devices and aggressively uses all
NVLinks").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.hardware.topology import Topology

LaneMatrix = List[List[int]]


@dataclass(frozen=True)
class MappingResult:
    """Outcome of the search."""

    device_map: List[int]                       # stage -> device
    score: float
    placed_fraction: float                      # overflow bytes with a home
    assignments: Dict[int, Dict[int, int]]      # exporter stage -> {importer stage: bytes}
    mappings_evaluated: int = 0                 # mappings actually scored

    def importer_budget(self, importer_stage: int) -> int:
        """Total bytes assigned into one importing stage."""
        return sum(
            alloc.get(importer_stage, 0) for alloc in self.assignments.values()
        )


@dataclass
class _Candidate:
    score: float = -1.0
    placed: float = 0.0
    device_map: Optional[Tuple[int, ...]] = None
    assignments: Dict[int, Dict[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class _Evaluation:
    assignments: Dict[int, Dict[int, int]]
    placed_fraction: float
    weighted_revenue: float
    max_transfer_seconds: float


def _lane_matrix(topology: Topology) -> LaneMatrix:
    """``L[a][b]``: lanes usable for a device a -> device b transfer."""
    devices = range(topology.n_gpus)
    return [[topology.lanes(a, b) for b in devices] for a in devices]


def _water_fill(
    lane_matrix: LaneMatrix,
    lane_bandwidth: float,
    device_map: Sequence[int],
    overflow: Sequence[int],
    spare: Sequence[int],
) -> _Evaluation:
    """Spare-memory assignment for one fixed mapping (Fig. 6, assign_mem).

    Exporters claim importer spare in order of decreasing overflow,
    splitting each exporter's demand across its NVLink neighbours
    proportionally to lane counts (water-filling against remaining
    budgets).  Lane counts come from ``lane_matrix`` only.
    """
    n = len(device_map)
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
        row = lane_matrix[device_map[exporter]]
        lanes = {
            imp: row[device_map[imp]]
            for imp in remaining
            if row[device_map[imp]] > 0
        }
        if not lanes:
            continue
        demand = overflow[exporter]
        alloc: Dict[int, int] = {}
        # Water-fill: repeat proportional splitting over unclamped
        # importers until demand is placed or budgets exhaust.
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
        # Revenue weights placed bytes by the exporter's share of the
        # total pressure, so relieving the most-overflowed stage wins.
        weight = overflow[exporter] / total_overflow if total_overflow else 0.0
        weighted_revenue += placed * (1.0 + weight)
        seconds = max(
            amount / (lanes[imp] * lane_bandwidth)
            for imp, amount in alloc.items()
        )
        max_seconds = max(max_seconds, seconds)

    placed_fraction = placed_total / total_overflow if total_overflow else 1.0
    return _Evaluation(
        assignments=assignments,
        placed_fraction=placed_fraction,
        weighted_revenue=weighted_revenue,
        max_transfer_seconds=max_seconds,
    )


def assign_spare_memory(
    topology: Topology,
    device_map: Tuple[int, ...],
    overflow: List[int],
    spare: List[int],
) -> _Evaluation:
    """Spare-memory assignment for one fixed mapping (Fig. 6, assign_mem).

    The same water-fill the search scores, so the planner's
    per-exporter pots match the searched mapping.
    """
    return _water_fill(
        _lane_matrix(topology), topology.nvlink.sustained_bandwidth,
        device_map, overflow, spare,
    )


def _score(evaluation: _Evaluation) -> float:
    """Revenue-to-cost ratio (Fig. 6, line 22)."""
    if evaluation.weighted_revenue <= 0:
        return 0.0
    return evaluation.weighted_revenue / (evaluation.max_transfer_seconds + 1e-3)


def search_device_mapping(
    topology: Topology,
    overflow: List[int],
    spare: List[int],
    mode: str = "auto",
    max_mappings: Optional[int] = None,
) -> MappingResult:
    """Find the stage-to-device mapping that best serves D2D swap.

    ``overflow[s]``/``spare[s]`` are the stage's demand beyond / slack
    under device capacity.  ``mode`` is ``"exact"`` (all mappings),
    ``"greedy"`` (mappings fixing stage 0 on device 0), or ``"auto"``
    (exact for <= 8 devices, greedy beyond).  ``max_mappings`` limits
    the search to that many leading permutations in lex order; either
    way only one mapping per topology symmetry class is scored.
    """
    n = topology.n_gpus
    if len(overflow) != n or len(spare) != n:
        raise MappingError("overflow/spare vectors must match device count")
    if mode not in ("auto", "exact", "greedy"):
        raise MappingError(f"unknown search mode {mode!r}")

    lanes = _lane_matrix(topology)
    lane_bandwidth = topology.nvlink.sustained_bandwidth
    identity = tuple(range(n))
    if topology.is_symmetric or not any(o > 0 for o in overflow):
        evaluation = _water_fill(lanes, lane_bandwidth, identity, overflow, spare)
        return MappingResult(
            device_map=list(identity),
            score=_score(evaluation),
            placed_fraction=evaluation.placed_fraction,
            assignments=evaluation.assignments,
            mappings_evaluated=1,
        )

    if mode == "auto":
        mode = "exact" if n <= 8 else "greedy"

    best = _Candidate()
    evaluated = 0
    mappings = _orbit_representatives(
        _automorphisms(lanes), anchored=mode == "greedy", limit=max_mappings
    )
    for device_map in mappings:
        evaluation = _water_fill(lanes, lane_bandwidth, device_map, overflow, spare)
        evaluated += 1
        score = _score(evaluation)
        if score > best.score:
            best = _Candidate(
                score=score,
                placed=evaluation.placed_fraction,
                device_map=device_map,
                assignments=evaluation.assignments,
            )
    if best.device_map is None:
        raise MappingError("no feasible device mapping found")
    return MappingResult(
        device_map=list(best.device_map),
        score=best.score,
        placed_fraction=best.placed,
        assignments=best.assignments,
        mappings_evaluated=evaluated,
    )


def _automorphisms(lanes: LaneMatrix) -> List[Tuple[int, ...]]:
    """Every device relabeling ``g`` with ``lanes[g[a]][g[b]] == lanes[a][b]``.

    Backtracking assigns images to devices 0, 1, ... in turn and keeps
    a partial relabeling only while it preserves the lane counts among
    the devices assigned so far.
    """
    n = len(lanes)
    found: List[Tuple[int, ...]] = []
    image: List[int] = []
    used = [False] * n

    def extend(a: int) -> None:
        if a == n:
            found.append(tuple(image))
            return
        row = lanes[a]
        for target in range(n):
            if used[target]:
                continue
            t_row = lanes[target]
            if t_row[target] != row[a] or any(
                t_row[image[b]] != row[b] or lanes[image[b]][target] != lanes[b][a]
                for b in range(a)
            ):
                continue
            used[target] = True
            image.append(target)
            extend(a + 1)
            image.pop()
            used[target] = False

    extend(0)
    return found


def _orbit_representatives(
    automorphisms: List[Tuple[int, ...]],
    anchored: bool,
    limit: Optional[int],
) -> Iterator[Tuple[int, ...]]:
    """Yield, in lex order, the smallest mapping of each orbit.

    ``anchored`` restricts the search to mappings placing stage 0 on
    device 0 (greedy mode); ``limit`` restricts it to that many leading
    permutations of the searched set in lex order.  A prefix survives
    only if each device in it is the smallest image of itself under
    the automorphisms fixing the devices before it.
    """
    n = len(automorphisms[0])
    # Permutations under one node at each depth, to track lex rank.
    subtree = [math.factorial(n - 1 - depth) for depth in range(n)]
    prefix: List[int] = []

    def extend(
        free: List[int], stabiliser: List[Tuple[int, ...]], rank: int
    ) -> Iterator[Tuple[int, ...]]:
        depth = len(prefix)
        if depth == n:
            yield tuple(prefix)
            return
        choices = free[:1] if anchored and depth == 0 else free
        for index, device in enumerate(choices):
            first = rank + index * subtree[depth]
            if limit is not None and first >= limit:
                return
            if any(g[device] < device for g in stabiliser):
                continue
            prefix.append(device)
            yield from extend(
                [d for d in free if d != device],
                [g for g in stabiliser if g[device] == device],
                first,
            )
            prefix.pop()

    yield from extend(list(range(n)), automorphisms, 0)

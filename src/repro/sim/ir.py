"""Typed device-level instruction IR for the simulator.

Lowering (:mod:`repro.sim.lowering`) turns a ``(TrainingJob,
MemorySavingPlan, ExecOptions)`` triple into an
:class:`InstructionProgram` — a frozen, inspectable description of one
training iteration set: typed instructions (:class:`Compute`,
:class:`SwapOut`, :class:`SwapIn`, :class:`Recompute`,
:class:`P2PSend`/:class:`P2PRecv`, :class:`OptimStep`,
:class:`Barrier` joins) in submission order, a global dependency-edge
tape, and the memory *effects* each instruction applies when it starts
or finishes.  The interpreter (:mod:`repro.sim.interpreter`) replays
the program on the discrete-event substrate without knowing anything
about pipelines, plans, or memory-saving policies.

Determinism contract: the simulator's golden traces are byte-pinned,
and trace event order depends on (a) stream registration order, (b)
per-stream submission order, and (c) the order dependency edges were
declared in (it drives dependent wake-up order on ties).  The IR
therefore records all three explicitly: ``stream_order`` lists stream
keys in first-use order, ``instructions`` is the submission sequence,
and ``edges`` is the edge-declaration tape.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.faults.spec import FaultSchedule

# Host memory "device" marker in effects (GPU devices are ints).
HOST = "host"

DeviceRef = Union[int, str]


@dataclass(frozen=True)
class ExecOptions:
    """Knobs of one simulation run.

    ``prefetch_lead`` — a swap-in may begin once the compute task
    this many positions before its consumer finishes, keeping the
    copy off the critical path.

    ``swap_backpressure`` — the memory manager's allocator
    backpressure: a layer's forward pass for microbatch ``k`` cannot
    start until the same layer's swap-out for microbatch
    ``k - window`` completed, bounding un-evicted generations in
    flight (a real allocator would stall the same way instead of
    OOMing).
    """

    strict: bool = True
    prefetch_lead: int = 3
    record_trace: bool = True
    gpu_capacity_override: Optional[int] = None
    swap_backpressure: int = 6
    # Optimizer state streams through in chunks so only a couple of
    # chunks are GPU-resident at once (a whole multi-GB blob would
    # not fit next to the working set at billion scale).
    opt_swap_chunk: int = 2 * 1024**3
    # Timed hardware faults injected into the run (slowdowns, link
    # degradation, device failures, NVMe stalls); None or an empty
    # schedule reproduces the fault-free execution exactly.
    faults: Optional[FaultSchedule] = None


# -- effects ----------------------------------------------------------------
#
# Effects are the *semantic* side of an instruction: what it does to
# device memory books and the pinned staging pool when it starts or
# finishes.  The interpreter applies them in list order — the order is
# part of the behaviour contract (strict-mode OOM attribution depends
# on it).


@dataclass(frozen=True)
class Alloc:
    """Reserve ``size`` bytes on ``device`` under ``tag``."""

    device: DeviceRef
    size: int
    tag: str


@dataclass(frozen=True)
class Drop:
    """Release ``size`` bytes of ``tag`` on ``device``."""

    device: DeviceRef
    size: int
    tag: str


@dataclass(frozen=True)
class Pin:
    """Take ``size`` bytes from the pinned staging pool."""

    size: int


@dataclass(frozen=True)
class Unpin:
    """Return ``size`` bytes to the pinned staging pool."""

    size: int


@dataclass(frozen=True)
class Record:
    """Publish a trace record when the instruction completes."""

    kind: str
    device: int
    microbatch: int
    layer: int = -1


Effect = Union[Alloc, Drop, Pin, Unpin, Record]


# -- instructions -----------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class Instruction:
    """One schedulable unit on one stream.

    ``iid`` is the instruction's index in the program (submission
    order); ``stream`` is the channel key it executes on, with
    ``stream_mode`` selecting FIFO (in-order compute queues) or pool
    (link arbitration) dispatch.
    """

    iid: int
    name: str
    stream: Hashable
    stream_mode: str
    duration: float
    device: DeviceRef
    start_effects: Tuple[Effect, ...] = ()
    done_effects: Tuple[Effect, ...] = ()


@dataclass(frozen=True, kw_only=True)
class Compute(Instruction):
    """One layer's forward or backward kernel (``op`` is fwd/bwd)."""

    stage: int
    microbatch: int
    layer: int
    op: str


@dataclass(frozen=True, kw_only=True)
class Recompute(Instruction):
    """Re-forward of a checkpointed layer before its backward."""

    stage: int
    microbatch: int
    layer: int


@dataclass(frozen=True, kw_only=True)
class OptimStep(Instruction):
    """Optimizer update — the per-minibatch join or one chunk update."""

    stage: int
    minibatch: int


@dataclass(frozen=True, kw_only=True)
class SwapOut(Instruction):
    """GPU→host eviction leg over PCIe."""

    tag: str
    size: int
    tier: str = "host"


@dataclass(frozen=True, kw_only=True)
class SwapIn(Instruction):
    """Host→GPU restore leg over PCIe."""

    tag: str
    size: int
    tier: str = "host"


@dataclass(frozen=True, kw_only=True)
class NvmeWrite(Instruction):
    """Host→NVMe spill continuing a swap-out (ZeRO-Infinity style)."""

    tag: str
    size: int


@dataclass(frozen=True, kw_only=True)
class NvmeRead(Instruction):
    """NVMe→host fetch preceding a swap-in."""

    tag: str
    size: int


@dataclass(frozen=True, kw_only=True)
class P2PSend(Instruction):
    """Point-to-point transfer leaving ``src`` (NVLink lane or staged PCIe)."""

    src: int
    dst: int


@dataclass(frozen=True, kw_only=True)
class P2PRecv(Instruction):
    """Return transfer of striped state back to its exporter."""

    src: int
    dst: int


@dataclass(frozen=True, kw_only=True)
class Barrier(Instruction):
    """Zero-cost join/begin marker gating a group of transfers."""


# -- program ----------------------------------------------------------------


@dataclass(frozen=True)
class InstructionProgram:
    """A lowered simulation: instructions + edges + static state.

    * ``instructions`` — submission order per stream (and globally);
    * ``edges`` — ``(consumer_iid, producer_iid)`` pairs in the order
      the dependencies were declared during lowering;
    * ``static_effects`` — allocations applied at t=0 before any
      instruction runs (resident model state per the plan);
    * ``stream_order`` — ``(key, mode)`` pairs in first-use order, so
      the interpreter registers streams exactly as the legacy
      executor did (registration order breaks simultaneity ties).
    """

    job: "object"
    plan: "object"
    options: ExecOptions
    instructions: Tuple[Instruction, ...]
    edges: Tuple[Tuple[int, int], ...]
    static_effects: Tuple[Alloc, ...]
    stream_order: Tuple[Tuple[Hashable, str], ...]

    def __len__(self) -> int:
        return len(self.instructions)

    def deps_of(self, iid: int) -> List[int]:
        """Producer iids instruction ``iid`` waits on (edge-tape order)."""
        return [producer for consumer, producer in self.edges if consumer == iid]

    def by_stream(self) -> Dict[Hashable, List[Instruction]]:
        """Instructions grouped per stream key, in submission order."""
        grouped: Dict[Hashable, List[Instruction]] = {}
        for instr in self.instructions:
            grouped.setdefault(instr.stream, []).append(instr)
        return grouped

    def for_device(self, device: DeviceRef) -> List[Instruction]:
        """The device's instruction stream (submission order)."""
        return [instr for instr in self.instructions if instr.device == device]

    def counts_by_type(self) -> Dict[str, int]:
        """Instruction counts per type name (inspection/tests)."""
        counts: Dict[str, int] = {}
        for instr in self.instructions:
            name = type(instr).__name__
            counts[name] = counts.get(name, 0) + 1
        return counts


@dataclass(slots=True)
class _InstructionDraft:
    """Mutable instruction under construction (see ``lowering``).

    Lowering replaces effect sequences and durations in place (e.g. the
    optimizer join's duration is zeroed once chunked swapping is
    wired); :func:`freeze_draft` seals the result.  Effects may be
    lists or tuples; a tuple is sealed as is.
    """

    factory: type
    iid: int
    name: str
    stream: Hashable
    mode: str
    duration: float
    device: DeviceRef
    start_effects: Sequence[Effect] = ()
    done_effects: Sequence[Effect] = ()
    fields: Dict[str, object] = field(default_factory=dict)


# Per instruction type: the names of its own fields past the Instruction
# base, in declaration order, and their defaults.
_LAYOUTS: Dict[type, Tuple[Tuple[str, ...], Dict[str, object]]] = {}
_BASE_FIELDS = frozenset(f.name for f in dataclasses.fields(Instruction))


def _layout(factory: type) -> Tuple[Tuple[str, ...], Dict[str, object]]:
    layout = _LAYOUTS.get(factory)
    if layout is None:
        own = [f for f in dataclasses.fields(factory) if f.name not in _BASE_FIELDS]
        layout = (tuple(f.name for f in own), {f.name: f.default for f in own})
        _LAYOUTS[factory] = layout
    return layout


def freeze_draft(draft: _InstructionDraft) -> Instruction:
    """Seal a draft into its frozen instruction.

    Equal to ``draft.factory(iid=..., ..., **draft.fields)`` — the same
    ``__dict__``, keys in field-declaration order — but installs the
    instance dict in one step instead of the frozen ``__init__``'s one
    ``object.__setattr__`` per field (lowering seals tens of thousands
    of instructions per candidate plan).
    """
    factory = draft.factory
    fields = draft.fields
    names, defaults = _layout(factory)
    state = {
        "iid": draft.iid,
        "name": draft.name,
        "stream": draft.stream,
        "stream_mode": draft.mode,
        "duration": draft.duration,
        "device": draft.device,
        "start_effects": tuple(draft.start_effects),
        "done_effects": tuple(draft.done_effects),
    }
    if tuple(fields) == names:
        # The usual case: every own field given, in declaration order.
        state.update(fields)
    else:
        unknown = sorted(set(fields) - set(names))
        if unknown:
            raise TypeError(f"{factory.__name__} got unexpected fields {unknown}")
        for name in names:
            value = fields.get(name, defaults[name])
            if value is dataclasses.MISSING:
                raise TypeError(f"{factory.__name__} missing field {name!r}")
            state[name] = value
    instr = object.__new__(factory)
    object.__setattr__(instr, "__dict__", state)
    return instr

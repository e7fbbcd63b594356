"""Lower (job, plan, options) into a typed instruction program.

This is the planning half of the simulated MPress Runtime (Figure 5):
walk the instrumented data-flow program and emit, per device stream,
the typed instructions and memory effects of one training iteration
set.  The interpreter (:mod:`repro.sim.interpreter`) replays the
result; nothing here touches the event loop.

A :class:`Lowering` is bound to one ``(job, options)`` pair and caches
everything *plan-independent* — the data-flow program, the tensor
classification, each node's key and op string, each stage's per-layer
FLOPs and the cross-stage transfer names and sizes — so the planner's
emulate-candidate-plans loop pays for that graph walk exactly once and
only re-runs the cheap per-plan instruction emission
(:meth:`Lowering.lower`).  The module-level
:func:`skeleton_build_count` counter makes that reuse testable.

Ordering is load-bearing throughout (see :mod:`repro.sim.ir`): the
emission order of instructions, dependency edges, effects, and stream
first-uses below matches the legacy monolithic executor exactly, which
is what keeps the golden chrome-trace digests byte-identical.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

from repro.core.plan import Action, MemorySavingPlan, empty_plan, validate_plan
from repro.errors import SimulationError
from repro.graph.dataflow import ComputeNode, NodeKey, Program, build_program
from repro.graph.tensor import TensorClass, TensorKind, tensor_classes_for
from repro.hardware.bandwidth import transfer_time
from repro.job import TrainingJob
from repro.pipeline.schedule import OpKind
from repro.sim.ir import (
    HOST,
    Alloc,
    Barrier,
    Compute,
    Drop,
    ExecOptions,
    InstructionProgram,
    NvmeRead,
    NvmeWrite,
    OptimStep,
    P2PRecv,
    P2PSend,
    Pin,
    Record,
    Recompute,
    SwapIn,
    SwapOut,
    Unpin,
    _InstructionDraft,
    freeze_draft,
)

# How many plan-independent skeletons were built process-wide; tests
# assert the planner loop bumps this once per (job, options), however
# many candidate plans it evaluates.
_SKELETON_BUILDS = 0


def skeleton_build_count() -> int:
    """Process-wide count of plan-independent lowering skeletons built."""
    return _SKELETON_BUILDS


class _LayerCost(NamedTuple):
    """One layer of a stage's compute chain, priced once per skeleton."""

    layer: object        # the model's LayerSpec
    index: int
    forward_flops: float
    suffix: str          # ".l{index}", the tail of its instruction names


class _NodeInfo(NamedTuple):
    """One compute node with its plan-independent naming."""

    node: ComputeNode
    key: NodeKey
    op: str              # ``node.kind.value``
    prefix: str          # "{op}.s{stage}.m{microbatch}"


class _Transfer(NamedTuple):
    """One cross-stage activation/gradient transfer (producer -> consumer)."""

    name: str
    size: int
    producer: NodeKey
    producer_stage: int
    consumer: NodeKey
    consumer_stage: int
    microbatch: int


class Lowering:
    """Caches the plan-independent skeleton; lowers plans on demand."""

    def __init__(self, job: TrainingJob, options: ExecOptions = ExecOptions()):
        global _SKELETON_BUILDS
        _SKELETON_BUILDS += 1
        self.job = job
        self.options = options
        self.program: Program = build_program(job.stage_plan, job.schedule)
        self.classes = tensor_classes_for(
            job.stage_plan, job.schedule, job.microbatch_size, job.bytes_per_element
        )
        # Activation classes per stage, in layer order.
        self.stage_acts: Dict[int, List[TensorClass]] = {}
        for cls in self.classes:
            if cls.kind is TensorKind.ACTIVATION:
                self.stage_acts.setdefault(cls.stage, []).append(cls)
        for acts in self.stage_acts.values():
            acts.sort(key=lambda c: c.layer)
        # (stage, layer) -> the stage's first activation class of that layer.
        self.act_class: Dict[Tuple[int, int], TensorClass] = {}
        for stage, acts in self.stage_acts.items():
            for cls in acts:
                self.act_class.setdefault((stage, cls.layer), cls)
        self.by_kind: Dict[Tuple[str, int], TensorClass] = {
            (cls.kind.value, cls.stage): cls
            for cls in self.classes
            if cls.kind in (TensorKind.OPTIMIZER_STATE, TensorKind.STASHED_PARAMS)
        }

        # Per stage: the forward chain in layer order and the backward
        # chain reversed, each layer's FLOPs computed once.
        self.chains: List[Tuple[Tuple[_LayerCost, ...], Tuple[_LayerCost, ...]]] = []
        for stage_index in range(job.n_stages):
            forward = tuple(
                _LayerCost(layer, layer.index,
                           layer.forward_flops(job.microbatch_size),
                           f".l{layer.index}")
                for layer in job.stage_plan.stage(stage_index).layers
            )
            self.chains.append((forward, forward[::-1]))
        # Per stage, in issue order: every node with its key and names.
        self.nodes: List[List[_NodeInfo]] = [
            [
                _NodeInfo(node, node.key, node.kind.value,
                          f"{node.kind.value}.s{node.stage}.m{node.microbatch}")
                for node in stage_nodes
            ]
            for stage_nodes in self.program.per_stage
        ]
        # Data edges in node order: same-stage ones as (consumer, producer)
        # node keys, cross-stage ones as transfers.
        self.local_edges: List[Tuple[NodeKey, NodeKey]] = []
        self.transfers: List[_Transfer] = []
        bpe = job.bytes_per_element
        for node in self.program.nodes():
            for dep in node.deps:
                if dep.stage == node.stage:
                    self.local_edges.append((node.key, dep.key))
                    continue
                size = job.stage_plan.stage(min(dep.stage, node.stage)).boundary_bytes(
                    job.microbatch_size, bpe
                )
                self.transfers.append(_Transfer(
                    name=f"comm.{dep.name}->{node.name}",
                    size=size,
                    producer=dep.key,
                    producer_stage=dep.stage,
                    consumer=node.key,
                    consumer_stage=node.stage,
                    microbatch=node.microbatch,
                ))

    def lower(self, plan: Optional[MemorySavingPlan] = None) -> InstructionProgram:
        """Emit the instruction program of one candidate plan."""
        plan = plan if plan is not None else empty_plan(self.job.n_stages)
        if len(plan.device_map) != self.job.n_stages:
            raise SimulationError("plan device map does not cover all stages")
        validate_plan(plan, self.classes)
        return _PlanLowering(self, plan).build()


class _PlanLowering:
    """One plan's emission pass over the cached skeleton."""

    def __init__(self, skeleton: Lowering, plan: MemorySavingPlan):
        self.skel = skeleton
        self.job = skeleton.job
        self.options = skeleton.options
        self.plan = plan
        self.capacities = [
            self.options.gpu_capacity_override or gpu.memory_bytes
            for gpu in self.job.server.gpus
        ]
        self.drafts: List[_InstructionDraft] = []
        self.edges: List[Tuple[int, int]] = []
        self.static_effects: List[Alloc] = []
        self.stream_order: List[Tuple[Hashable, str]] = []
        self._seen_streams: set = set()
        # Static GPU residency per device, for the backpressure window
        # (the legacy executor read the live memory book here; the
        # books only hold static state at build time).
        self.static_in_use: Dict[int, int] = {}
        # (kind, stage, index) -> first/last per-layer instruction.
        self._node_first: Dict[tuple, int] = {}
        self._node_last: Dict[tuple, int] = {}
        # (stage, microbatch, layer) -> per-layer compute instruction.
        self._fwd_layer: Dict[tuple, int] = {}
        self._bwd_layer: Dict[tuple, int] = {}
        # Per-stage compute instructions in issue order (anchors), and
        # each one's position in that order.
        self._stage_order: Dict[int, List[int]] = {}
        self._stage_pos: Dict[int, Dict[int, int]] = {}

    # -- builder primitives ------------------------------------------------

    def _touch_stream(self, key: Hashable, mode: str) -> None:
        if key not in self._seen_streams:
            self._seen_streams.add(key)
            self.stream_order.append((key, mode))

    def _emit(
        self,
        factory: type,
        name: str,
        stream: Hashable,
        mode: str,
        duration: float,
        deps: Tuple[int, ...] = (),
        start: Tuple = (),
        done: Tuple = (),
        device=0,
        **fields,
    ) -> int:
        self._touch_stream(stream, mode)
        iid = len(self.drafts)
        self.drafts.append(
            _InstructionDraft(
                factory, iid, name, stream, mode, duration, device,
                start, done, fields,
            )
        )
        for dep in deps:
            self.edges.append((iid, dep))
        return iid

    def _edge(self, consumer: int, producer: int) -> None:
        self.edges.append((consumer, producer))

    # Effect sequences stay tuples (what the frozen instruction holds);
    # the few that grow after emission are rebuilt.

    def _on_start(self, iid: int, effect) -> None:
        draft = self.drafts[iid]
        draft.start_effects = (*draft.start_effects, effect)

    def _on_done(self, iid: int, effect) -> None:
        draft = self.drafts[iid]
        draft.done_effects = (*draft.done_effects, effect)

    def build(self) -> InstructionProgram:
        self._lower_static()
        self._lower_compute()
        self._lower_comm()
        self._lower_activation_ops()
        self._lower_optimizer_ops()
        return InstructionProgram(
            job=self.job,
            plan=self.plan,
            options=self.options,
            instructions=tuple(freeze_draft(d) for d in self.drafts),
            edges=tuple(self.edges),
            static_effects=tuple(self.static_effects),
            stream_order=tuple(self.stream_order),
        )

    # -- static state ------------------------------------------------------

    def _device(self, stage: int) -> int:
        return self.plan.device_of(stage)

    def _static_alloc(self, device, size: int, tag: str) -> None:
        self.static_effects.append(Alloc(device=device, size=size, tag=tag))
        if device != HOST:
            self.static_in_use[device] = self.static_in_use.get(device, 0) + size

    def _lower_static(self) -> None:
        """Model state resident from t=0, per the plan."""
        for cls in self.skel.classes:
            device = self._device(cls.stage)
            action = self.plan.action_for(cls)
            if cls.kind is TensorKind.WORKING_STATE:
                self._static_alloc(device, cls.peak_bytes, str(cls.key))
            elif cls.kind is TensorKind.OPTIMIZER_STATE:
                if action is Action.NONE:
                    self._static_alloc(device, cls.peak_bytes, str(cls.key))
                elif action is Action.CPU_SWAP:
                    # NVMe-tier blobs live on storage, not in host RAM.
                    if self.plan.entry_for(cls).tier == "host":
                        self._static_alloc(HOST, cls.peak_bytes, str(cls.key))
                elif action is Action.D2D_SWAP:
                    stripe = self.plan.entry_for(cls).stripe
                    for importer in stripe.importers:
                        self._static_alloc(
                            importer, stripe.bytes_to(importer), str(cls.key)
                        )
            # Activations and stashed versions are allocated dynamically.

    # -- compute -----------------------------------------------------------

    def _lower_compute(self) -> None:
        """Per-layer forward/backward chains on per-device FIFO streams.

        Recomputation instructions are queued immediately before the
        backward of their layer on the same stream, so they contend
        for GPU compute exactly as real recomputation does (the
        paper's up-to-33% recompute delay, Section II-D).
        """
        job = self.job
        for stage_index, stage_nodes in enumerate(self.skel.nodes):
            device = self._device(stage_index)
            stream = ("compute", device)
            self._touch_stream(stream, "fifo")
            order: List[int] = []
            self._stage_order[stage_index] = order
            # Same value as ``job._throughput(device)``, read once per stage.
            rate = job.server.gpu(device).peak_flops(job.precision) * job.mfu
            chains = self.skel.chains[stage_index]
            for info in stage_nodes:
                node = info.node
                if node.kind is OpKind.OPTIMIZER:
                    iid = self._emit(
                        OptimStep,
                        name=node.name,
                        stream=stream,
                        mode="fifo",
                        duration=job.optimizer_time(node.stage, device),
                        done=(Record("opt", device, node.minibatch),),
                        device=device,
                        stage=node.stage,
                        minibatch=node.minibatch,
                    )
                    self._node_first[info.key] = iid
                    self._node_last[info.key] = iid
                    order.append(iid)
                    continue
                forward = node.kind is OpKind.FORWARD
                first, last = self._lower_layer_chain(
                    info, chains[0] if forward else chains[1], forward,
                    rate, device, stream, order,
                )
                self._node_first[info.key] = first
                self._node_last[info.key] = last
            self._stage_pos[stage_index] = {iid: pos for pos, iid in enumerate(order)}
        # Cross-node dependencies (same-stage fwd->bwd data edges).
        for consumer, producer in self.skel.local_edges:
            self._edge(self._node_first[consumer], self._node_last[producer])

    def _lower_layer_chain(
        self,
        info: _NodeInfo,
        chain: Tuple[_LayerCost, ...],
        forward: bool,
        rate: float,
        device: int,
        stream: Hashable,
        order: List[int],
    ) -> Tuple[int, int]:
        stage = info.node.stage
        mb = info.node.microbatch
        op = info.op
        prefix = info.prefix
        layer_iids = self._fwd_layer if forward else self._bwd_layer
        plan = self.plan
        act_class = self.skel.act_class
        first: Optional[int] = None
        last: Optional[int] = None
        for cost in chain:
            index = cost.index
            if forward:
                duration = cost.forward_flops / rate
            else:
                duration = 2.0 * cost.forward_flops / rate
                cls = act_class.get((stage, index))
                if cls is not None and plan.action_for(cls) is Action.RECOMPUTE:
                    self._lower_recompute(stage, mb, cost, rate, device, stream, order)
            iid = self._emit(
                Compute,
                prefix + cost.suffix,
                stream,
                "fifo",
                duration,
                done=(Record(op, device, mb, index),),
                device=device,
                stage=stage,
                microbatch=mb,
                layer=index,
                op=op,
            )
            order.append(iid)
            layer_iids[(stage, mb, index)] = iid
            if first is None:
                first = iid
            last = iid
        return first, last

    def _lower_recompute(
        self, stage: int, mb: int, cost: _LayerCost, rate: float, device: int,
        stream: Hashable, order: List[int],
    ) -> None:
        index = cost.index
        iid = self._emit(
            Recompute,
            name=f"recompute.s{stage}.m{mb}{cost.suffix}",
            stream=stream,
            mode="fifo",
            duration=cost.forward_flops / rate,
            done=(Record("recompute", device, mb, index),),
            device=device,
            stage=stage,
            microbatch=mb,
            layer=index,
        )
        order.append(iid)
        self._fwd_layer[("recompute", stage, mb, index)] = iid

    # -- communication -----------------------------------------------------

    def _lower_link(
        self,
        name: str,
        size: int,
        src_dev: int,
        dst_dev: int,
        deps: Tuple[int, ...],
        kind: str,
        microbatch: int,
    ) -> int:
        """A point-to-point GPU transfer over one NVLink lane.

        Falls back to a staged PCIe route when the devices share no
        direct lane (possible on DGX-1 with a poor device mapping).
        """
        topology = self.job.server.topology
        done = (Record(kind, src_dev, microbatch),)
        if topology.lanes(src_dev, dst_dev) > 0:
            lane = topology.lane_channels(src_dev, dst_dev)[0]
            duration = transfer_time(size, topology.nvlink, lanes=1)
            return self._emit(
                P2PSend,
                name=name,
                stream=lane,
                mode="pool",
                duration=duration,
                deps=deps,
                done=done,
                device=src_dev,
                src=src_dev,
                dst=dst_dev,
            )
        # Staged copy through host memory: D2H then H2D, serialized.
        duration = 2.0 * transfer_time(size, self.job.server.pcie, lanes=1)
        return self._emit(
            P2PSend,
            name=name,
            stream=("pcie_d2h", src_dev),
            mode="pool",
            duration=duration,
            deps=deps,
            done=done,
            device=src_dev,
            src=src_dev,
            dst=dst_dev,
        )

    def _lower_comm(self) -> None:
        """Activation/gradient transfers between adjacent stages."""
        for transfer in self.skel.transfers:
            comm = self._lower_link(
                name=transfer.name,
                size=transfer.size,
                src_dev=self._device(transfer.producer_stage),
                dst_dev=self._device(transfer.consumer_stage),
                deps=(self._node_last[transfer.producer],),
                kind="comm",
                microbatch=transfer.microbatch,
            )
            self._edge(self._node_first[transfer.consumer], comm)

    # -- activation memory ops ---------------------------------------------

    def _lower_activation_ops(self) -> None:
        """Per (stage, layer, microbatch) tensor lifecycles.

        Swapped tensors form one eviction sequence per stage in
        generation order (microbatch-major, layer-minor); a new
        swapped tensor may only materialize once the tensor ``W``
        generations earlier has been evicted.  ``W`` is derived from
        the memory left over after resident state — this is the
        allocator's memory-pressure throttling, and it is what slows
        a PCIe-bound GPU-CPU-swap job down to the link rate (the
        paper's 67% swap-only throughput loss, Section II-D).
        """
        for stage in range(self.job.n_stages):
            device = self._device(stage)
            window = self._backpressure_window(stage, device)
            history: List[int] = []
            for node in self.skel.program.per_stage[stage]:
                if node.kind is not OpKind.FORWARD:
                    continue
                mb = node.microbatch
                mb_start = len(history)
                for cls in self.skel.stage_acts.get(stage, []):
                    fwd = self._fwd_layer[(stage, mb, cls.layer)]
                    bwd = self._bwd_layer[(stage, mb, cls.layer)]
                    if window is not None and len(history) >= window:
                        self._edge(fwd, history[len(history) - window])
                    join = self._wire_activation(cls, device, mb, fwd, bwd)
                    if join is not None:
                        history.append(join)
                stash_join = self._wire_stash(stage, mb, device, window, history, mb_start)
                if stash_join is not None:
                    history.append(stash_join)

    def _backpressure_window(self, stage: int, device: int) -> Optional[int]:
        """Un-evicted swapped layer-tensors the allocator tolerates.

        The window is the number of concurrently-resident swapped
        tensors fitting in half the memory left after static state,
        resident activations, and recompute checkpoints (the other
        half covers swap-in prefetches and transients).  ``None``
        means no swapped tensors, hence no throttling.
        """
        swapped_sizes: List[int] = []
        # Static state is exactly what the legacy executor saw in the
        # live memory book at build time.
        resident = self.static_in_use.get(device, 0)
        for cls in self.skel.stage_acts.get(stage, []):
            action = self.plan.action_for(cls)
            if action in (Action.CPU_SWAP, Action.D2D_SWAP):
                swapped_sizes.append(cls.size)
            elif action is Action.NONE:
                resident += cls.size * cls.instances
            elif action is Action.RECOMPUTE:
                boundary = self.job.model.layers[cls.layer].boundary_bytes(
                    self.job.microbatch_size, self.job.bytes_per_element
                )
                resident += boundary * cls.instances + cls.size
        stash = self.skel.by_kind.get((TensorKind.STASHED_PARAMS.value, stage))
        if stash is not None and stash.instances > 0:
            if self.plan.action_for(stash) in (Action.CPU_SWAP, Action.D2D_SWAP):
                swapped_sizes.append(stash.size)
            else:
                resident += stash.size * stash.instances
        if not swapped_sizes:
            return None
        average = sum(swapped_sizes) / len(swapped_sizes)
        budget = max(0, self.capacities[device] - resident)
        window = int(0.5 * budget / average)
        ceiling = self.options.swap_backpressure * max(1, len(swapped_sizes))
        return max(1, min(ceiling, window))

    def _wire_activation(
        self, cls: TensorClass, device: int, mb: int, fwd: int, bwd: int
    ) -> Optional[int]:
        """Wire one layer-tensor's lifecycle; returns its swap-out join."""
        action = self.plan.action_for(cls)
        tag = f"act.s{cls.stage}.l{cls.layer}.m{mb}"
        size = cls.size
        if action is Action.NONE:
            self._on_start(fwd, Alloc(device, size, tag))
            self._on_done(bwd, Drop(device, size, tag))
            return None
        if action is Action.RECOMPUTE:
            self._wire_recompute(cls, device, mb, fwd, bwd, tag)
            return None
        self._on_start(fwd, Alloc(device, size, tag))
        self._on_done(bwd, Drop(device, size, tag))
        anchor = self._anchor_before(cls.stage, bwd)
        entry = self.plan.entry_for(cls)
        if action is Action.CPU_SWAP:
            return self._wire_cpu_swap(
                tag, size, device, mb, fwd, bwd, anchor, tier=entry.tier
            )
        # Partial D2D: only the striped portion leaves the device.
        stripe = entry.stripe
        return self._wire_d2d_swap(
            tag, stripe.tensor_bytes, stripe, device, mb, fwd, bwd, anchor
        )

    def _anchor_before(self, stage: int, consumer: int) -> Optional[int]:
        """Compute instruction ``prefetch_lead`` positions before ``consumer``."""
        position = self._stage_pos[stage].get(consumer)
        if position is None:
            return None
        order = self._stage_order[stage]
        anchor_pos = position - self.options.prefetch_lead
        if anchor_pos < 0:
            return None
        return order[anchor_pos]

    def _wire_recompute(
        self, cls: TensorClass, device: int, mb: int, fwd: int, bwd: int, tag: str
    ) -> None:
        """Per-layer checkpointing: drop internals, keep the boundary.

        The layer's internal activations exist during its forward
        pass, are dropped afterwards (only the boundary checkpoint
        stays), and are re-materialized by the recompute instruction
        queued just before the layer's backward pass.
        """
        boundary = self.job.model.layers[cls.layer].boundary_bytes(
            self.job.microbatch_size, self.job.bytes_per_element
        )
        internals = max(0, cls.size - boundary)
        self._on_start(fwd, Alloc(device, cls.size, tag))
        self._on_done(fwd, Drop(device, internals, tag))
        recompute = self._fwd_layer[("recompute", cls.stage, mb, cls.layer)]
        self._on_start(recompute, Alloc(device, internals, tag))
        self._on_done(bwd, Drop(device, cls.size, tag))

    def _wire_cpu_swap(
        self,
        tag: str,
        size: int,
        device: int,
        mb: int,
        out_after: int,
        in_before: int,
        anchor: Optional[int],
        tier: str = "host",
    ) -> int:
        """GPU<->CPU swap over PCIe, optionally spilling to NVMe.

        With ``tier == "nvme"`` the tensor only stages through pinned
        host memory and continues to NVMe (ZeRO-Infinity style), so
        host residency stays bounded at the cost of the extra,
        slower NVMe legs.
        """
        duration = transfer_time(size, self.job.server.pcie, lanes=1)
        out = self._emit(
            SwapOut,
            name=f"swapout.{tag}",
            stream=("pcie_d2h", device),
            mode="pool",
            duration=duration,
            deps=(out_after,),
            start=(Alloc(HOST, size, tag), Pin(size)),
            done=(
                Drop(device, size, tag),
                Unpin(size),
                Record("swap_out", device, mb),
            ),
            device=device,
            tag=tag,
            size=size,
            tier=tier,
        )
        eviction_gate = out
        if tier == "nvme":
            nvme = self.job.server.nvme
            spill = self._emit(
                NvmeWrite,
                name=f"nvmewrite.{tag}",
                stream=("nvme", "write"),
                mode="pool",
                duration=size / nvme.write_bandwidth,
                deps=(out,),
                done=(Drop(HOST, size, tag),),
                device=device,
                tag=tag,
                size=size,
            )
            # Host staging is only reclaimed once NVMe absorbed the
            # tensor; gate the eviction sequence on that, so a slow
            # NVMe throttles producers instead of flooding the host.
            eviction_gate = spill
            fetch_deps = (spill,) if anchor is None else (spill, anchor)
            fetch = self._emit(
                NvmeRead,
                name=f"nvmeread.{tag}",
                stream=("nvme", "read"),
                mode="pool",
                duration=size / nvme.read_bandwidth,
                deps=fetch_deps,
                start=(Alloc(HOST, size, tag),),
                device=device,
                tag=tag,
                size=size,
            )
            in_deps = (fetch,)
        else:
            in_deps = (out,) if anchor is None else (out, anchor)

        swap_in = self._emit(
            SwapIn,
            name=f"swapin.{tag}",
            stream=("pcie_h2d", device),
            mode="pool",
            duration=duration,
            deps=in_deps,
            start=(Alloc(device, size, tag), Pin(size)),
            done=(
                Drop(HOST, size, tag),
                Unpin(size),
                Record("swap_in", device, mb),
            ),
            device=device,
            tag=tag,
            size=size,
            tier=tier,
        )
        self._edge(in_before, swap_in)
        return eviction_gate

    def _wire_d2d_swap(
        self,
        tag: str,
        size: int,
        stripe,
        device: int,
        mb: int,
        out_after: int,
        in_before: int,
        anchor: Optional[int],
    ) -> int:
        """Striped device-to-device swap over NVLink lanes (Sec. III-C)."""
        nvlink = self.job.server.topology.nvlink
        out_blocks: List[int] = []
        for index, block in enumerate(stripe.blocks):
            out_blocks.append(
                self._emit(
                    P2PSend,
                    name=f"d2dout.{tag}.b{index}",
                    stream=block.lane,
                    mode="pool",
                    duration=transfer_time(block.size, nvlink, lanes=1),
                    deps=(out_after,),
                    start=(Alloc(block.importer, block.size, tag),),
                    device=device,
                    src=device,
                    dst=block.importer,
                )
            )
        out_join = self._emit(
            Barrier,
            name=f"d2dout.{tag}.join",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(out_blocks),
            done=(Drop(device, size, tag), Record("swap_out", device, mb)),
            device=device,
        )

        in_begin_deps = (out_join,) if anchor is None else (out_join, anchor)
        in_begin = self._emit(
            Barrier,
            name=f"d2din.{tag}.begin",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=in_begin_deps,
            done=(Alloc(device, size, tag),),
            device=device,
        )
        in_blocks: List[int] = []
        for index, block in enumerate(stripe.blocks):
            in_blocks.append(
                self._emit(
                    P2PRecv,
                    name=f"d2din.{tag}.b{index}",
                    stream=block.return_lane,
                    mode="pool",
                    duration=transfer_time(block.size, nvlink, lanes=1),
                    deps=(in_begin,),
                    done=(Drop(block.importer, block.size, tag),),
                    device=device,
                    src=block.importer,
                    dst=device,
                )
            )
        in_join = self._emit(
            Barrier,
            name=f"d2din.{tag}.join",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(in_blocks),
            done=(Record("swap_in", device, mb),),
            device=device,
        )
        self._edge(in_before, in_join)
        return out_join

    # -- stashed weight versions (PipeDream) -------------------------------

    def _wire_stash(
        self,
        stage: int,
        mb: int,
        device: int,
        window: Optional[int],
        history: List[int],
        mb_start: int,
    ) -> Optional[int]:
        """One stashed weight version's lifecycle; returns its out join.

        The version materializes when the microbatch's forward
        finishes and retires after its backward.  Swapped versions
        participate in the stage's eviction sequence, so a saturated
        link throttles weight stashing like any other generation.
        """
        cls = self.skel.by_kind.get((TensorKind.STASHED_PARAMS.value, stage))
        if cls is None or cls.instances == 0:
            return None
        action = self.plan.action_for(cls)
        fwd_last = self._node_last[(OpKind.FORWARD.value, stage, mb)]
        bwd_key = (OpKind.BACKWARD.value, stage, mb)
        bwd_first = self._node_first[bwd_key]
        bwd_last = self._node_last[bwd_key]
        tag = f"stash.s{stage}.m{mb}"
        self._on_done(fwd_last, Alloc(device, cls.size, tag))
        self._on_done(bwd_last, Drop(device, cls.size, tag))
        if action is Action.NONE:
            return None
        if window is not None and len(history) >= window:
            # The stash version materializes at the end of this
            # microbatch's forward, whose layer instructions already
            # gate on this microbatch's own joins — gating on one of
            # those here would be a self-cycle.  Use strictly older
            # generations only.
            index = min(len(history) - window, mb_start - 1)
            if index >= 0:
                self._edge(fwd_last, history[index])
        anchor = self._anchor_before(stage, bwd_first)
        entry = self.plan.entry_for(cls)
        if action is Action.CPU_SWAP:
            return self._wire_cpu_swap(
                tag, cls.size, device, mb, fwd_last, bwd_first, anchor,
                tier=entry.tier,
            )
        stripe = entry.stripe
        return self._wire_d2d_swap(
            tag, cls.size, stripe, device, mb, fwd_last, bwd_first, anchor
        )

    # -- optimizer state swapping ------------------------------------------

    def _lower_optimizer_ops(self) -> None:
        for stage in range(self.job.n_stages):
            cls = self.skel.by_kind.get((TensorKind.OPTIMIZER_STATE.value, stage))
            if cls is None:
                continue
            action = self.plan.action_for(cls)
            if action is Action.NONE:
                continue
            device = self._device(stage)
            first_bwd_of = self.skel.program.first_backward_by_minibatch(stage)
            previous_outs: Optional[List[int]] = None
            for node in self.skel.program.per_stage[stage]:
                if node.kind is not OpKind.OPTIMIZER:
                    continue
                opt_iid = self._node_first[node.key]
                anchor_node = first_bwd_of.get(node.minibatch)
                anchor = (
                    self._node_first[anchor_node.key] if anchor_node is not None else None
                )
                tag = f"opt.s{stage}.k{node.minibatch}"
                previous_outs = self._wire_opt_swap(
                    cls, action, tag, device, node.minibatch, opt_iid, anchor,
                    previous_outs,
                )

    def _opt_chunks(self, size: int, capacity: int) -> List[int]:
        """Chunk sizes for streaming optimizer state.

        Chunks never exceed 1/16 of device capacity, so a couple of
        in-flight chunks stay a small fraction of the device.
        """
        chunk = max(1, min(self.options.opt_swap_chunk, capacity // 16))
        sizes = []
        remaining = size
        while remaining > 0:
            take = min(chunk, remaining)
            sizes.append(take)
            remaining -= take
        return sizes

    def _wire_opt_swap(
        self,
        cls,
        action: Action,
        tag: str,
        device: int,
        minibatch: int,
        opt_iid: int,
        anchor: Optional[int],
        previous_outs: Optional[List[int]],
    ) -> List[int]:
        """Chunked optimizer-state swap around one optimizer step.

        The blob streams in chunk by chunk; each chunk is updated on
        a dedicated per-device optimizer stream and streamed back out
        immediately, so GPU residency stays at a couple of chunks —
        a whole billion-scale optimizer blob next to the working set
        would never fit.  The original optimizer instruction becomes
        a zero-cost join gating the next minibatch.
        """
        chunks = self._opt_chunks(cls.size, self.capacities[device])
        total = float(cls.size)
        step_time = self.drafts[opt_iid].duration
        self.drafts[opt_iid].duration = 0.0
        update_stream = ("optstep", device)
        self._touch_stream(update_stream, "fifo")
        outs: List[int] = []
        last_update: Optional[int] = None
        for index, chunk in enumerate(chunks):
            chunk_tag = f"{tag}.c{index}"
            in_deps: List[int] = []
            if previous_outs is not None:
                in_deps.append(previous_outs[index])
            if anchor is not None:
                in_deps.append(anchor)
            swap_in = self._opt_chunk_in(
                cls, action, chunk_tag, device, chunk, tuple(in_deps)
            )
            update = self._emit(
                OptimStep,
                name=f"optstep.{chunk_tag}",
                stream=update_stream,
                mode="fifo",
                duration=step_time * (chunk / total),
                deps=(swap_in,),
                device=device,
                stage=cls.stage,
                minibatch=minibatch,
            )
            out = self._opt_chunk_out(cls, action, chunk_tag, device, chunk, (update,))
            outs.append(out)
            last_update = update
        if last_update is not None:
            self._edge(opt_iid, last_update)
        return outs

    def _opt_chunk_in(
        self, cls, action: Action, tag: str, device: int, chunk: int, deps: Tuple[int, ...]
    ) -> int:
        if action is Action.CPU_SWAP:
            entry = self.plan.entry_for(cls)
            if entry.tier == "nvme":
                nvme = self.job.server.nvme
                fetch = self._emit(
                    NvmeRead,
                    name=f"nvmeread.{tag}",
                    stream=("nvme", "read"),
                    mode="pool",
                    duration=chunk / nvme.read_bandwidth,
                    deps=deps,
                    device=device,
                    tag=tag,
                    size=chunk,
                )
                deps = (fetch,)
            return self._emit(
                SwapIn,
                name=f"swapin.{tag}",
                stream=("pcie_h2d", device),
                mode="pool",
                duration=transfer_time(chunk, self.job.server.pcie, lanes=1),
                deps=deps,
                start=(Alloc(device, chunk, tag),),
                done=(Record("swap_in", device, -1),),
                device=device,
                tag=tag,
                size=chunk,
                tier=entry.tier,
            )
        # D2D: pull the chunk's share of every stripe block back.
        stripe = self.plan.entry_for(cls).stripe
        nvlink = self.job.server.topology.nvlink
        begin = self._emit(
            Barrier,
            name=f"d2din.{tag}.begin",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=deps,
            done=(Alloc(device, chunk, tag),),
            device=device,
        )
        blocks: List[int] = []
        fraction = chunk / float(cls.size)
        for b_index, block in enumerate(stripe.blocks):
            share = max(1, int(block.size * fraction))
            blocks.append(
                self._emit(
                    P2PRecv,
                    name=f"d2din.{tag}.b{b_index}",
                    stream=block.return_lane,
                    mode="pool",
                    duration=transfer_time(share, nvlink, lanes=1),
                    deps=(begin,),
                    device=device,
                    src=block.importer,
                    dst=device,
                )
            )
        return self._emit(
            Barrier,
            name=f"d2din.{tag}.join",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(blocks),
            done=(Record("swap_in", device, -1),),
            device=device,
        )

    def _opt_chunk_out(
        self, cls, action: Action, tag: str, device: int, chunk: int, deps: Tuple[int, ...]
    ) -> int:
        if action is Action.CPU_SWAP:
            entry = self.plan.entry_for(cls)
            out = self._emit(
                SwapOut,
                name=f"swapout.{tag}",
                stream=("pcie_d2h", device),
                mode="pool",
                duration=transfer_time(chunk, self.job.server.pcie, lanes=1),
                deps=deps,
                done=(Drop(device, chunk, tag), Record("swap_out", device, -1)),
                device=device,
                tag=tag,
                size=chunk,
                tier=entry.tier,
            )
            if entry.tier == "nvme":
                nvme = self.job.server.nvme
                return self._emit(
                    NvmeWrite,
                    name=f"nvmewrite.{tag}",
                    stream=("nvme", "write"),
                    mode="pool",
                    duration=chunk / nvme.write_bandwidth,
                    deps=(out,),
                    device=device,
                    tag=tag,
                    size=chunk,
                )
            return out
        stripe = self.plan.entry_for(cls).stripe
        nvlink = self.job.server.topology.nvlink
        blocks: List[int] = []
        fraction = chunk / float(cls.size)
        for b_index, block in enumerate(stripe.blocks):
            share = max(1, int(block.size * fraction))
            blocks.append(
                self._emit(
                    P2PSend,
                    name=f"d2dout.{tag}.b{b_index}",
                    stream=block.lane,
                    mode="pool",
                    duration=transfer_time(share, nvlink, lanes=1),
                    deps=deps,
                    device=device,
                    src=device,
                    dst=block.importer,
                )
            )
        return self._emit(
            Barrier,
            name=f"d2dout.{tag}.join",
            stream=("d2d", device),
            mode="pool",
            duration=0.0,
            deps=tuple(blocks),
            done=(Drop(device, chunk, tag), Record("swap_out", device, -1)),
            device=device,
        )

"""Multi-server cluster fabrics.

A :class:`Cluster` joins several :class:`~repro.hardware.server.Server`
boxes with an inter-node fabric (InfiniBand or Ethernet NICs).  The
cluster exposes the same topology protocol as a single server —
``lanes`` / ``lane_channels`` / ``link_for`` — so the collectives and
simulation layers price intra-server NVLink and inter-node fabric as
two *tiers* of one model:

* GPU pairs inside one server see that server's own topology
  (hybrid cube-mesh bricks, NVSwitch egress lanes, ...), unchanged.
* GPU pairs in different servers see ``nic_lanes`` fabric lanes per
  source GPU, priced on the fabric's own bandwidth ramp (higher
  latency, lower sustained bandwidth than NVLink).

Racks add an optional third tier: servers in different racks can be
given a distinct (typically oversubscribed) ``inter_rack_fabric``.

GPU numbering is global and server-contiguous: server ``s`` owns
devices ``[offset(s), offset(s) + s.n_gpus)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.hardware.device import GPUSpec
from repro.hardware.links import IB_EDR, LinkSpec, LinkType
from repro.hardware.server import Server, dgx1_server, dgx2_server
from repro.hardware.topology import ChannelKey, Topology


@dataclass(frozen=True)
class ClusterTopology:
    """A tiered interconnect over the GPUs of several servers.

    Duck-types the :class:`~repro.hardware.topology.Topology` query
    protocol.  ``servers`` holds each box's local topology; global GPU
    ``g`` lives on the server whose contiguous range contains it.

    ``nic_lanes`` is the number of fabric lanes each *GPU* can drive
    concurrently for cross-server traffic (rail-optimised clusters
    give each GPU its own NIC, so the default is 1).  Cross-server
    channel keys are per source GPU — ``("nic", src, k)`` — so
    concurrent cross-server rings that touch disjoint devices occupy
    disjoint simulator resources, exactly like NVLink lanes.

    ``racks`` optionally groups server indices; pairs of servers in
    different racks use ``inter_rack_fabric`` when given.
    """

    servers: Tuple[Topology, ...]
    fabric: LinkSpec = IB_EDR
    nic_lanes: int = 1
    racks: Tuple[Tuple[int, ...], ...] = ()
    inter_rack_fabric: Optional[LinkSpec] = None

    def __post_init__(self) -> None:
        if not self.servers:
            raise TopologyError("a cluster needs at least one server")
        if self.fabric.link_type is not LinkType.FABRIC:
            raise TopologyError("cluster fabric must be a FABRIC link")
        if self.nic_lanes < 1:
            raise TopologyError("nic_lanes must be at least 1")
        if self.inter_rack_fabric is not None and (
            self.inter_rack_fabric.link_type is not LinkType.FABRIC
        ):
            raise TopologyError("inter-rack fabric must be a FABRIC link")
        if self.racks:
            seen = sorted(s for rack in self.racks for s in rack)
            if seen != list(range(len(self.servers))):
                raise TopologyError(
                    "racks must partition the server indices exactly once"
                )

    # -- structure -------------------------------------------------------

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    @property
    def n_gpus(self) -> int:
        return len(self._gpu_table)

    @cached_property
    def _gpu_table(self) -> Tuple[Tuple[int, int], ...]:
        """``(server, local_gpu)`` of every global GPU, built once.

        The topology is frozen, so the geometry never changes; lane and
        link queries run per transfer and must not re-walk the servers.
        Cached in the instance ``__dict__``, outside the dataclass
        fields, so equality and canonical cache keys do not see it.
        """
        return tuple(
            (idx, local)
            for idx, topo in enumerate(self.servers)
            for local in range(topo.n_gpus)
        )

    @property
    def kind(self) -> str:
        return "cluster"

    @property
    def nvlink(self) -> LinkSpec:
        """The first server's intra-box lane spec.

        Kept for protocol compatibility; tier-aware code should call
        :meth:`link_for` instead.
        """
        return self.servers[0].nvlink

    @property
    def lane_budget(self) -> int:
        return self.servers[0].lane_budget

    @property
    def is_symmetric(self) -> bool:
        return False

    def server_offsets(self) -> List[int]:
        """Global GPU index where each server's range starts."""
        offsets: List[int] = []
        total = 0
        for topo in self.servers:
            offsets.append(total)
            total += topo.n_gpus
        return offsets

    def server_of(self, gpu: int) -> int:
        """Index of the server owning global GPU ``gpu``."""
        return self.local_index(gpu)[0]

    def local_index(self, gpu: int) -> Tuple[int, int]:
        """Map a global GPU index to ``(server, local_gpu)``."""
        self._check_gpu(gpu)
        return self._gpu_table[gpu]

    def server_devices(self, server: int) -> Tuple[int, ...]:
        """Global GPU indices owned by ``server``."""
        if not 0 <= server < self.n_servers:
            raise TopologyError(f"server index {server} out of range")
        start = self.server_offsets()[server]
        return tuple(range(start, start + self.servers[server].n_gpus))

    def rack_of(self, server: int) -> int:
        """Rack index of ``server`` (0 when no racks are declared)."""
        if not self.racks:
            return 0
        for idx, rack in enumerate(self.racks):
            if server in rack:
                return idx
        raise TopologyError(f"server {server} not in any rack")  # pragma: no cover

    def tier(self, src: int, dst: int) -> str:
        """Which hierarchy level a src->dst transfer crosses.

        ``"local"`` within one server, ``"fabric"`` between servers in
        one rack, ``"rack"`` across racks.
        """
        s_src, s_dst = self.server_of(src), self.server_of(dst)
        if s_src == s_dst:
            return "local"
        if self.rack_of(s_src) == self.rack_of(s_dst):
            return "fabric"
        return "rack"

    # -- topology protocol -----------------------------------------------

    def lanes(self, src: int, dst: int) -> int:
        s_src, l_src = self.local_index(src)
        s_dst, l_dst = self.local_index(dst)
        if src == dst:
            return 0
        if s_src == s_dst:
            return self.servers[s_src].lanes(l_src, l_dst)
        return self.nic_lanes

    def link_for(self, src: int, dst: int) -> LinkSpec:
        s_src, l_src = self.local_index(src)
        s_dst, l_dst = self.local_index(dst)
        if s_src == s_dst:
            return self.servers[s_src].link_for(l_src, l_dst)
        if self.rack_of(s_src) != self.rack_of(s_dst) and self.inter_rack_fabric:
            return self.inter_rack_fabric
        return self.fabric

    def neighbors(self, gpu: int) -> List[int]:
        """All GPUs reachable from ``gpu``: local NVLink peers plus
        every off-server device (the fabric is all-to-all)."""
        self._check_gpu(gpu)
        server, local = self.local_index(gpu)
        start = self.server_offsets()[server]
        local_peers = [start + p for p in self.servers[server].neighbors(local)]
        remote = [
            g for g in range(self.n_gpus)
            if self.server_of(g) != server
        ]
        return sorted(local_peers + remote)

    def bricks_at(self, gpu: int) -> int:
        server, local = self.local_index(gpu)
        return self.servers[server].bricks_at(local)

    def lane_channels(self, src: int, dst: int) -> List[ChannelKey]:
        n = self.lanes(src, dst)
        if n == 0:
            raise TopologyError(f"no route from GPU {src} to GPU {dst}")
        s_src, l_src = self.local_index(src)
        s_dst, l_dst = self.local_index(dst)
        if s_src == s_dst:
            # Prefix local keys with the server index so two boxes'
            # identical local channels stay distinct resources.
            local = self.servers[s_src].lane_channels(l_src, l_dst)
            return [("srv", s_src) + key for key in local]
        return [("nic", src, k) for k in range(self.nic_lanes)]

    def all_lane_channels(self) -> List[ChannelKey]:
        keys: List[ChannelKey] = []
        for idx, topo in enumerate(self.servers):
            keys.extend(("srv", idx) + key for key in topo.all_lane_channels())
        for gpu in range(self.n_gpus):
            keys.extend(("nic", gpu, k) for k in range(self.nic_lanes))
        return keys

    def topology_key(self) -> Tuple:
        rack_key = tuple(tuple(sorted(rack)) for rack in self.racks)
        return (
            "cluster",
            tuple(t.topology_key() for t in self.servers),
            self.fabric,
            self.nic_lanes,
            rack_key,
            self.inter_rack_fabric,
        )

    def _check_gpu(self, gpu: int) -> None:
        n_gpus = len(self._gpu_table)
        if not 0 <= gpu < n_gpus:
            raise TopologyError(f"GPU index {gpu} out of range [0, {n_gpus})")


@dataclass(frozen=True)
class Cluster:
    """A named collection of servers joined by a fabric.

    The hardware analogue of :class:`~repro.hardware.server.Server`
    one level up: ``topology`` yields the tiered
    :class:`ClusterTopology`, and :meth:`as_server` presents the
    cluster as a flat Server so single-box consumers (the pipeline
    simulator, collective lowering) run unchanged against the tiered
    lane model.
    """

    name: str
    servers: Tuple[Server, ...]
    fabric: LinkSpec = IB_EDR
    nic_lanes: int = 1
    racks: Tuple[Tuple[int, ...], ...] = ()
    inter_rack_fabric: Optional[LinkSpec] = None

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigurationError("a cluster needs at least one server")

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    @property
    def n_gpus(self) -> int:
        return sum(s.n_gpus for s in self.servers)

    @property
    def topology(self) -> ClusterTopology:
        return ClusterTopology(
            servers=tuple(s.topology for s in self.servers),
            fabric=self.fabric,
            nic_lanes=self.nic_lanes,
            racks=self.racks,
            inter_rack_fabric=self.inter_rack_fabric,
        )

    @property
    def gpus(self) -> Tuple[GPUSpec, ...]:
        return tuple(gpu for server in self.servers for gpu in server.gpus)

    def server_devices(self, server: int) -> Tuple[int, ...]:
        return self.topology.server_devices(server)

    def as_server(self) -> Server:
        """Flat Server view over all cluster GPUs.

        The embedded topology is the tiered :class:`ClusterTopology`,
        so collectives priced/lowered against this view use NVLink
        lanes within boxes and NIC lanes across them.  Host and NVMe
        specs are taken from the first server (offload stays local to
        each box in this model).
        """
        first = self.servers[0]
        return Server(
            name=self.name,
            gpus=list(self.gpus),
            topology=self.topology,  # type: ignore[arg-type]
            host=first.host,
            pcie=first.pcie,
            nvme=first.nvme,
        )


def make_cluster(
    server_builder,
    n_servers: int,
    name: str = "cluster",
    fabric: LinkSpec = IB_EDR,
    nic_lanes: int = 1,
    racks: Tuple[Tuple[int, ...], ...] = (),
    inter_rack_fabric: Optional[LinkSpec] = None,
) -> Cluster:
    """Build a homogeneous cluster from ``n_servers`` copies of a box."""
    if n_servers < 1:
        raise ConfigurationError("a cluster needs at least one server")
    servers = tuple(server_builder() for _ in range(n_servers))
    return Cluster(
        name=name,
        servers=servers,
        fabric=fabric,
        nic_lanes=nic_lanes,
        racks=racks,
        inter_rack_fabric=inter_rack_fabric,
    )


def dgx1_cluster(n_servers: int = 2, fabric: LinkSpec = IB_EDR, **kwargs) -> Cluster:
    """``n_servers`` DGX-1V boxes on an IB fabric."""
    return make_cluster(
        dgx1_server, n_servers, name=f"{n_servers}x-dgx1", fabric=fabric, **kwargs
    )


def dgx2_cluster(n_servers: int = 2, fabric: LinkSpec = IB_EDR, **kwargs) -> Cluster:
    """``n_servers`` DGX-2-class boxes on an IB fabric."""
    return make_cluster(
        dgx2_server, n_servers, name=f"{n_servers}x-dgx2", fabric=fabric, **kwargs
    )

"""The hierarchical cluster fabric: tiers, channels, identity."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.hardware.cluster import (
    Cluster,
    ClusterTopology,
    dgx1_cluster,
    dgx2_cluster,
    make_cluster,
)
from repro.hardware.links import ETH_100G, IB_EDR, IB_HDR, NVLINK2
from repro.hardware.server import dgx1_server
from repro.hardware.topology import dgx1_topology, dgx2_topology


@pytest.fixture
def topo():
    return dgx1_cluster(2).topology


# -- structure -----------------------------------------------------------


def test_global_numbering_is_server_contiguous(topo):
    assert topo.n_servers == 2
    assert topo.n_gpus == 16
    assert topo.server_offsets() == [0, 8]
    assert topo.server_devices(0) == tuple(range(8))
    assert topo.server_devices(1) == tuple(range(8, 16))
    assert topo.server_of(7) == 0
    assert topo.server_of(8) == 1
    assert topo.local_index(11) == (1, 3)


def test_heterogeneous_servers_offsets():
    mixed = ClusterTopology(servers=(dgx1_topology(), dgx2_topology(4)))
    assert mixed.n_gpus == 12
    assert mixed.server_offsets() == [0, 8]
    assert mixed.local_index(10) == (1, 2)


# -- tiers ---------------------------------------------------------------


def test_tiers_local_fabric_rack():
    topo = dgx1_cluster(4, racks=((0, 1), (2, 3)),
                        inter_rack_fabric=ETH_100G).topology
    assert topo.tier(0, 7) == "local"
    assert topo.tier(0, 8) == "fabric"
    assert topo.tier(0, 16) == "rack"
    assert topo.link_for(0, 3) == NVLINK2
    assert topo.link_for(0, 8) == IB_EDR
    assert topo.link_for(0, 16) == ETH_100G


def test_local_pairs_keep_server_asymmetry(topo):
    # DGX-1 brick counts survive on both boxes, at global offsets.
    assert topo.lanes(0, 3) == 2
    assert topo.lanes(0, 1) == 1
    assert topo.lanes(8, 11) == 2
    assert topo.lanes(3, 4) == 0      # unlinked local pair stays unlinked
    assert topo.lanes(0, 8) == 1      # cross-server: one NIC lane


def test_link_for_routes_by_tier(topo):
    assert topo.link_for(1, 2) == NVLINK2
    assert topo.link_for(2, 14) == IB_EDR
    assert topo.tier(2, 14) == "fabric"   # no racks declared -> one rack


# -- channels ------------------------------------------------------------


def test_local_channels_are_prefixed_per_server(topo):
    left = topo.lane_channels(0, 3)
    right = topo.lane_channels(8, 11)
    assert all(key[:2] == ("srv", 0) for key in left)
    assert all(key[:2] == ("srv", 1) for key in right)
    assert len(left) == len(right) == 2
    assert set(left).isdisjoint(right)


def test_cross_server_channels_are_per_source_gpu(topo):
    assert topo.lane_channels(0, 8) == [("nic", 0, 0)]
    assert topo.lane_channels(8, 0) == [("nic", 8, 0)]
    with pytest.raises(TopologyError):
        topo.lane_channels(3, 4)      # no local route, not cross-server


def test_all_lane_channels_cover_both_tiers(topo):
    keys = topo.all_lane_channels()
    local = dgx1_topology().all_lane_channels()
    assert len(keys) == 2 * len(local) + 16   # two boxes + one NIC per GPU
    assert len(set(keys)) == len(keys)


def test_neighbors_spans_fabric(topo):
    peers = topo.neighbors(0)
    assert set(range(8, 16)) <= set(peers)    # every remote GPU
    assert 3 in peers and 5 not in peers      # local NVLink peers only


# -- identity ------------------------------------------------------------


def test_topology_key_distinguishes_fabric_and_shape():
    a = dgx1_cluster(2).topology.topology_key()
    b = dgx1_cluster(2, fabric=IB_HDR).topology.topology_key()
    c = dgx1_cluster(3).topology.topology_key()
    d = dgx2_cluster(2).topology.topology_key()
    assert len({a, b, c, d}) == 4
    assert a == dgx1_cluster(2).topology.topology_key()
    hash(a)                                    # memoisation key


# -- validation ----------------------------------------------------------


def test_rejects_non_fabric_link():
    with pytest.raises(TopologyError):
        ClusterTopology(servers=(dgx1_topology(),) * 2, fabric=NVLINK2)


def test_rejects_bad_racks():
    with pytest.raises(TopologyError):
        dgx1_cluster(3, racks=((0, 1),)).topology
    with pytest.raises(TopologyError):
        dgx1_cluster(2, racks=((0, 1), (1,))).topology


def test_rejects_empty_cluster():
    with pytest.raises(ConfigurationError):
        Cluster(name="empty", servers=())
    with pytest.raises(ConfigurationError):
        make_cluster(dgx1_server, 0)


def test_out_of_range_gpu():
    topo = dgx1_cluster(2).topology
    with pytest.raises(TopologyError):
        topo.lanes(0, 16)
    with pytest.raises(TopologyError):
        topo.server_devices(2)


# -- the flat server view ------------------------------------------------


def test_as_server_presents_all_gpus():
    cluster = dgx1_cluster(2)
    flat = cluster.as_server()
    assert flat.n_gpus == 16
    assert flat.topology.kind == "cluster"
    assert flat.name == "2x-dgx1"
    assert flat.host == cluster.servers[0].host


def test_gpu_table_matches_the_server_ranges():
    """The precomputed GPU -> (server, local) table agrees with the
    contiguous server ranges on a heterogeneous cluster."""
    from tests.conftest import small_server

    cluster = Cluster(name="mixed",
                      servers=(small_server(), dgx1_server(), small_server()))
    topo = cluster.topology
    offsets = topo.server_offsets()
    assert topo.n_gpus == sum(s.n_gpus for s in cluster.servers)
    assert len({s.n_gpus for s in cluster.servers}) == 2
    for gpu in range(topo.n_gpus):
        server = max(s for s, start in enumerate(offsets) if start <= gpu)
        assert topo.server_of(gpu) == server
        assert topo.local_index(gpu) == (server, gpu - offsets[server])
    for bad in (-1, topo.n_gpus):
        with pytest.raises(TopologyError, match="out of range"):
            topo.local_index(bad)
        with pytest.raises(TopologyError, match="out of range"):
            topo.lanes(bad, 0)
        with pytest.raises(TopologyError, match="out of range"):
            topo.link_for(0, bad)


def test_gpu_table_stays_out_of_identity(topo):
    """The cached table is not a dataclass field: equality and
    the canonical cache-key encoding ignore it."""
    from repro.core.serialization import canonical_json

    fresh = dgx1_cluster(2).topology
    before = canonical_json(fresh)
    topo.local_index(3)            # builds the table on ``topo`` only
    assert "_gpu_table" in vars(topo) and "_gpu_table" not in vars(fresh)
    assert topo == fresh
    assert canonical_json(topo) == before

/**
 * Pod-scale scale-out coverage: pinned hop/latency tables for every
 * fabric topology at 8 and 16 GPUs, the sharded host MMU's routing and
 * accounting invariants, and the differential guarantee that 1-shard
 * mode reproduces the pre-shard simulator bit-for-bit (pinned values).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "interconnect/network.hpp"
#include "transfw/ft_cluster.hpp"
#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

ic::Network
makeNet(sim::EventQueue &eq, int gpus, ic::Topology topo,
        int mesh_cols = 0, int radix = 8)
{
    return ic::Network(eq, gpus, ic::LinkConfig{}, ic::LinkConfig{},
                       topo, mesh_cols, radix);
}

} // namespace

// --- pinned hop-count / latency tables ---------------------------------

TEST(PodTopology, RingHopTable8)
{
    sim::EventQueue eq;
    ic::Network net = makeNet(eq, 8, ic::Topology::Ring);
    EXPECT_EQ(net.peerHops(0, 1), 1);
    EXPECT_EQ(net.peerHops(0, 4), 4);
    EXPECT_EQ(net.peerHops(0, 7), 1); // wraparound
    EXPECT_EQ(net.peerHops(5, 1), 4);
    EXPECT_EQ(net.peerLatency(0, 4), 4 * 150u);
    EXPECT_EQ(net.fabricLinkCount(), 16u); // 8 edges x 2 directions
}

TEST(PodTopology, RingHopTable16)
{
    sim::EventQueue eq;
    ic::Network net = makeNet(eq, 16, ic::Topology::Ring);
    EXPECT_EQ(net.peerHops(0, 8), 8); // opposite side
    EXPECT_EQ(net.peerHops(0, 15), 1);
    EXPECT_EQ(net.peerHops(3, 11), 8);
    EXPECT_EQ(net.peerHops(0, 5), 5);
    EXPECT_EQ(net.peerHops(0, 11), 5); // shorter way around
    EXPECT_EQ(net.peerLatency(0, 8), 8 * 150u);
    EXPECT_EQ(net.fabricLinkCount(), 32u);
}

TEST(PodTopology, MeshHopTable8)
{
    // 8 GPUs default to a 3-wide grid: rows {0,1,2} {3,4,5} {6,7}.
    sim::EventQueue eq;
    ic::Network net = makeNet(eq, 8, ic::Topology::Mesh2D);
    EXPECT_EQ(net.meshCols(), 3);
    EXPECT_EQ(net.peerHops(0, 1), 1);
    EXPECT_EQ(net.peerHops(0, 4), 2);
    EXPECT_EQ(net.peerHops(0, 7), 3);
    EXPECT_EQ(net.peerHops(2, 6), 4); // corner to corner
    // Ragged last row: the (2,2) grid slot does not exist, so 6 -> 5
    // detours through row 1 but still takes the Manhattan distance.
    EXPECT_EQ(net.peerHops(6, 5), 3);
    EXPECT_EQ(net.peerHops(5, 7), 2);
    EXPECT_EQ(net.peerLatency(2, 6), 4 * 150u);
}

TEST(PodTopology, MeshHopTable16)
{
    // 16 GPUs: a full 4x4 grid, hop count == Manhattan distance.
    sim::EventQueue eq;
    ic::Network net = makeNet(eq, 16, ic::Topology::Mesh2D);
    EXPECT_EQ(net.meshCols(), 4);
    EXPECT_EQ(net.peerHops(0, 3), 3);
    EXPECT_EQ(net.peerHops(0, 12), 3);
    EXPECT_EQ(net.peerHops(0, 15), 6); // corner to corner
    EXPECT_EQ(net.peerHops(5, 10), 2);
    EXPECT_EQ(net.peerHops(3, 12), 6);
    EXPECT_EQ(net.peerLatency(0, 15), 6 * 150u);
    // 2 * 4 * 3 undirected grid edges, one Link per direction.
    EXPECT_EQ(net.fabricLinkCount(), 48u);
}

TEST(PodTopology, SwitchHopTable8and16)
{
    sim::EventQueue eq;
    // 8 GPUs at radix 8: one leaf, every pair is GPU->leaf->GPU.
    ic::Network one_leaf = makeNet(eq, 8, ic::Topology::Switch);
    EXPECT_EQ(one_leaf.peerHops(0, 7), 2);
    EXPECT_EQ(one_leaf.peerHops(3, 4), 2);
    EXPECT_EQ(one_leaf.peerLatency(0, 7), 2 * 150u);

    // 16 GPUs at radix 8: two leaves under a root. Same-leaf pairs
    // stay at 2 hops; cross-leaf pairs climb through the root.
    ic::Network two_leaves = makeNet(eq, 16, ic::Topology::Switch);
    EXPECT_EQ(two_leaves.peerHops(0, 7), 2);
    EXPECT_EQ(two_leaves.peerHops(8, 15), 2);
    EXPECT_EQ(two_leaves.peerHops(0, 8), 4);
    EXPECT_EQ(two_leaves.peerHops(7, 15), 4);
    EXPECT_EQ(two_leaves.peerLatency(0, 8), 4 * 150u);
    // 16 GPU<->leaf links + 2 leaf<->root links, per direction.
    EXPECT_EQ(two_leaves.fabricLinkCount(), 36u);

    // Radix 4 splits 16 GPUs over 4 leaves.
    ic::Network radix4 = makeNet(eq, 16, ic::Topology::Switch, 0, 4);
    EXPECT_EQ(radix4.peerHops(0, 3), 2);
    EXPECT_EQ(radix4.peerHops(0, 4), 4);
    EXPECT_EQ(radix4.peerHops(12, 15), 2);
}

TEST(PodTopology, Ring64LinkBudget)
{
    // The acceptance pin: a 64-GPU ring allocates exactly its 128
    // directed fabric links — per-edge allocation, not N^2.
    sim::EventQueue eq;
    ic::Network net = makeNet(eq, 64, ic::Topology::Ring);
    EXPECT_EQ(net.fabricLinkCount(), 128u);
    EXPECT_EQ(net.peerHops(0, 32), 32);
    // All-to-all at the same size really is dense: 64 * 63 links.
    ic::Network dense = makeNet(eq, 64, ic::Topology::AllToAll);
    EXPECT_EQ(dense.fabricLinkCount(), 64u * 63u);
}

// --- FtCluster routing / coherence -------------------------------------

TEST(PodShard, PartitionedRoutingKeepsFtSliceLocal)
{
    cfg::SystemConfig config = sys::transFwConfig();
    core::FtCluster ft(config.transFw, 4);
    ASSERT_EQ(ft.shards(), 4);
    ASSERT_FALSE(ft.replicated());

    int spread[4] = {0, 0, 0, 0};
    for (mem::Vpn vpn = 0; vpn < 4096; ++vpn) {
        int home = ft.homeShard(vpn);
        ASSERT_GE(home, 0);
        ASSERT_LT(home, 4);
        EXPECT_EQ(home, core::shardOfVpnGroup(
                            vpn, config.transFw.vpnMaskBits, 4));
        ++spread[home];
    }
    // The splitmix64 map must actually spread the groups around.
    for (int s = 0; s < 4; ++s)
        EXPECT_GT(spread[s], 4096 / 16);

    // An arrival lands only in the home slice; probing from the home
    // shard finds it, and no coherence traffic exists.
    mem::Vpn vpn = 0x1234;
    int home = ft.homeShard(vpn);
    ft.pageArrived(vpn, 2);
    auto owner = ft.findOwner(home, vpn, 16, /*exclude_gpu=*/3);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(*owner, 2);
    for (int s = 0; s < 4; ++s) {
        if (s == home)
            continue;
        EXPECT_FALSE(
            ft.table(s).findOwner(vpn, 16, 3).has_value());
    }
    EXPECT_EQ(ft.replicaUpdates(), 0u);
    EXPECT_EQ(ft.replicaInvalidations(), 0u);
}

TEST(PodShard, ReplicatedFtBroadcastsCoherence)
{
    cfg::SystemConfig config = sys::transFwConfig();
    config.transFw.ftReplicated = true;
    core::FtCluster ft(config.transFw, 4);
    ASSERT_TRUE(ft.replicated());

    mem::Vpn vpn = 0x9abc;
    ft.pageArrived(vpn, 5);
    // Every replica can answer, at the price of K-1 update messages.
    EXPECT_EQ(ft.replicaUpdates(), 3u);
    for (int s = 0; s < 4; ++s) {
        auto owner = ft.findOwner(s, vpn, 16, /*exclude_gpu=*/0);
        ASSERT_TRUE(owner.has_value()) << "shard " << s;
        EXPECT_EQ(*owner, 5);
    }
    ft.pageDeparted(vpn, 5);
    EXPECT_EQ(ft.replicaInvalidations(), 3u);
    for (int s = 0; s < 4; ++s)
        EXPECT_FALSE(ft.findOwner(s, vpn, 16, 0).has_value());
}

// --- whole-system sharding ---------------------------------------------

namespace {

cfg::SystemConfig
podConfig(int gpus, int shards, ic::Topology topo)
{
    cfg::SystemConfig config = sys::transFwConfig();
    config.numGpus = gpus;
    config.cusPerGpu = 4;
    config.peerTopology = topo;
    config.hostShards = shards;
    return config;
}

} // namespace

TEST(PodShard, ShardStatSumsMatchTotals)
{
    sys::SimResults r = sys::runApp(
        "MT", podConfig(16, 4, ic::Topology::Ring), 0.05);

    ASSERT_EQ(r.hostShardWalks.size(), 4u);
    ASSERT_EQ(r.hostShardQueueWaitMean.size(), 4u);
    ASSERT_EQ(r.hostShardMaxQueueDepth.size(), 4u);
    std::uint64_t shard_walks = std::accumulate(
        r.hostShardWalks.begin(), r.hostShardWalks.end(),
        std::uint64_t{0});
    EXPECT_EQ(shard_walks, r.hostWalks);
    EXPECT_GT(r.hostWalks, 0u);
    // Every fault crossed the crossbar (K > 1 always routes).
    EXPECT_GE(r.hostRoutedFaults, r.farFaults);

    // The crossbar is one tagged hop of kRouteCycles per routed fault,
    // charged to HostRoute, which the host-queue field groups with the
    // queue wait itself.
    const auto &bucket = r.attribution.bucket;
    double host_queue = bucket[static_cast<std::size_t>(
        obs::AttribBucket::HostQueue)];
    double host_route = bucket[static_cast<std::size_t>(
        obs::AttribBucket::HostRoute)];
    EXPECT_DOUBLE_EQ(host_route,
                     static_cast<double>(r.hostRoutedFaults *
                                         mmu::HostMmuCluster::kRouteCycles));
    EXPECT_DOUBLE_EQ(host_queue + host_route,
                     r.attribution.fieldTotal(obs::LatField::HostQueue));
    EXPECT_EQ(r.obsCheckViolations, 0u);
}

TEST(PodShard, ShardingRelievesHostQueue)
{
    // The study's core signal: 4 shards drain the same fault stream
    // with far less per-queue waiting than 1 shard.
    sys::SimResults one = sys::runApp(
        "MT", podConfig(16, 1, ic::Topology::AllToAll), 0.05);
    sys::SimResults four = sys::runApp(
        "MT", podConfig(16, 4, ic::Topology::AllToAll), 0.05);
    EXPECT_TRUE(four.hostShardQueueWaitMean.size() == 4u);
    double worst = 0.0;
    for (double w : four.hostShardQueueWaitMean)
        worst = std::max(worst, w);
    EXPECT_LT(worst, one.hostQueueWaitMean);
    EXPECT_EQ(one.obsCheckViolations, 0u);
    EXPECT_EQ(four.obsCheckViolations, 0u);
}

TEST(PodShard, ReplicatedFtModeRunsEndToEnd)
{
    cfg::SystemConfig config = podConfig(8, 4, ic::Topology::AllToAll);
    config.transFw.ftReplicated = true;
    sys::SimResults r = sys::runApp("MT", config, 0.05);
    EXPECT_GT(r.ftReplicaUpdates, 0u);
    EXPECT_EQ(r.obsCheckViolations, 0u);
}

TEST(PodShard, SixtyFourGpuRingRunsSharded)
{
    // The acceptance floor: a 64-GPU pod on a ring with 4 IOMMU
    // shards simulates end-to-end, attribution intact.
    sys::SimResults r = sys::runApp(
        "MT", podConfig(64, 4, ic::Topology::Ring), 0.02);
    EXPECT_GT(r.execTime, 0u);
    EXPECT_GT(r.farFaults, 0u);
    EXPECT_EQ(r.obsCheckViolations, 0u);
}

// --- differential guarantees -------------------------------------------

TEST(PodShard, OneShardReproducesPreShardSimulatorExactly)
{
    // Pinned against the pre-sharding simulator (hostShards == 1 must
    // stay event-for-event identical to the monolithic host MMU): the
    // values below were recorded from the tree before the cluster
    // layer existed, at these exact configs.
    struct Pin
    {
        const char *app;
        bool transfw;
        ic::Topology topo;
        int gpus;
        std::uint64_t exec, events, l2Misses, faults, hostWalks,
            forwardSuccess;
    };
    const Pin pins[] = {
        {"MT", true, ic::Topology::AllToAll, 8, 23356, 85815, 5275,
         4882, 1879, 3296},
        {"MT", true, ic::Topology::Ring, 16, 28504, 91136, 5279, 4989,
         2074, 2791},
        {"KM", false, ic::Topology::AllToAll, 8, 13880, 48152, 1711,
         1197, 1151, 0},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.app);
        cfg::SystemConfig config = sys::baselineConfig();
        config.transFw.enabled = pin.transfw;
        config.peerTopology = pin.topo;
        config.numGpus = pin.gpus;
        config.cusPerGpu = 8;
        config.hostShards = 1;
        sys::SimResults r = sys::runApp(pin.app, config, 0.1);
        EXPECT_EQ(r.execTime, pin.exec);
        EXPECT_EQ(r.eventsExecuted, pin.events);
        EXPECT_EQ(r.l2TlbMisses, pin.l2Misses);
        EXPECT_EQ(r.farFaults, pin.faults);
        EXPECT_EQ(r.hostWalks, pin.hostWalks);
        EXPECT_EQ(r.forwardSuccess, pin.forwardSuccess);
        // 1-shard mode has no crossbar: nothing routed, nothing
        // charged to the route bucket.
        EXPECT_EQ(r.hostRoutedFaults, 0u);
        EXPECT_EQ(r.attribution.bucket[static_cast<std::size_t>(
                      obs::AttribBucket::HostRoute)],
                  0.0);
        EXPECT_TRUE(r.hostShardWalks.empty());
    }
}

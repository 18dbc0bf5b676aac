/**
 * Fabric & shard observability coverage: per-traversal HopTiming
 * splits, lazy per-link histograms (zero-traffic links stay empty but
 * valid), ragged-row mesh routing including the single-row degenerate
 * grid, the per-route hop-distance aggregates, the traced-route hook,
 * the space-saving top-K sketch behind the hot-VPN-group tracker, and
 * the whole-system guarantee that per-hop attribution balances its
 * buckets (obs.checkViolations == 0) on fabric-heavy pod configs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "interconnect/network.hpp"
#include "obs/topk.hpp"
#include "transfw/transfw.hpp"

using namespace transfw;

// --- HopTiming splits ---------------------------------------------------

TEST(LinkTiming, DataSplitAccountsEveryCycle)
{
    sim::EventQueue eq;
    ic::Link link(eq, "t.link", ic::LinkConfig{100, 16});
    // 1600 bytes at 16 B/cycle = 100 cycles of serialization.
    ic::HopTiming first, second;
    link.send(1600, [] {}, &first);
    link.send(1600, [] {}, &second);
    EXPECT_EQ(first.wait, 0u);
    EXPECT_EQ(first.ser, 100u);
    EXPECT_EQ(first.prop, 100u);
    EXPECT_EQ(first.arrive, first.total());
    // The second message queues behind the first's serialization.
    EXPECT_EQ(second.wait, 100u);
    EXPECT_EQ(second.ser, 100u);
    EXPECT_EQ(second.prop, 100u);
    EXPECT_EQ(second.arrive, 300u);
    eq.run();
}

TEST(LinkTiming, CtrlSplitNeverQueues)
{
    sim::EventQueue eq;
    ic::Link link(eq, "t.link", ic::LinkConfig{150, 16});
    // Saturate the data channel first; the priority channel must not
    // see any of that occupancy.
    link.send(16000, [] {});
    ic::HopTiming t;
    link.sendCtrl(32, [] {}, &t);
    EXPECT_EQ(t.wait, 0u);
    EXPECT_EQ(t.ser, 2u);
    EXPECT_EQ(t.prop, 150u);
    EXPECT_EQ(t.arrive, 152u);
    eq.run();
}

TEST(LinkTiming, ZeroTrafficLinkHasEmptyButValidHistogram)
{
    sim::EventQueue eq;
    ic::Link idle(eq, "t.idle", ic::LinkConfig{});
    // No allocation, no counts — but every accessor answers.
    EXPECT_EQ(idle.queueWaitHistogram().count(), 0u);
    EXPECT_EQ(idle.queueWaitMean(), 0.0);
    EXPECT_EQ(idle.peakQueueDepth(), 0u);
    EXPECT_EQ(idle.busyCycles(), 0u);
    EXPECT_EQ(idle.utilization(), 0.0);
    EXPECT_EQ(idle.queueDepth(), 0u);

    // First traffic materializes the histogram.
    ic::Link busy(eq, "t.busy", ic::LinkConfig{100, 16});
    busy.send(1600, [] {});
    busy.send(1600, [] {});
    EXPECT_EQ(busy.queueWaitHistogram().count(), 2u);
    EXPECT_EQ(busy.queueWaitMean(), 50.0); // waits 0 and 100
    EXPECT_EQ(busy.peakQueueDepth(), 2u);
    EXPECT_EQ(busy.busyCycles(), 200u);
    eq.run();
}

TEST(LinkTiming, CtrlTrafficIsCountedButNotHistogrammed)
{
    sim::EventQueue eq;
    ic::Link link(eq, "t.ctrl", ic::LinkConfig{});
    link.sendCtrl(32, [] {});
    link.sendCtrl(32, [] {});
    EXPECT_EQ(link.ctrlMessages(), 2u);
    EXPECT_EQ(link.messages(), 2u);
    // The priority channel never queues, so it never feeds the
    // queue-wait histogram.
    EXPECT_EQ(link.queueWaitHistogram().count(), 0u);
    eq.run();
}

// --- ragged / degenerate mesh routing -----------------------------------

TEST(MeshRouting, RaggedNonSquareMeshRoutes)
{
    // 7 GPUs, 3 columns: rows {0,1,2} {3,4,5} {6}. The last row has a
    // single populated slot, so X-first routing toward column > 0 must
    // detour through the row above.
    sim::EventQueue eq;
    ic::Network net(eq, 7, ic::LinkConfig{}, ic::LinkConfig{},
                    ic::Topology::Mesh2D, 3);
    EXPECT_EQ(net.meshCols(), 3);
    EXPECT_EQ(net.peerHops(6, 3), 1);
    EXPECT_EQ(net.peerHops(6, 0), 2);
    // 6 -> 5: the (2,1)/(2,2) slots don't exist; route climbs to row 1
    // first and still takes the Manhattan distance.
    EXPECT_EQ(net.peerHops(6, 5), 3);
    EXPECT_EQ(net.peerHops(6, 2), 4);
    EXPECT_EQ(net.peerHops(2, 6), 4);
    // Every pair routes and terminates.
    for (int a = 0; a < 7; ++a)
        for (int b = 0; b < 7; ++b)
            if (a != b) {
                EXPECT_GT(net.peerHops(a, b), 0)
                    << a << " -> " << b;
                bool done = false;
                net.sendPeerCtrl(a, b, 32, [&] { done = true; });
                eq.run();
                EXPECT_TRUE(done) << a << " -> " << b;
            }
}

TEST(MeshRouting, SingleRowMeshIsAChain)
{
    // meshCols == numGpus degenerates to a linear chain: hop count is
    // plain index distance and the ends are NOT connected (not a ring).
    sim::EventQueue eq;
    ic::Network net(eq, 5, ic::LinkConfig{}, ic::LinkConfig{},
                    ic::Topology::Mesh2D, 5);
    EXPECT_EQ(net.meshCols(), 5);
    EXPECT_EQ(net.peerHops(0, 4), 4);
    EXPECT_EQ(net.peerHops(4, 0), 4);
    EXPECT_EQ(net.peerHops(1, 3), 2);
    // 2 * 4 directed edges along the chain, nothing else.
    EXPECT_EQ(net.fabricLinkCount(), 8u);
    sim::Tick done = 0;
    net.sendPeerCtrl(0, 4, 32, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 4 * (2u + 150u));
}

TEST(MeshRouting, SingleColumnMeshRoutes)
{
    // One column: every hop is vertical.
    sim::EventQueue eq;
    ic::Network net(eq, 4, ic::LinkConfig{}, ic::LinkConfig{},
                    ic::Topology::Mesh2D, 1);
    EXPECT_EQ(net.peerHops(0, 3), 3);
    EXPECT_EQ(net.fabricLinkCount(), 6u);
    bool done = false;
    net.sendPeer(3, 0, 4096, [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
}

// --- hop-distance aggregates & traced routes ----------------------------

TEST(FabricObs, HopDistanceAggregatesPerRoute)
{
    sim::EventQueue eq;
    ic::Network net(eq, 8, ic::LinkConfig{}, ic::LinkConfig{},
                    ic::Topology::Ring);
    net.sendPeer(0, 1, 256, [] {}); // 1 hop
    net.sendPeer(0, 2, 256, [] {}); // 2 hops
    net.sendPeer(0, 4, 256, [] {}); // 4 hops
    net.sendPeer(2, 6, 512, [] {}); // 4 hops
    eq.run();
    const auto &agg = net.hopDistances();
    ASSERT_GE(agg.size(), 5u);
    EXPECT_EQ(agg[0].messages, 0u); // routes are >= 1 hop
    EXPECT_EQ(agg[1].messages, 1u);
    EXPECT_EQ(agg[1].bytes, 256u);
    EXPECT_EQ(agg[2].messages, 1u);
    EXPECT_EQ(agg[3].messages, 0u);
    EXPECT_EQ(agg[4].messages, 2u);
    EXPECT_EQ(agg[4].bytes, 256u + 512u);
}

TEST(FabricObs, TracedRouteSeesEveryHopInOrder)
{
    sim::EventQueue eq;
    ic::Network net(eq, 8, ic::LinkConfig{150, 256}, ic::LinkConfig{150, 256},
                    ic::Topology::Ring);
    std::vector<std::pair<int, int>> hops;
    sim::Tick wait_sum = 0;
    bool done = false;
    net.sendPeerTraced(
        1, 4, 4096,
        [&](int from, int to, const ic::HopTiming &t) {
            hops.emplace_back(from, to);
            wait_sum += t.wait;
            EXPECT_EQ(t.prop, 150u);
            EXPECT_EQ(t.ser, 16u); // 4096 B at 256 B/cycle
        },
        [&] { done = true; });
    eq.run();
    ASSERT_TRUE(done);
    std::vector<std::pair<int, int>> expected = {{1, 2}, {2, 3}, {3, 4}};
    EXPECT_EQ(hops, expected);
    EXPECT_EQ(wait_sum, 0u); // nothing else on the wire
}

// --- the space-saving sketch --------------------------------------------

TEST(TopKSketch, ExactBelowCapacity)
{
    obs::TopK sketch(4);
    for (int i = 0; i < 5; ++i)
        sketch.note(10);
    for (int i = 0; i < 3; ++i)
        sketch.note(20);
    sketch.note(30);
    EXPECT_EQ(sketch.total(), 9u);
    EXPECT_EQ(sketch.tracked(), 3u);
    auto top = sketch.top();
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].key, 10u);
    EXPECT_EQ(top[0].count, 5u);
    EXPECT_EQ(top[0].error, 0u);
    EXPECT_EQ(top[1].key, 20u);
    EXPECT_EQ(top[2].key, 30u);
    EXPECT_DOUBLE_EQ(sketch.topShare(2), 8.0 / 9.0);
}

TEST(TopKSketch, EvictionInheritsMinimumWithErrorBound)
{
    obs::TopK sketch(2);
    for (int i = 0; i < 10; ++i)
        sketch.note(1);
    for (int i = 0; i < 4; ++i)
        sketch.note(2);
    // Unseen key with a full table: evicts key 2 (the minimum, count
    // 4) and inherits its count as the error bound.
    sketch.note(3);
    EXPECT_EQ(sketch.tracked(), 2u);
    auto top = sketch.top();
    EXPECT_EQ(top[0].key, 1u);
    EXPECT_EQ(top[0].count, 10u);
    EXPECT_EQ(top[1].key, 3u);
    EXPECT_EQ(top[1].count, 5u); // inherited 4, +1 for the hit
    EXPECT_EQ(top[1].error, 4u);
    // Space-saving invariants: estimate >= true count >= estimate - error.
    EXPECT_GE(top[1].count, 1u);
    EXPECT_LE(top[1].count - top[1].error, 1u);
}

TEST(TopKSketch, HeavyHitterSurvivesChurn)
{
    // A key holding >1/capacity of the stream can never be evicted —
    // the guarantee the hot-group tracker relies on.
    obs::TopK sketch(8);
    std::uint64_t hot_true = 0;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        if (i % 3 == 0) {
            sketch.note(0xbeef);
            ++hot_true;
        } else {
            sketch.note(1000 + (i * 7) % 200); // 200-key churn
        }
    }
    auto top = sketch.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].key, 0xbeefu);
    EXPECT_GE(top[0].count, hot_true);
    EXPECT_LE(top[0].count - top[0].error, hot_true);
    EXPECT_GT(sketch.topShare(1), 0.30);
}

TEST(TopKSketch, DeterministicTieBreakAndClear)
{
    obs::TopK sketch(4);
    sketch.note(7);
    sketch.note(3);
    sketch.note(9);
    auto top = sketch.top();
    ASSERT_EQ(top.size(), 3u);
    // Equal counts: ascending key order, every run.
    EXPECT_EQ(top[0].key, 3u);
    EXPECT_EQ(top[1].key, 7u);
    EXPECT_EQ(top[2].key, 9u);
    sketch.clear();
    EXPECT_EQ(sketch.total(), 0u);
    EXPECT_EQ(sketch.tracked(), 0u);
    EXPECT_EQ(sketch.topShare(4), 0.0);
}

// --- whole-system: per-hop attribution balances -------------------------

namespace {

cfg::SystemConfig
fabricPod(int gpus, int shards, ic::Topology topo)
{
    cfg::SystemConfig config = sys::transFwConfig();
    config.numGpus = gpus;
    config.cusPerGpu = 4;
    config.peerTopology = topo;
    config.hostShards = shards;
    return config;
}

} // namespace

TEST(FabricObsSystem, PerHopSumsBalanceOnRoutedFabric)
{
    // Multi-hop fabric + shard crossbar: the per-hop watchdog (sum of
    // a request's hop charges == its Network + HostRoute buckets) must
    // hold for every checked request.
    sys::SimResults r = sys::runApp(
        "MT", fabricPod(16, 4, ic::Topology::Ring), 0.05);
    EXPECT_GT(r.obsCheckedRequests, 0u);
    EXPECT_EQ(r.obsCheckViolations, 0u);

    // The fabric report is populated: stable link order, traffic on
    // ring edges, and every per-link histogram is valid.
    EXPECT_FALSE(r.fabricLinks.empty());
    std::uint64_t fabric_msgs = 0;
    for (const auto &fl : r.fabricLinks) {
        if (fl.fabric)
            fabric_msgs += fl.messages;
        if (!fl.messages) {
            EXPECT_EQ(fl.queueWaitMean, 0.0);
            EXPECT_EQ(fl.peakQueueDepth, 0u);
        }
    }
    EXPECT_GT(fabric_msgs, 0u);
    EXPECT_FALSE(r.fabricWorstLink.empty());

    // Multi-hop routes exist on a 16-GPU ring (up to 8 hops).
    bool multi_hop = false;
    for (const auto &hd : r.fabricHopDist)
        multi_hop |= hd.hops > 1 && hd.messages > 0;
    EXPECT_TRUE(multi_hop);

    // The hot-group tracker saw the FT lookup stream.
    EXPECT_FALSE(r.hotVpnGroups.empty());
    for (const auto &hg : r.hotVpnGroups) {
        EXPECT_GE(hg.shard, 0);
        EXPECT_LT(hg.shard, 4);
        EXPECT_GT(hg.count, 0u);
    }
    // Skew scalars are derived from the always-on shard stats.
    EXPECT_GE(r.shardSkewWaitRatio, 1.0);
    EXPECT_GT(r.shardSkewLoadShareMax, 0.0);
    EXPECT_LE(r.shardSkewLoadShareMax, 1.0);
}

TEST(FabricObsSystem, PerHopSumsBalanceAcrossTopologies)
{
    for (ic::Topology topo :
         {ic::Topology::AllToAll, ic::Topology::Mesh2D,
          ic::Topology::Switch}) {
        SCOPED_TRACE(ic::topologyName(topo));
        sys::SimResults r =
            sys::runApp("MT", fabricPod(8, 2, topo), 0.05);
        EXPECT_GT(r.obsCheckedRequests, 0u);
        EXPECT_EQ(r.obsCheckViolations, 0u);
    }
}

TEST(FabricObsSystem, UvmDriverModePerHopStillBalances)
{
    // The software-fault path charges star hops through the driver's
    // batching layer; the invariant must survive it too.
    cfg::SystemConfig config = sys::transFwConfig();
    config.numGpus = 8;
    config.cusPerGpu = 4;
    config.faultMode = cfg::FaultMode::UvmDriver;
    sys::SimResults r = sys::runApp("MT", config, 0.05);
    EXPECT_GT(r.obsCheckedRequests, 0u);
    EXPECT_EQ(r.obsCheckViolations, 0u);
}

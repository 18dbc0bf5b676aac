#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "system/sweep.hpp"
#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

constexpr double kScale = 0.05; // tiny but non-trivial runs

std::vector<sys::RunSpec>
sampleSpecs()
{
    // 3 apps x 2 configs: the determinism matrix the issue calls for.
    std::vector<sys::RunSpec> specs;
    for (const char *app : {"AES", "KM", "MT"}) {
        specs.push_back({app, sys::baselineConfig(), kScale});
        specs.push_back({app, sys::transFwConfig(), kScale});
    }
    return specs;
}

/**
 * Field-by-field equality over everything a bench might read. Exact
 * (==, including doubles): the claim under test is bitwise-identical
 * simulation, not statistical closeness.
 */
void
expectIdentical(const sys::SimResults &a, const sys::SimResults &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.memOps, b.memOps);
    EXPECT_EQ(a.pageAccesses, b.pageAccesses);
    EXPECT_EQ(a.l2TlbMisses, b.l2TlbMisses);
    EXPECT_EQ(a.farFaults, b.farFaults);
    EXPECT_EQ(a.avgXlatLatency, b.avgXlatLatency);
    EXPECT_EQ(a.xlatLatencyHist.count(), b.xlatLatencyHist.count());
    EXPECT_EQ(a.xlatLatencyHist.quantile(0.5),
              b.xlatLatencyHist.quantile(0.5));
    EXPECT_EQ(a.xlatLatencyHist.quantile(0.99),
              b.xlatLatencyHist.quantile(0.99));
    EXPECT_EQ(a.l1HitRate, b.l1HitRate);
    EXPECT_EQ(a.l2HitRate, b.l2HitRate);
    EXPECT_EQ(a.hostTlbHitRate, b.hostTlbHitRate);
    EXPECT_EQ(a.gmmuQueueWaitMean, b.gmmuQueueWaitMean);
    EXPECT_EQ(a.hostQueueWaitMean, b.hostQueueWaitMean);
    EXPECT_EQ(a.shortCircuits, b.shortCircuits);
    EXPECT_EQ(a.prtHits, b.prtHits);
    EXPECT_EQ(a.ftHits, b.ftHits);
    EXPECT_EQ(a.forwards, b.forwards);
    EXPECT_EQ(a.duplicateWalks, b.duplicateWalks);
    EXPECT_EQ(a.hostWalks, b.hostWalks);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.bytesMoved, b.bytesMoved);
}

} // namespace

TEST(Sweep, ParallelMatchesSerialExactly)
{
    std::vector<sys::RunSpec> specs = sampleSpecs();

    sys::SweepRunner serial(1);
    std::vector<sys::SimResults> serialResults = serial.run(specs);

    sys::SweepRunner parallel(4);
    std::vector<sys::SimResults> parallelResults = parallel.run(specs);

    ASSERT_EQ(serialResults.size(), specs.size());
    ASSERT_EQ(parallelResults.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].app);
        expectIdentical(serialResults[i], parallelResults[i]);
    }
}

TEST(Sweep, RepeatedPooledRunsAreIdentical)
{
    // Two back-to-back runs on fresh runners: slab/pool recycling from
    // the first run must not leak state into the second.
    std::vector<sys::RunSpec> specs = sampleSpecs();
    std::vector<sys::SimResults> first = sys::SweepRunner(1).run(specs);
    std::vector<sys::SimResults> second = sys::SweepRunner(1).run(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].app);
        expectIdentical(first[i], second[i]);
    }
}

TEST(Sweep, MemoisesDuplicateSpecsWithinAndAcrossBatches)
{
    sys::SweepRunner runner(2);
    sys::RunSpec spec{"FIR", sys::baselineConfig(), kScale};

    std::vector<sys::SimResults> r1 = runner.run({spec, spec, spec});
    EXPECT_EQ(runner.stats().requested, 3u);
    EXPECT_EQ(runner.stats().executed, 1u);
    EXPECT_EQ(runner.stats().memoHits, 2u);
    expectIdentical(r1[0], r1[1]);
    expectIdentical(r1[0], r1[2]);

    runner.run({spec});
    EXPECT_EQ(runner.stats().executed, 1u);
    EXPECT_EQ(runner.stats().memoHits, 3u);

    runner.clearMemo();
    runner.run({spec});
    EXPECT_EQ(runner.stats().executed, 2u);
}

TEST(Sweep, RequestedSerialRunDoesNotWarn)
{
    // The "thread detection may have failed" warning is for a job count
    // hardware detection produced, not for one the caller asked for.
    testing::internal::CaptureStderr();
    sys::SweepRunner(1).run(
        {{"FIR", sys::baselineConfig(), kScale},
         {"FIR", sys::transFwConfig(), kScale}});
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Sweep, DistinctConfigsAreNotConflated)
{
    sys::SweepRunner runner(1);
    sys::RunSpec base{"FIR", sys::baselineConfig(), kScale};
    sys::RunSpec fw{"FIR", sys::transFwConfig(), kScale};
    runner.run({base, fw});
    EXPECT_EQ(runner.stats().executed, 2u);
    EXPECT_EQ(runner.stats().memoHits, 0u);
}

TEST(Sweep, KeyCoversConfigFields)
{
    // key() must change whenever a field that affects simulation
    // changes — a stale key() silently serves wrong memo results. Spot
    // checks across every section of SystemConfig.
    const cfg::SystemConfig ref = sys::baselineConfig();
    const std::string refKey = ref.key();

    auto differs = [&refKey](cfg::SystemConfig c) {
        return c.key() != refKey;
    };

    cfg::SystemConfig c = ref;
    c.numGpus = ref.numGpus + 1;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.l2Tlb.entries *= 2;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.gmmuWalkers += 1;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.pwcEntries *= 2;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.peerLink.latency += 10;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.faultMode = cfg::FaultMode::UvmDriver;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.migrationPolicy = cfg::MigrationPolicy::ReadReplicate;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.transFw.enabled = !ref.transFw.enabled;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.transFw.forwardThreshold += 0.25;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.oracle.infinitePwc = true;
    EXPECT_TRUE(differs(c));

    // Pod scale-out parameters: fabric topology shape and host-MMU
    // sharding both change the simulated machine.
    c = ref;
    c.peerTopology = ic::Topology::Mesh2D;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.peerTopology = ic::Topology::Mesh2D;
    cfg::SystemConfig c2 = c;
    c2.meshCols = 2;
    EXPECT_NE(c.key(), c2.key());

    c = ref;
    c.peerTopology = ic::Topology::Switch;
    c2 = c;
    c2.switchRadix = 4;
    EXPECT_NE(c.key(), c2.key());

    c = ref;
    c.hostShards = 4;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.transFw.ftReplicated = true;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.seed += 1;
    EXPECT_TRUE(differs(c));

    // Every field a figure varies: one shared memo serves all figures,
    // so a field missing here would hand one figure another's result.
    c = ref;
    c.pageTableLevels = 4;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.pageShift = mem::kLargePageShift;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.pwcKind = pwc::PwcKind::Stc;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.hostTlb.entries *= 2;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.hostWalkers += 1;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.memModel = cfg::MemModel::Hierarchy;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.prewarmPlacement = !ref.prewarmPlacement;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.transFw.prtBuckets *= 2;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.transFw.ftBuckets *= 2;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.transFw.enableShortCircuit = !ref.transFw.enableShortCircuit;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.transFw.enableForwarding = !ref.transFw.enableForwarding;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.transFw.vpnMaskBits += 1;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.asap.enabled = !ref.asap.enabled;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.leastTlb.enabled = !ref.leastTlb.enabled;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.oracle.infiniteWalkers = true;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.oracle.zeroMigrationCost = true;
    EXPECT_TRUE(differs(c));

    c = ref;
    c.oracle.noLocalFaults = true;
    EXPECT_TRUE(differs(c));

    // And sameness: an untouched copy maps to the same key.
    EXPECT_EQ(ref.key(), refKey);
}

TEST(Sweep, RunKeyFoldsScaleAndApp)
{
    sys::RunSpec a{"AES", sys::baselineConfig(), 0.25};
    sys::RunSpec b{"AES", sys::baselineConfig(), 0.5};
    sys::RunSpec c{"FIR", sys::baselineConfig(), 0.25};
    EXPECT_NE(sys::runKey(a), sys::runKey(b));
    EXPECT_NE(sys::runKey(a), sys::runKey(c));
    EXPECT_EQ(sys::runKey(a), sys::runKey(a));
}

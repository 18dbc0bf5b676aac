#include <gtest/gtest.h>

#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

/** Small but non-trivial workload with heavy inter-GPU sharing. */
wl::SyntheticSpec
sharedSpec(const char *name = "shared")
{
    wl::SyntheticSpec spec;
    spec.name = name;
    spec.numCtas = 64;
    spec.memOpsPerCta = 40;
    spec.computePerOp = 2;
    spec.regions = {
        {.name = "hot", .pages = 64, .pattern = wl::Pattern::Random,
         .shareDegree = 64, .weight = 0.5, .writeFrac = 0.3, .reuse = 2},
        {.name = "own", .pages = 256, .weight = 0.5, .reuse = 2},
    };
    return spec;
}

cfg::SystemConfig
smallConfig()
{
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 4;
    config.cusPerGpu = 8;
    config.wavefrontSlotsPerCu = 2;
    return config;
}

} // namespace

TEST(System, DeterministicAcrossRuns)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    sys::SimResults a = sys::runWorkload(workload, config);
    sys::SimResults b = sys::runWorkload(workload, config);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.farFaults, b.farFaults);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.migrations, b.migrations);
}

TEST(System, SeedChangesExecution)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    sys::SimResults a = sys::runWorkload(workload, config);
    config.seed = 2;
    sys::SimResults b = sys::runWorkload(workload, config);
    EXPECT_NE(a.execTime, b.execTime);
}

TEST(System, SharingTrackerSeesAllGpus)
{
    wl::SyntheticWorkload workload(sharedSpec());
    sys::SimResults r = sys::runWorkload(workload, smallConfig());
    // The hot region is touched by all four GPUs.
    EXPECT_GT(r.sharingAccesses.bucket(4), 0u);
    // The partitioned region keeps single-GPU pages.
    EXPECT_GT(r.sharingAccesses.bucket(1), 0u);
    EXPECT_GT(r.sharedPageReads, 0u);
    EXPECT_GT(r.sharedPageWrites, 0u);
}

TEST(System, OracleNoFaultsEliminatesFaults)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    config.oracle.noLocalFaults = true;
    sys::SimResults r = sys::runWorkload(workload, config);
    EXPECT_EQ(r.farFaults, 0u);
    EXPECT_EQ(r.migrations, 0u);
}

TEST(System, OraclesNeverSlowDown)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    sys::SimResults base = sys::runWorkload(workload, config);

    cfg::SystemConfig no_faults = config;
    no_faults.oracle.noLocalFaults = true;
    EXPECT_LT(sys::runWorkload(workload, no_faults).execTime,
              base.execTime);

    cfg::SystemConfig inf_walkers = config;
    inf_walkers.oracle.infiniteWalkers = true;
    EXPECT_LE(sys::runWorkload(workload, inf_walkers).execTime,
              base.execTime);

    cfg::SystemConfig free_migration = config;
    free_migration.oracle.zeroMigrationCost = true;
    EXPECT_LE(sys::runWorkload(workload, free_migration).execTime,
              base.execTime);
}

TEST(System, TransFwInvariantsHold)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    config.transFw.enabled = true;
    sys::SimResults r = sys::runWorkload(workload, config);
    EXPECT_EQ(r.forwardSuccess + r.forwardFail, r.forwards);
    EXPECT_LE(r.shortCircuits, r.l2TlbMisses);
    EXPECT_LE(r.prtHits, r.prtLookups);
    EXPECT_LE(r.ftHits, r.ftLookups);
    EXPECT_LE(r.removedFromQueue, r.forwardSuccess);
}

TEST(System, SoftwareDriverMode)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    config.faultMode = cfg::FaultMode::UvmDriver;
    sys::SimResults r = sys::runWorkload(workload, config);
    EXPECT_GT(r.driverBatches, 0u);
    EXPECT_GT(r.farFaults, 0u);
}

TEST(System, SoftwareSlowerThanHardware)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig hw = smallConfig();
    cfg::SystemConfig sw = smallConfig();
    sw.faultMode = cfg::FaultMode::UvmDriver;
    EXPECT_LT(sys::runWorkload(workload, hw).execTime,
              sys::runWorkload(workload, sw).execTime);
}

TEST(System, ReplicationHelpsReadSharing)
{
    wl::SyntheticSpec spec = sharedSpec("read-shared");
    spec.regions[0].writeFrac = 0.0; // pure read sharing
    wl::SyntheticWorkload workload(spec);
    cfg::SystemConfig base = smallConfig();
    cfg::SystemConfig repl = smallConfig();
    repl.migrationPolicy = cfg::MigrationPolicy::ReadReplicate;
    sys::SimResults a = sys::runWorkload(workload, base);
    sys::SimResults b = sys::runWorkload(workload, repl);
    EXPECT_GT(b.replications, 0u);
    EXPECT_LT(b.execTime, a.execTime);
    EXPECT_LT(b.farFaults, a.farFaults);
}

TEST(System, RemoteMappingAvoidsMigrations)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    config.migrationPolicy = cfg::MigrationPolicy::RemoteMap;
    sys::SimResults r = sys::runWorkload(workload, config);
    EXPECT_GT(r.remoteMappings, 0u);
    cfg::SystemConfig base = smallConfig();
    sys::SimResults b = sys::runWorkload(workload, base);
    EXPECT_LT(r.migrations + r.counterMigrations, b.migrations);
}

TEST(System, LargePagesReduceTlbMisses)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig small_pages = smallConfig();
    cfg::SystemConfig large_pages = smallConfig();
    large_pages.pageShift = mem::kLargePageShift;
    sys::SimResults a = sys::runWorkload(workload, small_pages);
    sys::SimResults b = sys::runWorkload(workload, large_pages);
    EXPECT_LT(b.l2TlbMisses, a.l2TlbMisses);
}

TEST(System, FourLevelTableWalksShallower)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig five = smallConfig();
    cfg::SystemConfig four = smallConfig();
    four.pageTableLevels = 4;
    sys::SimResults a = sys::runWorkload(workload, five);
    sys::SimResults b = sys::runWorkload(workload, four);
    // Same request counts, fewer memory accesses per walk.
    EXPECT_LT(static_cast<double>(b.gmmuWalkMemAccesses) /
                  std::max<std::uint64_t>(1, b.l2TlbMisses),
              static_cast<double>(a.gmmuWalkMemAccesses) /
                  std::max<std::uint64_t>(1, a.l2TlbMisses) +
                  0.01);
}

TEST(System, BreakdownRoughlyCoversMeasuredLatency)
{
    wl::SyntheticWorkload workload(sharedSpec());
    sys::SimResults r = sys::runWorkload(workload, smallConfig());
    ASSERT_GT(r.l2TlbMisses, 0u);
    double component_avg = r.attribution.bucketTotal() / r.l2TlbMisses;
    // Components should account for most of the measured latency
    // (parallel paths may double-count a little, gaps may miss a bit).
    EXPECT_GT(component_avg, 0.5 * r.avgXlatLatency);
    EXPECT_LT(component_avg, 1.5 * r.avgXlatLatency);
}

TEST(System, MemOpCountsExact)
{
    wl::SyntheticWorkload workload(sharedSpec());
    sys::SimResults r = sys::runWorkload(workload, smallConfig());
    EXPECT_EQ(r.memOps, 64u * 40u);
    EXPECT_EQ(r.pageAccesses, r.memOps); // one page per op here
    EXPECT_EQ(r.instructions, 64u * 40u * 3u);
}

TEST(System, RunTwiceIsFatal)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    sys::MultiGpuSystem system(config, workload);
    system.run();
    EXPECT_EXIT(system.run(), ::testing::ExitedWithCode(1), "once");
}

// A bad config exits through its named fatal before any member of the
// system is built from it: with 0 GPUs the CTA scheduler and the
// network used to crash first (SIGSEGV), and a 0-radix switch fabric
// panicked inside the Network constructor.
TEST(System, ZeroGpusIsFatalBeforeConstruction)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    config.numGpus = 0;
    EXPECT_EXIT(sys::MultiGpuSystem(config, workload),
                ::testing::ExitedWithCode(1), "numGpus must be in");
}

TEST(System, ZeroSwitchRadixIsFatalBeforeConstruction)
{
    wl::SyntheticWorkload workload(sharedSpec());
    cfg::SystemConfig config = smallConfig();
    config.numGpus = 8;
    config.peerTopology = ic::Topology::Switch;
    config.switchRadix = 0;
    EXPECT_EXIT(sys::MultiGpuSystem(config, workload),
                ::testing::ExitedWithCode(1),
                "switchRadix must be positive");
}

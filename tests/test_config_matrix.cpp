#include <gtest/gtest.h>

#include "transfw/transfw.hpp"

using namespace transfw;

/**
 * Full configuration matrix: every (migration policy × fault mode ×
 * Trans-FW) combination must run a sharing-heavy workload to
 * completion with consistent accounting. 3 × 2 × 2 = 12 system-level
 * combinations.
 */
class ConfigMatrix
    : public ::testing::TestWithParam<
          std::tuple<cfg::MigrationPolicy, cfg::FaultMode, bool>>
{};

TEST_P(ConfigMatrix, RunsWithConsistentAccounting)
{
    auto [policy, mode, transfw] = GetParam();

    wl::SyntheticSpec spec;
    spec.name = "matrix";
    spec.numCtas = 48;
    spec.memOpsPerCta = 30;
    spec.computePerOp = 2;
    spec.regions = {
        {.name = "hot", .pages = 48, .pattern = wl::Pattern::Random,
         .shareDegree = 64, .weight = 0.5, .writeFrac = 0.4, .reuse = 2},
        {.name = "own", .pages = 192, .weight = 0.5, .reuse = 2},
    };
    wl::SyntheticWorkload workload(spec);

    cfg::SystemConfig config = sys::baselineConfig();
    config.cusPerGpu = 6;
    config.migrationPolicy = policy;
    config.faultMode = mode;
    config.transFw.enabled = transfw;

    // Every request keeps its timeline, so the post-run timeline check
    // runs on every one of them.
    sys::MultiGpuSystem system(config, workload);
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();

    // Invariant watchdog: per-hop sums balance, every timeline slice
    // lies inside its request (bar reply-race losers), and PRT short
    // circuits charge no local walk — across the whole matrix, zero
    // violations, with every finished translation checked.
    EXPECT_EQ(system.obs().attribution.droppedTimelines(), 0u);
    EXPECT_EQ(system.obs().attribution.timelines().size(),
              r.attribution.requests);
    EXPECT_EQ(r.obsCheckViolations, 0u);
    EXPECT_EQ(r.obsCheckedRequests, r.attribution.requests);
    EXPECT_EQ(r.attribution.requests, r.l2TlbMisses);
    EXPECT_GT(r.attribution.bucketTotal(), 0.0);
    EXPECT_EQ(r.attribution.unresolvedRaces, 0u);

    EXPECT_EQ(r.memOps, 48u * 30u);
    EXPECT_GT(r.execTime, 0u);
    EXPECT_GT(r.farFaults, 0u); // the hot region always faults
    EXPECT_EQ(r.forwards, r.forwardSuccess + r.forwardFail);
    if (!transfw) {
        EXPECT_EQ(r.shortCircuits, 0u);
        EXPECT_EQ(r.forwards, 0u);
    }
    if (mode == cfg::FaultMode::UvmDriver) {
        EXPECT_GT(r.driverBatches, 0u);
    }
    switch (policy) {
      case cfg::MigrationPolicy::OnTouch:
        EXPECT_GT(r.migrations, 0u);
        EXPECT_EQ(r.replications, 0u);
        EXPECT_EQ(r.remoteMappings, 0u);
        break;
      case cfg::MigrationPolicy::ReadReplicate:
        EXPECT_GT(r.replications + r.writeInvalidations, 0u);
        break;
      case cfg::MigrationPolicy::RemoteMap:
        EXPECT_GT(r.remoteMappings, 0u);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, ConfigMatrix,
    ::testing::Combine(
        ::testing::Values(cfg::MigrationPolicy::OnTouch,
                          cfg::MigrationPolicy::ReadReplicate,
                          cfg::MigrationPolicy::RemoteMap),
        ::testing::Values(cfg::FaultMode::HostMmu,
                          cfg::FaultMode::UvmDriver),
        ::testing::Bool()));

#include <gtest/gtest.h>

#include "transfw/transfw.hpp"

using namespace transfw;

/**
 * Randomized robustness: generate workload specs and configurations
 * from a seeded RNG and require every combination to run to
 * completion with consistent accounting. Catches lifecycle bugs
 * (lost requests, double completions, frame leaks) that targeted
 * tests miss.
 */
namespace {

wl::SyntheticSpec
randomSpec(sim::Rng &rng, int index)
{
    wl::SyntheticSpec spec;
    spec.name = sim::strfmt("fuzz%d", index);
    spec.numCtas = 16 + static_cast<int>(rng.range(48));
    spec.memOpsPerCta = 10 + static_cast<int>(rng.range(40));
    spec.computePerOp = static_cast<std::uint32_t>(rng.range(20));
    spec.phases = 1 + static_cast<int>(rng.range(3));
    spec.pagesPerOp = 1 + static_cast<int>(rng.range(2));
    int regions = 1 + static_cast<int>(rng.range(3));
    for (int r = 0; r < regions; ++r) {
        wl::RegionSpec region;
        region.name = sim::strfmt("r%d", r);
        region.pages = 16 + rng.range(128);
        region.pattern = static_cast<wl::Pattern>(rng.range(3));
        region.shareDegree = 1 + static_cast<int>(rng.range(4));
        region.weight = 0.2 + rng.uniform();
        region.writeFrac = rng.uniform();
        region.reuse = 1 + static_cast<std::uint32_t>(rng.range(8));
        region.stride = 1 + rng.range(16);
        region.haloProb = rng.uniform() * 0.1;
        region.rotatePerPhase = rng.chance(0.3);
        region.alignAcrossGpus = rng.chance(0.3);
        region.alignSkewPages =
            static_cast<std::uint32_t>(rng.range(32));
        spec.regions.push_back(region);
    }
    return spec;
}

/**
 * A random config over every axis the transfw CLI's flag table accepts:
 * 1-16 GPUs on all four fabrics, both fault paths (the host-MMU path
 * sharded 1-4 ways, its FT partitioned or replicated), 4 KB or 2 MB
 * pages, every PW-cache kind, and the ASAP and Least-TLB comparators.
 */
cfg::SystemConfig
randomConfig(sim::Rng &rng)
{
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 1 + static_cast<int>(rng.range(16));
    config.cusPerGpu = 2 + static_cast<int>(rng.range(8));
    config.wavefrontSlotsPerCu = 1 + static_cast<int>(rng.range(4));
    config.gmmuWalkers = 1 + static_cast<int>(rng.range(8));
    config.hostWalkers = 1 + static_cast<int>(rng.range(16));
    config.pageTableLevels = rng.chance(0.5) ? 4 : 5;
    config.pageShift =
        rng.chance(0.2) ? mem::kLargePageShift : mem::kSmallPageShift;
    config.transFw.enabled = rng.chance(0.5);
    config.transFw.enableShortCircuit = rng.chance(0.8);
    config.transFw.enableForwarding = rng.chance(0.8);
    config.transFw.forwardThreshold = rng.uniform() * 2.0;
    config.prewarmPlacement = rng.chance(0.8);
    config.faultMode = rng.chance(0.25) ? cfg::FaultMode::UvmDriver
                                        : cfg::FaultMode::HostMmu;
    if (config.faultMode == cfg::FaultMode::HostMmu)
        config.hostShards = 1 + static_cast<int>(rng.range(4));
    config.transFw.ftReplicated = config.hostShards > 1 && rng.chance(0.5);
    config.migrationPolicy =
        static_cast<cfg::MigrationPolicy>(rng.range(3));
    config.pwcKind = static_cast<pwc::PwcKind>(rng.range(3));
    config.memModel = rng.chance(0.3) ? cfg::MemModel::Hierarchy
                                      : cfg::MemModel::Simple;
    config.peerTopology = static_cast<ic::Topology>(rng.range(4));
    config.meshCols =
        rng.chance(0.5) ? 0 : 1 + static_cast<int>(rng.range(
                                      static_cast<std::uint64_t>(
                                          config.numGpus)));
    config.switchRadix = 1 + static_cast<int>(rng.range(8));
    config.asap.enabled = rng.chance(0.2);
    config.leastTlb.enabled = rng.chance(0.2);
    config.seed = rng.next();
    return config;
}

} // namespace

TEST(Fuzz, RandomWorkloadsAndConfigsRunToCompletion)
{
    sim::Rng rng(0xF0220ULL);
    for (int trial = 0; trial < 60; ++trial) {
        wl::SyntheticSpec spec = randomSpec(rng, trial);
        wl::SyntheticWorkload workload(spec);
        cfg::SystemConfig config = randomConfig(rng);

        SCOPED_TRACE(sim::strfmt("trial %d: %s", trial,
                                 config.summary().c_str()));

        sys::SimResults r = sys::runWorkload(workload, config);
        // Accounting invariants.
        EXPECT_EQ(r.memOps,
                  static_cast<std::uint64_t>(spec.numCtas) *
                      static_cast<std::uint64_t>(spec.memOpsPerCta));
        EXPECT_GT(r.execTime, 0u);
        EXPECT_GE(r.pageAccesses, r.memOps);
        EXPECT_EQ(r.forwards, r.forwardSuccess + r.forwardFail);
        EXPECT_LE(r.prtHits, r.prtLookups);
        EXPECT_EQ(r.obsCheckViolations, 0u);
        EXPECT_GT(r.obsCheckedRequests, 0u);
    }
}

TEST(Fuzz, RandomTrialsAreDeterministic)
{
    sim::Rng rng(0xDE7ULL);
    wl::SyntheticSpec spec = randomSpec(rng, 99);
    wl::SyntheticWorkload workload(spec);
    cfg::SystemConfig config = randomConfig(rng);
    sys::SimResults a = sys::runWorkload(workload, config);
    sys::SimResults b = sys::runWorkload(workload, config);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.farFaults, b.farFaults);
    EXPECT_EQ(a.bytesMoved, b.bytesMoved);
}

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "config/config.hpp"
#include "mem/frame_allocator.hpp"
#include "mmu/walk_timing.hpp"
#include "sim/task_pool.hpp"
#include "system/experiment.hpp"

using namespace transfw;

TEST(FrameAllocator, AllocateFreeRecycle)
{
    mem::FrameAllocator alloc(1 << 20, 12); // 256 frames
    EXPECT_EQ(alloc.capacity(), 256u);
    mem::Ppn a = alloc.allocate();
    mem::Ppn b = alloc.allocate();
    EXPECT_NE(a, b);
    EXPECT_EQ(alloc.allocated(), 2u);
    alloc.free(a);
    EXPECT_EQ(alloc.allocated(), 1u);
    EXPECT_EQ(alloc.allocate(), a); // LIFO recycling
}

TEST(FrameAllocator, ExhaustionIsFatal)
{
    EXPECT_EXIT(
        {
            mem::FrameAllocator alloc(2 << 12, 12); // 2 frames
            alloc.allocate();
            alloc.allocate();
            alloc.allocate();
        },
        ::testing::ExitedWithCode(1), "exhausted");
}

TEST(Config, DefaultsMatchTable2)
{
    cfg::SystemConfig config;
    EXPECT_EQ(config.numGpus, 4);
    EXPECT_EQ(config.cusPerGpu, 64);
    EXPECT_EQ(config.l1Tlb.entries, 32u);
    EXPECT_EQ(config.l2Tlb.entries, 512u);
    EXPECT_EQ(config.l2Tlb.lookupLatency, 10u);
    EXPECT_EQ(config.hostTlb.entries, 2048u);
    EXPECT_EQ(config.gmmuWalkers, 8);
    EXPECT_EQ(config.hostWalkers, 16);
    EXPECT_EQ(config.memLatency, 100u);
    EXPECT_EQ(config.pwcEntries, 128u);
    EXPECT_EQ(config.gmmuPwQueue, 64u);
    EXPECT_EQ(config.hostLink.latency, 150u);
    EXPECT_EQ(config.pageTableLevels, 5);
    EXPECT_EQ(config.pageShift, mem::kSmallPageShift);
    config.validate(); // must not die
}

TEST(Config, ValidateRejectsNonsense)
{
    cfg::SystemConfig config;
    config.pageTableLevels = 7;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "pageTableLevels");
    cfg::SystemConfig config2;
    config2.numGpus = 0;
    EXPECT_EXIT(config2.validate(), ::testing::ExitedWithCode(1),
                "numGpus");
    cfg::SystemConfig config3;
    config3.pageShift = 13;
    EXPECT_EXIT(config3.validate(), ::testing::ExitedWithCode(1),
                "pageShift");
}

// One death test per range rule: each exits 1 through a fatal that
// names the field, never through a signal.
TEST(Config, ValidateRejectsZeroSlots)
{
    // Used to pass and panic only after the run drained.
    cfg::SystemConfig config;
    config.wavefrontSlotsPerCu = 0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "wavefrontSlotsPerCu must be positive");
}

TEST(Config, ValidateRejectsZeroPwcEntries)
{
    // Used to die inside SetAssoc, naming neither flag nor field.
    cfg::SystemConfig config;
    config.pwcEntries = 0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "pwcEntries must be positive");
}

TEST(Config, ValidateRejectsNonFiniteOrNegativeThreshold)
{
    // nan and inf used to pass (nan < 0 is false) and reach the
    // size_t cast in forwardQueueTrigger().
    for (double t : {std::nan(""), HUGE_VAL, -0.5}) {
        cfg::SystemConfig config;
        config.transFw.forwardThreshold = t;
        EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                    "forwardThreshold must be a finite number >= 0")
            << t;
    }
}

TEST(Config, ValidateRejectsAsapAccuracyOutsideUnitRange)
{
    for (double a : {-0.1, 1.5, std::nan("")}) {
        cfg::SystemConfig config;
        config.asap.accuracy = a;
        EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                    "asap.accuracy must be in \\[0, 1\\]")
            << a;
    }
}

TEST(Config, ValidateRejectsNonPositiveOrNonFiniteLinkBandwidth)
{
    // ic::Link::send divides by bytesPerCycle: a peer link of 0 used to
    // run to completion on an undefined cast of infinity to a tick.
    for (double bw : {0.0, -1.0, HUGE_VAL, std::nan("")}) {
        cfg::SystemConfig host;
        host.hostLink.bytesPerCycle = bw;
        EXPECT_EXIT(host.validate(), ::testing::ExitedWithCode(1),
                    "hostLink.bytesPerCycle must be a finite number > 0")
            << bw;
        cfg::SystemConfig peer;
        peer.peerLink.bytesPerCycle = bw;
        EXPECT_EXIT(peer.validate(), ::testing::ExitedWithCode(1),
                    "peerLink.bytesPerCycle must be a finite number > 0")
            << bw;
    }
}

TEST(Config, ForwardTriggerSaturatesPastAnyQueue)
{
    cfg::SystemConfig config;
    config.transFw.forwardThreshold = 1e300;
    EXPECT_EQ(config.forwardQueueTrigger(),
              std::numeric_limits<std::size_t>::max());
}

TEST(Config, ForwardTriggerScalesWithWalkers)
{
    cfg::SystemConfig config;
    config.transFw.forwardThreshold = 0.5;
    config.hostWalkers = 16;
    EXPECT_EQ(config.forwardQueueTrigger(), 8u);
    config.transFw.forwardThreshold = 2.0;
    EXPECT_EQ(config.forwardQueueTrigger(), 32u);
}

TEST(WalkTiming, NoAsapIsIdentity)
{
    cfg::AsapConfig asap;
    sim::Rng rng(1);
    mmu::WalkTiming t = mmu::walkTiming(5, asap, rng);
    EXPECT_EQ(t.serialAccesses, 5);
    EXPECT_EQ(t.countedAccesses, 5);
}

TEST(WalkTiming, AsapAlwaysCorrectOverlapsTwo)
{
    cfg::AsapConfig asap{true, 1.0};
    sim::Rng rng(1);
    mmu::WalkTiming t = mmu::walkTiming(5, asap, rng);
    EXPECT_EQ(t.serialAccesses, 3);
    EXPECT_EQ(t.countedAccesses, 5);
}

TEST(WalkTiming, AsapAlwaysWrongWastesTwo)
{
    cfg::AsapConfig asap{true, 0.0};
    sim::Rng rng(1);
    mmu::WalkTiming t = mmu::walkTiming(5, asap, rng);
    EXPECT_EQ(t.serialAccesses, 5);
    EXPECT_EQ(t.countedAccesses, 7);
}

TEST(WalkTiming, AsapSkipsShortWalks)
{
    cfg::AsapConfig asap{true, 1.0};
    sim::Rng rng(1);
    mmu::WalkTiming t = mmu::walkTiming(2, asap, rng);
    EXPECT_EQ(t.serialAccesses, 2);
    EXPECT_EQ(t.countedAccesses, 2);
}

TEST(Experiment, BaselineAndTransFwConfigs)
{
    cfg::SystemConfig baseline = sys::baselineConfig();
    EXPECT_FALSE(baseline.transFw.enabled);
    cfg::SystemConfig fw = sys::transFwConfig();
    EXPECT_TRUE(fw.transFw.enabled);
    EXPECT_DOUBLE_EQ(fw.transFw.forwardThreshold, 0.5);
}

TEST(Experiment, EffectiveScale)
{
    EXPECT_DOUBLE_EQ(sys::effectiveScale(2.0), 2.0);
    unsetenv("TRANSFW_SCALE");
    EXPECT_DOUBLE_EQ(sys::effectiveScale(0.0), 1.0);
    setenv("TRANSFW_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(sys::effectiveScale(0.0), 0.25);
    unsetenv("TRANSFW_SCALE");
}

TEST(Experiment, EffectiveScaleRejectsMalformedValues)
{
    // TRANSFW_SCALE=abc used to run at scale 1.0, --scale -1 at the
    // default scale.
    for (const char *bad : {"abc", "0.25x", "", "0", "-1", "nan", "inf"}) {
        setenv("TRANSFW_SCALE", bad, 1);
        EXPECT_EXIT(sys::effectiveScale(0.0), ::testing::ExitedWithCode(1),
                    "TRANSFW_SCALE must be a positive number")
            << bad;
    }
    unsetenv("TRANSFW_SCALE");
    EXPECT_EXIT(sys::effectiveScale(-1.0), ::testing::ExitedWithCode(1),
                "scale must be positive");
}

TEST(Experiment, JobsEnvironmentParsesStrictly)
{
    setenv("TRANSFW_JOBS", "3", 1);
    EXPECT_EQ(sim::TaskPool::envThreads(), 3u);
    for (const char *bad : {"x", "4x", "0", "-2", ""}) {
        setenv("TRANSFW_JOBS", bad, 1);
        EXPECT_EXIT(sim::TaskPool::envThreads(),
                    ::testing::ExitedWithCode(1),
                    "TRANSFW_JOBS must be a positive integer")
            << bad;
    }
    unsetenv("TRANSFW_JOBS");
    EXPECT_EQ(sim::TaskPool::envThreads(), 0u);
}

TEST(Experiment, SpeedupRatio)
{
    sys::SimResults a, b;
    a.execTime = 200;
    b.execTime = 100;
    EXPECT_DOUBLE_EQ(sys::speedup(a, b), 2.0);
    EXPECT_DOUBLE_EQ(sys::speedup(b, a), 0.5);
}

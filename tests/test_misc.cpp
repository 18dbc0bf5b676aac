#include <gtest/gtest.h>

#include "config/config.hpp"
#include "mem/frame_allocator.hpp"
#include "mmu/walk_timing.hpp"
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

TEST(Config, ModeConfigMapsTheFourToolModes)
{
    EXPECT_EQ(sys::modeConfig("baseline").key(), sys::baselineConfig().key());
    EXPECT_EQ(sys::modeConfig("transfw").key(), sys::transFwConfig().key());
    cfg::SystemConfig sw = sys::modeConfig("sw");
    EXPECT_EQ(sw.faultMode, cfg::FaultMode::UvmDriver);
    EXPECT_FALSE(sw.transFw.enabled);
    cfg::SystemConfig sw_fw = sys::modeConfig("sw-transfw");
    EXPECT_EQ(sw_fw.faultMode, cfg::FaultMode::UvmDriver);
    EXPECT_TRUE(sw_fw.transFw.enabled);
}

TEST(Config, ModeConfigRejectsUnknownModes)
{
    // A typo used to run the baseline silently.
    EXPECT_EXIT(sys::modeConfig("tranfsw"), ::testing::ExitedWithCode(1),
                "unknown mode 'tranfsw'");
    EXPECT_EXIT(sys::modeConfig(""), ::testing::ExitedWithCode(1),
                "unknown mode");
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

TEST(Experiment, SpeedupRatio)
{
    sys::SimResults a, b;
    a.execTime = 200;
    b.execTime = 100;
    EXPECT_DOUBLE_EQ(sys::speedup(a, b), 2.0);
    EXPECT_DOUBLE_EQ(sys::speedup(b, a), 0.5);
}

#include <gtest/gtest.h>

#include "gpu/gpu.hpp"

using namespace transfw;

namespace {

/**
 * A Gpu wired to capture outgoing faults instead of a real host; it
 * is every CU's access client and counts completed pages.
 */
struct GpuHarness : gpu::AccessClient
{
    cfg::SystemConfig config;
    sim::EventQueue eq;
    sim::Rng rng{1};
    std::unique_ptr<gpu::Gpu> gpu;
    std::vector<mmu::XlatPtr> faults;
    int completions = 0;

    explicit GpuHarness(cfg::SystemConfig c = {})
        : config([&c] {
              c.numGpus = 2;
              c.cusPerGpu = 4;
              return c;
          }())
    {
        gpu = std::make_unique<gpu::Gpu>(eq, config, 0, rng);
        gpu->hooks.sendFault = [this](mmu::XlatPtr req) {
            faults.push_back(std::move(req));
        };
        for (int cu = 0; cu < config.cusPerGpu; ++cu)
            gpu->attachClient(cu, *this);
    }

    void pageDone(int) override { ++completions; }

    void
    mapLocal(mem::Vpn vpn4k, bool writable = true)
    {
        gpu->localPageTable().map(
            vpn4k, mem::PageInfo{gpu->frames().allocate(), 0, 1, writable,
                                 false});
    }

    void
    access(int cu, mem::Vpn vpn4k, bool write = false)
    {
        gpu->access(cu, 0, vpn4k, write);
    }
};

} // namespace

TEST(GpuUnit, LocalAccessCompletesViaWalk)
{
    GpuHarness h;
    h.mapLocal(0x100);
    h.access(0, 0x100);
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    EXPECT_TRUE(h.faults.empty());
    EXPECT_EQ(h.gpu->stats().l2Misses, 1u);
}

TEST(GpuUnit, TlbHitsAfterFirstAccess)
{
    GpuHarness h;
    h.mapLocal(0x100);
    h.access(0, 0x100);
    h.eq.run();
    h.access(0, 0x100); // L1 TLB hit now
    h.eq.run();
    EXPECT_EQ(h.completions, 2);
    EXPECT_EQ(h.gpu->stats().l2Misses, 1u);
    EXPECT_GT(h.gpu->l1Tlb(0).hits(), 0u);
}

TEST(GpuUnit, L2ServesOtherCusL1Miss)
{
    GpuHarness h;
    h.mapLocal(0x100);
    h.access(0, 0x100);
    h.eq.run();
    h.access(1, 0x100); // different CU: L1 miss, L2 hit
    h.eq.run();
    EXPECT_EQ(h.completions, 2);
    EXPECT_EQ(h.gpu->stats().l2Misses, 1u);
}

TEST(GpuUnit, MshrCoalescesConcurrentMisses)
{
    GpuHarness h;
    h.mapLocal(0x100);
    // Four CUs miss on the same page in the same window: one walk.
    for (int cu = 0; cu < 4; ++cu)
        h.access(cu, 0x100);
    h.eq.run();
    EXPECT_EQ(h.completions, 4);
    EXPECT_EQ(h.gpu->stats().l2Misses, 1u);
    EXPECT_EQ(h.gpu->gmmu().stats().localWalks, 1u);
}

TEST(GpuUnit, UnmappedPageBecomesFarFault)
{
    GpuHarness h;
    h.access(0, 0x200);
    h.eq.run();
    ASSERT_EQ(h.faults.size(), 1u);
    EXPECT_EQ(h.completions, 0); // still pending resolution
    EXPECT_TRUE(h.faults[0]->faulted);

    // The host-side machinery replies; the GPU finishes the access.
    mmu::XlatPtr req = h.faults[0];
    req->result = tlb::TlbEntry{5, 0, true, false};
    h.gpu->translationReturned(req);
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
}

TEST(GpuUnit, WriteToReadOnlyEntryRefaults)
{
    GpuHarness h;
    h.mapLocal(0x300, /*writable=*/false);
    h.access(0, 0x300, /*write=*/false); // warm the TLBs read-only
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    h.access(0, 0x300, /*write=*/true); // protection fault path
    h.eq.run();
    ASSERT_EQ(h.faults.size(), 1u);
    EXPECT_TRUE(h.faults[0]->protectionFault);
    EXPECT_TRUE(h.faults[0]->isWrite);
}

TEST(GpuUnit, PrtShortCircuitsNonResidentPages)
{
    cfg::SystemConfig config;
    config.transFw.enabled = true;
    GpuHarness h(config);
    h.mapLocal(0x400 << 9); // resident: PRT knows it
    h.gpu->prt()->pageArrived(0x400 << 9);

    h.access(0, 0x999 << 9); // definitely not resident
    h.eq.run();
    ASSERT_EQ(h.faults.size(), 1u);
    EXPECT_TRUE(h.faults[0]->shortCircuited);
    EXPECT_EQ(h.gpu->stats().shortCircuits, 1u);
    // No local walk was wasted on it.
    EXPECT_EQ(h.gpu->gmmu().stats().localWalks, 0u);
}

TEST(GpuUnit, PrtHitTakesLocalWalk)
{
    cfg::SystemConfig config;
    config.transFw.enabled = true;
    GpuHarness h(config);
    h.mapLocal(0x500 << 9);
    h.gpu->prt()->pageArrived(0x500 << 9);

    h.access(0, 0x500 << 9);
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    EXPECT_TRUE(h.faults.empty());
    EXPECT_EQ(h.gpu->gmmu().stats().localWalks, 1u);
    EXPECT_EQ(h.gpu->stats().shortCircuits, 0u);
}

TEST(GpuUnit, RemoteEntryUsesRemoteLatencyHook)
{
    GpuHarness h;
    int remote_accesses = 0;
    h.gpu->hooks.remoteAccessLatency =
        [&](mem::Vpn, const tlb::TlbEntry &, int) -> sim::Tick {
        ++remote_accesses;
        return 500;
    };
    h.gpu->localPageTable().map(
        0x600, mem::PageInfo{7, 1, 0, true, /*remote=*/true});
    h.access(0, 0x600);
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    EXPECT_EQ(remote_accesses, 1);
    EXPECT_EQ(h.gpu->stats().remoteDataAccesses, 1u);
}

TEST(GpuUnit, HierarchyDataAccessCompletesThroughPageDone)
{
    cfg::SystemConfig config;
    config.memModel = cfg::MemModel::Hierarchy;
    GpuHarness h(config);
    h.mapLocal(0x900);
    h.access(2, 0x900);
    h.eq.run();
    EXPECT_EQ(h.completions, 1);
    ASSERT_NE(h.gpu->memHierarchy(), nullptr);
    EXPECT_EQ(h.gpu->memHierarchy()->l1(2).accesses(), 1u);
}

TEST(GpuUnit, InvalidateTlbsDropsAllLevels)
{
    GpuHarness h;
    h.mapLocal(0x700);
    h.access(0, 0x700);
    h.access(1, 0x700);
    h.eq.run();
    h.gpu->invalidateTlbs(0x700);
    EXPECT_EQ(h.gpu->l2Tlb().probe(0x700), nullptr);
    EXPECT_EQ(h.gpu->l1Tlb(0).probe(0x700), nullptr);
    EXPECT_EQ(h.gpu->l1Tlb(1).probe(0x700), nullptr);
}

TEST(GpuUnit, SharingTrackerHookFires)
{
    GpuHarness h;
    std::uint64_t tracked = 0;
    h.gpu->hooks.onPageAccess = [&](mem::Vpn, int gpu_id, bool) {
        EXPECT_EQ(gpu_id, 0);
        ++tracked;
    };
    h.mapLocal(0x800);
    h.access(0, 0x800, true);
    h.eq.run();
    EXPECT_EQ(tracked, 1u);
}

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mmu/gmmu.hpp"

using namespace transfw;

namespace {

struct GmmuHarness
{
    cfg::SystemConfig config;
    sim::EventQueue eq;
    sim::Rng rng{1};
    mem::PageTable pt;
    mmu::Gmmu gmmu;

    std::vector<mmu::XlatPtr> completed;
    std::vector<mmu::XlatPtr> faulted;
    std::vector<mmu::RemoteLookupPtr> remoteDone;

    explicit GmmuHarness(cfg::SystemConfig c = {})
        : config(std::move(c)), pt(config.geometry()),
          gmmu(eq, "gmmu", config, /*gpu_id=*/0, pt, rng)
    {
        gmmu.onComplete = [this](mmu::XlatPtr r) {
            completed.push_back(std::move(r));
        };
        gmmu.onFault = [this](mmu::XlatPtr r) {
            faulted.push_back(std::move(r));
        };
        gmmu.onRemoteDone = [this](mmu::RemoteLookupPtr rl) {
            remoteDone.push_back(std::move(rl));
        };
    }
};

} // namespace

TEST(Gmmu, LocalWalkCompletesWithFullWalkLatency)
{
    GmmuHarness h;
    h.pt.map(0x42, mem::PageInfo{7, 0, 1, true, false});
    h.gmmu.translate(test::makeReq(0x42));
    h.eq.run();
    ASSERT_EQ(h.completed.size(), 1u);
    // Cold PW-cache: five accesses at 100 cycles each.
    EXPECT_EQ(h.eq.now(), 500u);
    EXPECT_EQ(h.completed[0]->result.ppn, 7u);
    EXPECT_DOUBLE_EQ(h.completed[0]->lat.bucket[static_cast<std::size_t>(
                         obs::AttribBucket::GmmuWalkMem)],
                     500.0);
}

TEST(Gmmu, PwcWarmSecondWalkIsShort)
{
    GmmuHarness h;
    h.pt.map(0x42, mem::PageInfo{7, 0, 1, true, false});
    h.pt.map(0x43, mem::PageInfo{8, 0, 1, true, false});
    h.gmmu.translate(test::makeReq(0x42));
    h.eq.run();
    sim::Tick first = h.eq.now();
    h.gmmu.translate(test::makeReq(0x43)); // same L2 prefix
    h.eq.run();
    EXPECT_EQ(h.eq.now() - first, 100u); // one access: leaf PTE only
}

TEST(Gmmu, UnmappedPageFaultsAfterFixedCost)
{
    GmmuHarness h;
    h.gmmu.translate(test::makeReq(0x42));
    h.eq.run();
    ASSERT_EQ(h.faulted.size(), 1u);
    EXPECT_TRUE(h.faulted[0]->faulted);
    // Early termination: one access (empty root subtree) + fault cost.
    EXPECT_EQ(h.eq.now(), 100u + h.config.faultFixedCost);
    EXPECT_EQ(h.gmmu.stats().localFaults, 1u);
}

TEST(Gmmu, QueueLimitsConcurrentWalkers)
{
    cfg::SystemConfig config;
    config.gmmuWalkers = 2;
    GmmuHarness h(config);
    // Distinct top-level subtrees so no walk benefits from another's
    // PW-cache fills: every walk is a full five-access walk.
    for (mem::Vpn vpn = 0; vpn < 6; ++vpn)
        h.pt.map(vpn << 36, mem::PageInfo{vpn, 0, 1, true, false});
    for (mem::Vpn vpn = 0; vpn < 6; ++vpn)
        h.gmmu.translate(test::makeReq(vpn << 36));
    h.eq.run();
    EXPECT_EQ(h.completed.size(), 6u);
    // 6 cold walks (500 cycles each) over 2 walkers: 3 batches.
    EXPECT_EQ(h.eq.now(), 1500u);
    EXPECT_GT(h.gmmu.stats().queueWait.maximum(), 0.0);
}

TEST(Gmmu, InfiniteWalkersOracleSkipsQueue)
{
    cfg::SystemConfig config;
    config.gmmuWalkers = 1;
    config.oracle.infiniteWalkers = true;
    GmmuHarness h(config);
    for (mem::Vpn vpn = 0; vpn < 8; ++vpn) {
        h.pt.map(vpn << 20, mem::PageInfo{vpn, 0, 1, true, false});
        h.gmmu.translate(test::makeReq(vpn << 20));
    }
    h.eq.run();
    EXPECT_EQ(h.completed.size(), 8u);
    EXPECT_EQ(h.eq.now(), 500u); // all in parallel
    EXPECT_EQ(h.gmmu.stats().queueWait.maximum(), 0.0);
}

TEST(Gmmu, InfinitePwcOracleHasOnlyColdMisses)
{
    cfg::SystemConfig config;
    config.oracle.infinitePwc = true;
    GmmuHarness h(config);
    h.pt.map(0x42, mem::PageInfo{7, 0, 1, true, false});
    h.gmmu.translate(test::makeReq(0x42));
    h.eq.run();
    sim::Tick cold = h.eq.now();
    h.gmmu.translate(test::makeReq(0x42));
    h.eq.run();
    EXPECT_EQ(h.eq.now() - cold, 100u);
}

TEST(Gmmu, WriteToReadOnlyReplicaIsProtectionFault)
{
    GmmuHarness h;
    h.pt.map(0x42, mem::PageInfo{7, 0, 1, /*writable=*/false, false});
    h.gmmu.translate(test::makeReq(0x42, 0, /*write=*/true));
    h.eq.run();
    ASSERT_EQ(h.faulted.size(), 1u);
    EXPECT_TRUE(h.faulted[0]->protectionFault);
}

TEST(Gmmu, ReadOfReadOnlyReplicaSucceeds)
{
    GmmuHarness h;
    h.pt.map(0x42, mem::PageInfo{7, 0, 1, false, false});
    h.gmmu.translate(test::makeReq(0x42, 0, false));
    h.eq.run();
    ASSERT_EQ(h.completed.size(), 1u);
    EXPECT_FALSE(h.completed[0]->result.writable);
}

TEST(Gmmu, RemoteLookupSucceedsOnLocalPage)
{
    GmmuHarness h;
    h.pt.map(0x42, mem::PageInfo{7, 0, 1, true, false});
    mmu::RemoteLookupPtr rl = mmu::makeRemoteLookup();
    rl->req = test::makeReq(0x42, /*gpu=*/1);
    rl->targetGpu = 0;
    h.gmmu.remoteLookup(rl);
    h.eq.run();
    ASSERT_EQ(h.remoteDone.size(), 1u);
    EXPECT_TRUE(h.remoteDone[0]->success);
    EXPECT_EQ(h.remoteDone[0]->result.ppn, 7u);
    EXPECT_EQ(h.gmmu.stats().remoteHits, 1u);
}

TEST(Gmmu, RemoteLookupFailsOnAbsentOrRemotePage)
{
    GmmuHarness h;
    mmu::RemoteLookupPtr rl = mmu::makeRemoteLookup();
    rl->req = test::makeReq(0x42, 1);
    h.gmmu.remoteLookup(rl);
    h.eq.run();
    ASSERT_EQ(h.remoteDone.size(), 1u);
    EXPECT_FALSE(h.remoteDone[0]->success);

    // A remote-mapped PTE cannot serve a remote lookup either.
    h.remoteDone.clear();
    h.pt.map(0x43, mem::PageInfo{9, 2, 0, true, /*remote=*/true});
    mmu::RemoteLookupPtr rl2 = mmu::makeRemoteLookup();
    rl2->req = test::makeReq(0x43, 1);
    h.gmmu.remoteLookup(rl2);
    h.eq.run();
    ASSERT_EQ(h.remoteDone.size(), 1u);
    EXPECT_FALSE(h.remoteDone[0]->success);
}

TEST(Gmmu, RemoteLookupsShareAndFillThePwc)
{
    GmmuHarness h;
    h.pt.map(0x42, mem::PageInfo{7, 0, 1, true, false});
    mmu::RemoteLookupPtr rl = mmu::makeRemoteLookup();
    rl->req = test::makeReq(0x42, 1);
    h.gmmu.remoteLookup(rl);
    h.eq.run();
    // The remote walk warmed the local PW-cache.
    EXPECT_GT(h.gmmu.pwc().probe(0x42), 0);
    EXPECT_GT(h.gmmu.stats().remoteMemAccesses, 0u);
}

TEST(Gmmu, AsapShortensSerialWalk)
{
    cfg::SystemConfig config;
    config.asap.enabled = true;
    config.asap.accuracy = 1.0; // always correct
    GmmuHarness h(config);
    h.pt.map(0x42, mem::PageInfo{7, 0, 1, true, false});
    h.gmmu.translate(test::makeReq(0x42));
    h.eq.run();
    // 5 accesses with the two lowest prefetched: 3 serial.
    EXPECT_EQ(h.eq.now(), 300u);
    EXPECT_EQ(h.gmmu.stats().memAccesses, 5u);
}

#include <gtest/gtest.h>

#include "gpu/compute_unit.hpp"
#include "gpu/cta_scheduler.hpp"
#include "workload/synthetic.hpp"

using namespace transfw;

namespace {

wl::SyntheticSpec
tinySpec(int ctas, int ops)
{
    wl::SyntheticSpec spec;
    spec.name = "tiny";
    spec.numCtas = ctas;
    spec.memOpsPerCta = ops;
    spec.computePerOp = 5;
    spec.regions = {{.name = "r", .pages = 32, .weight = 1.0,
                     .reuse = 2}};
    return spec;
}

/** One CTA that issues one memory instruction. */
class OneOpWorkload : public wl::Workload
{
  public:
    explicit OneOpWorkload(const wl::MemOp &op) : op_(op) {}

    const std::string &name() const override { return name_; }
    int numCtas() const override { return 1; }
    std::uint64_t footprintPages() const override { return 0; }
    mem::Vpn baseVpn() const override { return 0; }

    std::unique_ptr<wl::CtaStream>
    makeStream(int, int, std::uint64_t) const override
    {
        struct Once : wl::CtaStream
        {
            wl::MemOp op;
            bool issued = false;

            bool
            next(wl::MemOp &out) override
            {
                if (issued)
                    return false;
                out = op;
                issued = true;
                return true;
            }
        };
        auto stream = std::make_unique<Once>();
        stream->op = op_;
        return stream;
    }

  private:
    std::string name_ = "one-op";
    wl::MemOp op_;
};

} // namespace

TEST(CtaScheduler, HomeAffineQueues)
{
    wl::SyntheticWorkload workload(tinySpec(16, 4));
    gpu::CtaScheduler sched(workload, 4);
    EXPECT_EQ(sched.remaining(), 16u);
    // GPU 0's queue holds CTAs 0..3 in order.
    for (int i = 0; i < 4; ++i) {
        auto cta = sched.nextCta(0);
        ASSERT_TRUE(cta.has_value());
        EXPECT_EQ(*cta, i);
    }
    EXPECT_FALSE(sched.nextCta(0).has_value());
    // GPU 3's queue holds the last quarter.
    auto cta = sched.nextCta(3);
    ASSERT_TRUE(cta.has_value());
    EXPECT_EQ(*cta, 12);
    EXPECT_EQ(sched.remaining(), 11u);
}

TEST(ComputeUnit, ExecutesAllCtasAndCountsInstructions)
{
    wl::SyntheticWorkload workload(tinySpec(8, 6));
    cfg::SystemConfig config;
    config.numGpus = 1;
    config.cusPerGpu = 2;
    config.wavefrontSlotsPerCu = 2;

    sim::EventQueue eq;
    sim::Rng rng(1);
    gpu::Gpu gpu(eq, config, 0, rng);
    gpu.hooks.sendFault = [](mmu::XlatPtr) { FAIL() << "no faults here"; };
    // Pre-map the footprint locally so every access resolves locally.
    workload.forEachPage([&](mem::Vpn vpn4k) {
        gpu.localPageTable().map(
            vpn4k, mem::PageInfo{gpu.frames().allocate(), 0, 1, true,
                                 false});
    });

    gpu::CtaScheduler sched(workload, 1);
    gpu::ComputeUnit cu0(eq, config, gpu, 0, workload, sched, 7);
    gpu::ComputeUnit cu1(eq, config, gpu, 1, workload, sched, 7);
    cu0.start();
    cu1.start();
    eq.run();

    EXPECT_TRUE(cu0.done());
    EXPECT_TRUE(cu1.done());
    EXPECT_EQ(cu0.memOps() + cu1.memOps(), 8u * 6u);
    EXPECT_EQ(cu0.instructions() + cu1.instructions(), 8u * 6u * 6u);
    EXPECT_EQ(cu0.ctasExecuted() + cu1.ctasExecuted(), 8u);
    EXPECT_EQ(sched.remaining(), 0u);
}

TEST(ComputeUnit, SlotsOverlapLatency)
{
    // With two slots per CU, two CTAs' memory latencies overlap, so a
    // 2-slot CU finishes the same work faster than a 1-slot CU.
    auto run_with_slots = [](int slots) {
        wl::SyntheticWorkload workload(tinySpec(2, 20));
        cfg::SystemConfig config;
        config.numGpus = 1;
        config.cusPerGpu = 1;
        config.wavefrontSlotsPerCu = slots;

        sim::EventQueue eq;
        sim::Rng rng(1);
        gpu::Gpu gpu(eq, config, 0, rng);
        gpu.hooks.sendFault = [](mmu::XlatPtr) {};
        workload.forEachPage([&](mem::Vpn vpn4k) {
            gpu.localPageTable().map(
                vpn4k, mem::PageInfo{gpu.frames().allocate(), 0, 1, true,
                                     false});
        });
        gpu::CtaScheduler sched(workload, 1);
        gpu::ComputeUnit cu(eq, config, gpu, 0, workload, sched, 7);
        cu.start();
        eq.run();
        return eq.now();
    };

    EXPECT_LT(run_with_slots(2), run_with_slots(1));
}

TEST(ComputeUnit, RetriedPageRetiresTheOpOnce)
{
    // A read and a write of the same read-only replica share one L1
    // miss. The fill cannot serve the write, so the GPU retries that
    // page through access() and it takes a protection fault; the
    // 4-page op still retires exactly once.
    wl::MemOp op;
    op.instructions = 3;
    op.pages = {{{0x100, false}, {0x100, true}, {0x101, false},
                 {0x102, false}}};
    op.numPages = 4;
    OneOpWorkload workload(op);
    cfg::SystemConfig config;
    config.numGpus = 1;
    config.cusPerGpu = 1;
    config.wavefrontSlotsPerCu = 1;

    sim::EventQueue eq;
    sim::Rng rng(1);
    gpu::Gpu gpu(eq, config, 0, rng);
    int faults = 0;
    gpu.hooks.sendFault = [&](mmu::XlatPtr req) {
        // The host grants write access to the replica.
        ++faults;
        EXPECT_TRUE(req->protectionFault);
        req->result.writable = true;
        gpu.translationReturned(req);
    };
    for (mem::Vpn vpn : {0x100, 0x101, 0x102}) {
        gpu.localPageTable().map(
            vpn, mem::PageInfo{gpu.frames().allocate(), 0, 1,
                               /*writable=*/vpn != 0x100, false});
    }

    gpu::CtaScheduler sched(workload, 1);
    gpu::ComputeUnit cu(eq, config, gpu, 0, workload, sched, 7);
    cu.start();
    eq.run();

    EXPECT_EQ(faults, 1);
    EXPECT_EQ(gpu.stats().accesses, 5u); // four pages and the retry
    EXPECT_EQ(cu.memOps(), 1u);
    EXPECT_EQ(cu.instructions(), 3u);
    EXPECT_TRUE(cu.done());
}

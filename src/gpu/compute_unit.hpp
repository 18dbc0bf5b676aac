#ifndef TRANSFW_GPU_COMPUTE_UNIT_HPP
#define TRANSFW_GPU_COMPUTE_UNIT_HPP

#include <memory>
#include <vector>

#include "config/config.hpp"
#include "gpu/cta_scheduler.hpp"
#include "gpu/gpu.hpp"
#include "sim/sim_object.hpp"
#include "workload/workload.hpp"

namespace transfw::gpu {

/**
 * One Compute Unit: a set of wavefront slots that interleave compute
 * and coalesced memory instructions. When one slot blocks on a memory
 * access the others keep issuing — the lightweight context switching
 * that lets compute-heavy applications (AES, FIR) hide translation
 * latency. Each slot executes whole CTAs pulled from the scheduler.
 */
class ComputeUnit : public sim::SimObject, public AccessClient
{
  public:
    ComputeUnit(sim::EventQueue &eq, const cfg::SystemConfig &config,
                Gpu &gpu, int cu_id, const wl::Workload &workload,
                CtaScheduler &scheduler, std::uint64_t seed);

    /** Begin execution: attach to the GPU as this CU's access client,
     *  then every slot pulls its first CTA. */
    void start();

    /** A page of @p slot's memory instruction completed; the last one
     *  retires the instruction and steps the slot. */
    void pageDone(int slot) override;

    /** Observability: charge host time to profiler buckets (nullable). */
    void attachProfiler(obs::SelfProfiler *profiler)
    {
        profiler_ = profiler;
    }

    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t memOps() const { return memOps_; }
    std::uint64_t ctasExecuted() const { return ctas_; }
    bool done() const { return activeSlots_ == 0; }

  private:
    struct Slot
    {
        std::unique_ptr<wl::CtaStream> stream;
        wl::MemOp op;
        int pendingPages = 0;
    };

    void acquireCta(std::size_t slot);
    void step(std::size_t slot);
    void issue(std::size_t slot);

    const cfg::SystemConfig &cfg_;
    Gpu &gpu_;
    int cuId_;
    const wl::Workload &workload_;
    CtaScheduler &scheduler_;
    std::uint64_t seed_;

    std::vector<Slot> slots_;
    obs::SelfProfiler *profiler_ = nullptr;
    int activeSlots_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t memOps_ = 0;
    std::uint64_t ctas_ = 0;
};

} // namespace transfw::gpu

#endif // TRANSFW_GPU_COMPUTE_UNIT_HPP

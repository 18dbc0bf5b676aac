#ifndef TRANSFW_MMU_GMMU_HPP
#define TRANSFW_MMU_GMMU_HPP

#include <deque>
#include <functional>
#include <memory>

#include "config/config.hpp"
#include "mem/page_table.hpp"
#include "mmu/request.hpp"
#include "obs/metrics.hpp"
#include "obs/self_profiler.hpp"
#include "pwc/pwc.hpp"
#include "sim/random.hpp"
#include "sim/sim_object.hpp"

namespace transfw::mmu {

/**
 * GPU Memory Management Unit (Section II-A): a PW-queue buffering
 * translation requests, a pool of PT-walk threads, and a PW-cache,
 * walking this GPU's local page table. Requests whose page is not
 * locally valid become far faults. Under Trans-FW the same machinery
 * additionally serves remote lookups forwarded by the host MMU, whose
 * fills share (and slightly thrash) the local PW-cache — the effect
 * the paper measures in Fig. 13.
 */
class Gmmu : public sim::SimObject
{
  public:
    struct Stats
    {
        std::uint64_t localWalks = 0;
        std::uint64_t localFaults = 0;
        std::uint64_t remoteLookups = 0;
        std::uint64_t remoteHits = 0;
        std::uint64_t memAccesses = 0;       ///< for local translations
        std::uint64_t remoteMemAccesses = 0; ///< for remote lookups
        stats::Distribution queueWait;
        std::size_t maxQueueDepth = 0;
        /** Enqueues beyond the Table II PW-queue capacity (64): in
         *  hardware these wait in the L2 MSHRs for admission; the
         *  timing is identical to one deep FIFO, so we track the
         *  overflow instead of modeling a second buffer. */
        std::uint64_t queueOverflows = 0;
    };

    Gmmu(sim::EventQueue &eq, std::string name,
         const cfg::SystemConfig &config, int gpu_id, mem::PageTable &pt,
         sim::Rng &rng);

    /** Local translation request (from an L2 TLB miss / PRT hit). */
    void translate(XlatPtr req);

    /** Trans-FW: remote lookup borrowed by the host MMU. */
    void remoteLookup(RemoteLookupPtr rl);

    /** Local walk found a valid leaf; result is filled in. */
    std::function<void(XlatPtr)> onComplete;
    /** Local walk ended in a page fault. */
    std::function<void(XlatPtr)> onFault;
    /** Remote lookup finished (success flag + result set). */
    std::function<void(RemoteLookupPtr)> onRemoteDone;

    std::size_t queueDepth() const { return queue_.size(); }
    pwc::PageWalkCache &pwc() { return *pwc_; }
    const pwc::PageWalkCache &pwc() const { return *pwc_; }
    const Stats &stats() const { return stats_; }

    /** Observability: race ledger and late charges (nullable). */
    void attachAttribution(obs::AttributionEngine *attrib)
    {
        attrib_ = attrib;
    }
    /** Observability: charge host time to profiler buckets (nullable). */
    void attachProfiler(obs::SelfProfiler *profiler)
    {
        profiler_ = profiler;
    }
    /** Register live gauges under "<prefix>." (e.g. "gpu0.gmmu"). */
    void registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix) const;

  private:
    struct Job
    {
        XlatPtr local;          ///< set for local translations
        RemoteLookupPtr remote; ///< set for remote lookups
        sim::Tick enqueued = 0;
        /** Enqueued past the PW-queue capacity: its wait is the L2-MSHR
         *  admission stall, attributed separately from in-capacity
         *  walker contention (same breakdown field, finer bucket). */
        bool overflowed = false;
    };

    void enqueue(Job job);
    void tryDispatch();
    void startWalk(Job job);
    void finishWalk(Job job, const mem::WalkResult &walk, int hit_level);

    const cfg::SystemConfig &cfg_;
    int gpuId_;
    mem::PageTable &pt_;
    sim::Rng &rng_;
    std::unique_ptr<pwc::PageWalkCache> pwc_;
    std::deque<Job> queue_;
    int busyWalkers_ = 0;
    Stats stats_;
    obs::AttributionEngine *attrib_ = nullptr;
    obs::SelfProfiler *profiler_ = nullptr;
};

} // namespace transfw::mmu

#endif // TRANSFW_MMU_GMMU_HPP

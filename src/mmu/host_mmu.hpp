#ifndef TRANSFW_MMU_HOST_MMU_HPP
#define TRANSFW_MMU_HOST_MMU_HPP

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "config/config.hpp"
#include "mem/page_table.hpp"
#include "mmu/gpu_iface.hpp"
#include "mmu/request.hpp"
#include "obs/metrics.hpp"
#include "obs/self_profiler.hpp"
#include "pwc/pwc.hpp"
#include "sim/random.hpp"
#include "sim/sim_object.hpp"
#include "tlb/tlb.hpp"
#include "transfw/forwarding_table.hpp"
#include "uvm/migration.hpp"

namespace transfw::mmu {

/**
 * Host MMU / IOMMU: the hardware far-fault handler the paper adopts as
 * its baseline (Section II-B). Far faults from every GPU are coalesced
 * per page, looked up in the host TLB, and otherwise walked against
 * the centralized UVM page table by a shared pool of PT-walk threads
 * behind a PW-queue and PW-cache. Resolution hands the request to the
 * MigrationEngine, then replies to the requesting GPU.
 *
 * Under Trans-FW (Section IV-C) the Forwarding Table is probed in
 * parallel with the host TLB; when the PW-queue is congested past the
 * forwarding threshold, the walk is also forwarded to the owner GPU,
 * the first responder wins, and a request whose remote lookup succeeds
 * is pulled back out of the PW-queue.
 */
class HostMmu : public sim::SimObject
{
  public:
    struct Stats
    {
        std::uint64_t faults = 0;          ///< requests arriving here
        std::uint64_t coalesced = 0;       ///< merged onto in-flight pages
        std::uint64_t tlbHits = 0;
        std::uint64_t walks = 0;           ///< walks actually performed
        std::uint64_t memAccesses = 0;
        std::uint64_t forwards = 0;        ///< remote lookups launched
        std::uint64_t forwardSuccess = 0;
        std::uint64_t forwardFail = 0;     ///< FT false positives
        std::uint64_t duplicateWalks = 0;  ///< walk finished after remote won
        std::uint64_t removedFromQueue = 0;///< cancelled before walking
        stats::Distribution queueWait;
        std::size_t maxQueueDepth = 0;
        std::uint64_t queueOverflows = 0; ///< beyond the 64-entry queue
        /** Fig. 8: PW-cache level the owner GPU could have served. */
        stats::BucketHistogram remoteProbeLevels{8};
    };

    /**
     * @p shard / @p num_shards: position within a sharded IOMMU (see
     * HostMmuCluster). The defaults build the paper's single IOMMU:
     * the historical "host_mmu" name and the owner-change → host-TLB
     * shootdown wired directly to the engine. With num_shards > 1 the
     * cluster owns that wiring (it must fan the shootdown out to the
     * right shard TLBs) and shards get distinct names.
     */
    HostMmu(sim::EventQueue &eq, const cfg::SystemConfig &config,
            mem::PageTable &central, uvm::MigrationEngine &engine,
            core::ForwardingTable *ft, std::vector<GpuIface *> gpus,
            sim::Rng &rng, int shard = 0, int num_shards = 1);

    /** A far fault arrived over the CPU-GPU interconnect. */
    void handleFault(XlatPtr req);

    /** Notification from a remote GPU that its lookup finished. */
    void remoteLookupDone(RemoteLookupPtr rl);

    /** Reply channel back to the requesting GPU (set by the system). */
    std::function<void(XlatPtr)> onResolved;
    /** Forward channel host → remote GPU (set by the system). */
    std::function<void(RemoteLookupPtr)> forwardToGpu;

    tlb::Tlb &tlb() { return tlb_; }
    pwc::PageWalkCache &pwc() { return *pwc_; }
    std::size_t queueDepth() const { return queue_.size(); }
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
    /** Register live gauges under "<prefix>." (e.g. "host.mmu"). */
    void registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix) const;

  private:
    void admit(XlatPtr req);
    void tryDispatch();
    void startWalk(XlatPtr req);
    void translationKnown(XlatPtr req, const tlb::TlbEntry &entry);
    void finishFault(XlatPtr req, const tlb::TlbEntry &entry);

    const cfg::SystemConfig &cfg_;
    mem::PageTable &central_;
    uvm::MigrationEngine &engine_;
    core::ForwardingTable *ft_;
    std::vector<GpuIface *> gpus_;
    sim::Rng &rng_;

    tlb::Tlb tlb_;
    std::unique_ptr<pwc::PageWalkCache> pwc_;
    struct QueueEntry
    {
        XlatPtr req;
        sim::Tick enqueued;
    };
    std::deque<QueueEntry> queue_;
    int busyWalkers_ = 0;

    Stats stats_;
    obs::AttributionEngine *attrib_ = nullptr;
    obs::SelfProfiler *profiler_ = nullptr;
};

} // namespace transfw::mmu

#endif // TRANSFW_MMU_HOST_MMU_HPP

#ifndef TRANSFW_UVM_UVM_DRIVER_HPP
#define TRANSFW_UVM_UVM_DRIVER_HPP

#include <deque>
#include <functional>
#include <vector>

#include "config/config.hpp"
#include "mem/page_table.hpp"
#include "mmu/request.hpp"
#include "obs/metrics.hpp"
#include "obs/self_profiler.hpp"
#include "pwc/pwc.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "sim/sim_object.hpp"
#include "transfw/ft_cluster.hpp"
#include "uvm/migration.hpp"

namespace transfw::uvm {

/**
 * Software far-fault handling by the UVM driver (Section II-B): GPU
 * fault buffers alert the driver, which caches faults host-side and
 * services them in batches of 256. Batches are processed one at a
 * time (the driver's global lock — the scalability bottleneck Fig. 2
 * quantifies); within a batch, a pool of driver threads walks the
 * central page table, after which the MigrationEngine moves pages and
 * replies are sent. Section V-F's Trans-FW variant keeps the
 * Forwarding Table in CPU memory: the driver probes it before walking
 * and borrows the owner GPU's PT-walk instead when it hits.
 */
class UvmDriver : public sim::SimObject
{
  public:
    struct Stats
    {
        std::uint64_t faults = 0;
        std::uint64_t coalesced = 0;
        std::uint64_t batches = 0;
        std::uint64_t walks = 0;
        std::uint64_t forwards = 0;
        std::uint64_t forwardSuccess = 0;
        std::uint64_t forwardFail = 0; ///< FT false positives
        stats::Distribution batchSize;
        stats::Distribution batchLatency;
    };

    UvmDriver(sim::EventQueue &eq, const cfg::SystemConfig &config,
              mem::PageTable &central, MigrationEngine &engine,
              core::FtCluster *ft, sim::Rng &rng);

    /**
     * A far fault arrived over the CPU-GPU interconnect. The caller
     * stamps @p req's tHostArrive on delivery; the queue wait, including
     * a coalesced fault's wait for its page's leader, counts from it.
     */
    void handleFault(mmu::XlatPtr req);

    /** Remote lookup notification (Trans-FW on driver faults). */
    void remoteLookupDone(mmu::RemoteLookupPtr rl);

    std::function<void(mmu::XlatPtr)> onResolved;
    std::function<void(mmu::RemoteLookupPtr)> forwardToGpu;

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
    /** Register live gauges under "<prefix>." (e.g. "host.driver"). */
    void registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix) const;

  private:
    struct Batch
    {
        std::vector<mmu::XlatPtr> faults;
        sim::Tick sealed = 0;
    };

    void sealBatch();
    void processNextBatch();
    void dispatchWalks();
    void startWalk(mmu::XlatPtr req);
    void softwareWalk(mmu::XlatPtr req);
    void walkDone(mmu::XlatPtr req);
    void resolved(mmu::XlatPtr req);

    const cfg::SystemConfig &cfg_;
    mem::PageTable &central_;
    MigrationEngine &engine_;
    core::FtCluster *ft_;
    sim::Rng &rng_;
    /** The CPU's caches hold hot page-table lines; modeled as a walk
     *  cache for the driver's software walks. */
    std::unique_ptr<pwc::PageWalkCache> pwc_;

    std::vector<mmu::XlatPtr> buffer_; ///< faults awaiting a batch
    bool flushScheduled_ = false;
    std::uint64_t flushEpoch_ = 0;     ///< invalidates stale flush events

    std::deque<Batch> batchQueue_;
    bool processing_ = false;
    sim::Tick batchStart_ = 0;
    std::deque<mmu::XlatPtr> walkQueue_;
    int busyThreads_ = 0;
    int outstandingWalks_ = 0; ///< walks (local or remote) in flight

    /** Per-page coalescing across the whole driver. Touched once per
     *  far fault, so stored flat like the hardware-path MSHRs. */
    sim::FlatMap<mem::Vpn, std::vector<mmu::XlatPtr>> inflight_;

    Stats stats_;
    obs::AttributionEngine *attrib_ = nullptr;
    obs::SelfProfiler *profiler_ = nullptr;
};

} // namespace transfw::uvm

#endif // TRANSFW_UVM_UVM_DRIVER_HPP

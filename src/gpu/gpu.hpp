#ifndef TRANSFW_GPU_GPU_HPP
#define TRANSFW_GPU_GPU_HPP

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "config/config.hpp"
#include "cache/mshr.hpp"
#include "sim/flat_map.hpp"
#include "mem/frame_allocator.hpp"
#include "mem/mem_hierarchy.hpp"
#include "mem/page_table.hpp"
#include "mmu/gmmu.hpp"
#include "mmu/gpu_iface.hpp"
#include "mmu/request.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/self_profiler.hpp"
#include "sim/random.hpp"
#include "sim/sim_object.hpp"
#include "tlb/tlb.hpp"
#include "transfw/prt.hpp"

namespace transfw::gpu {

/**
 * Hooks the GPU uses to reach the rest of the system (host MMU / UVM
 * driver, peer GPUs, trackers). Wired by sys::MultiGpuSystem.
 */
struct GpuHooks
{
    /** Ship a far fault (or short-circuited request) to the host. */
    std::function<void(mmu::XlatPtr)> sendFault;

    /** Least-TLB: probe sibling GPUs' L2 TLBs (nullptr on miss). */
    std::function<const tlb::TlbEntry *(mem::Vpn, int requester)>
        probeSiblingL2;

    /**
     * Latency of a data access that leaves the GPU (remote-mapped
     * pages); also drives the remote-mapping access counters.
     */
    std::function<sim::Tick(mem::Vpn, const tlb::TlbEntry &, int gpu)>
        remoteAccessLatency;

    /** Sharing tracker tap: every coalesced page access lands here. */
    std::function<void(mem::Vpn, int gpu, bool write)> onPageAccess;
};

/**
 * Issuer of one CU's page accesses: the ComputeUnit, or a counter in
 * unit tests. Gpu::access() completes every page through pageDone().
 */
class AccessClient
{
  public:
    /** Translation and data access of one page issued by @p slot are
     *  done. */
    virtual void pageDone(int slot) = 0;

  protected:
    ~AccessClient() = default;
};

/**
 * One GPU: 64 CUs' worth of L1 TLBs, the shared L2 TLB, both MSHR
 * levels, the GMMU, local page table, frame allocator and (under
 * Trans-FW) the PRT. The compute side lives in gpu::ComputeUnit; this
 * class owns the translation state machine from coalesced access to
 * completed data access.
 */
class Gpu : public sim::SimObject, public mmu::GpuIface
{
  public:
    struct Stats
    {
        std::uint64_t accesses = 0;
        std::uint64_t l2Misses = 0;       ///< XlatRequests created
        std::uint64_t shortCircuits = 0;  ///< PRT misses sent straight out
        std::uint64_t leastTlbRemoteHits = 0;
        std::uint64_t remoteDataAccesses = 0;
        stats::Distribution xlatLatency;  ///< L2-miss to completion
        /** Same samples, log-bucketed for p50/p90/p95/p99/p99.9. */
        obs::LogHistogram xlatHist;
    };

    Gpu(sim::EventQueue &eq, const cfg::SystemConfig &config, int gpu_id,
        sim::Rng &rng);

    int id() const { return id_; }

    /** Complete CU @p cu's page accesses through @p client. */
    void
    attachClient(int cu, AccessClient &client)
    {
        auto idx = static_cast<std::size_t>(cu);
        if (clients_.size() <= idx)
            clients_.resize(idx + 1, nullptr);
        clients_[idx] = &client;
    }

    /**
     * Coalesced page access from wavefront slot @p slot of CU @p cu
     * (VPN in 4 KB units; converted to the system page size
     * internally). The CU's client gets pageDone(@p slot) when both
     * translation and the data access have completed.
     */
    void access(int cu, int slot, mem::Vpn vpn4k, bool write);

    /** Far-fault reply delivered by the host-side machinery. */
    void translationReturned(mmu::XlatPtr req);

    /** Trans-FW remote lookup forwarded by the host MMU. */
    void remoteLookupRequest(mmu::RemoteLookupPtr rl)
    {
        gmmu_.remoteLookup(std::move(rl));
    }

    // --- GpuIface ----------------------------------------------------------
    mem::PageTable &localPageTable() override { return pt_; }
    mem::FrameAllocator &frames() override { return frames_; }
    void invalidateTlbs(mem::Vpn vpn) override;
    core::PendingRequestTable *prt() override { return prt_.get(); }
    const pwc::PageWalkCache &gmmuPwc() const override
    {
        return gmmu_.pwc();
    }

    // --- wiring / inspection -----------------------------------------------
    GpuHooks hooks;
    mmu::Gmmu &gmmu() { return gmmu_; }
    const mmu::Gmmu &gmmu() const { return gmmu_; }
    /** Detailed data-memory model (nullptr under MemModel::Simple). */
    const mem::GpuMemoryHierarchy *memHierarchy() const
    {
        return memHierarchy_.get();
    }
    tlb::Tlb &l2Tlb() { return l2tlb_; }
    const tlb::Tlb &l2Tlb() const { return l2tlb_; }
    const tlb::Tlb &l1Tlb(int cu) const { return *l1tlbs_[cu]; }
    const Stats &stats() const { return stats_; }

    /** Observability: fold finished requests into the run's
     *  attribution (propagates to the GMMU). */
    void
    attachAttribution(obs::AttributionEngine *attrib)
    {
        attrib_ = attrib;
        gmmu_.attachAttribution(attrib);
    }
    /** Observability: host-time profiler (propagates to the GMMU). */
    void attachProfiler(obs::SelfProfiler *profiler)
    {
        gmmu_.attachProfiler(profiler);
    }
    /** Register live gauges under "<prefix>." (e.g. "gpu0"). */
    void registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix) const;

  private:
    struct L1Waiter
    {
        bool write;
        int slot;
    };

    void lookupL2(int cu, mem::Vpn vpn, bool write);
    void startTranslation(int cu, mem::Vpn vpn, bool write);
    void finishTranslation(const mmu::XlatPtr &req);
    void deliverToL1(int cu, mem::Vpn vpn, const tlb::TlbEntry &entry);
    void dataAccess(int cu, int slot, mem::Vpn vpn,
                    const tlb::TlbEntry &entry, bool write);

    /** CU @p cu's L1 copy of @p vpn disappeared (eviction or
     *  shootdown). */
    void noteL1Erased(int cu, mem::Vpn vpn);

    const cfg::SystemConfig &cfg_;
    int id_;
    unsigned vpnShift_; ///< 4 KB VPN -> system VPN shift
    sim::Rng &rng_;

    mem::PageTable pt_;
    mem::FrameAllocator frames_;
    std::vector<std::unique_ptr<tlb::Tlb>> l1tlbs_;
    /** Exact bitmask of CUs whose L1 holds each VPN, so shootdowns
     *  probe only the holders instead of scanning every CU's set —
     *  absent key means no L1 copy anywhere, the common case when
     *  pages ping-pong between GPUs. Tracking needs one mask bit per
     *  CU: with more than 64 CUs (no shipped config) it is disabled
     *  and shootdowns scan every CU as before. */
    sim::FlatMap<mem::Vpn, std::uint64_t> l1Resident_;
    bool trackL1Residency_ = true;
    tlb::Tlb l2tlb_;
    std::vector<cache::Mshr<L1Waiter>> l1Mshrs_; ///< per CU, keyed by VPN
    cache::Mshr<int> l2Mshr_;                    ///< waiters are CU ids
    mmu::Gmmu gmmu_;
    std::unique_ptr<mem::GpuMemoryHierarchy> memHierarchy_;
    /** Per-page line cursors: successive touches of a page sweep its
     *  cache lines, so re-visits hit the data caches (memory-hierarchy
     *  model only). */
    std::unordered_map<mem::Vpn, std::uint32_t> lineCursor_;
    std::unique_ptr<core::PendingRequestTable> prt_;
    std::vector<AccessClient *> clients_; ///< per CU
    std::uint64_t nextReqId_ = 1;
    Stats stats_;
    obs::AttributionEngine *attrib_ = nullptr;
};

} // namespace transfw::gpu

#endif // TRANSFW_GPU_GPU_HPP

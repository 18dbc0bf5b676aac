#ifndef TRANSFW_SYSTEM_SYSTEM_HPP
#define TRANSFW_SYSTEM_SYSTEM_HPP

#include <memory>
#include <vector>

#include "config/config.hpp"
#include "gpu/compute_unit.hpp"
#include "gpu/cta_scheduler.hpp"
#include "gpu/gpu.hpp"
#include "interconnect/network.hpp"
#include "mmu/host_mmu_cluster.hpp"
#include "obs/obs.hpp"
#include "sim/event_queue.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "system/results.hpp"
#include "transfw/ft_cluster.hpp"
#include "uvm/migration.hpp"
#include "uvm/uvm_driver.hpp"
#include "workload/workload.hpp"

namespace transfw::sys {

/**
 * The complete simulated machine: N GPUs (CUs, TLBs, GMMUs, local page
 * tables), the interconnect, the centralized UVM page table, and the
 * configured far-fault handler (host MMU or UVM driver), optionally
 * augmented with Trans-FW's PRT/FT. Construct with a config and a
 * workload, call run() once, read the SimResults.
 *
 * Event kernel: N+1 event queues, one per GPU plus one for everything
 * host-side (host MMU / UVM driver, migration engine, central page
 * table, interconnect routing), merged by one single-threaded loop.
 * Each step runs every event of the next tick of the queue with the
 * smallest (tick, queue) key: the host queue first on ties, then the
 * GPUs in index order. Each queue already orders its own events by
 * (tick, seq), so the merge is a total order that depends only on the
 * simulation (see DESIGN.md, "Event kernel").
 */
class MultiGpuSystem
{
  public:
    MultiGpuSystem(const cfg::SystemConfig &config,
                   const wl::Workload &workload);

    /** Execute the workload to completion and collect results. */
    SimResults run();

    // --- component access (tests, characterization probes) ----------------
    gpu::Gpu &gpuAt(int gpu) { return *gpus_[static_cast<std::size_t>(gpu)]; }
    /** Shard 0 of the host MMU (the whole MMU when hostShards == 1). */
    mmu::HostMmu *hostMmu()
    {
        return hostMmu_ ? &hostMmu_->shard(0) : nullptr;
    }
    mmu::HostMmuCluster *hostMmuCluster() { return hostMmu_.get(); }
    uvm::UvmDriver *uvmDriver() { return driver_.get(); }
    uvm::MigrationEngine &migrationEngine() { return *engine_; }
    /** Shard 0's FT slice (the whole FT when hostShards == 1). */
    core::ForwardingTable *forwardingTable()
    {
        return ft_ ? &ft_->table(0) : nullptr;
    }
    core::FtCluster *ftCluster() { return ft_.get(); }
    ic::Network &network() { return net_; }
    mem::PageTable &centralPageTable() { return central_; }
    /** The host queue (first on same-tick ties). */
    sim::EventQueue &eventq() { return hostEq_; }
    /** GPU @p gpu's queue. */
    sim::EventQueue &gpuEventq(int gpu)
    {
        return *gpuQs_[static_cast<std::size_t>(gpu)];
    }
    const cfg::SystemConfig &config() const { return cfg_; }

    /** Observability bundle: metric registry, sampler, attribution. */
    obs::Observability &obs() { return *obs_; }
    const obs::Observability &obs() const { return *obs_; }

  private:
    struct PageSharing
    {
        std::uint64_t gpuMask = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
    };

    void placeInitialPages();
    void wireGpu(int gpu);
    void wireQueues();
    void sendFaultToHost(mmu::XlatPtr req);
    void setupObservability();
    SimResults collect();

    /** Merge the N+1 queues until none has a strong event left;
     *  @return events executed. */
    std::uint64_t runQueues();

    /** Attribution engine for event-time charges. Fetched at
     *  call time because the wiring lambdas are created before obs_. */
    obs::AttributionEngine *attribEngine()
    {
        return obs_ ? &obs_->attribution : nullptr;
    }

    /** Self-profiler, same late-fetch rule as attribEngine(). */
    obs::SelfProfiler *profiler()
    {
        return obs_ ? &obs_->profiler : nullptr;
    }

    cfg::SystemConfig cfg_;
    const wl::Workload &workload_;

    /** Per-GPU event queues; filled before any component exists. */
    std::vector<std::unique_ptr<sim::EventQueue>> gpuQs_;
    /** The host/IOMMU queue (also the pre-run construction clock). */
    sim::EventQueue hostEq_;

    sim::Rng rng_; ///< host side
    /** Per-GPU streams, seed-derived; each used only by its own GPU. */
    std::vector<std::unique_ptr<sim::Rng>> gpuRngs_;

    mem::PageTable central_;
    mem::FrameAllocator cpuFrames_;
    ic::Network net_;

    std::unique_ptr<core::FtCluster> ft_;
    std::vector<std::unique_ptr<gpu::Gpu>> gpus_;
    std::unique_ptr<uvm::MigrationEngine> engine_;
    std::unique_ptr<mmu::HostMmuCluster> hostMmu_;
    std::unique_ptr<uvm::UvmDriver> driver_;
    gpu::CtaScheduler scheduler_;
    std::vector<std::unique_ptr<gpu::ComputeUnit>> cus_;

    /** Per-page sharing tracker (GPU mask, read/write counts). */
    sim::FlatMap<mem::Vpn, PageSharing> sharing_;
    std::uint64_t farFaults_ = 0;
    bool ran_ = false;

    /**
     * Declared last on purpose: destroyed first, so registry gauges
     * (which hold raw pointers into the components above) can never be
     * evaluated against dead components.
     */
    std::unique_ptr<obs::Observability> obs_;

    static constexpr std::uint64_t kCtrlMsgBytes = 32;
};

} // namespace transfw::sys

#endif // TRANSFW_SYSTEM_SYSTEM_HPP

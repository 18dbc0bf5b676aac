#ifndef TRANSFW_CONFIG_CONFIG_HPP
#define TRANSFW_CONFIG_CONFIG_HPP

#include <cstdint>
#include <limits>
#include <string>

#include "interconnect/link.hpp"
#include "interconnect/network.hpp"
#include "mem/address.hpp"
#include "mem/mem_hierarchy.hpp"
#include "pwc/pwc.hpp"
#include "sim/ticks.hpp"
#include "tlb/tlb.hpp"

namespace transfw::cfg {

/** Data-side memory model. */
enum class MemModel
{
    Simple,    ///< flat Table II latency per data access (default; the
               ///  translation-path calibration assumes this)
    Hierarchy, ///< per-CU L1 vector caches + shared L2 + banked DRAM
};

/** How far faults are resolved (Section II-B). */
enum class FaultMode
{
    HostMmu,   ///< hardware: host MMU/IOMMU walks the central table
               ///  (the paper's baseline)
    UvmDriver, ///< software: UVM driver processes faults in batches
};

/** Page placement/migration policy (Sections V-D, V-E). */
enum class MigrationPolicy
{
    OnTouch,       ///< default: migrate the page to the faulting GPU
    ReadReplicate, ///< read replication with ESI coherence
    RemoteMap,     ///< map remote memory; migrate past an access counter
};

/** Trans-FW feature knobs (Section IV). */
struct TransFwConfig
{
    bool enabled = false;

    /**
     * Ablation switches: Trans-FW is two mechanisms — the GMMU short
     * circuit (PRT) and the host MMU remote forwarding (FT). Disabling
     * one isolates the other's contribution (figures ablation).
     */
    bool enableShortCircuit = true;
    bool enableForwarding = true;

    /**
     * Host MMU forwarding threshold as a fraction of PT-walk threads:
     * forward to the owner GPU when queued requests exceed
     * threshold × walkers (default 0.5 per Section IV-C).
     */
    double forwardThreshold = 0.5;

    // Pending Request Table (per GMMU): 500 fingerprints = 125 buckets
    // of 4 slots, 13-bit fingerprints (ε ≈ 0.1%), 8 pages/fingerprint.
    std::size_t prtBuckets = 125;
    unsigned prtSlotsPerBucket = 4;
    unsigned prtFingerprintBits = 13;

    // Forwarding Table (host MMU): 2000 fingerprints = 1000 buckets of
    // 2 slots, 11-bit fingerprints (ε ≈ 0.2%), 8 pages/fingerprint.
    std::size_t ftBuckets = 1000;
    unsigned ftSlotsPerBucket = 2;
    unsigned ftFingerprintBits = 11;

    /**
     * Low VPN bits masked per fingerprint (the paper masks 3 bits = 8
     * contiguous pages; its workloads are VA-sparse at that grain, so
     * a fingerprint effectively covers one live page). The synthetic
     * workloads spread consecutive application pages vaSpread = 512
     * VPNs apart to reproduce large-footprint PW-cache pressure, so
     * masking log2(512) = 9 bits again covers exactly one live page
     * per fingerprint — the same effective coverage as the paper.
     */
    unsigned vpnMaskBits = 9;

    /**
     * FT placement across host-MMU shards (hostShards > 1). Default
     * (false): partitioned — each shard owns the FT slice for its VPN
     * range (ftBuckets split evenly), no cross-shard coherence needed,
     * but a fault can only consult the home shard's slice. true:
     * every shard keeps a full FT replica and faults round-robin
     * across shards for load balance; keeping replicas coherent costs
     * an explicit update/invalidation broadcast per page-residency
     * change (counted in ft.replicaUpdates / ft.replicaInvalidations).
     */
    bool ftReplicated = false;
};

/** ASAP-style PW-cache prefetching (Section V-H comparison). */
struct AsapConfig
{
    bool enabled = false;
    /**
     * Probability that the flattened-offset prediction of the lowest
     * two levels is correct, overlapping their accesses with the upper
     * walk instead of serializing.
     */
    double accuracy = 0.85;
};

/** Least-TLB-style multi-GPU TLB optimization (Section V-I). */
struct LeastTlbConfig
{
    bool enabled = false;
    sim::Tick remoteProbeLatency = 40; ///< probing a peer GPU's L2 TLB
};

/**
 * Observability knobs (src/obs/): the interval time-series sampler and
 * the host-side self-profiler. Per-request traces are not a config
 * knob: they are the attribution engine's kept timelines
 * (obs::AttributionEngine::setKeepTimelines), which change no result.
 */
struct ObsConfig
{
    sim::Tick sampleInterval = 0;  ///< time-series period (0 = off)
    /**
     * Host-side self-profiler: attribute event-dispatch wall clock to
     * component buckets by sampling one dispatch in profileStride. On
     * by default, so every ledger record carries a host profile; off,
     * no queue gets a dispatch hook. Neither this switch, the stride
     * nor sampleInterval moves a simulated result.
     */
    bool selfProfile = true;
    std::uint32_t profileStride = 16; ///< sample 1 dispatch in N
};

/** Oracle switches for the Section III-B room-for-improvement study. */
struct OracleConfig
{
    bool infinitePwc = false;      ///< unbounded GMMU + host PW-caches
    bool infiniteWalkers = false;  ///< no PW-queue waiting anywhere
    bool zeroMigrationCost = false;///< free page data transfer
    bool noLocalFaults = false;    ///< every page pre-mapped everywhere
};

/**
 * Full system configuration. Defaults reproduce Table II: 4 GPUs with
 * 64 CUs each, two-level GPU TLBs, a 2048-entry host MMU TLB, 8 GMMU /
 * 16 host PT-walk threads at 100 cycles per level, 128-entry PW-caches,
 * 64-entry PW-queues, and a 150-cycle PCIe-class interconnect, over a
 * five-level page table with 4 KB pages.
 */
struct SystemConfig
{
    int numGpus = 4;
    int cusPerGpu = 64;
    int wavefrontSlotsPerCu = 6; ///< concurrent wavefronts per CU (the
                                 ///  latency-hiding context-switch pool)

    // --- memory & paging -------------------------------------------------
    std::uint64_t gpuMemBytes = 4ULL << 30; // 4 GB per GPU
    int pageTableLevels = 5;
    unsigned pageShift = mem::kSmallPageShift;
    sim::Tick memLatency = 100; ///< device memory access (one PT level)
    MemModel memModel = MemModel::Simple;
    mem::MemHierarchyConfig memHierarchy; ///< used under Hierarchy

    // --- TLBs -------------------------------------------------------------
    tlb::TlbConfig l1Tlb{32, 32, 1};
    tlb::TlbConfig l2Tlb{512, 16, 10};
    tlb::TlbConfig hostTlb{2048, 64, 5};

    // --- PT-walk machinery ------------------------------------------------
    int gmmuWalkers = 8;
    int hostWalkers = 16;
    std::size_t gmmuPwQueue = 64;
    std::size_t hostPwQueue = 64;
    std::size_t pwcEntries = 128;
    pwc::PwcKind pwcKind = pwc::PwcKind::Utc;

    // --- interconnect ------------------------------------------------------
    ic::LinkConfig hostLink{150, 256.0};  ///< PCIe-class CPU-GPU star
    ic::LinkConfig peerLink{150, 256.0};  ///< NVLink-class GPU-GPU links
    ic::Topology peerTopology = ic::Topology::AllToAll;
    int meshCols = 0;    ///< Mesh2D grid width (0 = near-square auto)
    int switchRadix = 8; ///< GPUs per leaf switch (Switch topology)

    /**
     * Host MMU/IOMMU shards: the paper's single IOMMU serializes every
     * far fault behind one walk queue; pods shard it. Each shard is a
     * full host-MMU instance (own TLB, PW-cache, walk queue, walker
     * pool) owning a slice of the VPN space by hash — with the FT
     * partitioned the same way, or replicated per shard (see
     * transFw.ftReplicated). 1 = the paper's single-IOMMU baseline,
     * event-for-event identical to the pre-shard implementation.
     */
    int hostShards = 1;

    // --- fault handling / migration ---------------------------------------
    /**
     * Pre-place pages on their expected first-touch device so the
     * measurement window captures steady-state sharing migration
     * rather than the one-time cold-touch storm (the paper's kernels
     * run long enough to amortize cold faults). Disable to model cold
     * UVM placement (everything starts on the CPU).
     */
    bool prewarmPlacement = true;
    FaultMode faultMode = FaultMode::HostMmu;
    MigrationPolicy migrationPolicy = MigrationPolicy::OnTouch;
    std::uint32_t remoteMapMigrateThreshold = 8; ///< access-counter limit
    sim::Tick faultFixedCost = 100;  ///< hardware fault bookkeeping
    sim::Tick shootdownCost = 150;   ///< invalidating stale TLB entries
    sim::Tick replayCost = 20;       ///< re-issuing the faulted access

    // --- software (UVM driver) fault handling -----------------------------
    /**
     * Software-path costs. The synthetic workloads compress compute
     * time ~50x versus the paper's real kernels (same faults, far
     * fewer instructions between them); the driver's software
     * overheads are scaled down accordingly so the software-vs-
     * hardware *ratio* stays in the paper's regime (see DESIGN.md and
     * EXPERIMENTS.md). The batch size is the real driver's 256.
     */
    std::size_t driverBatchSize = 256;  ///< faults per batch [53]
    sim::Tick driverBatchWindow = 60;   ///< max wait to fill a batch
    sim::Tick driverBatchFixedCost = 60; ///< per-batch software overhead
    sim::Tick driverPerFaultCost = 80;  ///< per-fault software handling
    int driverWalkThreads = 16;

    // --- features ----------------------------------------------------------
    TransFwConfig transFw;
    AsapConfig asap;
    LeastTlbConfig leastTlb;
    OracleConfig oracle;
    ObsConfig obs;

    std::uint64_t seed = 1;

    mem::PagingGeometry
    geometry() const
    {
        mem::PagingGeometry geo;
        geo.levels = pageTableLevels;
        geo.pageShift = pageShift;
        return geo;
    }

    /** Host MMU forwarding trigger in queued requests; saturates. */
    std::size_t
    forwardQueueTrigger() const
    {
        double trigger = transFw.forwardThreshold * hostWalkers;
        return trigger < 1e18 ? static_cast<std::size_t>(trigger)
                              : std::numeric_limits<std::size_t>::max();
    }

    /** One-line summary for bench headers. */
    std::string summary() const;

    /**
     * Canonical serialization of EVERY field, used as the memoisation
     * key for sweep runs: two configs with equal key() produce
     * bit-identical simulations. When adding a config field, add it
     * here too (test_sweep's KeyCoversConfigFields guards the obvious
     * ones).
     */
    std::string key() const;

    /** Sanity-check invariants; fatal on nonsense combinations. */
    void validate() const;
};

} // namespace transfw::cfg

#endif // TRANSFW_CONFIG_CONFIG_HPP

#ifndef TRANSFW_SYSTEM_RESULTS_HPP
#define TRANSFW_SYSTEM_RESULTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/histogram.hpp"
#include "obs/self_profiler.hpp"
#include "sim/ticks.hpp"
#include "stats/stats.hpp"

namespace transfw::sys {

/**
 * Everything one simulation run measures. Benches read typed fields
 * from here to print the paper's tables and figure series.
 */
struct SimResults
{
    std::string app;
    std::string configSummary;

    // --- headline --------------------------------------------------------
    sim::Tick execTime = 0;       ///< end-to-end execution time (cycles)
    std::uint64_t eventsExecuted = 0; ///< discrete events the run drained
    std::uint64_t instructions = 0;
    std::uint64_t memOps = 0;
    std::uint64_t pageAccesses = 0;
    std::uint64_t l2TlbMisses = 0;
    std::uint64_t farFaults = 0;  ///< GPU local page faults

    double
    pfpki() const
    {
        return instructions
                   ? 1000.0 * static_cast<double>(farFaults) /
                         static_cast<double>(instructions)
                   : 0.0;
    }

    // --- L2-TLB-miss latency (its Fig. 3 / Fig. 12 decomposition is
    //     attribution.fieldTotal()) ------------------------------------------
    double avgXlatLatency = 0.0;
    /** Full latency distribution, merged over every GPU: p50/p90/p95/
     *  p99/p99.9 via quantile() — tail behaviour the mean hides. */
    obs::LogHistogram xlatLatencyHist;

    // --- TLBs --------------------------------------------------------------
    double l1HitRate = 0.0;
    double l2HitRate = 0.0;
    double hostTlbHitRate = 0.0;

    // --- PW-caches (Figs. 5, 6, 13): bucket i = hit at entry level i,
    //     bucket 0 = full miss ------------------------------------------------
    stats::BucketHistogram gmmuPwcLevels{8};
    stats::BucketHistogram hostPwcLevels{8};

    // --- queues -------------------------------------------------------------
    double gmmuQueueWaitMean = 0.0;
    double hostQueueWaitMean = 0.0;
    std::uint64_t gmmuQueueOverflows = 0; ///< beyond the 64-entry PW-queue
    std::uint64_t hostQueueOverflows = 0;

    // --- page sharing (Figs. 7, 24): bucket k = accesses to pages
    //     touched by exactly k GPUs ------------------------------------------
    stats::BucketHistogram sharingAccesses{65};
    std::uint64_t sharedPageReads = 0;  ///< reads to >=2-GPU pages
    std::uint64_t sharedPageWrites = 0;

    // --- remote-hit characterization (Fig. 8) -------------------------------
    stats::BucketHistogram remoteProbeLevels{8};

    // --- Trans-FW mechanics (Figs. 14-16) ------------------------------------
    std::uint64_t shortCircuits = 0;
    std::uint64_t prtLookups = 0, prtHits = 0;
    std::uint64_t ftLookups = 0, ftHits = 0;
    std::uint64_t forwards = 0, forwardSuccess = 0, forwardFail = 0;
    std::uint64_t duplicateWalks = 0, removedFromQueue = 0;
    std::uint64_t prtOverflows = 0, ftOverflows = 0; ///< filter evictions

    // --- walk volumes --------------------------------------------------------
    std::uint64_t gmmuWalkMemAccesses = 0;  ///< for local translations
    std::uint64_t gmmuRemoteMemAccesses = 0;///< serving remote lookups
    std::uint64_t hostWalks = 0;
    std::uint64_t hostWalkMemAccesses = 0;

    // --- host-MMU sharding (pod scale-out; empty when hostShards == 1) -------
    /** Faults that crossed the shard-steering crossbar. */
    std::uint64_t hostRoutedFaults = 0;
    /** Per-shard walk counts (size == hostShards when sharded). */
    std::vector<std::uint64_t> hostShardWalks;
    /** Per-shard PW-queue wait means — the study's occupancy signal. */
    std::vector<double> hostShardQueueWaitMean;
    /** Per-shard peak PW-queue depth. */
    std::vector<std::uint64_t> hostShardMaxQueueDepth;
    /** Replicated-FT coherence traffic (0 under partitioning). */
    std::uint64_t ftReplicaUpdates = 0;
    std::uint64_t ftReplicaInvalidations = 0;

    // --- fabric telemetry (one row per link, host star legs included) -------
    /** One interconnect edge's traffic summary, read off ic::Link. */
    struct FabricLinkStats
    {
        std::string name;            ///< registry prefix ("peer3to4", ...)
        bool fabric = false;         ///< peer/switch edge (vs host star leg)
        std::uint64_t bytes = 0;
        std::uint64_t messages = 0;  ///< data-channel messages
        std::uint64_t ctrlMessages = 0;
        double queueWaitMean = 0.0;  ///< data-channel serialization queue
        double queueWaitP99 = 0.0;
        double queueWaitMax = 0.0;
        std::uint64_t peakQueueDepth = 0;
        double utilization = 0.0;    ///< busy serialization cycles / execTime
    };
    /** Routed peer traffic grouped by route length (hop-distance mix). */
    struct FabricHopDist
    {
        int hops = 0;
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
        double waitPerMsg = 0.0;     ///< mean summed queue wait over the route
    };
    /** One heavy-hitter VPN group from the FT skew sketch. */
    struct HotVpnGroup
    {
        std::uint64_t group = 0;     ///< vpn >> vpnMaskBits
        std::uint64_t count = 0;     ///< estimate (over-counts by <= error)
        std::uint64_t error = 0;
        double share = 0.0;          ///< count / total lookups
        int shard = 0;               ///< home shard under the partition hash
    };

    std::vector<FabricLinkStats> fabricLinks; ///< every link, stable order
    std::vector<FabricHopDist> fabricHopDist; ///< index != hops; sparse list
    std::string fabricWorstLink;       ///< fabric edge with the worst p99 wait
    double fabricWorstQueueWaitP99 = 0.0;
    double fabricMeanUtilization = 0.0;///< mean over fabric edges
    std::vector<HotVpnGroup> hotVpnGroups; ///< top-8 by estimated count

    // --- shard skew (always-on; neutral values when hostShards == 1) ---------
    double shardSkewWaitRatio = 0.0;   ///< worst / mean shard queue-wait mean
    double shardSkewLoadShareMax = 0.0;///< hottest shard's walk share
    double shardSkewLoadCv = 0.0;      ///< coefficient of variation of walks

    // --- page movement --------------------------------------------------------
    std::uint64_t migrations = 0;
    std::uint64_t replications = 0;
    std::uint64_t writeInvalidations = 0;
    std::uint64_t remoteMappings = 0;
    std::uint64_t counterMigrations = 0;
    std::uint64_t bytesMoved = 0;

    // --- software driver --------------------------------------------------------
    std::uint64_t driverBatches = 0;
    double driverAvgBatchSize = 0.0;

    // --- latency attribution ---------------------------------------------------
    /** Bucketed cycle totals over every finished L2 TLB miss, plus the
     *  reply-race ledger. */
    obs::AttributionTable attribution;
    std::uint64_t obsCheckViolations = 0;  ///< watchdog trips (expect 0)
    std::uint64_t obsCheckedRequests = 0;  ///< requests the watchdog saw

    // --- host-side execution (the ledger's wall section, except the
    //     deterministic backlog peak) -----------------------------------
    std::uint64_t peakEventBacklog = 0; ///< EventQueue::peakPending()
    double hostWallSeconds = 0.0;       ///< wall clock inside run()
    double hostEventsPerSec = 0.0;      ///< eventsExecuted / wall
    obs::HostProfile hostProfile;       ///< SelfProfiler bucket snapshot
};

} // namespace transfw::sys

#endif // TRANSFW_SYSTEM_RESULTS_HPP

#include "system/report.hpp"

#include <sstream>

#include "sim/logging.hpp"

namespace transfw::sys {

namespace {

/** The scalar fields exported by name, in a fixed order for CSV. */
struct Field
{
    const char *name;
    double (*get)(const SimResults &);
};

template <obs::LatField F>
double
latField(const SimResults &r)
{
    return r.attribution.fieldTotal(F);
}

const Field kFields[] = {
    {"exec.cycles", [](const SimResults &r) {
         return static_cast<double>(r.execTime);
     }},
    {"exec.instructions", [](const SimResults &r) {
         return static_cast<double>(r.instructions);
     }},
    {"exec.memOps", [](const SimResults &r) {
         return static_cast<double>(r.memOps);
     }},
    {"exec.pageAccesses", [](const SimResults &r) {
         return static_cast<double>(r.pageAccesses);
     }},
    {"exec.events", [](const SimResults &r) {
         return static_cast<double>(r.eventsExecuted);
     }},
    {"exec.peakEventBacklog", [](const SimResults &r) {
         return static_cast<double>(r.peakEventBacklog);
     }},
    {"xlat.l2Misses", [](const SimResults &r) {
         return static_cast<double>(r.l2TlbMisses);
     }},
    {"fault.count", [](const SimResults &r) {
         return static_cast<double>(r.farFaults);
     }},
    {"fault.pfpki", [](const SimResults &r) { return r.pfpki(); }},
    {"xlat.avgLatency", [](const SimResults &r) {
         return r.avgXlatLatency;
     }},
    {"xlat.p50", [](const SimResults &r) {
         return r.xlatLatencyHist.quantile(0.50);
     }},
    {"xlat.p90", [](const SimResults &r) {
         return r.xlatLatencyHist.quantile(0.90);
     }},
    {"xlat.p95", [](const SimResults &r) {
         return r.xlatLatencyHist.quantile(0.95);
     }},
    {"xlat.p99", [](const SimResults &r) {
         return r.xlatLatencyHist.quantile(0.99);
     }},
    {"xlat.p999", [](const SimResults &r) {
         return r.xlatLatencyHist.quantile(0.999);
     }},
    // The Fig. 3 components, each the sum of its attribution buckets.
    {"xlat.gmmuQueue", latField<obs::LatField::GmmuQueue>},
    {"xlat.gmmuMem", latField<obs::LatField::GmmuMem>},
    {"xlat.hostQueue", latField<obs::LatField::HostQueue>},
    {"xlat.hostMem", latField<obs::LatField::HostMem>},
    {"xlat.migration", latField<obs::LatField::Migration>},
    {"xlat.network", latField<obs::LatField::Network>},
    {"xlat.other", latField<obs::LatField::Other>},
    {"tlb.l1HitRate", [](const SimResults &r) { return r.l1HitRate; }},
    {"tlb.l2HitRate", [](const SimResults &r) { return r.l2HitRate; }},
    {"tlb.hostHitRate", [](const SimResults &r) {
         return r.hostTlbHitRate;
     }},
    {"queue.gmmuWaitMean", [](const SimResults &r) {
         return r.gmmuQueueWaitMean;
     }},
    {"queue.hostWaitMean", [](const SimResults &r) {
         return r.hostQueueWaitMean;
     }},
    {"walk.host", [](const SimResults &r) {
         return static_cast<double>(r.hostWalks);
     }},
    {"walk.hostMemAccesses", [](const SimResults &r) {
         return static_cast<double>(r.hostWalkMemAccesses);
     }},
    {"walk.gmmuMemAccesses", [](const SimResults &r) {
         return static_cast<double>(r.gmmuWalkMemAccesses);
     }},
    {"walk.gmmuRemoteMemAccesses", [](const SimResults &r) {
         return static_cast<double>(r.gmmuRemoteMemAccesses);
     }},
    {"transfw.shortCircuits", [](const SimResults &r) {
         return static_cast<double>(r.shortCircuits);
     }},
    {"transfw.prtLookups", [](const SimResults &r) {
         return static_cast<double>(r.prtLookups);
     }},
    {"transfw.prtHits", [](const SimResults &r) {
         return static_cast<double>(r.prtHits);
     }},
    {"transfw.ftLookups", [](const SimResults &r) {
         return static_cast<double>(r.ftLookups);
     }},
    {"transfw.ftHits", [](const SimResults &r) {
         return static_cast<double>(r.ftHits);
     }},
    {"transfw.forwards", [](const SimResults &r) {
         return static_cast<double>(r.forwards);
     }},
    {"transfw.forwardSuccess", [](const SimResults &r) {
         return static_cast<double>(r.forwardSuccess);
     }},
    {"transfw.forwardFail", [](const SimResults &r) {
         return static_cast<double>(r.forwardFail);
     }},
    {"transfw.duplicateWalks", [](const SimResults &r) {
         return static_cast<double>(r.duplicateWalks);
     }},
    {"transfw.removedFromQueue", [](const SimResults &r) {
         return static_cast<double>(r.removedFromQueue);
     }},
    {"transfw.prtOverflows", [](const SimResults &r) {
         return static_cast<double>(r.prtOverflows);
     }},
    {"transfw.ftOverflows", [](const SimResults &r) {
         return static_cast<double>(r.ftOverflows);
     }},
    {"queue.gmmuOverflows", [](const SimResults &r) {
         return static_cast<double>(r.gmmuQueueOverflows);
     }},
    {"queue.hostOverflows", [](const SimResults &r) {
         return static_cast<double>(r.hostQueueOverflows);
     }},
    {"migration.count", [](const SimResults &r) {
         return static_cast<double>(r.migrations);
     }},
    {"migration.replications", [](const SimResults &r) {
         return static_cast<double>(r.replications);
     }},
    {"migration.writeInvalidations", [](const SimResults &r) {
         return static_cast<double>(r.writeInvalidations);
     }},
    {"migration.remoteMappings", [](const SimResults &r) {
         return static_cast<double>(r.remoteMappings);
     }},
    {"migration.counterMigrations", [](const SimResults &r) {
         return static_cast<double>(r.counterMigrations);
     }},
    {"migration.bytesMoved", [](const SimResults &r) {
         return static_cast<double>(r.bytesMoved);
     }},
    {"sharing.reads", [](const SimResults &r) {
         return static_cast<double>(r.sharedPageReads);
     }},
    {"sharing.writes", [](const SimResults &r) {
         return static_cast<double>(r.sharedPageWrites);
     }},
    {"driver.batches", [](const SimResults &r) {
         return static_cast<double>(r.driverBatches);
     }},
    {"driver.avgBatchSize", [](const SimResults &r) {
         return r.driverAvgBatchSize;
     }},
    // Reply-race ledger (first-reply-wins accounting; attrib.hpp).
    {"race.remoteWins", [](const SimResults &r) {
         return static_cast<double>(r.attribution.remoteWins);
     }},
    {"race.hostWins", [](const SimResults &r) {
         return static_cast<double>(r.attribution.hostWins);
     }},
    {"race.failedForwards", [](const SimResults &r) {
         return static_cast<double>(r.attribution.failedForwards);
     }},
    {"race.cancelledHostWalks", [](const SimResults &r) {
         return static_cast<double>(r.attribution.cancelledHostWalks);
     }},
    {"race.duplicateHostWalks", [](const SimResults &r) {
         return static_cast<double>(r.attribution.duplicateHostWalks);
     }},
    {"race.unresolved", [](const SimResults &r) {
         return static_cast<double>(r.attribution.unresolvedRaces);
     }},
    {"race.savedCycles", [](const SimResults &r) {
         return r.attribution.forwardSavedCycles;
     }},
    {"race.savedEstCycles", [](const SimResults &r) {
         return r.attribution.forwardSavedEstCycles;
     }},
    {"race.wastedCycles", [](const SimResults &r) {
         return r.attribution.forwardWastedCycles;
     }},
    {"race.shortCircuitSavedEstCycles", [](const SimResults &r) {
         return r.attribution.shortCircuitSavedEstCycles;
     }},
    {"obs.checkViolations", [](const SimResults &r) {
         return static_cast<double>(r.obsCheckViolations);
     }},
    {"obs.checkedRequests", [](const SimResults &r) {
         return static_cast<double>(r.obsCheckedRequests);
     }},
};

} // namespace

stats::Registry
toRegistry(const SimResults &results)
{
    stats::Registry registry;
    for (const Field &field : kFields)
        registry.set(field.name, field.get(results));
    for (std::size_t level = 0; level <= 5; ++level) {
        registry.set(sim::strfmt("pwc.gmmu.L%zu", level),
                     results.gmmuPwcLevels.fraction(level));
        registry.set(sim::strfmt("pwc.host.L%zu", level),
                     results.hostPwcLevels.fraction(level));
    }
    for (std::size_t sharers = 1; sharers <= 4; ++sharers)
        registry.set(sim::strfmt("sharing.by%zu", sharers),
                     results.sharingAccesses.fraction(sharers));
    // Per-mechanism latency attribution: one column per bucket, cycles
    // summed over every finished translation (xlat.* groups them).
    for (std::size_t b = 0; b < obs::kNumAttribBuckets; ++b) {
        auto bucket = static_cast<obs::AttribBucket>(b);
        registry.set(std::string("attrib.") + obs::bucketName(bucket),
                     results.attribution.bucket[b]);
    }
    // Host-MMU sharding: these keys exist only when the run actually
    // sharded (hostShards > 1), so single-shard registries — and the
    // golden ledger built from them — keep the pre-shard key set.
    if (!results.hostShardWalks.empty()) {
        registry.set("shard.count",
                     static_cast<double>(results.hostShardWalks.size()));
        registry.set("shard.routedFaults",
                     static_cast<double>(results.hostRoutedFaults));
        registry.set(
            "shard.ftReplicaUpdates",
            static_cast<double>(results.ftReplicaUpdates));
        registry.set(
            "shard.ftReplicaInvalidations",
            static_cast<double>(results.ftReplicaInvalidations));
        for (std::size_t s = 0; s < results.hostShardWalks.size();
             ++s) {
            registry.set(
                sim::strfmt("shard.s%zu.walks", s),
                static_cast<double>(results.hostShardWalks[s]));
            registry.set(sim::strfmt("shard.s%zu.queueWaitMean", s),
                         results.hostShardQueueWaitMean[s]);
            registry.set(
                sim::strfmt("shard.s%zu.maxQueueDepth", s),
                static_cast<double>(results.hostShardMaxQueueDepth[s]));
        }
        // Skew summary of the per-shard series above: who is hottest,
        // by how much, and how lopsided the whole spread is.
        registry.set("shard.skew.waitRatio", results.shardSkewWaitRatio);
        registry.set("shard.skew.loadShareMax",
                     results.shardSkewLoadShareMax);
        registry.set("shard.skew.loadCv", results.shardSkewLoadCv);
    }
    // Fabric telemetry: routed edges, the worst one's tail queue wait,
    // mean utilization and the longest route taken.
    std::size_t fabric_edges = 0;
    for (const auto &fl : results.fabricLinks)
        if (fl.fabric)
            ++fabric_edges;
    registry.set("fabric.links", static_cast<double>(fabric_edges));
    registry.set("fabric.worstQueueWaitP99",
                 results.fabricWorstQueueWaitP99);
    registry.set("fabric.meanUtilization", results.fabricMeanUtilization);
    if (!results.fabricHopDist.empty())
        registry.set("fabric.maxRouteHops",
                     static_cast<double>(results.fabricHopDist.back().hops));
    if (!results.hotVpnGroups.empty()) {
        double top8 = 0;
        for (const auto &hg : results.hotVpnGroups)
            top8 += hg.share;
        registry.set("fabric.hotGroups.top8Share",
                     top8 > 1.0 ? 1.0 : top8);
    }
    return registry;
}

std::string
formatReport(const SimResults &results)
{
    std::ostringstream os;
    os << "app: " << results.app << "\n"
       << "config: " << results.configSummary << "\n"
       << toRegistry(results).format();
    return os.str();
}

std::string
csvHeader()
{
    std::ostringstream os;
    os << "app";
    for (const Field &field : kFields)
        os << ',' << field.name;
    return os.str();
}

std::string
csvRow(const SimResults &results)
{
    std::ostringstream os;
    os << results.app;
    for (const Field &field : kFields)
        os << ',' << field.get(results);
    return os.str();
}

obs::LedgerRecord
toLedgerRecord(const SimResults &results,
               const cfg::SystemConfig &config, double scale,
               const std::string &source)
{
    obs::LedgerRecord record;
    record.schema = obs::RunLedger::kSchema;
    record.app = results.app;
    record.scale = scale;
    record.configKey = config.key();
    record.configSummary = results.configSummary;
    record.source = source;
    record.metrics = toRegistry(results).values();

    record.wall["wall_seconds"] = results.hostWallSeconds;
    record.wall["events_per_sec"] = results.hostEventsPerSec;
    const obs::HostProfile &profile = results.hostProfile;
    if (profile.stride != 0) {
        record.wall["profile.total_seconds"] = profile.totalSeconds;
        record.wall["profile.stride"] =
            static_cast<double>(profile.stride);
        record.wall["profile.sampled_dispatches"] =
            static_cast<double>(profile.sampledDispatches);
        for (std::size_t b = 0; b < obs::kNumProfBuckets; ++b)
            record.wall[std::string("profile.") +
                        obs::profBucketName(
                            static_cast<obs::ProfBucket>(b))] =
                profile.seconds[b];
    }
    obs::RunLedger::stampWall(record);
    return record;
}

} // namespace transfw::sys

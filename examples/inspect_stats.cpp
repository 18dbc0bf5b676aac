/**
 * inspect_stats: run one application and dump every counter the
 * simulator collects — TLBs, PW-caches, queues, faults, migrations,
 * Trans-FW tables — for debugging and model exploration.
 *
 * Usage: inspect_stats [--shards N] [APP] [baseline|transfw|sw|sw-transfw] [PAD]
 *        inspect_stats --json [APP] [mode] [PAD]
 *        inspect_stats --ledger FILE
 *
 * With --json the unified metrics registry (every component's live
 * gauges, hierarchical "gpu0.gmmu.*" keys) is dumped as one JSON
 * object instead of the human-readable report.
 *
 * With --ledger the newest transfw-ledger-v1 record in FILE is pretty-
 * printed instead of running a simulation: identity, every deterministic
 * metric, and a [host profile] section from the wall-clock fields.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

void
dump(const char *name, double v)
{
    std::printf("  %-32s %14.3f\n", name, v);
}

void
dump(const char *name, std::uint64_t v)
{
    std::printf("  %-32s %14llu\n", name, static_cast<unsigned long long>(v));
}

int
inspectLedger(const std::string &path)
{
    std::vector<std::string> errors;
    std::vector<obs::LedgerRecord> records =
        obs::RunLedger::load(path, &errors);
    for (const std::string &e : errors)
        std::fprintf(stderr, "warn: %s: %s\n", path.c_str(), e.c_str());
    if (records.empty()) {
        std::fprintf(stderr, "no ledger records in %s\n", path.c_str());
        return 1;
    }
    const obs::LedgerRecord &r = records.back();

    std::printf("== ledger record %zu/%zu of %s ==\n", records.size(),
                records.size(), path.c_str());
    std::printf("  %-32s %s\n", "app", r.app.c_str());
    std::printf("  %-32s %.17g\n", "scale", r.scale);
    std::printf("  %-32s %s\n", "source", r.source.c_str());
    std::printf("  %-32s %s\n", "recorded (UTC)",
                r.wallTimestamp.c_str());
    std::printf("  %-32s %s\n", "config", r.configSummary.c_str());

    std::printf("\n[deterministic metrics]\n");
    for (const auto &[key, value] : r.metrics)
        dump(key.c_str(), value);

    std::printf("\n[host profile]\n");
    for (const auto &[key, value] : r.wall)
        dump(key.c_str(), value);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--json] [--shards N] [APP] "
                        "[baseline|transfw|sw|sw-transfw] [PAD]\n"
                        "       %s --ledger FILE\n",
                        argv[0], argv[0]);
            return 0;
        }
    }
    if (!args.empty() && args[0] == "--ledger") {
        if (args.size() < 2) {
            std::fprintf(stderr, "usage: %s --ledger FILE\n", argv[0]);
            return 2;
        }
        return inspectLedger(args[1]);
    }
    bool json = !args.empty() && args[0] == "--json";
    if (json)
        args.erase(args.begin());

    // Shard override so the [shard skew] section is reachable without
    // editing a preset (UvmDriver modes reject shards > 1 downstream).
    int shards = 0;
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == "--shards") {
            shards = std::atoi(args[i + 1].c_str());
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i + 2));
            break;
        }
    }

    std::string app = args.size() > 0 ? args[0] : "MT";
    std::string mode = args.size() > 1 ? args[1] : "baseline";

    cfg::SystemConfig config = sys::modeConfig(mode);
    if (shards > 0)
        config.hostShards = shards;
    // Optional third argument: multiply per-op compute (density knob).
    std::uint32_t pad =
        args.size() > 2
            ? static_cast<std::uint32_t>(std::atoi(args[2].c_str()))
            : 1;
    wl::SyntheticSpec spec = wl::appSpec(app, sys::effectiveScale(0.0));
    spec.computePerOp *= std::max(1u, pad);
    wl::SyntheticWorkload workload_obj(spec);
    const wl::Workload *workload = &workload_obj;

    sys::MultiGpuSystem system(config, *workload);
    sys::SimResults r = system.run();

    if (json) {
        std::printf("%s", system.obs().metrics.toJson().c_str());
        return 0;
    }

    std::printf("== %s (%s) ==\n", app.c_str(), mode.c_str());
    std::printf("%s\n\n", r.configSummary.c_str());

    std::printf("[execution]\n");
    dump("exec time (cycles)", static_cast<std::uint64_t>(r.execTime));
    dump("instructions", r.instructions);
    dump("mem ops", r.memOps);
    dump("page accesses", r.pageAccesses);
    dump("L2 TLB misses", r.l2TlbMisses);
    dump("far faults", r.farFaults);
    dump("PFPKI", r.pfpki());

    std::printf("[latency breakdown, cycles per L2 miss]\n");
    double n = r.l2TlbMisses ? static_cast<double>(r.l2TlbMisses) : 1.0;
    auto field = [&](obs::LatField f) {
        return r.attribution.fieldTotal(f) / n;
    };
    dump("gmmu queue", field(obs::LatField::GmmuQueue));
    dump("gmmu walk mem", field(obs::LatField::GmmuMem));
    dump("host queue", field(obs::LatField::HostQueue));
    dump("host walk mem", field(obs::LatField::HostMem));
    dump("migration (incl. parking)", field(obs::LatField::Migration));
    dump("network", field(obs::LatField::Network));
    dump("other", field(obs::LatField::Other));
    dump("total (avg measured)", r.avgXlatLatency);
    dump("p50", r.xlatLatencyHist.quantile(0.50));
    dump("p90", r.xlatLatencyHist.quantile(0.90));
    dump("p95", r.xlatLatencyHist.quantile(0.95));
    dump("p99", r.xlatLatencyHist.quantile(0.99));
    dump("p99.9", r.xlatLatencyHist.quantile(0.999));

    if (r.attribution.requests) {
        std::printf("[attribution, cycles per finished translation]\n");
        for (std::size_t b = 0; b < obs::kNumAttribBuckets; ++b) {
            double cycles = r.attribution.bucket[b];
            if (cycles == 0)
                continue;
            dump(obs::bucketName(static_cast<obs::AttribBucket>(b)),
                 cycles / static_cast<double>(r.attribution.requests));
        }
        std::printf("[reply races]\n");
        dump("forwards", r.attribution.forwards);
        dump("remote wins", r.attribution.remoteWins);
        dump("host wins", r.attribution.hostWins);
        dump("failed forwards", r.attribution.failedForwards);
        dump("cancelled host walks", r.attribution.cancelledHostWalks);
        dump("duplicate host walks", r.attribution.duplicateHostWalks);
        dump("unresolved races", r.attribution.unresolvedRaces);
        dump("saved cycles (measured)", r.attribution.forwardSavedCycles);
        dump("saved cycles (estimated)",
             r.attribution.forwardSavedEstCycles);
        dump("wasted cycles", r.attribution.forwardWastedCycles);
        dump("short-circuit est saving",
             r.attribution.shortCircuitSavedEstCycles);
        dump("late charges (off-path)", r.attribution.lateCharges);
    }
    std::printf("[observability health]\n");
    dump("watchdog checked requests", r.obsCheckedRequests);
    dump("watchdog violations", r.obsCheckViolations);

#if TRANSFW_OBS
    // Per-link congestion: where on the fabric routed traffic queued.
    {
        std::size_t fabric_edges = 0;
        for (const auto &fl : r.fabricLinks)
            if (fl.fabric)
                ++fabric_edges;
        std::printf("[fabric]\n");
        dump("fabric edges", static_cast<std::uint64_t>(fabric_edges));
        if (!r.fabricWorstLink.empty()) {
            std::printf("  %-32s %s\n", "worst edge (p99 queue wait)",
                        r.fabricWorstLink.c_str());
            dump("worst edge p99 wait", r.fabricWorstQueueWaitP99);
            dump("mean fabric utilization", r.fabricMeanUtilization);
        }
        for (const auto &hd : r.fabricHopDist)
            std::printf("  %2d-hop routes %12llu msgs %12llu bytes "
                        "%10.2f wait/msg\n",
                        hd.hops,
                        static_cast<unsigned long long>(hd.messages),
                        static_cast<unsigned long long>(hd.bytes),
                        hd.waitPerMsg);
        // Busiest edges by moved bytes — the heatmap's top rows.
        std::vector<const sys::SimResults::FabricLinkStats *> busy;
        for (const auto &fl : r.fabricLinks)
            if (fl.fabric && fl.messages)
                busy.push_back(&fl);
        std::stable_sort(busy.begin(), busy.end(),
                         [](const auto *a, const auto *b) {
                             return a->bytes > b->bytes;
                         });
        if (busy.size() > 8)
            busy.resize(8);
        for (const auto *fl : busy)
            std::printf("  %-28s %10llu msgs  wait p99 %8.1f  util "
                        "%5.3f  peakQ %llu\n",
                        fl->name.c_str(),
                        static_cast<unsigned long long>(fl->messages),
                        fl->queueWaitP99, fl->utilization,
                        static_cast<unsigned long long>(
                            fl->peakQueueDepth));
    }

    if (r.hostProfile.stride != 0) {
        std::printf("[host profile, wall seconds]\n");
        for (std::size_t b = 0; b < obs::kNumProfBuckets; ++b) {
            if (r.hostProfile.seconds[b] == 0.0)
                continue;
            dump(obs::profBucketName(static_cast<obs::ProfBucket>(b)),
                 r.hostProfile.seconds[b]);
        }
        dump("total (sampled dispatch)", r.hostProfile.totalSeconds);
        dump("host wall seconds", r.hostWallSeconds);
        dump("events per second", r.hostEventsPerSec);
        dump("peak event backlog", r.peakEventBacklog);
    }
#endif

    std::printf("[TLBs]\n");
    dump("L1 hit rate", r.l1HitRate);
    dump("L2 hit rate", r.l2HitRate);
    dump("host TLB hit rate", r.hostTlbHitRate);

    std::printf("[walk machinery]\n");
    dump("gmmu queue wait mean", r.gmmuQueueWaitMean);
    dump("host queue wait mean", r.hostQueueWaitMean);
    dump("host walks", r.hostWalks);
    dump("host walk mem accesses", r.hostWalkMemAccesses);
    dump("gmmu walk mem accesses", r.gmmuWalkMemAccesses);
    dump("gmmu remote mem accesses", r.gmmuRemoteMemAccesses);

    if (r.driverBatches) {
        std::printf("[uvm driver]\n");
        dump("batches", r.driverBatches);
        dump("avg batch size", r.driverAvgBatchSize);
    }

    if (!r.hostShardWalks.empty()) {
        std::printf("[shard skew]\n");
        dump("shards", static_cast<std::uint64_t>(
                           r.hostShardWalks.size()));
        dump("routed faults", r.hostRoutedFaults);
        dump("wait ratio (worst/mean)", r.shardSkewWaitRatio);
        dump("load share (hottest)", r.shardSkewLoadShareMax);
        dump("load cv", r.shardSkewLoadCv);
        for (std::size_t s = 0; s < r.hostShardWalks.size(); ++s)
            std::printf("  shard %-2zu %12llu walks  wait mean %10.2f  "
                        "peakQ %llu\n",
                        s,
                        static_cast<unsigned long long>(
                            r.hostShardWalks[s]),
                        r.hostShardQueueWaitMean[s],
                        static_cast<unsigned long long>(
                            r.hostShardMaxQueueDepth[s]));
#if TRANSFW_OBS
        for (const auto &hg : r.hotVpnGroups)
            std::printf("  hot group %#14llx -> shard %-2d %10llu "
                        "lookups (err %llu, %5.1f%%)\n",
                        static_cast<unsigned long long>(hg.group),
                        hg.shard,
                        static_cast<unsigned long long>(hg.count),
                        static_cast<unsigned long long>(hg.error),
                        100.0 * hg.share);
#endif
    }

    std::printf("[page movement]\n");
    dump("migrations", r.migrations);
    dump("replications", r.replications);
    dump("write invalidations", r.writeInvalidations);
    dump("remote mappings", r.remoteMappings);
    dump("counter migrations", r.counterMigrations);
    dump("bytes moved", r.bytesMoved);

    if (config.transFw.enabled) {
        std::printf("[trans-fw]\n");
        dump("short circuits", r.shortCircuits);
        dump("prt lookups", r.prtLookups);
        dump("prt hits", r.prtHits);
        dump("ft lookups", r.ftLookups);
        dump("ft hits", r.ftHits);
        dump("forwards", r.forwards);
        dump("forward success", r.forwardSuccess);
        dump("forward fail", r.forwardFail);
        dump("duplicate walks", r.duplicateWalks);
        dump("removed from queue", r.removedFromQueue);
#if TRANSFW_OBS
        if (!r.hotVpnGroups.empty()) {
            double top8 = 0;
            for (const auto &hg : r.hotVpnGroups)
                top8 += hg.share;
            dump("hot-group top-8 share", top8 > 1.0 ? 1.0 : top8);
        }
#endif
    }

    std::printf("[pw-cache hit levels, %% of lookups]\n");
    for (std::size_t level = 0; level <= 5; ++level) {
        std::printf("  gmmu L%zu %6.2f%%   host L%zu %6.2f%%\n", level,
                    100.0 * r.gmmuPwcLevels.fraction(level), level,
                    100.0 * r.hostPwcLevels.fraction(level));
    }
    return 0;
}

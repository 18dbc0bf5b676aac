/**
 * transfw: the simulator's command line, one subcommand per front end
 * (run, sweep, explore, inspect, explain, trace, diff). Every one that
 * simulates parses the same config and workload flags
 * (cfg::configFlags), so each reaches every machine the library
 * accepts. `transfw SUBCOMMAND --help` lists the flags; a bad flag or
 * value exits 1 naming it, an unknown subcommand exits 2.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "config/flags.hpp"
#include "obs/ledger.hpp"
#include "system/report.hpp"
#include "transfw/transfw.hpp"
#include "workload/trace.hpp"

using namespace transfw;

namespace {

using Args = std::vector<std::string>;
using Value = const cfg::FlagValue &;
using ull = unsigned long long;

/** What the config and workload flags build. */
struct Setup
{
    cfg::SystemConfig config = sys::baselineConfig();
    cfg::WorkloadFlags workload;
};

/**
 * Parse @p args against the subcommand's own @p flags, the config and
 * workload flags when @p setup is given, and --help (the generated
 * usage, exit 0). Returns the @p positionals positional arguments.
 */
Args
parse(const char *sub, const char *synopsis, std::vector<cfg::Flag> flags,
      const Args &args, Setup *setup, std::size_t positionals = 0)
{
    if (setup) {
        std::vector<cfg::Flag> common =
            cfg::configFlags(setup->config, setup->workload);
        flags.insert(flags.end(), common.begin(), common.end());
    }
    flags.push_back({"--help", cfg::Arg::None, "", "print this usage",
                     [&](Value) {
                         std::printf("usage: transfw %s %s\n%s", sub,
                                     synopsis, cfg::flagUsage(flags).c_str());
                         std::exit(0);
                     }});
    Args rest = cfg::parseFlags(args, flags);
    if (rest.size() > positionals)
        sim::fatal(sim::strfmt("transfw %s: unexpected argument '%s' (see "
                               "--help)", sub, rest[positionals].c_str()));
    if (rest.size() < positionals)
        sim::fatal(sim::strfmt("transfw %s takes %zu file arguments", sub,
                               positionals));
    return rest;
}

std::unique_ptr<wl::Workload>
makeWorkload(const cfg::WorkloadFlags &w)
{
    double scale = sys::effectiveScale(w.scale); // fatal when bad, always
    if (!w.trace.empty())
        return std::make_unique<wl::TraceWorkload>(w.trace);
    if (!w.model.empty())
        return wl::makeMlModel(w.model);
    return wl::makeApp(w.app, scale);
}

/** --ledger PATH into @p path, which defaults to $TRANSFW_LEDGER. */
cfg::Flag
ledgerFlag(std::string &path)
{
    path = obs::RunLedger::envPath();
    return cfg::fieldFlag("--ledger", "PATH",
                          "append transfw-ledger-v1 records (default "
                          "$TRANSFW_LEDGER)",
                          path);
}

void
appendLedger(const std::string &path, const sys::SimResults &r,
             const cfg::SystemConfig &config, const Setup &s,
             const char *source)
{
    if (!path.empty())
        obs::RunLedger::append(
            path, sys::toLedgerRecord(r, config,
                                      sys::effectiveScale(s.workload.scale),
                                      source));
}

// ---------------------------------------------------------------- run

int
runCmd(const Args &args)
{
    Setup s;
    bool report = false, csv = false;
    std::string ledger;
    parse("run", "[flags]  (simulate one workload)",
          {cfg::fieldFlag("--report", "", "full named-scalar report",
                          report),
           cfg::fieldFlag("--csv", "", "one CSV row (+ header)", csv),
           ledgerFlag(ledger)},
          args, &s);
    sys::SimResults r =
        sys::runWorkload(*makeWorkload(s.workload), s.config);
    appendLedger(ledger, r, s.config, s, "run");
    if (csv) {
        std::printf("%s\n%s\n", sys::csvHeader().c_str(),
                    sys::csvRow(r).c_str());
    } else if (report) {
        std::printf("%s", sys::formatReport(r).c_str());
    } else {
        std::printf("%s on %s\n", r.app.c_str(), r.configSummary.c_str());
        std::printf("exec %llu cycles, %llu faults (PFPKI %.3f), "
                    "avg L2-miss latency %.1f\n",
                    ull(r.execTime), ull(r.farFaults), r.pfpki(),
                    r.avgXlatLatency);
    }
    return 0;
}

// -------------------------------------------------------------- sweep

/** A sweep axis: its points, each set through one config flag. */
struct Dimension
{
    const char *name;
    const char *flag;
    std::vector<std::pair<double, const char *>> points; ///< CSV, token
};

const std::vector<Dimension> kDimensions = {
    {"gpus", "--gpus", {{2, "2"}, {4, "4"}, {8, "8"}, {16, "16"}}},
    {"cus", "--cus", {{16, "16"}, {32, "32"}, {64, "64"}}},
    {"walkers", "--walkers", {{4, "4,8"}, {8, "8,16"}, {16, "16,32"},
                              {32, "32,64"}}},
    {"threshold", "--threshold", {{0, "0"}, {0.5, "0.5"}, {1, "1"},
                                  {2, "2"}}},
    {"pwc", "--pwc-entries", {{64, "64"}, {128, "128"}, {256, "256"},
                              {512, "512"}}},
    {"peerlat", "--peer-latency", {{100, "100"}, {200, "200"},
                                   {400, "400"}, {800, "800"}}},
    {"slots", "--slots", {{2, "2"}, {4, "4"}, {6, "6"}, {8, "8"}}},
    {"shards", "--shards", {{1, "1"}, {2, "2"}, {4, "4"}, {8, "8"}}},
    {"topology", "--topology", {{0, "a2a"}, {1, "ring"}, {2, "mesh"},
                                {3, "switch"}}},
};

/**
 * The pod-scaling study: one Trans-FW run per (topology, GPU count,
 * shard count) point at scale 0.05; the columns show the host PW-queue
 * wait the sharding removes and how forwarding holds up as hops stretch
 * the fabric. The heatmap gets one row per (point, link with traffic).
 */
int
podStudy(const Setup &s, sys::SweepRunner &runner,
         const std::string &heatmap_path)
{
    std::vector<sys::RunSpec> specs;
    double scale = s.workload.scale > 0 ? s.workload.scale : 0.05;
    for (int topo = 0; topo < 4; ++topo) {
        for (int gpus : {8, 16, 32, 64}) {
            for (int shards : {1, 2, 4, 8}) {
                cfg::SystemConfig config = s.config;
                config.transFw.enabled = true;
                config.numGpus = gpus;
                config.cusPerGpu = 4;
                config.peerTopology = static_cast<ic::Topology>(topo);
                config.hostShards = shards;
                specs.push_back({s.workload.app, config, scale});
            }
        }
    }
    std::vector<sys::SimResults> results = runner.run(specs);

    std::FILE *heat = nullptr;
    if (!heatmap_path.empty()) {
        heat = std::fopen(heatmap_path.c_str(), "w");
        if (!heat)
            sim::fatal("cannot open heatmap file: " + heatmap_path);
        std::fprintf(heat, "topology,gpus,shards,link,fabric,bytes,"
                           "messages,ctrlMessages,queueWaitMean,"
                           "queueWaitP99,peakQueueDepth,utilization\n");
    }
    std::printf("topology,gpus,shards,exec.cycles,xlat.avgLatency,xlat.p99,"
                "fault.count,walk.host,transfw.forwards,"
                "transfw.forwardSuccess,queue.hostWaitMean,"
                "shard.maxQueueWaitMean,shard.routedFaults,attrib.hostQueue,"
                "attrib.hostRoute,fabric.worstLinkP99,fabric.meanUtilization,"
                "shard.skew.waitRatio,shard.skew.loadShareMax,"
                "obs.checkViolations\n");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const cfg::SystemConfig &c = specs[i].config;
        const sys::SimResults &r = results[i];
        const char *name = ic::topologyName(c.peerTopology);
        double worst_wait = r.hostQueueWaitMean;
        for (double w : r.hostShardQueueWaitMean)
            worst_wait = std::max(worst_wait, w);
        const auto &attr = r.attribution.bucket;
        std::printf(
            "%s,%d,%d,%llu,%.1f,%.1f,%llu,%llu,%llu,%llu,%.2f,%.2f,%llu,"
            "%.0f,%.0f,%.1f,%.4f,%.3f,%.3f,%llu\n",
            name, c.numGpus, c.hostShards, ull(r.execTime),
            r.avgXlatLatency, r.xlatLatencyHist.quantile(0.99),
            ull(r.farFaults), ull(r.hostWalks), ull(r.forwards),
            ull(r.forwardSuccess), r.hostQueueWaitMean, worst_wait,
            ull(r.hostRoutedFaults),
            attr[static_cast<std::size_t>(obs::AttribBucket::HostQueue)],
            attr[static_cast<std::size_t>(obs::AttribBucket::HostRoute)],
            r.fabricWorstQueueWaitP99, r.fabricMeanUtilization,
            r.shardSkewWaitRatio, r.shardSkewLoadShareMax,
            ull(r.obsCheckViolations));
        std::fflush(stdout);
        for (const auto &fl : r.fabricLinks)
            if (heat && fl.messages)
                std::fprintf(
                    heat, "%s,%d,%d,%s,%d,%llu,%llu,%llu,%.2f,%.1f,%llu,"
                          "%.4f\n",
                    name, c.numGpus, c.hostShards, fl.name.c_str(),
                    fl.fabric ? 1 : 0, ull(fl.bytes), ull(fl.messages),
                    ull(fl.ctrlMessages), fl.queueWaitMean, fl.queueWaitP99,
                    ull(fl.peakQueueDepth), fl.utilization);
    }
    if (heat)
        std::fclose(heat);
    return 0;
}

int
sweepCmd(const Args &args)
{
    Setup s;
    std::vector<const Dimension *> dims;
    std::string names, heatmap, ledger;
    for (const Dimension &d : kDimensions)
        names += (names.empty() ? "" : "|") + std::string(d.name);
    int jobs = 0;
    bool pod_study = false;
    parse("sweep",
          "[flags]  (baseline and Trans-FW per point, one CSV row each; "
          "the config flags set the base)",
          {{"--dim", cfg::Arg::Choice, names,
            "sweep this dimension (at most two; default walkers)",
            [&](Value v) { dims.push_back(&kDimensions[v.choice]); }},
           cfg::fieldFlag("--pod-study", "",
                          "run the pod grid instead: 4 fabrics x "
                          "8-64 GPUs x 1-8 shards",
                          pod_study),
           cfg::fieldFlag("--heatmap", "PATH",
                          "--pod-study: per-link CSV to PATH", heatmap),
           cfg::fieldFlag("-j", "N",
                          "worker threads (default TRANSFW_JOBS or all "
                          "hardware threads); same rows as serial",
                          jobs),
           ledgerFlag(ledger)},
          args, &s);
    if (!s.workload.model.empty() || !s.workload.trace.empty())
        sim::fatal("transfw sweep runs Table III apps (--app) only");
    if (jobs < 0)
        sim::fatal("-j expects a positive count");
    sys::SweepRunner runner(jobs);
    runner.setLedgerPath(ledger);
    if (pod_study)
        return podStudy(s, runner, heatmap);
    if (dims.empty())
        dims.push_back(&kDimensions[2]); // walkers
    if (dims.size() > 2)
        sim::fatal("at most two sweep dimensions");
    const Dimension none{"", nullptr, {{0, ""}}};
    if (dims.size() == 1)
        dims.push_back(&none);

    // Each point's values go through the table entries of their flags.
    cfg::SystemConfig point;
    cfg::WorkloadFlags unused;
    std::vector<cfg::Flag> table = cfg::configFlags(point, unused);
    std::vector<sys::RunSpec> specs;
    std::vector<std::pair<double, double>> labels;
    for (const auto &p0 : dims[0]->points) {
        for (const auto &p1 : dims[1]->points) {
            labels.emplace_back(p0.first, p1.first);
            point = s.config;
            for (auto [dim, token] : {std::pair(dims[0], p0.second),
                                      std::pair(dims[1], p1.second)})
                if (dim->flag)
                    cfg::applyFlag(cfg::findFlag(table, dim->flag), token);
            cfg::SystemConfig fw = point;
            fw.transFw.enabled = true;
            specs.push_back({s.workload.app, point, s.workload.scale});
            specs.push_back({s.workload.app, fw, s.workload.scale});
        }
    }
    std::vector<sys::SimResults> results = runner.run(specs);
    std::fprintf(stderr, "sweep: %llu points executed on %llu job(s)\n",
                 ull(runner.stats().executed),
                 ull(runner.stats().effectiveJobs));

    std::printf("%s,%s,speedup,%s\n", dims[0]->name, dims[1]->name,
                sys::csvHeader().c_str());
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const sys::SimResults &trans = results[2 * i + 1];
        std::printf("%g,%g,%.4f,%s\n", labels[i].first, labels[i].second,
                    sys::speedup(results[2 * i], trans),
                    sys::csvRow(trans).c_str());
        std::fflush(stdout);
    }
    return 0;
}

// ------------------------------------------------------------ explore

int
exploreCmd(const Args &args)
{
    Setup s;
    s.workload.app = "KM";
    std::string ledger;
    parse("explore",
          "[flags]  (every placement policy of Sections V-D/V-E with "
          "and without Trans-FW; default --app KM)",
          {ledgerFlag(ledger)}, args, &s);
    auto workload = makeWorkload(s.workload);
    std::printf("placement policy exploration: %s\n\n",
                workload->name().c_str());
    std::printf("%-12s %-9s %12s %10s %10s %12s\n", "policy", "trans-fw",
                "exec", "faults", "pfpki", "bytesMoved");
    const char *kPolicies[] = {"on-touch", "replicate", "remote-map"};
    for (int policy = 0; policy < 3; ++policy) {
        for (bool transfw : {false, true}) {
            cfg::SystemConfig config = s.config;
            config.migrationPolicy = cfg::MigrationPolicy(policy);
            config.transFw.enabled = transfw;
            sys::SimResults r = sys::runWorkload(*workload, config);
            appendLedger(ledger, r, config, s, "explore");
            std::printf("%-12s %-9s %12llu %10llu %10.3f %12llu\n",
                        kPolicies[policy], transfw ? "yes" : "no",
                        ull(r.execTime), ull(r.farFaults), r.pfpki(),
                        ull(r.bytesMoved));
        }
    }
    std::printf("\nNotes: replication helps read-shared data but not write-"
                "shared pages;\nremote mapping trades migration traffic for "
                "slower remote accesses;\nTrans-FW composes with all three.\n");
    return 0;
}

// ------------------------------------------------------------ inspect

/** One "  name  value" line: a count, or a value to 3 decimals. */
struct Row
{
    Row(const char *n, double v) : name(n), value(v) {}
    Row(const char *n, std::uint64_t v) : name(n), count(v), isCount(true) {}
    const char *name;
    double value = 0;
    std::uint64_t count = 0;
    bool isCount = false;
};

/** "[title]" (unless null), then one line per row. */
void
section(const char *title, std::initializer_list<Row> rows)
{
    if (title)
        std::printf("[%s]\n", title);
    for (const Row &row : rows) {
        if (row.isCount)
            std::printf("  %-32s %14llu\n", row.name, ull(row.count));
        else
            std::printf("  %-32s %14.3f\n", row.name, row.value);
    }
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
    std::printf("  %-32s %s\n  %-32s %.17g\n  %-32s %s\n  %-32s %s\n"
                "  %-32s %s\n",
                "app", r.app.c_str(), "scale", r.scale, "source",
                r.source.c_str(), "recorded (UTC)", r.wallTimestamp.c_str(),
                "config", r.configSummary.c_str());
    for (const auto *half : {&r.metrics, &r.wall}) {
        std::printf(half == &r.metrics ? "\n[deterministic metrics]\n"
                                       : "\n[host profile]\n");
        for (const auto &[key, value] : *half)
            section(nullptr, {{key.c_str(), value}});
    }
    return 0;
}

int
inspectCmd(const Args &args)
{
    Setup s;
    bool json = false;
    std::string ledger;
    parse("inspect", "[flags]  (every counter of one run)",
          {cfg::fieldFlag("--json", "", "dump the metrics registry as JSON",
                          json),
           cfg::fieldFlag("--ledger", "FILE",
                          "print FILE's newest ledger record instead",
                          ledger)},
          args, &s);
    if (!ledger.empty())
        return inspectLedger(ledger);
    auto workload = makeWorkload(s.workload);
    sys::MultiGpuSystem system(s.config, *workload);
    sys::SimResults r = system.run();
    if (json) {
        std::printf("%s", system.obs().metrics.toJson().c_str());
        return 0;
    }

    std::printf("== %s ==\n%s\n\n", r.app.c_str(), r.configSummary.c_str());
    section("execution",
            {{"exec time (cycles)", r.execTime},
             {"instructions", r.instructions}, {"mem ops", r.memOps},
             {"page accesses", r.pageAccesses},
             {"L2 TLB misses", r.l2TlbMisses}, {"far faults", r.farFaults},
             {"PFPKI", r.pfpki()}});
    const auto &a = r.attribution;
    double n = r.l2TlbMisses ? static_cast<double>(r.l2TlbMisses) : 1.0;
    const char *kFields[] = {// in obs::LatField order
        "gmmu queue", "gmmu walk mem", "host queue", "host walk mem",
        "migration (incl. parking)", "network", "other"};
    std::printf("[latency breakdown, cycles per L2 miss]\n");
    for (int f = 0; f < 7; ++f)
        section(nullptr, {{kFields[f], a.fieldTotal(obs::LatField(f)) / n}});
    section(nullptr, {{"total (avg measured)", r.avgXlatLatency}});
    for (double q : {0.50, 0.90, 0.95, 0.99, 0.999})
        section(nullptr, {{sim::strfmt("p%g", 100 * q).c_str(),
                           r.xlatLatencyHist.quantile(q)}});
    if (a.requests) {
        std::printf("[attribution, cycles per finished translation]\n");
        for (std::size_t b = 0; b < obs::kNumAttribBuckets; ++b)
            if (a.bucket[b] != 0)
                section(nullptr,
                        {{obs::bucketName(static_cast<obs::AttribBucket>(b)),
                          a.bucket[b] / static_cast<double>(a.requests)}});
        section("reply races",
                {{"forwards", a.forwards}, {"remote wins", a.remoteWins},
                 {"host wins", a.hostWins},
                 {"failed forwards", a.failedForwards},
                 {"cancelled host walks", a.cancelledHostWalks},
                 {"duplicate host walks", a.duplicateHostWalks},
                 {"unresolved races", a.unresolvedRaces},
                 {"saved cycles (measured)", a.forwardSavedCycles},
                 {"saved cycles (estimated)", a.forwardSavedEstCycles},
                 {"wasted cycles", a.forwardWastedCycles},
                 {"short-circuit est saving", a.shortCircuitSavedEstCycles},
                 {"late charges (off-path)", a.lateCharges}});
    }
    section("observability health",
            {{"watchdog checked requests", r.obsCheckedRequests},
             {"watchdog violations", r.obsCheckViolations}});

    // Per-link congestion: where on the fabric routed traffic queued.
    std::vector<const sys::SimResults::FabricLinkStats *> busy;
    std::uint64_t edges = 0;
    for (const auto &fl : r.fabricLinks) {
        edges += fl.fabric;
        if (fl.fabric && fl.messages)
            busy.push_back(&fl);
    }
    section("fabric", {{"fabric edges", edges}});
    if (!r.fabricWorstLink.empty()) {
        std::printf("  %-32s %s\n", "worst edge (p99 queue wait)",
                    r.fabricWorstLink.c_str());
        section(nullptr,
                {{"worst edge p99 wait", r.fabricWorstQueueWaitP99},
                 {"mean fabric utilization", r.fabricMeanUtilization}});
    }
    for (const auto &hd : r.fabricHopDist)
        std::printf("  %2d-hop routes %12llu msgs %12llu bytes "
                    "%10.2f wait/msg\n",
                    hd.hops, ull(hd.messages), ull(hd.bytes), hd.waitPerMsg);
    // The busiest edges by moved bytes: the heatmap's top rows.
    std::stable_sort(busy.begin(), busy.end(), [](auto *x, auto *y) {
        return x->bytes > y->bytes;
    });
    busy.resize(std::min<std::size_t>(busy.size(), 8));
    for (const auto *fl : busy)
        std::printf("  %-28s %10llu msgs  wait p99 %8.1f  util "
                    "%5.3f  peakQ %llu\n",
                    fl->name.c_str(), ull(fl->messages), fl->queueWaitP99,
                    fl->utilization, ull(fl->peakQueueDepth));
    if (r.hostProfile.stride != 0) {
        std::printf("[host profile, wall seconds]\n");
        for (std::size_t b = 0; b < obs::kNumProfBuckets; ++b)
            if (r.hostProfile.seconds[b] != 0.0)
                section(nullptr, {{obs::profBucketName(
                                       static_cast<obs::ProfBucket>(b)),
                                   r.hostProfile.seconds[b]}});
        section(nullptr,
                {{"total (sampled dispatch)", r.hostProfile.totalSeconds},
                 {"host wall seconds", r.hostWallSeconds},
                 {"events per second", r.hostEventsPerSec},
                 {"peak event backlog", r.peakEventBacklog}});
    }

    section("TLBs", {{"L1 hit rate", r.l1HitRate}, {"L2 hit rate", r.l2HitRate},
                     {"host TLB hit rate", r.hostTlbHitRate}});
    section("walk machinery",
            {{"gmmu queue wait mean", r.gmmuQueueWaitMean},
             {"host queue wait mean", r.hostQueueWaitMean},
             {"host walks", r.hostWalks},
             {"host walk mem accesses", r.hostWalkMemAccesses},
             {"gmmu walk mem accesses", r.gmmuWalkMemAccesses},
             {"gmmu remote mem accesses", r.gmmuRemoteMemAccesses}});
    if (r.driverBatches)
        section("uvm driver", {{"batches", r.driverBatches},
                               {"avg batch size", r.driverAvgBatchSize}});
    if (!r.hostShardWalks.empty()) {
        section("shard skew",
                {{"shards", std::uint64_t(r.hostShardWalks.size())},
                 {"routed faults", r.hostRoutedFaults},
                 {"wait ratio (worst/mean)", r.shardSkewWaitRatio},
                 {"load share (hottest)", r.shardSkewLoadShareMax},
                 {"load cv", r.shardSkewLoadCv}});
        for (std::size_t i = 0; i < r.hostShardWalks.size(); ++i)
            std::printf("  shard %-2zu %12llu walks  wait mean %10.2f  "
                        "peakQ %llu\n",
                        i, ull(r.hostShardWalks[i]),
                        r.hostShardQueueWaitMean[i],
                        ull(r.hostShardMaxQueueDepth[i]));
        for (const auto &hg : r.hotVpnGroups)
            std::printf("  hot group %#14llx -> shard %-2d %10llu "
                        "lookups (err %llu, %5.1f%%)\n",
                        ull(hg.group), hg.shard, ull(hg.count),
                        ull(hg.error), 100.0 * hg.share);
    }
    section("page movement",
            {{"migrations", r.migrations}, {"replications", r.replications},
             {"write invalidations", r.writeInvalidations},
             {"remote mappings", r.remoteMappings},
             {"counter migrations", r.counterMigrations},
             {"bytes moved", r.bytesMoved}});
    if (s.config.transFw.enabled) {
        section("trans-fw",
                {{"short circuits", r.shortCircuits},
                 {"prt lookups", r.prtLookups}, {"prt hits", r.prtHits},
                 {"ft lookups", r.ftLookups}, {"ft hits", r.ftHits},
                 {"forwards", r.forwards},
                 {"forward success", r.forwardSuccess},
                 {"forward fail", r.forwardFail},
                 {"duplicate walks", r.duplicateWalks},
                 {"removed from queue", r.removedFromQueue}});
        double top8 = 0;
        for (const auto &hg : r.hotVpnGroups)
            top8 += hg.share;
        if (!r.hotVpnGroups.empty())
            section(nullptr, {{"hot-group top-8 share", std::min(top8, 1.0)}});
    }

    std::printf("[pw-cache hit levels, %% of lookups]\n");
    for (std::size_t level = 0; level <= 5; ++level)
        std::printf("  gmmu L%zu %6.2f%%   host L%zu %6.2f%%\n", level,
                    100.0 * r.gmmuPwcLevels.fraction(level), level,
                    100.0 * r.hostPwcLevels.fraction(level));
    return 0;
}

// ------------------------------------------------------------ explain

/** Human name of an attribution-hop node id (see obs::AttribHop). */
std::string
nodeName(int node, int num_gpus)
{
    return node < 0          ? "host"
           : node < num_gpus ? sim::strfmt("gpu%d", node)
                             : sim::strfmt("sw%d", node - num_gpus);
}

int
explainCmd(const Args &args)
{
    Setup s;
    int gpu = -1, id = 0;
    bool chosen = false;
    parse("explain",
          "[flags]  (one translation's buckets, route and timeline; "
          "default: the run's slowest)",
          {{"--request", cfg::Arg::IntPair, "GPU:ID",
            "the translation to explain", [&](Value v) {
                gpu = v.ints[0];
                id = v.ints[1];
                chosen = true;
            }}},
          args, &s);
    auto workload = makeWorkload(s.workload);
    sys::MultiGpuSystem system(s.config, *workload);
    // Armed before the run: only requests begun afterwards get one.
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();
    if (!chosen)
        std::tie(gpu, id) = system.obs().attribution.slowestRequest();
    if (gpu < 0)
        sim::fatal(chosen ? "no such request"
                          : "no finished translations recorded");
    const obs::Timeline *tl = system.obs().attribution.timeline(gpu, id);
    if (!tl)
        sim::fatal(sim::strfmt("request gpu%d:%d unknown", gpu, id));

    const auto bucket = tl->buckets();
    const double total = std::accumulate(bucket.begin(), bucket.end(), 0.0);
    std::printf("== %s: translation gpu%d:%d ==\n", r.app.c_str(), gpu, id);
    std::printf("vpn 0x%llx  issued @%llu  finished @%llu  wall %llu  "
                "charged %.0f cycles\n\n",
                ull(tl->vpn), ull(tl->tIssue), ull(tl->tFinish),
                ull(tl->tFinish - tl->tIssue), total);
    std::printf("[buckets]\n");
    for (std::size_t b = 0; b < obs::kNumAttribBuckets; ++b)
        if (bucket[b] != 0)
            std::printf("  %-16s %10.0f  (%5.1f%%)\n",
                        obs::bucketName(static_cast<obs::AttribBucket>(b)),
                        bucket[b], total ? 100.0 * bucket[b] / total : 0.0);

    // The route this request's messages took, edge by edge: it turns
    // "Network: N cycles" into "N cycles, and here is the congested edge".
    using Kind = obs::AttribEvent::Kind;
    if (std::any_of(tl->events.begin(), tl->events.end(), [](auto &ev) {
            return ev.kind == Kind::NetworkHop;
        }))
        std::printf("\n[route]\n");
    for (const obs::AttribEvent &ev : tl->events)
        if (ev.kind == Kind::NetworkHop)
            std::printf("  @%-10llu %-6s -> %-6s %-10s wait %7.0f  "
                        "ser %5.0f  prop %6.0f\n",
                        ull(ev.tick),
                        nodeName(ev.hopFrom, s.config.numGpus).c_str(),
                        nodeName(ev.hopTo, s.config.numGpus).c_str(),
                        obs::bucketName(ev.bucket), double(ev.hopWait),
                        double(ev.hopSer), double(ev.hopProp));

    const char *kKinds[] = {// in obs::AttribEvent::Kind order
        "charge", "prt short-circuit", "forward launched", "forward failed",
        "remote reply won", "host walk won", "host walk cancelled",
        "duplicate host walk", "finish", "network hop"};
    std::printf("\n[timeline]\n");
    for (const obs::AttribEvent &ev : tl->events) {
        if (ev.kind == Kind::Charge)
            std::printf("  @%-10llu charge %-16s %10.0f\n", ull(ev.tick),
                        obs::bucketName(ev.bucket), ev.cycles);
        else
            std::printf("  @%-10llu %-23s %10.0f\n", ull(ev.tick),
                        kKinds[static_cast<int>(ev.kind)], ev.cycles);
    }
    std::printf("\nrun context: %llu translations, %llu forwards "
                "(%llu remote wins), %llu short circuits, "
                "%llu watchdog violations\n",
                ull(r.attribution.requests), ull(r.attribution.forwards),
                ull(r.attribution.remoteWins),
                ull(r.attribution.shortCircuits),
                ull(r.obsCheckViolations));
    return 0;
}

// -------------------------------------------------------------- trace

int
traceCmd(const Args &args)
{
    Setup s;
    s.config.obs.sampleInterval = 5000;
    std::string out = ".";
    parse("trace",
          "[flags]  (trace.json for ui.perfetto.dev, drawn from every "
          "request's attribution timeline; metrics.json; time series)",
          {cfg::fieldFlag("--out", "DIR", "output directory (default .)",
                          out),
           cfg::fieldFlag("--sample-interval", "N",
                          "time-series period in ticks (default 5000)",
                          s.config.obs.sampleInterval)},
          args, &s);
    // Opened before the run, so a bad --out costs no simulation.
    const char *kFiles[] = {"trace.json", "metrics.json", "timeseries.csv",
                            "timeseries.json"};
    std::ofstream os[4];
    for (int i = 0; i < 4; ++i) {
        os[i].open(out + "/" + kFiles[i]);
        if (!os[i])
            sim::fatal("cannot open " + out + "/" + kFiles[i]);
    }

    auto workload = makeWorkload(s.workload);
    sys::MultiGpuSystem system(s.config, *workload);
    // Armed before the run: only requests begun afterwards get one.
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();

    obs::Observability &obs = system.obs();
    std::printf("== %s: %llu cycles, %zu request timelines "
                "(%llu dropped at the cap), %zu samples ==\n",
                r.app.c_str(), ull(r.execTime),
                obs.attribution.timelines().size(),
                ull(obs.attribution.droppedTimelines()), obs.sampler.rows());
    obs::writeChromeTrace(os[0], obs.attribution, &obs.sampler);
    obs.metrics.writeJson(os[1]);
    obs.sampler.writeCsv(os[2]);
    obs.sampler.writeJson(os[3]);
    for (int i = 0; i < 4; ++i) {
        os[i].close();
        if (!os[i])
            sim::fatal("cannot write " + out + "/" + kFiles[i]);
        std::printf("wrote %s/%s\n", out.c_str(), kFiles[i]);
    }
    std::printf("open trace.json at https://ui.perfetto.dev\n");
    return 0;
}

// --------------------------------------------------------------- diff

int
diffCmd(const Args &args)
{
    bool json = false;
    obs::LedgerDiffOptions opts;
    Args paths = parse(
        "diff",
        "[flags] A.jsonl B.jsonl  (records pair on app, scale and config "
        "key; deterministic metrics must match, wall fields only warn; "
        "exit 0 clean, 1 drift, 2 no usable records)",
        {cfg::fieldFlag("--json", "", "machine-readable report", json),
         cfg::fieldFlag("--wall-tol", "F",
                        "relative tolerance of wall fields (default 0.5)",
                        opts.wallRelTol),
         {"--by-index", cfg::Arg::None, "",
          "pair records line by line instead of by key",
          [&](Value) { opts.matchOnKey = false; }}},
        args, nullptr, 2);

    std::vector<obs::LedgerRecord> ledgers[2];
    std::vector<std::string> errors[2];
    for (int i = 0; i < 2; ++i) {
        ledgers[i] = obs::RunLedger::load(paths[i], &errors[i]);
        for (const std::string &e : errors[i])
            std::fprintf(stderr, "warn: %s: %s\n", paths[i].c_str(),
                         e.c_str());
    }
    for (int i = 0; i < 2; ++i) {
        if (ledgers[i].empty()) {
            std::fprintf(stderr, "transfw diff: no usable records in %s\n",
                         paths[i].c_str());
            return 2;
        }
    }
    obs::LedgerDiff diff = obs::diffLedgers(ledgers[0], ledgers[1], opts);
    std::printf("%s", (json ? diff.toJson() : diff.toMarkdown()).c_str());
    return diff.clean() ? 0 : 1;
}

struct Subcommand
{
    const char *name;
    int (*run)(const Args &);
    const char *what;
};

const Subcommand kSubcommands[] = {
    {"run", runCmd, "simulate one workload: summary, report or CSV row"},
    {"sweep", sweepCmd, "sweep one or two dimensions, or the pod grid"},
    {"explore", exploreCmd, "every placement policy, +/- Trans-FW"},
    {"inspect", inspectCmd, "every counter of one run, or a ledger record"},
    {"explain", explainCmd, "one translation's charges, route, timeline"},
    {"trace", traceCmd, "Perfetto trace, metrics and time series"},
    {"diff", diffCmd, "compare two run ledgers"},
};

} // namespace

int
main(int argc, char **argv)
{
    std::string sub = argc > 1 ? argv[1] : "";
    for (const Subcommand &c : kSubcommands)
        if (sub == c.name)
            return c.run(Args(argv + 2, argv + argc));
    bool help = sub == "--help";
    std::FILE *os = help ? stdout : stderr;
    if (!help && !sub.empty())
        std::fprintf(os, "transfw: unknown subcommand '%s'\n", sub.c_str());
    std::fprintf(os, "usage: transfw SUBCOMMAND [flags]  "
                     "(transfw SUBCOMMAND --help lists the flags)\n");
    for (const Subcommand &c : kSubcommands)
        std::fprintf(os, "  %-8s %s\n", c.name, c.what);
    return help ? 0 : 2;
}

// Host-time benchmark driver: runs one named workload's simulation
// points back to back on one thread, times them from outside, and checks
// that every pass reproduces the same simulated results. Prints one JSON
// document on stdout; run.py turns it into the benchmark's result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// --trace 0 measures the end-to-end metrics: a cold first pass, then
// warm passes until S seconds have elapsed. --trace 1
// measures per-layer metrics: replays of the workload's access stream
// through each layer, then alternating untraced and traced passes, with
// spans around each call into the simulator written to PATH at exit.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "replay.hpp"
#include "system/experiment.hpp"
#include "system/report.hpp"
#include "system/system.hpp"
#include "workload/apps.hpp"

using namespace transfw;
using perfbench::Clock;
using perfbench::secondsSince;
using perfbench::SpanLog;

namespace {

struct Point
{
    std::string app;
    std::string mode;
    double scale = 1.0;
    cfg::SystemConfig config;

    std::string id() const { return app + "/" + mode; }
};

/** The workload's points; empty for an unknown name. */
std::vector<Point>
makePoints(const std::string &workload, std::uint64_t seed)
{
    std::vector<Point> points;
    if (workload == "paper_suite") {
        // Fig. 11: every Table III app on the Table II machine.
        for (const wl::AppInfo &info : wl::appTable()) {
            points.push_back({info.abbr, "baseline", 1.0,
                              sys::baselineConfig()});
            points.push_back({info.abbr, "transfw", 1.0,
                              sys::transFwConfig()});
        }
    } else if (workload == "pod64") {
        const std::pair<ic::Topology, const char *> fabrics[] = {
            {ic::Topology::Ring, "ring"}, {ic::Topology::Mesh2D, "mesh"}};
        for (const auto &[topology, name] : fabrics) {
            cfg::SystemConfig config = sys::transFwConfig();
            config.numGpus = 64;
            config.cusPerGpu = 4;
            config.hostShards = 4; // FT partitioned across the shards
            config.peerTopology = topology;
            points.push_back({"MT", name, 1.0, config});
        }
    } else if (workload == "uvm_replicate") {
        for (const char *app : {"KM", "PR", "ST"}) {
            cfg::SystemConfig config = sys::transFwConfig();
            config.faultMode = cfg::FaultMode::UvmDriver;
            config.migrationPolicy = cfg::MigrationPolicy::ReadReplicate;
            points.push_back({app, "uvm-replicate", 2.0, config});
        }
    }
    for (Point &p : points)
        p.config.seed = seed;
    return points;
}

/** The deterministic results one point must reproduce exactly. */
struct Signature
{
    std::uint64_t cycles = 0, events = 0, l2Misses = 0, farFaults = 0,
                  forwards = 0, migrations = 0;

    explicit Signature(const sys::SimResults &r)
        : cycles(r.execTime), events(r.eventsExecuted),
          l2Misses(r.l2TlbMisses), farFaults(r.farFaults),
          forwards(r.forwards), migrations(r.migrations)
    {}

    bool operator==(const Signature &) const = default;
};

/** One pass over the points; host seconds are kept per point. */
struct Pass
{
    std::vector<double> make, ctor, setup, run, ledger;
    std::vector<Signature> sigs;
    std::vector<std::uint64_t> violations;
};

volatile std::size_t gLedgerSink = 0;

/**
 * One pass over the points. Spans (when @p spans is enabled) sit at the
 * same boundaries as the stopwatch readings: wl::makeApp, the
 * MultiGpuSystem constructor, run(), and the ledger record.
 */
Pass
runPass(const std::vector<Point> &points, SpanLog &spans, bool ledger,
        std::vector<sys::SimResults> *keep = nullptr)
{
    Pass pass;
    int passSpan = spans.begin("pass", -1, -1);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const int pt = static_cast<int>(i);
        int pointSpan = spans.begin("point", passSpan, pt);

        int s = spans.begin("workload.make", pointSpan, pt);
        auto t0 = Clock::now();
        auto workload = wl::makeApp(p.app, p.scale);
        pass.make.push_back(secondsSince(t0));
        spans.end(s);

        s = spans.begin("system.ctor", pointSpan, pt);
        t0 = Clock::now();
        auto system = std::make_unique<sys::MultiGpuSystem>(p.config,
                                                            *workload);
        pass.ctor.push_back(secondsSince(t0));
        pass.setup.push_back(pass.make.back() + pass.ctor.back());
        spans.end(s);

        s = spans.begin("system.run", pointSpan, pt);
        t0 = Clock::now();
        sys::SimResults r = system->run();
        pass.run.push_back(secondsSince(t0));
        spans.end(s);

        if (ledger) {
            s = spans.begin("obs.ledger", pointSpan, pt);
            t0 = Clock::now();
            obs::LedgerRecord record =
                sys::toLedgerRecord(r, p.config, p.scale, "perfbench");
            gLedgerSink = gLedgerSink + record.toJsonLine().size();
            pass.ledger.push_back(secondsSince(t0));
            spans.end(s);
        }
        spans.end(pointSpan);
        pass.sigs.emplace_back(r);
        pass.violations.push_back(r.obsCheckViolations);
        if (keep)
            keep->push_back(std::move(r));
    }
    spans.end(passSpan);
    return pass;
}

/**
 * Per-pass host seconds: each point's median over @p passes, summed over
 * the points, so a burst of contention from other tenants of a shared
 * host moves one point's sample rather than a whole pass.
 */
double
pointMedianSum(const std::vector<Pass> &passes,
               std::vector<double> Pass::*field)
{
    if (passes.empty())
        return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < (passes.front().*field).size(); ++i) {
        std::vector<double> v;
        for (const Pass &p : passes)
            v.push_back((p.*field)[i]);
        std::sort(v.begin(), v.end());
        std::size_t n = v.size();
        total += n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    }
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

unsigned
hardwareThreads()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return 0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Deterministic per-pass totals read off SimResults. */
struct Counts
{
    double events = 0, xlat = 0, peakBacklog = 0, instructions = 0,
           memOps = 0, pageAccesses = 0, l1Hits = 0, l2Lookups = 0,
           l2Hits = 0, farFaults = 0, hostTlbHits = 0, gmmuPwcLookups = 0,
           gmmuPwcHits = 0, hostPwcLookups = 0, hostPwcHits = 0,
           gmmuWalkAccesses = 0, hostWalkAccesses = 0, hostWalks = 0,
           gmmuWalks = 0, gmmuWaitCycles = 0, hostWaitCycles = 0,
           hostOverflows = 0, shortCircuits = 0, forwards = 0,
           forwardSuccess = 0, prtLookups = 0, ftLookups = 0,
           icMessages = 0, icBytes = 0, driverBatches = 0,
           replications = 0, writeInvalidations = 0, bytesMoved = 0,
           profileSeconds = 0, profiledWall = 0, violations = 0;

    explicit Counts(const std::vector<sys::SimResults> &results)
    {
        auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        for (const sys::SimResults &r : results) {
            events += d(r.eventsExecuted);
            xlat += d(r.l2TlbMisses);
            peakBacklog = std::max(peakBacklog, d(r.peakEventBacklog));
            instructions += d(r.instructions);
            memOps += d(r.memOps);
            pageAccesses += d(r.pageAccesses);
            l1Hits += r.l1HitRate * d(r.pageAccesses);
            double l2 = (1.0 - r.l1HitRate) * d(r.pageAccesses);
            l2Lookups += l2;
            l2Hits += r.l2HitRate * l2;
            farFaults += d(r.farFaults);
            hostTlbHits += r.hostTlbHitRate * d(r.farFaults);
            gmmuPwcLookups += d(r.gmmuPwcLevels.total());
            gmmuPwcHits += d(r.gmmuPwcLevels.total() -
                             r.gmmuPwcLevels.bucket(0));
            hostPwcLookups += d(r.hostPwcLevels.total());
            hostPwcHits += d(r.hostPwcLevels.total() -
                             r.hostPwcLevels.bucket(0));
            gmmuWalkAccesses += d(r.gmmuWalkMemAccesses);
            hostWalkAccesses += d(r.hostWalkMemAccesses);
            hostWalks += d(r.hostWalks);
            double walks = d(r.l2TlbMisses) - d(r.shortCircuits);
            gmmuWalks += walks;
            gmmuWaitCycles += r.gmmuQueueWaitMean * walks;
            hostWaitCycles += r.hostQueueWaitMean * d(r.hostWalks);
            hostOverflows += d(r.hostQueueOverflows);
            shortCircuits += d(r.shortCircuits);
            forwards += d(r.forwards);
            forwardSuccess += d(r.forwardSuccess);
            prtLookups += d(r.prtLookups);
            ftLookups += d(r.ftLookups);
            for (const auto &link : r.fabricLinks) {
                icMessages += d(link.messages + link.ctrlMessages);
                icBytes += d(link.bytes);
            }
            driverBatches += d(r.driverBatches);
            replications += d(r.replications);
            writeInvalidations += d(r.writeInvalidations);
            bytesMoved += d(r.bytesMoved);
            profileSeconds += r.hostProfile.totalSeconds;
            profiledWall += r.hostWallSeconds;
            violations += d(r.obsCheckViolations);
        }
    }
};

std::vector<Metric>
layerMetrics(const Counts &c, const perfbench::LayerTimes &lt,
             double coldPassS, const std::vector<Pass> &traced,
             const std::vector<Pass> &untraced)
{
    const double runS = pointMedianSum(traced, &Pass::run);
    const double plainRunS = pointMedianSum(untraced, &Pass::run);

    // Layer-to-wall cross-check: replay cost per call times the run's
    // deterministic call count, as a share of the traced run() time.
    const double ns = 1e-9;
    const std::vector<std::pair<const char *, double>> shares = {
        {"workload", lt.nsPerOp * ns * c.memOps},
        {"sim", lt.nsPerEvent * ns * c.events},
        {"tlb", lt.tlbNsPerLookup * ns * (c.pageAccesses + c.l2Lookups)},
        {"pwc",
         lt.pwcNsPerLookup * ns * (c.gmmuPwcLookups + c.hostPwcLookups)},
        {"mem", lt.memNsPerWalk * ns * (c.gmmuWalks + c.hostWalks)},
        {"transfw", (lt.prtNsPerLookup * c.prtLookups +
                     lt.ftNsPerLookup * c.ftLookups) * ns},
        {"interconnect", lt.icNsPerHop * ns * c.icMessages},
    };

    std::vector<Metric> m = {
        {"workload.make_s", pointMedianSum(traced, &Pass::make), "s"},
        {"workload.ns_per_op", lt.nsPerOp, "ns"},
        {"system.ctor_s", pointMedianSum(traced, &Pass::ctor), "s"},
        {"system.run_s", runS, "s"},
        {"system.cold_pass_s", coldPassS, "s"},
        {"sim.events", c.events, "count"},
        {"sim.events_per_xlat", ratio(c.events, c.xlat), "ratio"},
        {"sim.peak_backlog", c.peakBacklog, "count"},
        {"sim.events_per_s", ratio(c.events, plainRunS), "1/s"},
        {"sim.ns_per_event", lt.nsPerEvent, "ns"},
        {"gpu.instructions", c.instructions, "count"},
        {"gpu.mem_ops", c.memOps, "count"},
        {"gpu.page_accesses", c.pageAccesses, "count"},
        {"tlb.l1_hit_rate", ratio(c.l1Hits, c.pageAccesses), "ratio"},
        {"tlb.l2_hit_rate", ratio(c.l2Hits, c.l2Lookups), "ratio"},
        {"tlb.host_hit_rate", ratio(c.hostTlbHits, c.farFaults), "ratio"},
        {"tlb.ns_per_lookup", lt.tlbNsPerLookup, "ns"},
        {"pwc.gmmu_hit_rate", ratio(c.gmmuPwcHits, c.gmmuPwcLookups),
         "ratio"},
        {"pwc.host_hit_rate", ratio(c.hostPwcHits, c.hostPwcLookups),
         "ratio"},
        {"pwc.ns_per_lookup", lt.pwcNsPerLookup, "ns"},
        {"mem.gmmu_walk_accesses", c.gmmuWalkAccesses, "count"},
        {"mem.host_walk_accesses", c.hostWalkAccesses, "count"},
        {"mem.ns_per_walk", lt.memNsPerWalk, "ns"},
        {"mmu.host_walks", c.hostWalks, "count"},
        {"mmu.gmmu_queue_wait_cycles", ratio(c.gmmuWaitCycles, c.gmmuWalks),
         "cycles"},
        {"mmu.host_queue_wait_cycles", ratio(c.hostWaitCycles, c.hostWalks),
         "cycles"},
        {"mmu.host_queue_overflows", c.hostOverflows, "count"},
        {"transfw.short_circuits", c.shortCircuits, "count"},
        {"transfw.forwards", c.forwards, "count"},
        {"transfw.forward_success_ratio",
         ratio(c.forwardSuccess, c.forwards), "ratio"},
        {"transfw.prt_ns_per_lookup", lt.prtNsPerLookup, "ns"},
        {"transfw.ft_ns_per_lookup", lt.ftNsPerLookup, "ns"},
        {"interconnect.messages", c.icMessages, "count"},
        {"interconnect.bytes", c.icBytes, "bytes"},
        {"interconnect.ns_per_send", lt.icNsPerSend, "ns"},
        {"uvm.driver_batches", c.driverBatches, "count"},
        {"uvm.replications", c.replications, "count"},
        {"uvm.write_invalidations", c.writeInvalidations, "count"},
        {"uvm.bytes_moved", c.bytesMoved, "bytes"},
        {"obs.ledger_s", pointMedianSum(traced, &Pass::ledger), "s"},
        {"obs.profile_overcount", ratio(c.profileSeconds, c.profiledWall),
         "ratio"},
        {"obs.check_violations", c.violations, "count"},
    };
    double attributed = 0.0;
    for (const auto &[layer, seconds] : shares) {
        m.push_back({std::string(layer) + ".run_share",
                     ratio(seconds, runS), "ratio"});
        attributed += seconds;
    }
    m.push_back({"residual.run_share", ratio(runS - attributed, runS),
                 "ratio"});
    m.push_back({"trace.overhead", ratio(runS, plainRunS) - 1.0, "ratio"});
    return m;
}

/** Simulated-cycle geomean of baseline / Trans-FW over paired apps. */
double
fig11Geomean(const std::vector<Point> &points, const Pass &pass)
{
    double logSum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i + 1 < points.size(); ++i) {
        if (points[i].mode != "baseline" || points[i + 1].mode != "transfw")
            continue;
        logSum += std::log(static_cast<double>(pass.sigs[i].cycles) /
                           static_cast<double>(pass.sigs[i + 1].cycles));
        ++n;
    }
    return n ? std::exp(logSum / n) : 0.0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper_suite|pod64|uvm_replicate "
                 "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansPath;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        std::string value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            trace = std::atoi(value.c_str());
        else if (arg == "--spans")
            spansPath = value;
        else
            return usage(argv[0]);
    }
    const std::vector<Point> points = makePoints(workload, seed);
    if (points.empty() || seed == 0 || seconds <= 0.0 ||
        (trace != 0 && trace != 1))
        return usage(argv[0]);

    SpanLog off(false);
    SpanLog spans(trace == 1);

    // The first pass in a fresh process pays first-touch and allocator
    // growth; it is reported on its own and kept out of the warm figures.
    std::vector<sys::SimResults> coldResults;
    Pass cold = runPass(points, off, false, &coldResults);
    const double coldPassS =
        std::accumulate(cold.setup.begin(), cold.setup.end(), 0.0) +
        std::accumulate(cold.run.begin(), cold.run.end(), 0.0);

    std::vector<Pass> warm, traced;
    perfbench::LayerTimes layerTimes;
    const auto start = Clock::now();
    if (trace == 1) {
        std::vector<perfbench::ReplayInput> inputs;
        for (const Point &p : points)
            if (p.config.transFw.enabled)
                inputs.push_back({p.app, p.scale, p.config});
        int replaySpan = spans.begin("replay", -1, -1);
        layerTimes = perfbench::replayLayers(inputs, spans, replaySpan);
        spans.end(replaySpan);
    }
    // Traced passes alternate with untraced ones, so the difference
    // between the two is the tracing overhead and not a drift in time.
    do {
        warm.push_back(runPass(points, off, false));
        if (trace == 1)
            traced.push_back(runPass(points, spans, true));
    } while (secondsSince(start) < seconds);

    // Result identity: every pass must reproduce the cold pass exactly
    // and report no watchdog violations.
    std::vector<int> runs(points.size(), 0), bad(points.size(), 0);
    auto check = [&](const Pass &pass) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            ++runs[i];
            if (pass.sigs[i] != cold.sigs[i] || pass.violations[i] > 0)
                ++bad[i];
        }
    };
    check(cold);
    for (const Pass &p : warm)
        check(p);
    for (const Pass &p : traced)
        check(p);

    const Counts counts(coldResults);
    std::vector<Metric> metrics;
    if (trace == 1) {
        metrics = layerMetrics(counts, layerTimes, coldPassS, traced, warm);
    } else {
        const double wall = pointMedianSum(warm, &Pass::run);
        metrics = {
            {"wall_s", wall, "s"},
            {"xlat_per_s", ratio(counts.xlat, wall), "1/s"},
            {"setup_s", pointMedianSum(warm, &Pass::setup), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    }
    if (!spansPath.empty() && trace == 1)
        spans.write(spansPath);

    std::ostringstream os;
    os << "{\"workload\": ";
    obs::jsonEscape(os, workload);
    os << ", \"seed\": " << seed << ", \"trace\": " << trace
       << ", \"hardware_threads\": " << hardwareThreads()
       << ", \"warm_passes\": " << warm.size()
       << ", \"traced_passes\": " << traced.size()
       << ", \"translations_per_pass\": ";
    obs::jsonNumber(os, counts.xlat);
    os << ", \"fig11_geomean\": ";
    obs::jsonNumber(os, fig11Geomean(points, cold));
    os << ", \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Signature &sig = cold.sigs[i];
        os << (i ? ", " : "") << "{\"id\": ";
        obs::jsonEscape(os, points[i].id());
        os << ", \"scale\": ";
        obs::jsonNumber(os, points[i].scale);
        os << ", \"runs\": " << runs[i] << ", \"bad_runs\": " << bad[i]
           << ", \"violations\": " << cold.violations[i]
           << ", \"sig\": {\"cycles\": " << sig.cycles
           << ", \"events\": " << sig.events
           << ", \"l2_misses\": " << sig.l2Misses
           << ", \"far_faults\": " << sig.farFaults
           << ", \"forwards\": " << sig.forwards
           << ", \"migrations\": " << sig.migrations << "}}";
    }
    // Raw warm-pass samples, [point][pass], for the run's record.
    for (auto field : {&Pass::run, &Pass::setup}) {
        os << "], \"" << (field == &Pass::run ? "run_s" : "setup_s")
           << "\": [";
        for (std::size_t i = 0; i < points.size(); ++i) {
            os << (i ? ", [" : "[");
            for (std::size_t k = 0; k < warm.size(); ++k) {
                os << (k ? ", " : "");
                obs::jsonNumber(os, (warm[k].*field)[i]);
            }
            os << "]";
        }
    }
    os << "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "");
        obs::jsonEscape(os, metrics[i].name);
        os << ": {\"value\": ";
        obs::jsonNumber(os, metrics[i].value);
        os << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}

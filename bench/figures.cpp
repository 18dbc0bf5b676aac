/**
 * Every table and figure of the paper's evaluation, plus the model
 * ablations and extra studies, from one table of panels:
 *
 *   figures              # every section, in paper order
 *   figures fig11 fig15  # only those, in the order given
 *
 * Every point of every panel goes through sys::SweepRunner::shared(),
 * so a point several figures share is simulated once per process and
 * independent points run concurrently. Output that is not an apps x
 * configs table prints through a panel body.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

using sys::SimResults;
using Edit = std::function<void(cfg::SystemConfig &)>;
using Runs = std::span<const SimResults>;
using Read = std::function<double(const SimResults &)>;

/** The ten Table III application abbreviations, in paper order. */
std::vector<std::string>
appNames()
{
    std::vector<std::string> apps;
    for (const auto &info : wl::appTable())
        apps.push_back(info.abbr);
    return apps;
}

cfg::SystemConfig
with(cfg::SystemConfig config, const Edit &edit)
{
    edit(config);
    return config;
}

/** The runs behind one table cell, in (app, seed) order. */
struct Cell
{
    Runs base;    ///< the column's baseline
    Runs variant; ///< the column's variant
    Runs first;   ///< the first row's `base`

    const SimResults &b() const { return base.front(); }
    const SimResults &v() const { return variant.front(); }
};

using Metric = std::function<double(const Cell &)>;

double
speedup(const Cell &c)
{
    return sys::speedup(c.b(), c.v());
}

struct Column
{
    std::string name;
    cfg::SystemConfig baseline;
    cfg::SystemConfig variant;
    Metric metric = speedup;
    bool summarized = true; ///< has a cell in the summary row
};

/** A column reading one statistic of each run under @p config. */
Column
stat(std::string name, const cfg::SystemConfig &config, Read read)
{
    return {std::move(name), config, config,
            [read](const Cell &c) { return read(c.b()); }};
}

enum class Summary { None, Geomean, Mean };

/** One captioned table; the panels sharing an id form one section. */
struct Panel
{
    std::string id;
    std::string title;        ///< "" prints no header
    cfg::SystemConfig header; ///< the config the header line shows
    /** One row per app, or with @p gpus one per GPU count over all apps. */
    std::vector<std::string> apps = appNames();
    std::vector<int> gpus;
    int seeds = 1; ///< seeds per point, counting up from its config's
    std::vector<Column> columns;
    Summary summary = Summary::Geomean;
    int precision = 3;
    std::string lead;           ///< printed between header and table
    std::function<void()> body; ///< printed after the table
    std::string tail;           ///< printed last
};

/** Trans-FW over the baseline, both on the machine @p edit builds. */
Panel
fwOverBase(std::string id, std::string title, const Edit &edit,
           std::string tail = "")
{
    cfg::SystemConfig fw = with(sys::transFwConfig(), edit);
    return {.id = std::move(id), .title = std::move(title), .header = fw,
            .columns = {{"speedup", with(sys::baselineConfig(), edit), fw}},
            .tail = std::move(tail)};
}

void
printColumns(const std::string &label, const std::vector<std::string> &names)
{
    std::printf("%-10s", label.c_str());
    for (const auto &name : names)
        std::printf(" %10s", name.c_str());
    std::printf("\n");
}

void
printRow(const std::string &label, const std::vector<double> &values,
         int precision = 3)
{
    std::printf("%-10s", label.c_str());
    for (double v : values)
        std::printf(" %10.*f", precision, v);
    std::printf("\n");
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

struct Row
{
    std::string label;
    std::vector<std::string> apps;
    int gpus; ///< overrides numGpus of every point; 0 keeps it
};

std::vector<Row>
rows(const Panel &p)
{
    std::vector<Row> out;
    if (p.gpus.empty())
        for (const auto &app : p.apps)
            out.push_back({app, {app}, 0});
    for (int gpus : p.gpus)
        out.push_back({std::to_string(gpus), p.apps, gpus});
    return out;
}

/**
 * Every simulated point of @p p's table, per (row, column): the
 * baseline's (app, seed) runs, then the variant's.
 */
std::vector<sys::RunSpec>
specs(const Panel &p)
{
    std::vector<sys::RunSpec> out;
    for (const Row &row : rows(p))
        for (const Column &col : p.columns)
            for (cfg::SystemConfig config : {col.baseline, col.variant}) {
                if (row.gpus)
                    config.numGpus = row.gpus;
                const std::uint64_t first_seed = config.seed;
                for (const auto &app : row.apps)
                    for (int s = 0; s < p.seeds; ++s) {
                        config.seed = first_seed + s;
                        out.push_back({app, config, 0.0});
                    }
            }
    return out;
}

std::vector<SimResults>
runApps(const cfg::SystemConfig &config)
{
    std::vector<sys::RunSpec> points;
    for (const auto &app : appNames())
        points.push_back({app, config, 0.0});
    return sys::SweepRunner::shared().run(points);
}

/**
 * Run @p app with its synthetic spec changed by @p edit. These runs
 * bypass the sweep memo, whose key names the app but not its layout.
 */
SimResults
runCustom(const std::string &app, const cfg::SystemConfig &config,
          const std::function<void(wl::SyntheticSpec &)> &edit)
{
    wl::SyntheticSpec spec = wl::appSpec(app, sys::effectiveScale(0.0));
    edit(spec);
    return sys::runWorkload(wl::SyntheticWorkload(spec), config);
}

void
printTable(const Panel &p)
{
    std::vector<std::string> names;
    for (const Column &col : p.columns)
        names.push_back(col.name);
    printColumns(p.gpus.empty() ? "app" : "gpus", names);

    const std::vector<SimResults> results =
        sys::SweepRunner::shared().run(specs(p));
    const Runs all(results);
    std::vector<Runs> first(p.columns.size());
    std::vector<std::vector<double>> series(p.columns.size());
    std::size_t at = 0;
    for (const Row &row : rows(p)) {
        const std::size_t n = row.apps.size() * p.seeds;
        std::vector<double> values;
        for (std::size_t c = 0; c < p.columns.size(); ++c, at += 2 * n) {
            Cell cell{all.subspan(at, n), all.subspan(at + n, n), {}};
            if (first[c].empty())
                first[c] = cell.base;
            cell.first = first[c];
            values.push_back(p.columns[c].metric(cell));
            series[c].push_back(values.back());
        }
        printRow(row.label, values, p.precision);
    }
    if (p.summary == Summary::None)
        return;
    std::vector<double> summary;
    for (std::size_t c = 0; c < series.size(); ++c)
        if (p.columns[c].summarized)
            summary.push_back(p.summary == Summary::Geomean
                                  ? geomean(series[c])
                                  : mean(series[c]));
    printRow(p.summary == Summary::Geomean ? "geomean" : "mean", summary,
             p.precision);
}

void
printPanel(const Panel &p)
{
    if (!p.title.empty())
        std::printf("== %s ==\nconfig: %s\n", p.title.c_str(),
                    p.header.summary().c_str());
    std::printf("%s", p.lead.c_str());
    if (!p.columns.empty())
        printTable(p);
    if (p.body)
        p.body();
    std::printf("%s", p.tail.c_str());
}

/** 100 * part / whole, with whole floored at 1. */
double
pct(double part, double whole)
{
    return 100.0 * part / std::max(1.0, whole);
}

double
reduction(double before, double after)
{
    return before > 0 ? 100.0 * (before - after) / before : 0.0;
}

double
meanExec(Runs runs)
{
    double sum = 0;
    for (const SimResults &r : runs)
        sum += static_cast<double>(r.execTime);
    return sum / runs.size();
}

/** Percent of @p hist's samples that fell in bucket @p i. */
Read
bucketPct(stats::BucketHistogram SimResults::*hist, std::size_t i)
{
    return [hist, i](const SimResults &r) {
        return 100.0 * (r.*hist).fraction(i);
    };
}

/** Figs. 5, 6, 8: PW-cache hit levels; a hit at Lk leaves k-1 accesses. */
Panel
pwcLevels(std::string id, std::string title,
          stats::BucketHistogram SimResults::*hist)
{
    const cfg::SystemConfig base = sys::baselineConfig();
    Panel p{.id = std::move(id), .title = std::move(title), .header = base,
            .summary = Summary::None, .precision = 1};
    for (std::size_t level : {2, 3, 4, 5})
        p.columns.push_back(
            stat("L" + std::to_string(level), base, bucketPct(hist, level)));
    p.columns.push_back(stat("miss", base, bucketPct(hist, 0)));
    return p;
}

/** Fig. 12: reduction of @p part per L2 TLB miss under Trans-FW. */
Column
perMissCut(std::string name, Read part)
{
    return {std::move(name), sys::baselineConfig(), sys::transFwConfig(),
            [part](const Cell &c) {
                // Per L2 miss, so request-count changes between the runs
                // do not distort the comparison.
                double na = static_cast<double>(
                    std::max<std::uint64_t>(1, c.b().l2TlbMisses));
                double nb = static_cast<double>(
                    std::max<std::uint64_t>(1, c.v().l2TlbMisses));
                return reduction(part(c.b()) / na, part(c.v()) / nb);
            }};
}

/** Approximate TLB storage: tag (VPN 36b) + PPN (28b) + flags (4b). */
double
tlbKb(std::size_t entries)
{
    return entries * (36.0 + 28.0 + 4.0) / 8.0 / 1024.0;
}

/** Every panel, in paper order. */
std::vector<Panel>
figureTable()
{
    const cfg::SystemConfig base = sys::baselineConfig();
    const cfg::SystemConfig fw = sys::transFwConfig();
    const std::vector<std::string> subset = {"KM", "PR", "MT", "SC"};
    const cfg::SystemConfig sw = with(
        base, [](auto &c) { c.faultMode = cfg::FaultMode::UvmDriver; });
    std::vector<Panel> t;

    // Table III: calibration of each app's PFPKI against the paper's.
    t.push_back({.id = "table3", .title = "Table III: applications and PFPKI",
                 .header = base, .body = [base] {
        std::printf("%-8s %-22s %-15s %-15s %10s %10s\n", "Abbr",
                    "Application", "Suite", "Pattern", "PFPKI", "paper");
        const std::vector<SimResults> runs = runApps(base);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const wl::AppInfo &info = wl::appTable()[i];
            std::printf("%-8s %-22s %-15s %-15s %10.3f %10.3f\n",
                        info.abbr.c_str(), info.fullName.c_str(),
                        info.suite.c_str(), info.patternClass.c_str(),
                        runs[i].pfpki(), info.paperPfpki);
        }
    }});

    // Fig. 2: software (UVM driver) vs hardware (host MMU) far faults.
    // (a) execution time as the GPU count grows at a fixed input size,
    // averaged over a high-sharing subset and normalized to hardware
    // at 4 GPUs; (b) hardware's speedup over software per app.
    auto exec_over = [](Runs Cell::*reference) {
        return [reference](const Cell &c) {
            return meanExec(c.variant) / meanExec(c.*reference);
        };
    };
    t.push_back({.id = "fig02",
                 .title = "Fig. 2a: SW vs HW far-fault handling, GPU scaling",
                 .header = base, .apps = subset, .gpus = {4, 8, 16, 32},
                 .columns = {{"hardware", base, base, exec_over(&Cell::first)},
                             {"software", base, sw, exec_over(&Cell::first)},
                             {"sw/hw", base, sw, exec_over(&Cell::base)}},
                 .summary = Summary::None, .tail = "\n"});
    t.push_back({.id = "fig02",
                 .title = "Fig. 2b: HW speedup over SW per app, 4 GPUs",
                 .header = base, .columns = {{"hw/sw", sw, base}}});

    // Fig. 3: L2 TLB miss latency split into its stored components,
    // then the latency percentiles the mean hides: a forwarding win
    // shows at p99 long before it moves the average.
    const std::vector<std::pair<const char *, obs::LatField>> fields = {
        {"gmmuQ", obs::LatField::GmmuQueue},
        {"gmmuMem", obs::LatField::GmmuMem},
        {"hostQ", obs::LatField::HostQueue},
        {"hostMem", obs::LatField::HostMem},
        {"migr", obs::LatField::Migration},
        {"net", obs::LatField::Network},
        {"other", obs::LatField::Other}};
    Panel breakdown{
        .id = "fig03", .title = "Fig. 3: L2 TLB miss latency breakdown (%)",
        .header = base, .summary = Summary::None, .precision = 1,
        .body = [base] {
            std::printf("\n");
            for (const SimResults &r : runApps(base)) {
                const obs::LogHistogram &h = r.xlatLatencyHist;
                std::printf("%-10s xlat p50/p90/p95/p99/p99.9 = "
                            "%.0f/%.0f/%.0f/%.0f/%.0f cycles (mean %.1f, "
                            "n=%llu)\n",
                            r.app.c_str(), h.quantile(0.50), h.quantile(0.90),
                            h.quantile(0.95), h.quantile(0.99),
                            h.quantile(0.999), h.mean(),
                            static_cast<unsigned long long>(h.count()));
            }
        }};
    for (auto [name, f] : fields)
        breakdown.columns.push_back(stat(name, base, [f](const SimResults &r) {
            const obs::AttributionTable &at = r.attribution;
            return pct(at.fieldTotal(f), at.bucketTotal());
        }));
    breakdown.columns.push_back(stat(
        "avgLat", base, [](const SimResults &r) { return r.avgXlatLatency; }));
    for (auto [name, q] : {std::pair{"p50", 0.50}, {"p99", 0.99}})
        breakdown.columns.push_back(stat(name, base, [q](const SimResults &r) {
            return r.xlatLatencyHist.quantile(q);
        }));
    t.push_back(breakdown);

    // Fig. 4: room for improvement, four impractical oracles.
    Panel room{.id = "fig04", .title = "Fig. 4: oracle speedups over baseline",
               .header = base};
    for (auto [name, oracle] :
         {std::pair{"infPWC", &cfg::OracleConfig::infinitePwc},
          {"infWalk", &cfg::OracleConfig::infiniteWalkers},
          {"freeMig", &cfg::OracleConfig::zeroMigrationCost},
          {"noFault", &cfg::OracleConfig::noLocalFaults}})
        room.columns.push_back(
            {name, base,
             with(base, [oracle](auto &c) { c.oracle.*oracle = true; })});
    t.push_back(room);

    t.push_back(pwcLevels("fig05", "Fig. 5: GMMU PW-cache hit levels (%)",
                          &SimResults::gmmuPwcLevels));
    t.push_back(pwcLevels("fig06", "Fig. 6: host MMU PW-cache hit levels (%)",
                          &SimResults::hostPwcLevels));

    // Fig. 7: share of page accesses by the number of GPUs touching
    // the page.
    Panel sharing{.id = "fig07",
                  .title = "Fig. 7: page sharing (% of accesses by sharer "
                           "count)",
                  .header = base, .summary = Summary::None, .precision = 1};
    for (std::size_t gpus : {1, 2, 3, 4})
        sharing.columns.push_back(
            stat(gpus == 1 ? "1gpu" : std::to_string(gpus) + "gpus", base,
                 bucketPct(&SimResults::sharingAccesses, gpus)));
    t.push_back(sharing);

    // Fig. 8: on every local fault, which prefix level the owner GPU's
    // PW-cache could have supplied.
    Panel remote = pwcLevels("fig08",
                             "Fig. 8: remote PW-cache hit levels on faults (%)",
                             &SimResults::remoteProbeLevels);
    remote.columns.push_back(stat("hitAll", base, [](const SimResults &r) {
        const stats::BucketHistogram &hist = r.remoteProbeLevels;
        return hist.total() ? 100.0 * (1.0 - hist.fraction(0)) : 0.0;
    }));
    t.push_back(remote);

    // Fig. 11: the headline (paper: 53.8% average, MT largest, AES/FIR
    // marginal).
    t.push_back(fwOverBase("fig11", "Fig. 11: Trans-FW speedup over baseline",
                           [](auto &) {}));

    // Fig. 12: reduction of each latency component under Trans-FW;
    // "xlatPart" is everything but page migration.
    Panel cuts{.id = "fig12",
               .title = "Fig. 12: latency component reduction (%)",
               .header = fw, .summary = Summary::Mean, .precision = 1};
    for (auto [name, f] : std::span(fields).first(4))
        cuts.columns.push_back(perMissCut(name, [f](const SimResults &r) {
            return r.attribution.fieldTotal(f);
        }));
    cuts.columns.push_back(perMissCut("xlatPart", [](const SimResults &r) {
        return r.attribution.bucketTotal() -
               r.attribution.fieldTotal(obs::LatField::Migration);
    }));
    cuts.columns.push_back({"total", base, fw, [](const Cell &c) {
        return reduction(c.b().avgXlatLatency, c.v().avgXlatLatency);
    }});
    t.push_back(cuts);

    // Fig. 13: L2+L3 PW-cache hit rates; the host numbers include the
    // remote hits Trans-FW enables.
    Panel hits{.id = "fig13",
               .title = "Fig. 13: L2+L3 PW-cache hit rates (%), baseline vs "
                        "Trans-FW",
               .header = fw, .summary = Summary::None, .precision = 1};
    for (auto [name, hist, run] :
         {std::tuple{"gmmu.base", &SimResults::gmmuPwcLevels, &Cell::b},
          {"gmmu.fw", &SimResults::gmmuPwcLevels, &Cell::v},
          {"host.base", &SimResults::hostPwcLevels, &Cell::b},
          {"host.fw", &SimResults::hostPwcLevels, &Cell::v}})
        hits.columns.push_back({name, base, fw, [hist, run](const Cell &c) {
            const stats::BucketHistogram &h = (c.*run)().*hist;
            return 100.0 * (h.fraction(2) + h.fraction(3));
        }});
    t.push_back(hits);

    // Fig. 14: host walks that finished after the remote GPU had
    // already answered, forwards that cancelled the queued walk, and
    // the GMMU walk-access balance: extra accesses serving remote
    // lookups vs accesses saved over the baseline's local walks.
    Panel walks{.id = "fig14",
                .title = "Fig. 14: replicated walks and GMMU access balance",
                .header = fw, .summary = Summary::None, .precision = 1};
    walks.columns = {
        {"dup%", base, fw, [](const Cell &c) {
             return pct(c.v().duplicateWalks, c.v().hostWalks);
         }},
        {"cancel%", base, fw, [](const Cell &c) {
             return pct(c.v().removedFromQueue, c.v().forwards);
         }},
        {"remoteAcc%", base, fw, [](const Cell &c) {
             const SimResults &r = c.v();
             return pct(r.gmmuRemoteMemAccesses,
                        r.gmmuWalkMemAccesses + r.gmmuRemoteMemAccesses);
         }},
        {"gmmuSave%", base, fw, [](const Cell &c) {
             const SimResults &r = c.v();
             double before = c.b().gmmuWalkMemAccesses;
             return pct(before - static_cast<double>(r.gmmuWalkMemAccesses +
                                                     r.gmmuRemoteMemAccesses),
                        before);
         }}};
    t.push_back(walks);

    // Fig. 15: forwarding threshold at 0, 0.5 (default), 1 and 2 times
    // the host PT-walk thread count.
    Panel threshold{.id = "fig15",
                    .title = "Fig. 15: forwarding threshold sensitivity",
                    .header = base};
    for (auto [name, value] : {std::pair{"t=0", 0.0}, {"t=0.5", 0.5},
                               {"t=1", 1.0}, {"t=2", 2.0}})
        threshold.columns.push_back(
            {name, base, with(fw, [value](auto &c) {
                 c.transFw.forwardThreshold = value;
             })});
    t.push_back(threshold);

    // Fig. 16: PRT/FT sizes in fingerprints; PRT buckets hold 4 slots,
    // FT buckets 2.
    Panel sizes{.id = "fig16", .title = "Fig. 16: PRT/FT size sensitivity",
                .header = base};
    for (auto [name, prt, ft] :
         {std::tuple{"(250,1k)", 63, 500}, {"(500,2k)", 125, 1000},
          {"(1k,4k)", 250, 2000}})
        sizes.columns.push_back({name, base, with(fw, [prt, ft](auto &c) {
                                     c.transFw.prtBuckets = prt;
                                     c.transFw.ftBuckets = ft;
                                 })});
    t.push_back(sizes);

    // Fig. 17: 8 and 16 GPUs, input size held fixed.
    for (int gpus : {8, 16})
        t.push_back(fwOverBase(
            "fig17", sim::strfmt("Fig. 17: Trans-FW speedup, %d GPUs", gpus),
            [gpus](auto &c) { c.numGpus = gpus; }, "\n"));

    // Fig. 18: (GMMU, host) PT-walk threads, everything normalized to
    // the baseline with (4,8).
    auto walkers = [](int gmmu, int host) {
        return [gmmu, host](cfg::SystemConfig &c) {
            c.gmmuWalkers = gmmu;
            c.hostWalkers = host;
        };
    };
    const cfg::SystemConfig reference = with(base, walkers(4, 8));
    Panel threads{.id = "fig18",
                  .title = "Fig. 18: PT-walk thread sensitivity "
                           "(normalized to baseline (4,8))",
                  .header = base, .precision = 2};
    for (auto [gmmu, host] : {std::pair{4, 8}, {8, 16}, {16, 32}, {64, 128}}) {
        const std::string pool = sim::strfmt("(%d,%d)", gmmu, host);
        threads.columns.push_back(
            {"b" + pool, reference, with(base, walkers(gmmu, host))});
        threads.columns.push_back(
            {"fw" + pool, reference, with(fw, walkers(gmmu, host))});
    }
    t.push_back(threads);

    t.push_back(fwOverBase("fig19",
                           "Fig. 19: Trans-FW speedup, 4-level page table",
                           [](auto &c) { c.pageTableLevels = 4; }));

    // Fig. 20: host MMU sizing, (a) 4096-entry TLB, (b/c) 256- and
    // 512-entry PW-caches.
    t.push_back(fwOverBase("fig20", "Fig. 20a: 4096-entry host MMU TLB",
                           [](auto &c) { c.hostTlb.entries = 4096; }, "\n"));
    for (std::size_t pwc : {256u, 512u})
        t.push_back(fwOverBase(
            "fig20", sim::strfmt("Fig. 20b/c: %zu-entry host PW-cache", pwc),
            [pwc](auto &c) { c.pwcEntries = pwc; }, "\n"));

    // Fig. 21: GPU-GPU link latency from 1x to 16x the local memory
    // latency (paper: remote lookups stop paying off near 8x).
    Panel latency{.id = "fig21",
                  .title = "Fig. 21: remote latency sweep (peer latency = k x "
                           "mem latency)",
                  .header = base};
    for (int k : {1, 2, 4, 8, 16})
        latency.columns.push_back(
            {std::to_string(k) + "x", base, with(fw, [k](auto &c) {
                 c.peerLink.latency = c.memLatency * static_cast<sim::Tick>(k);
             })});
    t.push_back(latency);

    t.push_back(fwOverBase("fig22",
                           "Fig. 22: Trans-FW speedup with STC PW-caches",
                           [](auto &c) { c.pwcKind = pwc::PwcKind::Stc; }));
    t.push_back(fwOverBase(
        "fig23", "Fig. 23: Trans-FW speedup with read replication",
        [](auto &c) {
            c.migrationPolicy = cfg::MigrationPolicy::ReadReplicate;
        }));

    // Fig. 24: why read replication cannot help the write-intensive
    // sharers.
    Panel rw{.id = "fig24",
             .title = "Fig. 24: read/write mix on shared pages (%)",
             .header = base, .summary = Summary::None, .precision = 1};
    for (auto [name, count] : {std::pair{"reads", &SimResults::sharedPageReads},
                               {"writes", &SimResults::sharedPageWrites}})
        rw.columns.push_back(stat(name, base, [count](const SimResults &r) {
            return pct(r.*count, r.sharedPageReads + r.sharedPageWrites);
        }));
    t.push_back(rw);

    t.push_back(fwOverBase(
        "fig25", "Fig. 25: Trans-FW speedup with remote mapping",
        [](auto &c) { c.migrationPolicy = cfg::MigrationPolicy::RemoteMap; }));
    t.push_back(fwOverBase(
        "fig26", "Fig. 26: Trans-FW speedup on UVM-driver faults",
        [](auto &c) { c.faultMode = cfg::FaultMode::UvmDriver; }));

    // Fig. 27: 2 MB pages. The default VA spread (512) would put one
    // app page in each 2 MB frame and nullify the experiment, so the
    // regions use a spread of 16 with 8x the pages: a frame then holds
    // 32 app pages, restoring both the TLB-reach gain and the false
    // sharing the paper discusses. The fingerprint mask drops to 0 bits
    // because the translation unit already is a 2 MB page.
    const cfg::SystemConfig large_base = with(
        base, [](auto &c) { c.pageShift = mem::kLargePageShift; });
    const cfg::SystemConfig large_fw = with(fw, [](auto &c) {
        c.pageShift = mem::kLargePageShift;
        c.transFw.vpnMaskBits = 0;
    });
    t.push_back({.id = "fig27",
                 .title = "Fig. 27: Trans-FW speedup with 2MB pages",
                 .header = large_fw, .body = [large_base, large_fw] {
        auto large = [](wl::SyntheticSpec &spec) {
            spec.vaSpread = 16;
            for (auto &region : spec.regions)
                region.pages *= 8;
        };
        printColumns("app", {"speedup", "b.pfpki"});
        std::vector<double> speedups;
        for (const auto &app : appNames()) {
            SimResults b = runCustom(app, large_base, large);
            double s = sys::speedup(b, runCustom(app, large_fw, large));
            speedups.push_back(s);
            printRow(app, {s, b.pfpki()});
        }
        printRow("geomean", {geomean(speedups)});
    }});

    // Fig. 28: Trans-FW alone and with ASAP PW-cache prefetching, both
    // normalized to ASAP (enabled in the GMMUs and the host MMU).
    auto asap = [](auto &c) { c.asap.enabled = true; };
    t.push_back({.id = "fig28",
                 .title = "Fig. 28: Trans-FW vs ASAP prefetching",
                 .header = with(base, asap),
                 .columns = {{"fw/asap", with(base, asap), fw}},
                 .lead = "-- Trans-FW normalized to ASAP --\n", .tail = "\n"});
    t.push_back({.id = "fig28",
                 .columns = {{"fw+asap", with(base, asap), with(fw, asap)}},
                 .lead = "-- Trans-FW+ASAP normalized to ASAP --\n"});

    // Fig. 29: Trans-FW + Least-TLB normalized to Least-TLB alone.
    auto least = [](auto &c) { c.leastTlb.enabled = true; };
    t.push_back({.id = "fig29",
                 .title = "Fig. 29: Trans-FW + Least-TLB vs Least-TLB",
                 .header = with(fw, least),
                 .columns = {{"fw+least", with(base, least),
                              with(fw, least)}}});

    // Fig. 30: data-parallel training from VGG16 and ResNet18 layer
    // traces.
    t.push_back({.id = "fig30", .title = "Fig. 30: ML training workloads",
                 .header = fw, .body = [base, fw] {
        printColumns("model", {"speedup", "pfpki"});
        for (const char *model : {"VGG16", "ResNet18"}) {
            auto workload = wl::makeMlModel(model);
            SimResults b = sys::runWorkload(*workload, base);
            SimResults trans = sys::runWorkload(*workload, fw);
            printRow(model, {sys::speedup(b, trans), b.pfpki()});
        }
    }});

    // Section IV-E: PRT/FT storage. The paper reports 0.79 KB and
    // 2.68 KB, 1.01% / 1.95% of the L2 / host TLB area via CACTI; this
    // reports bit-level storage and capacity ratios instead (DESIGN.md).
    t.push_back({.id = "hw_overhead",
                 .title = "Section IV-E: PRT/FT hardware overhead",
                 .header = fw, .body = [fw] {
        core::PendingRequestTable prt(fw.transFw, 0);
        core::ForwardingTable ft(fw.transFw);
        double prt_kb = prt.bits() / 8.0 / 1024.0;
        double ft_kb = ft.bits() / 8.0 / 1024.0;
        double l2_kb = tlbKb(fw.l2Tlb.entries);
        double host_kb = tlbKb(fw.hostTlb.entries);
        std::printf("PRT: %zu buckets x %u slots, %u-bit fingerprints "
                    "= %.2f KB (paper: 0.79 KB)\n",
                    fw.transFw.prtBuckets, fw.transFw.prtSlotsPerBucket,
                    fw.transFw.prtFingerprintBits, prt_kb);
        std::printf("FT:  %zu buckets x %u slots, %u-bit fingerprints "
                    "= %.2f KB (paper: 2.68 KB)\n",
                    fw.transFw.ftBuckets, fw.transFw.ftSlotsPerBucket,
                    fw.transFw.ftFingerprintBits, ft_kb);
        std::printf("GPU L2 TLB storage:   %.2f KB -> PRT is %.1f%% of it\n",
                    l2_kb, 100.0 * prt_kb / l2_kb);
        std::printf("host MMU TLB storage: %.2f KB -> FT is %.1f%% of it\n",
                    host_kb, 100.0 * ft_kb / host_kb);
    }});

    // Ablation: each of Trans-FW's two mechanisms alone.
    auto no_ft = [](auto &c) { c.transFw.enableForwarding = false; };
    auto no_prt = [](auto &c) { c.transFw.enableShortCircuit = false; };
    t.push_back({.id = "ablation",
                 .title = "Ablation: short circuit vs remote forwarding",
                 .header = fw,
                 .columns = {{"prt-only", base, with(fw, no_ft)},
                             {"ft-only", base, with(fw, no_prt)},
                             {"full", base, fw}}});

    // Model ablations: (a) steady-state pre-placement vs cold UVM
    // placement, how much the cold-touch storm would dominate; (b) VA
    // spread, which emulates the PW-cache pressure of GB-scale
    // footprints, vs a contiguous layout.
    auto pfpki = [](const SimResults &r) { return r.pfpki(); };
    const cfg::SystemConfig cold = with(
        base, [](auto &c) { c.prewarmPlacement = false; });
    t.push_back({.id = "ablation_model",
                 .title = "Model ablation (a): pre-placement vs cold start",
                 .header = base, .apps = subset,
                 .columns = {stat("warmPFPKI", base, pfpki),
                             stat("coldPFPKI", cold, pfpki),
                             {"cold/warm", base, cold,
                              [](const Cell &c) {
                                  return static_cast<double>(c.v().execTime) /
                                         static_cast<double>(c.b().execTime);
                              }}},
                 .summary = Summary::None, .tail = "\n"});
    t.push_back({.id = "ablation_model",
                 .title = "Model ablation (b): VA spread (PW-cache pressure)",
                 .header = base, .body = [base, fw, subset] {
        // With a contiguous layout one fingerprint covers 8 live pages,
        // as in the paper's own masking arithmetic.
        const cfg::SystemConfig fw_contig = with(
            fw, [](auto &c) { c.transFw.vpnMaskBits = 3; });
        auto spread = [](std::uint64_t s) {
            return [s](wl::SyntheticSpec &spec) { spec.vaSpread = s; };
        };
        auto walk_acc = [](const SimResults &r) {
            return r.hostWalks ? static_cast<double>(r.hostWalkMemAccesses) /
                                     static_cast<double>(r.hostWalks)
                               : 0.0;
        };
        printColumns("app", {"s1.walkAcc", "s512.walkAcc", "fw.s1", "fw.s512"});
        for (const auto &app : subset) {
            SimResults s1 = runCustom(app, base, spread(1));
            SimResults s512 = runCustom(app, base, spread(512));
            printRow(app,
                     {walk_acc(s1), walk_acc(s512),
                      sys::speedup(s1, runCustom(app, fw_contig, spread(1))),
                      sys::speedup(s512, runCustom(app, fw, spread(512)))});
        }
    },
                 .tail = "\nContiguous layouts let one PW-cache entry cover "
                         "the whole working set\n(walks ~1 access), hiding "
                         "the pressure real GB-scale footprints create;\n"
                         "the VA spread restores it.\n"});

    // Is the Fig. 11 conclusion robust to the data-side memory model?
    // The flat Table II latency (the calibrated default) vs the per-CU
    // L1 / shared L2 / banked-DRAM hierarchy.
    auto hier = [](auto &c) { c.memModel = cfg::MemModel::Hierarchy; };
    t.push_back({.id = "ablation_memmodel",
                 .title = "Model ablation: simple vs detailed data memory",
                 .header = base,
                 .columns = {{"fw.simple", base, fw},
                             {"fw.hier", with(base, hier), with(fw, hier)}}});

    // Fig. 11 with error bars: each app's speedup over 5 seeds (both
    // configs share the seed), how much the synthetic workloads'
    // random draws move the headline. Only the mean gets a summary cell.
    using Dist = stats::Distribution;
    Panel seeds{.id = "variance", .title = "Fig. 11 with seed error bars",
                .header = fw, .seeds = 5, .summary = Summary::Mean};
    for (auto [name, read] :
         {std::pair<const char *, double (*)(const Dist &)>{
              "mean", [](const Dist &d) { return d.mean(); }},
          {"stddev", [](const Dist &d) { return std::sqrt(d.variance()); }},
          {"min", [](const Dist &d) { return d.minimum(); }},
          {"max", [](const Dist &d) { return d.maximum(); }}})
        seeds.columns.push_back({name, base, fw, [read](const Cell &c) {
            Dist d;
            for (std::size_t i = 0; i < c.base.size(); ++i)
                d.record(sys::speedup(c.base[i], c.variant[i]));
            return read(d);
        }, seeds.columns.empty()});
    t.push_back(seeds);

    // Beyond the paper's direct links: on a ring, multi-hop forwarding
    // and migration make remote lookups dearer, the Fig. 21 effect
    // arising from topology instead of link speed.
    auto ring = [](auto &c) { c.peerTopology = ic::Topology::Ring; };
    t.push_back({.id = "topology",
                 .title = "Topology: Trans-FW on mesh vs ring",
                 .header = base,
                 .columns = {{"mesh", base, fw},
                             {"ring", with(base, ring), with(fw, ring)}}});
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<Panel> table = figureTable();
    std::vector<std::string> ids;
    for (const Panel &p : table)
        if (ids.empty() || ids.back() != p.id)
            ids.push_back(p.id);

    std::vector<std::string> wanted(argv + 1, argv + argc);
    if (wanted.empty())
        wanted = ids;
    for (const std::string &id : wanted) {
        if (std::find(ids.begin(), ids.end(), id) != ids.end())
            continue;
        std::fprintf(stderr, "figures: unknown id '%s'; ids:", id.c_str());
        for (const std::string &known : ids)
            std::fprintf(stderr, " %s", known.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    // Submit every table point up front as one batch, so the shared
    // runner simulates each distinct point once with all workers busy.
    std::vector<sys::RunSpec> points;
    for (const std::string &id : wanted)
        for (const Panel &p : table)
            if (p.id == id) {
                std::vector<sys::RunSpec> s = specs(p);
                points.insert(points.end(), s.begin(), s.end());
            }
    sys::SweepRunner::shared().run(points);

    for (std::size_t i = 0; i < wanted.size(); ++i) {
        if (i)
            std::printf("\n");
        for (const Panel &p : table)
            if (p.id == wanted[i])
                printPanel(p);
    }
    return 0;
}

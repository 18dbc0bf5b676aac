#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "mini_json.hpp"
#include "transfw/transfw.hpp"

using namespace transfw;

// ---------------------------------------------------------------------------
// LogHistogram: percentiles against a sorted-vector oracle.
// ---------------------------------------------------------------------------

namespace {

double
oracleQuantile(std::vector<double> sorted, double q)
{
    // Same convention the histogram documents: the value at rank
    // ceil(q * n), 1-based.
    std::sort(sorted.begin(), sorted.end());
    std::size_t n = sorted.size();
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return sorted[rank - 1];
}

void
checkQuantiles(const obs::LogHistogram &hist, const std::vector<double> &samples)
{
    for (double q : {0.50, 0.90, 0.95, 0.99, 0.999}) {
        double oracle = oracleQuantile(samples, q);
        double got = hist.quantile(q);
        // One log bucket of relative error, plus one for integer
        // truncation of small values.
        double tol = oracle / obs::LogHistogram::kSubBuckets + 1.0;
        EXPECT_NEAR(got, oracle, tol) << "q=" << q;
    }
}

} // namespace

TEST(LogHistogram, Empty)
{
    obs::LogHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.quantile(0.5), 0.0);
    EXPECT_EQ(hist.mean(), 0.0);
    EXPECT_EQ(hist.minimum(), 0u);
    EXPECT_EQ(hist.maximum(), 0u);
}

TEST(LogHistogram, SmallValuesExact)
{
    // Values below kSubBuckets land in 1:1 buckets: quantiles exact.
    obs::LogHistogram hist;
    for (int i = 1; i <= 20; ++i)
        hist.record(i);
    EXPECT_EQ(hist.quantile(0.50), 10.0);
    EXPECT_EQ(hist.quantile(0.05), 1.0);
    EXPECT_EQ(hist.quantile(1.00), 20.0);
    EXPECT_EQ(hist.minimum(), 1u);
    EXPECT_EQ(hist.maximum(), 20u);
}

TEST(LogHistogram, UniformOracle)
{
    obs::LogHistogram hist;
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> dist(1.0, 100000.0);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        double x = std::floor(dist(rng));
        samples.push_back(x);
        hist.record(x);
    }
    EXPECT_EQ(hist.count(), samples.size());
    checkQuantiles(hist, samples);
}

TEST(LogHistogram, LogNormalOracle)
{
    // Heavy-tailed latencies: the shape percentile metrics exist for.
    obs::LogHistogram hist;
    std::mt19937_64 rng(11);
    std::lognormal_distribution<double> dist(6.0, 1.5);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        double x = std::floor(dist(rng)) + 1.0;
        samples.push_back(x);
        hist.record(x);
    }
    checkQuantiles(hist, samples);
    EXPECT_NEAR(hist.mean(),
                std::accumulate(samples.begin(), samples.end(), 0.0) /
                    samples.size(),
                1e-6);
}

TEST(LogHistogram, MergeMatchesCombinedRecording)
{
    obs::LogHistogram a, b, combined;
    std::mt19937_64 rng(3);
    std::uniform_int_distribution<std::uint64_t> dist(0, 1u << 20);
    for (int i = 0; i < 5000; ++i) {
        double x = static_cast<double>(dist(rng));
        (i % 2 ? a : b).record(x);
        combined.record(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.minimum(), combined.minimum());
    EXPECT_EQ(a.maximum(), combined.maximum());
    EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
    for (double q : {0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q));
}

TEST(LogHistogram, BucketBoundsCoverValues)
{
    // Every recorded value must land in a bucket whose [low, high)
    // range contains it.
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{31},
          std::uint64_t{32}, std::uint64_t{33}, std::uint64_t{1000},
          std::uint64_t{1} << 40, (std::uint64_t{1} << 40) + 12345}) {
        obs::LogHistogram hist;
        hist.record(static_cast<double>(v));
        for (std::size_t i = 0; i < hist.buckets(); ++i) {
            if (hist.bucketCount(i)) {
                EXPECT_GE(v, obs::LogHistogram::bucketLow(i));
                EXPECT_LT(v, obs::LogHistogram::bucketHigh(i));
            }
        }
    }
}

TEST(LogHistogram, NegativeClampsToZero)
{
    obs::LogHistogram hist;
    hist.record(-5.0);
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_EQ(hist.quantile(1.0), 0.0);
    EXPECT_EQ(hist.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// MetricRegistry.
// ---------------------------------------------------------------------------

TEST(MetricRegistry, GaugesAreLive)
{
    obs::MetricRegistry reg;
    int counter = 0;
    reg.registerGauge("a.b.count",
                      [&counter] { return static_cast<double>(counter); });
    EXPECT_TRUE(reg.has("a.b.count"));
    EXPECT_EQ(reg.value("a.b.count"), 0.0);
    counter = 42;
    EXPECT_EQ(reg.value("a.b.count"), 42.0);
}

TEST(MetricRegistry, ScalarsAndNames)
{
    obs::MetricRegistry reg;
    reg.setScalar("z.last", 3.5);
    reg.registerGauge("a.first", [] { return 1.0; });
    EXPECT_FALSE(reg.has("missing"));
    EXPECT_EQ(reg.value("z.last"), 3.5);
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.first");
    EXPECT_EQ(names[1], "z.last");
}

TEST(MetricRegistry, HistogramExpandsToLeaves)
{
    obs::MetricRegistry reg;
    obs::LogHistogram hist;
    for (int i = 1; i <= 100; ++i)
        hist.record(i);
    reg.registerHistogram("gpu0.xlat", &hist);
    std::string json = reg.toJson();
    parsedJson(json);
    EXPECT_NE(json.find("\"gpu0.xlat.count\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu0.xlat.mean\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu0.xlat.p50\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu0.xlat.p999\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// IntervalSampler: tick alignment on a live event queue.
// ---------------------------------------------------------------------------

TEST(IntervalSampler, RowsAlignToInterval)
{
    sim::EventQueue eq;
    obs::IntervalSampler sampler;
    double depth = 0.0;
    sampler.addColumn("depth", [&depth] { return depth; });

    // Simulation activity out to tick 1000.
    for (sim::Tick t = 100; t <= 1000; t += 100)
        eq.schedule(t, [&depth] { depth += 1.0; });

    sampler.start(eq, 250);
    eq.run();

    // Immediate row at 0, then 250/500/750/1000. The sampler never
    // reschedules past the last simulation event.
    ASSERT_GE(sampler.rows(), 4u);
    for (std::size_t row = 0; row < sampler.rows(); ++row) {
        EXPECT_EQ(sampler.rowTick(row) % 250, 0u) << "row " << row;
        EXPECT_LE(sampler.rowTick(row), 1000u);
    }
    // Probes see the simulation state at the sample tick.
    EXPECT_EQ(sampler.cell(0, 0), 0.0);
    EXPECT_EQ(sampler.cell(2, 0), 5.0); // tick 500: events 100..500 ran
}

TEST(IntervalSampler, DoesNotBlockQueueDrain)
{
    sim::EventQueue eq;
    obs::IntervalSampler sampler;
    sampler.addColumn("one", [] { return 1.0; });
    eq.schedule(10, [] {});
    sampler.start(eq, 5);
    eq.run(); // must terminate: sampler stops rescheduling when alone
    EXPECT_LE(sampler.rowTick(sampler.rows() - 1), 15u);
}

TEST(IntervalSampler, CsvAndJsonShapes)
{
    sim::EventQueue eq;
    obs::IntervalSampler sampler;
    obs::MetricRegistry reg;
    reg.registerGauge("q.depth", [] { return 2.0; });
    sampler.addRegistryColumn(reg, "q.depth");
    eq.schedule(20, [] {});
    sampler.start(eq, 10);
    eq.run();

    std::ostringstream csv;
    sampler.writeCsv(csv);
    std::istringstream lines(csv.str());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header, "tick,q.depth");
    std::string row;
    std::size_t rows = 0;
    while (std::getline(lines, row)) {
        ++rows;
        EXPECT_NE(row.find(",2"), std::string::npos);
    }
    EXPECT_EQ(rows, sampler.rows());

    std::ostringstream jsonOs;
    sampler.writeJson(jsonOs);
    parsedJson(jsonOs.str());
    EXPECT_NE(jsonOs.str().find("\"q.depth\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: full-system run with observability on.
// ---------------------------------------------------------------------------

namespace {

wl::SyntheticSpec
tinySpec()
{
    wl::SyntheticSpec spec;
    spec.name = "obs-e2e";
    spec.numCtas = 16;
    spec.memOpsPerCta = 30;
    spec.computePerOp = 2;
    spec.regions = {
        {.name = "hot", .pages = 32, .pattern = wl::Pattern::Random,
         .shareDegree = 2, .weight = 0.4, .writeFrac = 0.2, .reuse = 2},
        {.name = "own", .pages = 96, .weight = 0.6, .reuse = 2},
    };
    return spec;
}

cfg::SystemConfig
obsConfig()
{
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 2;
    config.cusPerGpu = 4;
    config.wavefrontSlotsPerCu = 2;
    config.obs.sampleInterval = 2000;
    return config;
}

/** The Perfetto export of a run that kept every request's timeline. */
JsonValue
exportedTrace(const cfg::SystemConfig &config, const wl::Workload &workload,
              sys::SimResults *results = nullptr)
{
    sys::MultiGpuSystem system(config, workload);
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();
    EXPECT_EQ(r.obsCheckViolations, 0u);
    if (results)
        *results = r;
    std::ostringstream os;
    obs::writeChromeTrace(os, system.obs().attribution,
                          &system.obs().sampler);
    return parsedJson(os.str());
}

} // namespace

TEST(ObsEndToEnd, XlatRootDurationMatchesChargedTotal)
{
    // The per-request charged total (the "xlat" root's args.charged)
    // equals the end-to-end latency (the root's duration) within one
    // tick. Baseline config: the serial translation path accounts
    // every cycle exactly once.
    wl::SyntheticWorkload workload(tinySpec());
    sys::SimResults r;
    JsonValue trace = exportedTrace(obsConfig(), workload, &r);

    std::size_t roots = 0;
    for (const JsonValue *s : traceEvents(trace, "X")) {
        if (s->str("name") != "xlat")
            continue;
        ++roots;
        const JsonValue *args = s->get("args");
        ASSERT_NE(args, nullptr);
        ASSERT_NE(args->get("charged"), nullptr);
        EXPECT_NEAR(s->num("dur"), args->num("charged"), 1.0)
            << "request " << s->num("tid") << " on gpu " << s->num("pid");
    }
    EXPECT_EQ(roots, r.attribution.requests);
    EXPECT_GT(roots, 0u);
}

TEST(ObsEndToEnd, PhaseSlicesNestInsideRootSlice)
{
    // Every charge and hop slice of request (pid, tid) fits inside
    // that request's "xlat" root: each phase is drawn from when it
    // started, whether it was charged at its start or its end.
    wl::SyntheticWorkload workload(tinySpec());
    JsonValue trace = exportedTrace(obsConfig(), workload);

    std::map<std::pair<double, double>, std::vector<const JsonValue *>>
        byRequest;
    for (const JsonValue *s : traceEvents(trace, "X"))
        byRequest[{s->num("pid"), s->num("tid")}].push_back(s);

    std::size_t checkedChildren = 0;
    for (const auto &[key, group] : byRequest) {
        const JsonValue *root = nullptr;
        for (const JsonValue *s : group)
            if (s->str("name") == "xlat")
                root = s;
        ASSERT_NE(root, nullptr) << "request " << key.second;
        const double start = root->num("ts");
        const double end = start + root->num("dur");
        for (const JsonValue *s : group) {
            if (s == root)
                continue;
            EXPECT_GE(s->num("ts"), start)
                << s->str("name") << " precedes xlat for tid " << key.second;
            EXPECT_LE(s->num("ts") + s->num("dur"), end)
                << s->str("name") << " overruns xlat for tid " << key.second;
            EXPECT_GE(s->num("dur"), 0.0) << s->str("name");
            ++checkedChildren;
        }
    }
    EXPECT_GT(checkedChildren, 0u);
}

TEST(ObsEndToEnd, MetricsRegistryCoversComponents)
{
    wl::SyntheticWorkload workload(tinySpec());
    cfg::SystemConfig config = obsConfig();
    sys::MultiGpuSystem system(config, workload);
    sys::SimResults r = system.run();

    const obs::MetricRegistry &reg = system.obs().metrics;
    // Hierarchical keys from every layer of the translation path.
    for (const char *name :
         {"gpu0.accesses", "gpu0.gmmu.localWalks", "gpu0.gmmu.pwc.hitRate",
          "gpu0.l2tlb.hitRate", "gpu1.gmmu.queueDepth", "host.mmu.faults",
          "host.mmu.queueAboveTrigger", "host.mmu.tlb.hitRate",
          "host.migration.migrations", "sim.farFaults", "sim.tick"}) {
        EXPECT_TRUE(reg.has(name)) << name;
    }
    // Gauges agree with the collected results.
    EXPECT_EQ(reg.value("sim.farFaults"), static_cast<double>(r.farFaults));
    EXPECT_EQ(reg.value("sim.tick"), static_cast<double>(r.execTime));
    double accesses =
        reg.value("gpu0.accesses") + reg.value("gpu1.accesses");
    EXPECT_EQ(accesses, static_cast<double>(r.pageAccesses));

    std::string json = reg.toJson();
    parsedJson(json);
    EXPECT_NE(json.find("\"gpu0.xlat.p99\""), std::string::npos);
}

TEST(ObsEndToEnd, SamplerTicksAlignAndTrackQueue)
{
    wl::SyntheticWorkload workload(tinySpec());
    cfg::SystemConfig config = obsConfig();
    sys::MultiGpuSystem system(config, workload);
    sys::SimResults r = system.run();

    const obs::IntervalSampler &sampler = system.obs().sampler;
    ASSERT_GT(sampler.rows(), 1u);
    ASSERT_GT(sampler.columns(), 0u);
    for (std::size_t row = 0; row < sampler.rows(); ++row) {
        EXPECT_EQ(sampler.rowTick(row) % config.obs.sampleInterval, 0u);
        EXPECT_LE(sampler.rowTick(row), r.execTime);
    }
    // Columns include the headline occupancy/health probes.
    std::vector<std::string> cols;
    for (std::size_t c = 0; c < sampler.columns(); ++c)
        cols.push_back(sampler.columnName(c));
    for (const char *want :
         {"host.mmu.queueDepth", "host.mmu.queueAboveTrigger",
          "gpu0.gmmu.queueDepth", "gpu0.l2tlb.hitRate"}) {
        EXPECT_NE(std::find(cols.begin(), cols.end(), want), cols.end())
            << want;
    }
    // Hit rates stay within [0, 1] in every sample.
    for (std::size_t c = 0; c < sampler.columns(); ++c) {
        if (cols[c].find("hitRate") == std::string::npos &&
            cols[c].find("loadFactor") == std::string::npos)
            continue;
        for (std::size_t row = 0; row < sampler.rows(); ++row) {
            EXPECT_GE(sampler.cell(row, c), 0.0);
            EXPECT_LE(sampler.cell(row, c), 1.0);
        }
    }
}

TEST(ObsEndToEnd, TransFwExportCarriesForwardSlices)
{
    // Under Trans-FW, the registry exposes PRT/FT load and the export
    // draws each forward from its launch to its outcome. MT congests
    // the host PW-queue enough to forward.
    auto workload = wl::makeApp("MT", 0.05);
    sys::MultiGpuSystem system(sys::transFwConfig(), *workload);
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();

    EXPECT_TRUE(system.obs().metrics.has("host.ft.loadFactor"));
    EXPECT_TRUE(system.obs().metrics.has("gpu0.prt.loadFactor"));
    EXPECT_TRUE(system.obs().metrics.has("host.mmu.forwards"));

    std::ostringstream os;
    obs::writeChromeTrace(os, system.obs().attribution);
    JsonValue trace = parsedJson(os.str());
    std::size_t forwards = 0;
    for (const JsonValue *s : traceEvents(trace, "X")) {
        if (s->str("name") != "forward")
            continue;
        ++forwards;
        const std::string outcome = s->get("args")->str("outcome");
        EXPECT_TRUE(outcome == "failed" || outcome == "remoteWon" ||
                    outcome == "hostWon")
            << outcome;
    }
    ASSERT_GT(r.forwards, 0u);
    EXPECT_EQ(forwards, r.forwards);
}

TEST(ObsEndToEnd, DisabledByDefaultCostsNothing)
{
    wl::SyntheticWorkload workload(tinySpec());
    cfg::SystemConfig config = obsConfig();
    config.obs.sampleInterval = 0;
    sys::MultiGpuSystem system(config, workload);
    sys::SimResults b = system.run();
    EXPECT_FALSE(system.obs().attribution.keepTimelines());
    EXPECT_TRUE(system.obs().attribution.timelines().empty());
    EXPECT_EQ(system.obs().sampler.rows(), 0u);
    // The registry still answers (gauges are free), and results are
    // identical to a sampled run that keeps every timeline.
    EXPECT_TRUE(system.obs().metrics.has("sim.tick"));

    sys::MultiGpuSystem instrumented(obsConfig(), workload);
    instrumented.obs().attribution.setKeepTimelines(true);
    sys::SimResults a = instrumented.run();
    EXPECT_FALSE(instrumented.obs().attribution.timelines().empty());
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.farFaults, b.farFaults);
}

TEST(ObsEndToEnd, PercentilesInResults)
{
    wl::SyntheticWorkload workload(tinySpec());
    sys::SimResults r = sys::runWorkload(workload, obsConfig());
    ASSERT_GT(r.xlatLatencyHist.count(), 0u);
    double p50 = r.xlatLatencyHist.quantile(0.50);
    double p99 = r.xlatLatencyHist.quantile(0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_GE(p99, p50);
    // The mean sits between the histogram extremes and tracks the
    // Distribution-based average already reported.
    EXPECT_NEAR(r.xlatLatencyHist.mean(), r.avgXlatLatency,
                std::max(1.0, 0.01 * r.avgXlatLatency));
}

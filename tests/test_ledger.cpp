/**
 * Cross-run observability: the run ledger (JSONL round-trip, concurrent
 * append), noise-aware diffing (drift, missing keys, schema mismatch,
 * match-by-key pairing, wall tolerance), the host-side self-profiler
 * (bucket-sum sanity, off-by-default cost, no effect on any result),
 * and the sweep/job-count integration.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/ledger.hpp"
#include "sim/task_pool.hpp"
#include "system/report.hpp"
#include "system/sweep.hpp"
#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

constexpr double kScale = 0.05;

std::string
tempPath(const char *name)
{
    std::string path = std::string("/tmp/transfw_test_") + name;
    std::remove(path.c_str());
    return path;
}

obs::LedgerRecord
sampleRecord(const std::string &app = "MT", double metric = 123.0)
{
    obs::LedgerRecord r;
    r.schema = obs::RunLedger::kSchema;
    r.app = app;
    r.scale = 0.25;
    r.configKey = "cfg:deadbeef";
    r.configSummary = "4 GPUs, baseline";
    r.source = "test";
    r.metrics["exec.time"] = metric;
    r.metrics["exec.faults"] = 42.0;
    r.metrics["xlat.p99"] = 1234.5678901234567;
    r.wall["wall_seconds"] = 1.5;
    r.wall["events_per_sec"] = 2.0e6;
    r.wallTimestamp = "2026-01-01T00:00:00Z";
    return r;
}

} // namespace

TEST(Ledger, JsonLineRoundTrip)
{
    obs::LedgerRecord in = sampleRecord();
    in.metrics["awkward \"quoted\"\\key"] = -0.0625;
    std::string line = in.toJsonLine();
    EXPECT_EQ(line.find('\n'), std::string::npos);

    obs::LedgerRecord out;
    std::string error;
    ASSERT_TRUE(obs::RunLedger::parseLine(line, out, &error)) << error;
    EXPECT_EQ(out.schema, in.schema);
    EXPECT_EQ(out.app, in.app);
    EXPECT_EQ(out.scale, in.scale);
    EXPECT_EQ(out.configKey, in.configKey);
    EXPECT_EQ(out.configSummary, in.configSummary);
    EXPECT_EQ(out.source, in.source);
    EXPECT_EQ(out.metrics, in.metrics);
    EXPECT_EQ(out.wall, in.wall);
    EXPECT_EQ(out.wallTimestamp, in.wallTimestamp);

    // The deterministic serialization is itself stable.
    EXPECT_EQ(out.toJsonLine(), line);
}

TEST(Ledger, ParseLineRejectsGarbageAndWrongSchema)
{
    obs::LedgerRecord out;
    std::string error;
    EXPECT_FALSE(obs::RunLedger::parseLine("not json", out, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(obs::RunLedger::parseLine(
        "{\"schema\":\"other-v9\",\"app\":\"MT\"}", out, &error));

    obs::LedgerRecord in = sampleRecord();
    in.schema = "transfw-ledger-v0";
    EXPECT_FALSE(obs::RunLedger::parseLine(in.toJsonLine(), out, &error));
}

TEST(Ledger, LoadSkipsMalformedLinesAndReportsThem)
{
    std::string path = tempPath("ledger_malformed.jsonl");
    ASSERT_TRUE(obs::RunLedger::append(path, sampleRecord("MT")));
    {
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fputs("garbage line\n", f);
        std::fclose(f);
    }
    ASSERT_TRUE(obs::RunLedger::append(path, sampleRecord("KM")));

    std::vector<std::string> errors;
    std::vector<obs::LedgerRecord> records =
        obs::RunLedger::load(path, &errors);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].app, "MT");
    EXPECT_EQ(records[1].app, "KM");
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("line 2"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Ledger, MissingFileIsAnError)
{
    std::vector<std::string> errors;
    std::vector<obs::LedgerRecord> records =
        obs::RunLedger::load("/tmp/transfw_test_no_such_ledger.jsonl",
                             &errors);
    EXPECT_TRUE(records.empty());
    EXPECT_FALSE(errors.empty());
}

TEST(Ledger, ConcurrentAppendsNeverInterleaveBytes)
{
    std::string path = tempPath("ledger_concurrent.jsonl");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 25;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&path, t] {
            for (int i = 0; i < kPerThread; ++i) {
                obs::LedgerRecord r = sampleRecord(
                    "T" + std::to_string(t), static_cast<double>(i));
                ASSERT_TRUE(obs::RunLedger::append(path, r));
            }
        });
    for (std::thread &w : writers)
        w.join();

    std::vector<std::string> errors;
    std::vector<obs::LedgerRecord> records =
        obs::RunLedger::load(path, &errors);
    EXPECT_TRUE(errors.empty());
    EXPECT_EQ(records.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    std::remove(path.c_str());
}

TEST(LedgerDiff, IdenticalSetsAreClean)
{
    std::vector<obs::LedgerRecord> a = {sampleRecord("MT"),
                                        sampleRecord("KM")};
    obs::LedgerDiff diff = obs::diffLedgers(a, a);
    EXPECT_TRUE(diff.clean());
    EXPECT_TRUE(diff.pairs.empty()); // only differing pairs are stored
    EXPECT_GT(diff.comparedMetrics, 0u);
    EXPECT_NE(diff.toMarkdown().find("CLEAN"), std::string::npos);
}

TEST(LedgerDiff, DetectsDriftedMetric)
{
    std::vector<obs::LedgerRecord> a = {sampleRecord("MT", 100.0)};
    std::vector<obs::LedgerRecord> b = {sampleRecord("MT", 101.0)};
    obs::LedgerDiff diff = obs::diffLedgers(a, b);
    EXPECT_FALSE(diff.clean());
    EXPECT_EQ(diff.driftedMetrics, 1u);
    ASSERT_EQ(diff.pairs.size(), 1u);
    ASSERT_EQ(diff.pairs[0].drifted.size(), 1u);
    EXPECT_NE(diff.pairs[0].drifted[0].find("exec.time"),
              std::string::npos);
    EXPECT_NE(diff.toMarkdown().find("DRIFT"), std::string::npos);
}

TEST(LedgerDiff, DetectsMissingKeys)
{
    std::vector<obs::LedgerRecord> a = {sampleRecord("MT")};
    std::vector<obs::LedgerRecord> b = {sampleRecord("MT")};
    b[0].metrics.erase("exec.faults");
    b[0].metrics["metrics.newKey"] = 7.0;
    obs::LedgerDiff diff = obs::diffLedgers(a, b);
    EXPECT_FALSE(diff.clean());
    EXPECT_EQ(diff.missingKeys, 2u);
    EXPECT_EQ(diff.driftedMetrics, 0u);
}

TEST(LedgerDiff, SchemaMismatchIsAnError)
{
    std::vector<obs::LedgerRecord> a = {sampleRecord("MT")};
    std::vector<obs::LedgerRecord> b = {sampleRecord("MT")};
    b[0].schema = "transfw-ledger-v999";
    obs::LedgerDiff diff = obs::diffLedgers(a, b);
    EXPECT_FALSE(diff.clean());
    EXPECT_FALSE(diff.errors.empty());
}

TEST(LedgerDiff, MatchesByConfigKeyAcrossOrderAndDuplicates)
{
    // B holds the same runs in a different order, plus a stale older
    // record for MT (newest wins) and one extra unmatched config.
    std::vector<obs::LedgerRecord> a = {sampleRecord("MT", 100.0),
                                        sampleRecord("KM", 200.0)};
    std::vector<obs::LedgerRecord> stale = {sampleRecord("MT", 999.0)};
    std::vector<obs::LedgerRecord> b;
    b.push_back(sampleRecord("KM", 200.0));
    b.push_back(stale[0]);
    b.push_back(sampleRecord("MT", 100.0)); // newest MT: matches A
    obs::LedgerRecord extra = sampleRecord("PR", 1.0);
    b.push_back(extra);

    obs::LedgerDiff diff = obs::diffLedgers(a, b);
    EXPECT_EQ(diff.driftedMetrics, 0u);
    EXPECT_TRUE(diff.pairs.empty()); // both matched pairs are clean
    EXPECT_TRUE(diff.unmatchedA.empty());
    ASSERT_EQ(diff.unmatchedB.size(), 1u);
    EXPECT_EQ(diff.unmatchedB[0], extra.matchKey());
    EXPECT_FALSE(diff.clean()); // unmatched records dirty the diff
}

TEST(LedgerDiff, WallNoiseWarnsButNeverFails)
{
    std::vector<obs::LedgerRecord> a = {sampleRecord("MT")};
    std::vector<obs::LedgerRecord> b = {sampleRecord("MT")};
    b[0].wall["wall_seconds"] = a[0].wall["wall_seconds"] * 10.0;
    b[0].wallTimestamp = "2026-02-02T02:02:02Z";

    obs::LedgerDiff diff = obs::diffLedgers(a, b);
    EXPECT_TRUE(diff.clean());
    EXPECT_EQ(diff.wallWarningCount, 1u);

    obs::LedgerDiffOptions loose;
    loose.wallRelTol = 100.0;
    EXPECT_EQ(obs::diffLedgers(a, b, loose).wallWarningCount, 0u);
}

TEST(LedgerDiff, MatchKeySeparatesAppScaleAndConfig)
{
    obs::LedgerRecord r = sampleRecord("MT");
    obs::LedgerRecord app = r, scl = r, key = r;
    app.app = "KM";
    scl.scale = 0.5;
    key.configKey = "cfg:other";
    EXPECT_NE(r.matchKey(), app.matchKey());
    EXPECT_NE(r.matchKey(), scl.matchKey());
    EXPECT_NE(r.matchKey(), key.matchKey());
    EXPECT_EQ(r.matchKey(), sampleRecord("MT").matchKey());
}

TEST(Ledger, SimulationRecordIsDeterministicAcrossRuns)
{
    // The acceptance criterion behind the whole PR: run the same
    // config twice, diff the ledger records — zero deterministic drift.
    cfg::SystemConfig config = sys::transFwConfig();
    sys::SimResults r1 = sys::runApp("MT", config, kScale);
    sys::SimResults r2 = sys::runApp("MT", config, kScale);
    obs::LedgerRecord a = sys::toLedgerRecord(r1, config, kScale, "test");
    obs::LedgerRecord b = sys::toLedgerRecord(r2, config, kScale, "test");
    EXPECT_EQ(a.metrics, b.metrics);

    obs::LedgerDiff diff = obs::diffLedgers({a}, {b});
    EXPECT_TRUE(diff.clean()) << diff.toMarkdown();

    // And a perturbed knob is detected: the config key no longer
    // matches, so the records pair with nothing.
    cfg::SystemConfig other = config;
    other.transFw.forwardThreshold += 0.25;
    sys::SimResults r3 = sys::runApp("MT", other, kScale);
    obs::LedgerRecord c = sys::toLedgerRecord(r3, other, kScale, "test");
    obs::LedgerDiff perturbed = obs::diffLedgers({a}, {c});
    EXPECT_FALSE(perturbed.clean());
}

TEST(Ledger, RecordCarriesExecAndBacklogMetrics)
{
    cfg::SystemConfig config = sys::baselineConfig();
    sys::SimResults r = sys::runApp("AES", config, kScale);
    obs::LedgerRecord rec = sys::toLedgerRecord(r, config, kScale, "t");
    EXPECT_EQ(rec.app, "AES");
    EXPECT_EQ(rec.configKey, config.key());
    EXPECT_GT(rec.metrics.at("exec.events"), 0.0);
    EXPECT_GT(rec.metrics.at("exec.peakEventBacklog"), 0.0);
    EXPECT_GT(rec.metrics.at("exec.cycles"), 0.0);
    EXPECT_FALSE(rec.wallTimestamp.empty());
    EXPECT_GT(rec.wall.at("wall_seconds"), 0.0);
    EXPECT_GT(rec.wall.at("profile.total_seconds"), 0.0);
}

TEST(Sweep, LedgerRecordsExecutedPointsWithJobCount)
{
    std::string path = tempPath("ledger_sweep.jsonl");
    sys::SweepRunner runner(2);
    runner.setLedgerPath(path);
    std::vector<sys::RunSpec> specs = {
        {"AES", sys::baselineConfig(), kScale},
        {"AES", sys::transFwConfig(), kScale},
        {"AES", sys::baselineConfig(), kScale}, // memo hit: no record
    };
    runner.run(specs);
    EXPECT_EQ(runner.stats().effectiveJobs, 2u);

    std::vector<std::string> errors;
    std::vector<obs::LedgerRecord> records =
        obs::RunLedger::load(path, &errors);
    EXPECT_TRUE(errors.empty());
    ASSERT_EQ(records.size(), 2u); // executed points only
    for (const obs::LedgerRecord &r : records) {
        EXPECT_EQ(r.source, "sweep");
        EXPECT_EQ(r.wall.at("jobs"), 2.0);
    }
    EXPECT_NE(records[0].matchKey(), records[1].matchKey());

    // Memo hits append nothing new.
    runner.run({specs[0]});
    EXPECT_EQ(obs::RunLedger::load(path, &errors).size(), 2u);
    std::remove(path.c_str());
}

TEST(Sweep, DefaultThreadsIsSane)
{
    EXPECT_GE(sim::TaskPool::defaultThreads(), 1u);
}

TEST(SelfProfiler, BucketsSumToTotalAndProfileIsPopulated)
{
    cfg::SystemConfig config = sys::transFwConfig();
    config.obs.selfProfile = true;
    config.obs.profileStride = 1; // sample every dispatch
    sys::SimResults r = sys::runApp("MT", config, kScale);

    const obs::HostProfile &p = r.hostProfile;
    EXPECT_EQ(p.stride, 1u);
    EXPECT_GT(p.dispatches, 0u);
    EXPECT_EQ(p.sampledDispatches, p.dispatches);
    EXPECT_GT(p.totalSeconds, 0.0);
    // Self-time buckets partition the sampled dispatch window, so the
    // sum must reconstruct the total up to float accumulation error.
    EXPECT_NEAR(p.bucketSum(), p.totalSeconds,
                0.01 * p.totalSeconds + 1e-9);
    // The simulation exercised at least the kernel, CU, GMMU and
    // Trans-FW paths; each must have absorbed some wall time.
    EXPECT_GT(p.seconds[static_cast<int>(obs::ProfBucket::ComputeUnit)],
              0.0);
    EXPECT_GT(p.seconds[static_cast<int>(obs::ProfBucket::Gmmu)], 0.0);
    EXPECT_GT(r.hostWallSeconds, 0.0);
    EXPECT_GT(r.hostEventsPerSec, 0.0);
    EXPECT_GT(r.peakEventBacklog, 0u);
}

TEST(SelfProfiler, DisabledProfilerRecordsNothing)
{
    cfg::SystemConfig config = sys::baselineConfig();
    config.obs.selfProfile = false;
    sys::SimResults r = sys::runApp("AES", config, kScale);
    EXPECT_EQ(r.hostProfile.stride, 0u);
    EXPECT_EQ(r.hostProfile.dispatches, 0u);
    EXPECT_EQ(r.hostProfile.bucketSum(), 0.0);

    obs::LedgerRecord rec = sys::toLedgerRecord(r, config, kScale, "t");
    EXPECT_EQ(rec.wall.count("profile.total_seconds"), 0u);
}

TEST(SelfProfiler, InstrumentationChangesNoResult)
{
    // The profiler, its stride and the interval sampler only watch the
    // run: every metric the registry carries must match bit for bit.
    cfg::SystemConfig driver = sys::transFwConfig();
    driver.faultMode = cfg::FaultMode::UvmDriver;
    const std::pair<const char *, cfg::SystemConfig> runs[] = {
        {"MT", sys::transFwConfig()},
        {"KM", driver},
    };
    using Tweak = void (*)(cfg::ObsConfig &);
    const std::pair<const char *, Tweak> variants[] = {
        {"profiler off", [](cfg::ObsConfig &o) { o.selfProfile = false; }},
        {"stride 1", [](cfg::ObsConfig &o) { o.profileStride = 1; }},
        {"sampler on", [](cfg::ObsConfig &o) { o.sampleInterval = 500; }},
    };
    for (const auto &[app, config] : runs) {
        ASSERT_TRUE(config.obs.selfProfile);
        ASSERT_EQ(config.obs.profileStride, 16u);
        ASSERT_EQ(config.obs.sampleInterval, 0u);
        std::map<std::string, double> base =
            sys::toRegistry(sys::runApp(app, config, kScale)).values();
        ASSERT_GT(base.size(), 100u);
        for (const auto &[label, tweak] : variants) {
            SCOPED_TRACE(std::string(app) + ", " + label);
            cfg::SystemConfig other = config;
            tweak(other.obs);
            std::map<std::string, double> got =
                sys::toRegistry(sys::runApp(app, other, kScale)).values();
            EXPECT_EQ(got.size(), base.size());
            for (const auto &[key, value] : base) {
                auto it = got.find(key);
                ASSERT_NE(it, got.end()) << key;
                EXPECT_EQ(it->second, value) << key;
            }
        }
    }
}

TEST(SelfProfiler, ConfigKeyCoversProfilerKnobs)
{
    cfg::SystemConfig ref = sys::baselineConfig();
    cfg::SystemConfig a = ref, b = ref;
    a.obs.selfProfile = !ref.obs.selfProfile;
    b.obs.profileStride = ref.obs.profileStride + 1;
    EXPECT_NE(a.key(), ref.key());
    EXPECT_NE(b.key(), ref.key());
}

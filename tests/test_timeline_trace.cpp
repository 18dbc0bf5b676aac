#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mini_json.hpp"
#include "transfw/transfw.hpp"

using namespace transfw;

// ---------------------------------------------------------------------------
// Unit: the export of a hand-driven timeline.
// ---------------------------------------------------------------------------

TEST(ChromeTrace, DrawsEachPhaseFromItsStart)
{
    obs::AttributionEngine eng;
    eng.setKeepTimelines(true);
    mmu::XlatPtr req = mmu::makeRequest();
    req->id = 7;
    eng.begin(req->lat, 1, 7, 0x42, 100);
    // A queue wait (charged when it ends) and a walk (charged when it
    // starts) both pass their phase's start tick.
    mmu::charge(*req, &eng, obs::AttribBucket::GmmuQueue, 20, 100);
    mmu::charge(*req, &eng, obs::AttribBucket::GmmuWalkMem, 80, 120);
    obs::AttribHop hop;
    hop.from = 1;
    hop.to = -1;
    hop.wait = 3;
    hop.ser = 2;
    hop.prop = 150;
    mmu::chargeHop(*req, &eng, obs::AttribBucket::Network, hop, 200);
    eng.forwardLaunched(req->lat, 360);
    eng.forwardOutcome(req->lat, true, true, 0, 500);
    eng.finish(req->lat, 1, 7, false, 520);
    mmu::charge(*req, &eng, obs::AttribBucket::HostWalkMem, 300, 400);

    std::ostringstream os;
    obs::writeChromeTrace(os, eng);
    JsonValue trace = parsedJson(os.str());

    std::map<std::string, const JsonValue *> byName;
    for (const JsonValue *s : traceEvents(trace, "X")) {
        EXPECT_EQ(s->num("pid"), 1.0);
        EXPECT_EQ(s->num("tid"), 7.0);
        EXPECT_EQ(s->get("args")->num("vpn"), 0x42);
        byName[s->str("name")] = s;
    }
    ASSERT_EQ(byName.size(), 6u);
    auto expectSlice = [&](const char *name, double ts, double dur) {
        ASSERT_TRUE(byName.count(name)) << name;
        EXPECT_EQ(byName[name]->num("ts"), ts) << name;
        EXPECT_EQ(byName[name]->num("dur"), dur) << name;
    };
    expectSlice("xlat", 100, 420);
    expectSlice("gmmuQueue", 100, 20);
    expectSlice("gmmuWalkMem", 120, 80);
    expectSlice("network", 200, 155);
    expectSlice("forward", 360, 140);
    expectSlice("hostWalkMem", 400, 300);

    // The root carries the charged total, which leaves the late walk out.
    EXPECT_EQ(byName["xlat"]->get("args")->num("charged"), 255.0);
    const JsonValue *net = byName["network"]->get("args");
    EXPECT_EQ(net->num("from"), 1.0);
    EXPECT_EQ(net->num("to"), -1.0);
    EXPECT_EQ(net->num("wait"), 3.0);
    EXPECT_EQ(net->num("ser"), 2.0);
    EXPECT_EQ(net->num("prop"), 150.0);
    EXPECT_EQ(byName["forward"]->get("args")->str("outcome"), "remoteWon");
    const JsonValue *late = byName["hostWalkMem"]->get("args")->get("late");
    ASSERT_NE(late, nullptr);
    EXPECT_TRUE(late->boolean);
    EXPECT_EQ(byName["gmmuWalkMem"]->get("args")->get("late"), nullptr);

    // One process per GPU, and no counter tracks without a sampler.
    std::vector<const JsonValue *> meta = traceEvents(trace, "M");
    ASSERT_EQ(meta.size(), 1u);
    EXPECT_EQ(meta[0]->get("args")->str("name"), "gpu1");
    EXPECT_TRUE(traceEvents(trace, "C").empty());
}

TEST(ChromeTrace, ExportsSamplerAsCounterTracks)
{
    obs::AttributionEngine eng;
    eng.setKeepTimelines(true);
    mmu::XlatPtr req = mmu::makeRequest();
    req->id = 1;
    eng.begin(req->lat, 0, 1, 0x42, 10);
    eng.finish(req->lat, 0, 1, false, 20);

    obs::IntervalSampler sampler;
    double v = 1.0;
    sampler.addColumn("queue.depth", [&v] { return v; });
    sim::EventQueue eq;
    sampler.start(eq, 5);
    eq.schedule(12, [] {}); // keep the queue alive past two samples
    eq.run();
    ASSERT_GT(sampler.rows(), 1u);

    std::ostringstream os;
    obs::writeChromeTrace(os, eng, &sampler);
    JsonValue trace = parsedJson(os.str());
    std::vector<const JsonValue *> counters = traceEvents(trace, "C");
    ASSERT_EQ(counters.size(), sampler.rows());
    for (const JsonValue *c : counters) {
        EXPECT_EQ(c->str("name"), "queue.depth");
        EXPECT_EQ(c->num("pid"), 1002.0);
        EXPECT_EQ(c->get("args")->num("value"), 1.0);
    }
    bool metrics_process = false;
    for (const JsonValue *m : traceEvents(trace, "M"))
        metrics_process |= m->num("pid") == 1002.0 &&
                           m->get("args")->str("name") == "metrics";
    EXPECT_TRUE(metrics_process);
    EXPECT_EQ(traceEvents(trace, "X").size(), 1u);

    // An engine with no kept timeline still exports valid JSON.
    obs::AttributionEngine empty;
    std::ostringstream bare;
    obs::writeChromeTrace(bare, empty, &sampler);
    JsonValue only_counters = parsedJson(bare.str());
    EXPECT_TRUE(traceEvents(only_counters, "X").empty());
    EXPECT_EQ(traceEvents(only_counters, "C").size(), sampler.rows());
}

// ---------------------------------------------------------------------------
// System: timelines and their export on every fabric configuration.
// ---------------------------------------------------------------------------

namespace {

struct TraceCase
{
    const char *name;
    const char *app;
    cfg::SystemConfig config;
};

TraceCase
fabricCase(const char *name, ic::Topology topology, int gpus, int shards)
{
    cfg::SystemConfig config = sys::transFwConfig();
    config.peerTopology = topology;
    config.numGpus = gpus;
    config.hostShards = shards;
    config.cusPerGpu = 4;
    return {name, "MT", config};
}

/** The check.sh fabric-gate matrix plus the 64-GPU 4-shard ring pod. */
std::vector<TraceCase>
traceCases()
{
    cfg::SystemConfig driver = sys::transFwConfig();
    driver.faultMode = cfg::FaultMode::UvmDriver;
    driver.cusPerGpu = 4;
    return {
        fabricCase("Ring16Shards4", ic::Topology::Ring, 16, 4),
        fabricCase("Mesh8Shards2", ic::Topology::Mesh2D, 8, 2),
        fabricCase("Switch16Shards2", ic::Topology::Switch, 16, 2),
        fabricCase("AllToAll8", ic::Topology::AllToAll, 8, 1),
        {"DriverKM", "KM", driver},
        fabricCase("Ring64Shards4", ic::Topology::Ring, 64, 4),
    };
}

void
PrintTo(const TraceCase &c, std::ostream *os)
{
    *os << c.name;
}

class TimelineTrace : public ::testing::TestWithParam<TraceCase>
{};

} // namespace

TEST_P(TimelineTrace, ExportsEveryRequestAndChecksClean)
{
    const TraceCase &c = GetParam();
    auto workload = wl::makeApp(c.app, 0.05);
    sys::MultiGpuSystem system(c.config, *workload);
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();

    EXPECT_EQ(system.obs().attribution.droppedTimelines(), 0u);
    EXPECT_EQ(r.obsCheckViolations, 0u);
    ASSERT_GT(r.attribution.requests, 0u);

    std::ostringstream os;
    obs::writeChromeTrace(os, system.obs().attribution);
    JsonValue trace = parsedJson(os.str());
    std::size_t roots = 0, hops = 0, peer_hops = 0;
    for (const JsonValue *s : traceEvents(trace, "X")) {
        roots += s->str("name") == "xlat";
        const JsonValue *args = s->get("args");
        if (!args->get("from"))
            continue;
        ++hops;
        peer_hops += args->num("from") >= 0 && args->num("to") >= 0;
    }
    EXPECT_EQ(roots, r.attribution.requests);
    EXPECT_GT(hops, 0u);
    EXPECT_GT(peer_hops, 0u) << "no fabric hop slices";
}

INSTANTIATE_TEST_SUITE_P(
    FabricConfigs, TimelineTrace, ::testing::ValuesIn(traceCases()),
    [](const ::testing::TestParamInfo<TraceCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// System: on the serial fault paths every request's wall time is charged.
// ---------------------------------------------------------------------------

namespace {

struct BalanceCase
{
    const char *name;
    const char *app;
    cfg::FaultMode faultMode;
    bool transFw;
};

void
PrintTo(const BalanceCase &c, std::ostream *os)
{
    *os << c.name;
}

class WallEqualsCharged : public ::testing::TestWithParam<BalanceCase>
{};

} // namespace

// The host-MMU baseline and both UVM-driver modes run each request's
// phases one after another (a driver forward replaces its walk rather
// than racing it), so every finished request's charged total must equal
// its wall time: a coalesced fault's wait behind its page's leader, a
// failed forward's re-queue and the driver's forward hop are all
// charged, and nothing is charged twice.
TEST_P(WallEqualsCharged, OnEveryFinishedRequest)
{
    const BalanceCase &c = GetParam();
    cfg::SystemConfig config = sys::baselineConfig();
    config.faultMode = c.faultMode;
    config.transFw.enabled = c.transFw;
    auto workload = wl::makeApp(c.app, 0.25);
    sys::MultiGpuSystem system(config, *workload);
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();
    EXPECT_EQ(r.obsCheckViolations, 0u);

    std::size_t checked = 0, unbalanced = 0;
    for (const obs::Timeline &tl : system.obs().attribution.timelines()) {
        if (!tl.finished)
            continue;
        const auto buckets = tl.buckets();
        double charged = 0;
        for (double b : buckets)
            charged += b;
        double wall = static_cast<double>(tl.tFinish - tl.tIssue);
        ++checked;
        if (std::abs(wall - charged) > 1.0 && unbalanced++ < 3)
            ADD_FAILURE() << "gpu" << tl.gpu << " req " << tl.id << ": wall "
                          << wall << ", charged " << charged;
    }
    EXPECT_EQ(unbalanced, 0u) << "of " << checked;
    EXPECT_EQ(checked, r.attribution.requests);
}

INSTANTIATE_TEST_SUITE_P(
    SerialPaths, WallEqualsCharged,
    ::testing::Values(
        BalanceCase{"MTBaseline", "MT", cfg::FaultMode::HostMmu, false},
        BalanceCase{"MTDriver", "MT", cfg::FaultMode::UvmDriver, false},
        BalanceCase{"MTDriverTransFw", "MT", cfg::FaultMode::UvmDriver,
                    true},
        BalanceCase{"KMBaseline", "KM", cfg::FaultMode::HostMmu, false},
        BalanceCase{"KMDriver", "KM", cfg::FaultMode::UvmDriver, false},
        BalanceCase{"KMDriverTransFw", "KM", cfg::FaultMode::UvmDriver,
                    true}),
    [](const ::testing::TestParamInfo<BalanceCase> &info) {
        return std::string(info.param.name);
    });

// A remote win overlaps the shootdown with the owner's page push, so
// nothing waits for it and it is charged nothing.
TEST(TimelineBalance, RemoteWinsChargeNoShootdown)
{
    auto workload = wl::makeApp("MT", 0.25);
    sys::MultiGpuSystem system(sys::transFwConfig(), *workload);
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();
    ASSERT_GT(r.attribution.remoteWins, 0u);
    std::size_t wins = 0;
    for (const obs::Timeline &tl : system.obs().attribution.timelines()) {
        bool won = false;
        for (const obs::AttribEvent &ev : tl.events)
            won |= ev.kind == obs::AttribEvent::Kind::RemoteWon;
        if (!won)
            continue;
        ++wins;
        EXPECT_EQ(tl.buckets()[static_cast<std::size_t>(
                      obs::AttribBucket::Shootdown)],
                  0.0)
            << "gpu" << tl.gpu << " req " << tl.id;
    }
    EXPECT_EQ(wins, r.attribution.remoteWins);
}

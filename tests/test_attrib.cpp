#include <gtest/gtest.h>

#include <sstream>

#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

/** Small sharing-heavy workload that exercises faults, forwards and
 *  migrations without taking long to run. */
wl::SyntheticSpec
tinySpec()
{
    wl::SyntheticSpec spec;
    spec.name = "attrib";
    spec.numCtas = 32;
    spec.memOpsPerCta = 24;
    spec.computePerOp = 2;
    spec.regions = {
        {.name = "hot", .pages = 32, .pattern = wl::Pattern::Random,
         .shareDegree = 64, .weight = 0.5, .writeFrac = 0.3, .reuse = 2},
        {.name = "own", .pages = 128, .weight = 0.5, .reuse = 2},
    };
    return spec;
}

constexpr auto kNetwork = obs::AttribBucket::Network;
constexpr auto kNet = static_cast<std::size_t>(kNetwork);

/** A host -> GPU control hop: 2-cycle token plus 150 of propagation. */
obs::AttribHop
ctrlHop()
{
    obs::AttribHop hop;
    hop.from = -1;
    hop.to = 0;
    hop.ser = 2;
    hop.prop = 150;
    return hop;
}

mmu::XlatPtr
request(std::uint64_t id)
{
    mmu::XlatPtr req = mmu::makeRequest();
    req->id = id;
    return req;
}

} // namespace

// ---------------------------------------------------------------------------
// Unit: reply-race accounting on a hand-driven engine.
// ---------------------------------------------------------------------------

TEST(AttributionEngine, HardwareRaceDuplicateWalkMeasuredSaving)
{
    obs::AttributionEngine eng;
    obs::RequestLatency lat;

    eng.begin(lat, 0, 1, 0x10, 100);
    eng.charge(lat, kNetwork, 20, 120);
    eng.forwardLaunched(lat, 150);
    // Remote reply wins at t=300 (hardware path: est_saved == 0 keeps
    // the race open until the losing walk reports).
    eng.forwardOutcome(lat, true, true, 0, 300);
    eng.finish(lat, 0, 1, false, 320);

    // The loser crosses the line at t=450: measured saving 450 - 300.
    eng.hostWalkDone(lat, true, 450);

    const obs::AttributionTable &t = eng.table();
    EXPECT_EQ(t.requests, 1u);
    EXPECT_DOUBLE_EQ(t.bucket[kNet], 20.0);
    EXPECT_EQ(t.forwards, 1u);
    EXPECT_EQ(t.remoteWins, 1u);
    EXPECT_EQ(t.duplicateHostWalks, 1u);
    EXPECT_DOUBLE_EQ(t.forwardSavedCycles, 150.0);
    EXPECT_DOUBLE_EQ(t.forwardSavedEstCycles, 0.0);
    EXPECT_DOUBLE_EQ(t.forwardWastedCycles, 0.0);
    // Race closed, and with timelines off the engine kept nothing.
    eng.finalize();
    EXPECT_EQ(eng.table().unresolvedRaces, 0u);
    EXPECT_EQ(eng.timeline(0, 1), nullptr);
}

TEST(AttributionEngine, CancelledWalkBooksEstimatedSaving)
{
    obs::AttributionEngine eng;
    obs::RequestLatency lat;

    eng.forwardLaunched(lat, 10);
    eng.forwardOutcome(lat, true, true, 0, 90);
    eng.finish(lat, 0, 2, false, 95);
    eng.hostWalkCancelled(lat, 500, 100);

    EXPECT_EQ(eng.table().cancelledHostWalks, 1u);
    EXPECT_DOUBLE_EQ(eng.table().forwardSavedEstCycles, 500.0);
    eng.finalize();
    EXPECT_EQ(eng.table().unresolvedRaces, 0u);
}

TEST(AttributionEngine, FailedAndLosingForwardsBookWaste)
{
    obs::AttributionEngine eng;

    // FT false positive: remote service 40 cycles wasted.
    obs::RequestLatency failed;
    eng.forwardLaunched(failed, 100);
    eng.forwardOutcome(failed, false, false, 0, 140);
    EXPECT_EQ(eng.table().failedForwards, 1u);
    EXPECT_DOUBLE_EQ(eng.table().forwardWastedCycles, 40.0);

    // Host walk wins: remote service 60 cycles wasted.
    obs::RequestLatency lost;
    eng.forwardLaunched(lost, 200);
    eng.forwardOutcome(lost, true, false, 0, 260);
    EXPECT_EQ(eng.table().hostWins, 1u);
    EXPECT_DOUBLE_EQ(eng.table().forwardWastedCycles, 100.0);
}

TEST(AttributionEngine, DriverForwardClosesRaceImmediately)
{
    obs::AttributionEngine eng;
    obs::RequestLatency lat;

    eng.forwardLaunched(lat, 50);
    // Driver path: est_saved > 0 means no walk races the forward.
    eng.forwardOutcome(lat, true, true, 600, 200);
    eng.finish(lat, 1, 5, false, 210);

    EXPECT_EQ(eng.table().remoteWins, 1u);
    EXPECT_DOUBLE_EQ(eng.table().forwardSavedEstCycles, 600.0);
    EXPECT_EQ(lat.race, obs::RequestLatency::Race::None);
    eng.finalize();
    EXPECT_EQ(eng.table().unresolvedRaces, 0u);
}

TEST(AttributionEngine, OpenRacesAreCountedAtFinalize)
{
    obs::AttributionEngine eng;
    obs::RequestLatency open, won, closed;

    eng.forwardLaunched(open, 10);
    eng.forwardLaunched(won, 10);
    eng.forwardOutcome(won, true, true, 0, 50); // awaits its loser
    eng.forwardLaunched(closed, 10);
    eng.forwardOutcome(closed, false, false, 0, 50);
    // A relaunch on an open race opens nothing new.
    eng.forwardLaunched(open, 60);

    eng.finalize();
    EXPECT_EQ(eng.table().unresolvedRaces, 2u);
    EXPECT_EQ(eng.table().forwards, 4u);
}

TEST(AttributionEngine, LateChargesStayOffTheBucketTable)
{
    obs::AttributionEngine eng;

    mmu::XlatPtr req = request(6);
    mmu::charge(*req, &eng, obs::AttribBucket::HostWalkMem, 300, 50);
    eng.forwardLaunched(req->lat, 60);
    eng.forwardOutcome(req->lat, true, true, 0, 80);
    eng.finish(req->lat, 0, 6, false, 400);
    // The race loser's remote service arrives after finish.
    mmu::charge(*req, &eng, obs::AttribBucket::RemoteWalk, 120, 430);

    EXPECT_EQ(eng.table().lateCharges, 1u);
    EXPECT_DOUBLE_EQ(eng.table().lateCycles, 120.0);
    // Bucket totals only reflect pre-finish charges.
    EXPECT_DOUBLE_EQ(eng.table().bucketTotal(), 300.0);
    EXPECT_DOUBLE_EQ(req->lat.total(), 300.0);
}

TEST(AttributionEngine, LateHopStaysOffBucketAndHopSum)
{
    obs::AttributionEngine eng;
    obs::Checks checks;
    eng.attachChecks(&checks);

    mmu::XlatPtr req = request(8);
    mmu::chargeHop(*req, &eng, kNetwork, ctrlHop(), 152);
    eng.finish(req->lat, 0, 8, false, 200);
    mmu::chargeHop(*req, &eng, kNetwork, ctrlHop(), 352);

    EXPECT_EQ(eng.table().lateCharges, 1u);
    EXPECT_DOUBLE_EQ(eng.table().lateCycles, 152.0);
    EXPECT_DOUBLE_EQ(req->lat.bucket[kNet], 152.0);
    EXPECT_DOUBLE_EQ(req->lat.netHopCycles, 152.0);
    EXPECT_DOUBLE_EQ(eng.table().bucket[kNet], 152.0);
    EXPECT_EQ(checks.violations(), 0u);
}

TEST(AttributionEngine, RepeatedFinishFoldsOnce)
{
    obs::AttributionEngine eng;
    obs::Checks checks;
    eng.attachChecks(&checks);

    mmu::XlatPtr req = request(7);
    mmu::charge(*req, &eng, obs::AttribBucket::HostQueue, 80, 40);
    eng.finish(req->lat, 1, 7, false, 100);
    eng.finish(req->lat, 1, 7, false, 130);

    // The second finish neither re-folds the buckets nor re-runs the
    // watchdog.
    EXPECT_EQ(eng.table().requests, 1u);
    EXPECT_DOUBLE_EQ(eng.table().bucketTotal(), 80.0);
    EXPECT_EQ(eng.table().lateCharges, 0u);
    EXPECT_EQ(checks.checkedRequests(), 1u);
}

TEST(AttributionTable, FieldTotalsPartitionTheBuckets)
{
    using obs::AttribBucket;
    using obs::LatField;
    obs::AttributionEngine eng;

    // Bucket i holds 2^i cycles, split across two requests, so each
    // field total names exactly the buckets it groups.
    auto cycles = [](AttribBucket b) {
        return static_cast<double>(1u << static_cast<unsigned>(b));
    };
    obs::RequestLatency odd, even;
    for (std::size_t i = 0; i < obs::kNumAttribBuckets; ++i) {
        auto b = static_cast<AttribBucket>(i);
        (i % 2 ? odd : even).add(b, cycles(b));
    }
    eng.finish(odd, 0, 1, false, 10);
    eng.finish(even, 0, 2, false, 20);

    const obs::AttributionTable &t = eng.table();
    EXPECT_EQ(t.requests, 2u);
    EXPECT_DOUBLE_EQ(t.bucketTotal(), odd.total() + even.total());
    EXPECT_DOUBLE_EQ(t.fieldTotal(LatField::GmmuQueue),
                     cycles(AttribBucket::L2TlbQueue) +
                         cycles(AttribBucket::GmmuQueue));
    EXPECT_DOUBLE_EQ(t.fieldTotal(LatField::GmmuMem),
                     cycles(AttribBucket::GmmuWalkMem));
    EXPECT_DOUBLE_EQ(t.fieldTotal(LatField::HostQueue),
                     cycles(AttribBucket::HostRoute) +
                         cycles(AttribBucket::HostQueue));
    EXPECT_DOUBLE_EQ(t.fieldTotal(LatField::HostMem),
                     cycles(AttribBucket::HostWalkMem));
    EXPECT_DOUBLE_EQ(t.fieldTotal(LatField::Migration),
                     cycles(AttribBucket::Migration));
    EXPECT_DOUBLE_EQ(t.fieldTotal(LatField::Network),
                     cycles(AttribBucket::Network));

    double fields = 0;
    for (std::size_t f = 0; f < static_cast<std::size_t>(LatField::kCount);
         ++f)
        fields += t.fieldTotal(static_cast<LatField>(f));
    EXPECT_DOUBLE_EQ(fields, t.bucketTotal());
}

TEST(AttributionEngine, TimelinesRecordCausalEvents)
{
    obs::AttributionEngine eng;
    eng.setKeepTimelines(true);

    mmu::XlatPtr req = request(9);
    eng.begin(req->lat, 2, 9, 0x90, 1000);
    mmu::charge(*req, &eng, obs::AttribBucket::PrtLookup, 1, 1000);
    eng.shortCircuited(req->lat, 600, 1001);
    mmu::chargeHop(*req, &eng, kNetwork, ctrlHop(), 1001);
    eng.finish(req->lat, 2, 9, true, 1200);

    const obs::Timeline *tl = eng.timeline(2, 9);
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->gpu, 2);
    EXPECT_EQ(tl->id, 9u);
    EXPECT_EQ(tl->vpn, 0x90u);
    EXPECT_EQ(tl->tIssue, 1000u);
    EXPECT_TRUE(tl->finished);
    EXPECT_EQ(tl->tFinish, 1200u);
    EXPECT_DOUBLE_EQ(tl->buckets()[kNet], 152.0);
    EXPECT_EQ(eng.timeline(2, 10), nullptr);
    ASSERT_EQ(tl->events.size(), 4u);
    EXPECT_EQ(tl->events[0].tick, 1000u); // phases keep their start tick
    EXPECT_EQ(tl->events[2].tick, 1001u);
    EXPECT_EQ(tl->events[1].kind, obs::AttribEvent::Kind::ShortCircuit);
    EXPECT_EQ(tl->events[2].kind, obs::AttribEvent::Kind::NetworkHop);
    EXPECT_EQ(tl->events.back().kind, obs::AttribEvent::Kind::Finish);
    EXPECT_DOUBLE_EQ(tl->events.back().cycles, 153.0); // charged total
    EXPECT_EQ(eng.slowestRequest(), (std::pair<int, std::uint64_t>{2, 9}));
    EXPECT_EQ(eng.table().shortCircuits, 1u);
    EXPECT_DOUBLE_EQ(eng.table().shortCircuitSavedEstCycles, 600.0);
    // Traced charges land in the request's buckets like plain ones.
    EXPECT_DOUBLE_EQ(eng.table().bucketTotal(), 153.0);
    EXPECT_DOUBLE_EQ(req->lat.netHopCycles, 152.0);
}

TEST(AttributionEngine, TimelineTagsLateChargesAndUncountedHops)
{
    obs::AttributionEngine eng;
    eng.setKeepTimelines(true);

    mmu::XlatPtr req = request(5);
    eng.begin(req->lat, 0, 5, 0x50, 0);
    mmu::charge(*req, &eng, obs::AttribBucket::HostQueue, 30, 10);
    eng.hop(req->lat, obs::AttribBucket::Migration, ctrlHop(),
            /*counted=*/false, 40);
    mmu::charge(*req, &eng, obs::AttribBucket::Migration, 152, 40);
    eng.finish(req->lat, 0, 5, false, 300);
    mmu::charge(*req, &eng, obs::AttribBucket::HostWalkMem, 500, 250);

    const obs::Timeline *tl = eng.timeline(0, 5);
    ASSERT_NE(tl, nullptr);
    ASSERT_EQ(tl->events.size(), 5u);
    EXPECT_TRUE(tl->events[1].uncounted);
    EXPECT_FALSE(tl->events[2].late);
    EXPECT_FALSE(tl->events[3].late); // the Finish itself
    EXPECT_TRUE(tl->events[4].late);
    // The event sums are the request's buckets: the payload hop is
    // inside the Migration lump and the late walk stays off.
    const auto buckets = tl->buckets();
    for (std::size_t b = 0; b < obs::kNumAttribBuckets; ++b)
        EXPECT_EQ(buckets[b], req->lat.bucket[b])
            << obs::bucketName(static_cast<obs::AttribBucket>(b));
    EXPECT_DOUBLE_EQ(tl->events[3].cycles, 182.0); // Finish: the total
}

TEST(AttributionEngine, TimelineCapDropsAndCounts)
{
    constexpr std::size_t kCap = obs::AttributionEngine::kMaxTimelines;
    obs::AttributionEngine eng;
    eng.setKeepTimelines(true);
    for (std::uint64_t id = 1; id <= kCap; ++id) {
        obs::RequestLatency lat;
        eng.begin(lat, 0, id, id, id);
    }
    // Past the cap: no timeline, yet attributed in full.
    mmu::XlatPtr dropped = request(kCap + 1);
    eng.begin(dropped->lat, 0, kCap + 1, 0x1, 10);
    EXPECT_EQ(dropped->lat.timeline, nullptr);
    mmu::charge(*dropped, &eng, obs::AttribBucket::Replay, 3, 10);
    eng.finish(dropped->lat, 0, kCap + 1, false, 13);

    EXPECT_EQ(eng.timelines().size(), kCap);
    EXPECT_EQ(eng.droppedTimelines(), 1u);
    EXPECT_EQ(eng.timeline(0, kCap + 1), nullptr);
    EXPECT_EQ(eng.table().requests, 1u);
    EXPECT_DOUBLE_EQ(eng.table().bucketTotal(), 3.0);
}

// ---------------------------------------------------------------------------
// Unit: the invariant watchdog itself. Strict builds panic on
// violation, so the negative cases only run in counting mode.
// ---------------------------------------------------------------------------

#if !TRANSFW_OBS_STRICT
TEST(ObsChecks, CatchesPlainChargeBesideCountedHops)
{
    obs::AttributionEngine eng;
    obs::Checks checks;
    eng.attachChecks(&checks);

    // Balanced: every Network cycle arrived as a tagged hop.
    mmu::XlatPtr clean = request(1);
    mmu::chargeHop(*clean, &eng, kNetwork, ctrlHop(), 152);
    eng.finish(clean->lat, 0, 1, false, 200);
    EXPECT_EQ(checks.violations(), 0u);

    // A plain charge slips into Network next to a tagged hop.
    mmu::XlatPtr mixed = request(2);
    mmu::chargeHop(*mixed, &eng, kNetwork, ctrlHop(), 152);
    mmu::charge(*mixed, &eng, kNetwork, 40, 160);
    eng.finish(mixed->lat, 0, 2, false, 300);

    EXPECT_EQ(checks.violations(), 1u);
    EXPECT_EQ(checks.checkedRequests(), 2u);
    ASSERT_FALSE(checks.messages().empty());

    checks.clear();
    EXPECT_EQ(checks.violations(), 0u);
}

TEST(ObsChecks, CatchesPlainChargeBesideCountedRouteHops)
{
    constexpr auto kRoute = obs::AttribBucket::HostRoute;
    obs::AttributionEngine eng;
    obs::Checks checks;
    eng.attachChecks(&checks);

    // A host front end -> shard 1 crossbar hop: 4 cycles of
    // serialization.
    obs::AttribHop crossbar;
    crossbar.to = 1;
    crossbar.ser = 4;

    // Network balances, but a plain charge slips into HostRoute next
    // to its tagged crossbar hop.
    mmu::XlatPtr req = request(4);
    mmu::chargeHop(*req, &eng, kNetwork, ctrlHop(), 152);
    mmu::chargeHop(*req, &eng, kRoute, crossbar, 156);
    mmu::charge(*req, &eng, kRoute, 4, 156);
    eng.finish(req->lat, 0, 4, false, 300);

    EXPECT_EQ(checks.violations(), 1u);
    ASSERT_EQ(checks.messages().size(), 1u);
    EXPECT_NE(checks.messages()[0].find("hostRoute"), std::string::npos);
}

TEST(ObsChecks, CatchesLocalWalkOnShortCircuit)
{
    obs::AttributionEngine eng;
    obs::Checks checks;
    eng.attachChecks(&checks);

    mmu::XlatPtr req = request(3);
    mmu::charge(*req, &eng, obs::AttribBucket::GmmuWalkMem, 500, 10);
    eng.finish(req->lat, 0, 3, /*short_circuit=*/true, 600);

    EXPECT_EQ(checks.violations(), 1u);
}

TEST(ObsChecks, TimelineCheckPassesAndFails)
{
    obs::AttributionEngine eng;
    eng.setKeepTimelines(true);
    constexpr auto kWalk = obs::AttribBucket::GmmuWalkMem;

    // Request 1: its queue wait and walk lie inside [100, 400].
    mmu::XlatPtr clean = request(1);
    eng.begin(clean->lat, 0, 1, 0x1, 100);
    mmu::charge(*clean, &eng, obs::AttribBucket::GmmuQueue, 40, 110);
    mmu::charge(*clean, &eng, kWalk, 150, 150);
    eng.finish(clean->lat, 0, 1, false, 400);
    obs::Checks checks;
    EXPECT_EQ(checks.verifyTimelines(eng), 0u);

    // Request 2: a walk that runs past the finish, with no forward to
    // excuse it. Request 3: a charge starting before its tIssue.
    mmu::XlatPtr late_walk = request(2);
    eng.begin(late_walk->lat, 0, 2, 0x2, 480);
    mmu::charge(*late_walk, &eng, kWalk, 400, 500);
    eng.finish(late_walk->lat, 0, 2, false, 700);
    mmu::XlatPtr early = request(3);
    eng.begin(early->lat, 1, 3, 0x3, 1000);
    mmu::charge(*early, &eng, obs::AttribBucket::HostQueue, 50, 990);
    eng.finish(early->lat, 1, 3, false, 1200);

    EXPECT_EQ(checks.verifyTimelines(eng), 2u);
    ASSERT_EQ(checks.messages().size(), 2u);
    EXPECT_NE(checks.messages()[0].find("gpu0 req 2: gmmuWalkMem"),
              std::string::npos)
        << checks.messages()[0];
    EXPECT_NE(checks.messages()[1].find("gpu1 req 3: hostQueue"),
              std::string::npos)
        << checks.messages()[1];
}

TEST(ObsChecks, TimelineCheckKeepsCheckingPastTheCap)
{
    obs::AttributionEngine eng;
    eng.setKeepTimelines(true);
    // The first request's walk runs past its finish.
    mmu::XlatPtr bad = request(1);
    eng.begin(bad->lat, 0, 1, 0x1, 100);
    mmu::charge(*bad, &eng, obs::AttribBucket::GmmuWalkMem, 500, 100);
    eng.finish(bad->lat, 0, 1, false, 200);
    for (std::uint64_t id = 2;
         id <= obs::AttributionEngine::kMaxTimelines + 2; ++id) {
        obs::RequestLatency lat;
        eng.begin(lat, 0, id, id, 300);
    }
    // Two requests got no timeline, yet the kept ones are still checked.
    obs::Checks checks;
    EXPECT_EQ(eng.droppedTimelines(), 2u);
    EXPECT_EQ(checks.verifyTimelines(eng), 1u);
}
#endif // !TRANSFW_OBS_STRICT

TEST(ObsChecks, TimelineCheckSkipsLateChargesAndRaceOverhangs)
{
    obs::AttributionEngine eng;
    eng.setKeepTimelines(true);

    // A forward races the host walk; the remote reply wins at 250 and
    // the request finishes at 300, while its host walk runs to 600.
    mmu::XlatPtr raced = request(1);
    eng.begin(raced->lat, 0, 1, 0x1, 0);
    eng.forwardLaunched(raced->lat, 50);
    mmu::charge(*raced, &eng, obs::AttribBucket::HostQueue, 40, 60);
    mmu::charge(*raced, &eng, obs::AttribBucket::HostWalkMem, 500, 100);
    eng.forwardOutcome(raced->lat, true, true, 0, 250);
    eng.finish(raced->lat, 0, 1, false, 300);
    // The loser's remote-side charge after finish is booked late.
    mmu::charge(*raced, &eng, obs::AttribBucket::RemoteWalk, 100, 350);
    eng.hostWalkDone(raced->lat, true, 600);

    // A request still in flight at the end of the run is not checked.
    mmu::XlatPtr open = request(2);
    eng.begin(open->lat, 0, 2, 0x2, 700);
    mmu::charge(*open, &eng, obs::AttribBucket::HostQueue, 1000, 700);

    obs::Checks checks;
    EXPECT_EQ(checks.verifyTimelines(eng), 0u);
    EXPECT_EQ(checks.violations(), 0u);
    EXPECT_TRUE(eng.timeline(0, 1)->events.back().kind ==
                obs::AttribEvent::Kind::DuplicateHostWalk);
}

// ---------------------------------------------------------------------------
// Filter / map gauge satellites.
// ---------------------------------------------------------------------------

TEST(AttributionGauges, SystemRegistersObservabilityGauges)
{
    wl::SyntheticWorkload workload(tinySpec());
    cfg::SystemConfig config = sys::transFwConfig();
    config.cusPerGpu = 6;

    sys::MultiGpuSystem system(config, workload);
    (void)system.run();

    obs::MetricRegistry &reg = system.obs().metrics;
    std::string json = reg.toJson();
    for (const char *key :
         {"obs.checks.violations",
          "obs.attrib.forwardSavedCycles", "host.ft.kicks",
          "host.ft.observedFpRate", "host.ft.refMap.loadFactor",
          "gpu0.prt.kicks", "gpu0.prt.observedFpRate",
          "gpu0.prt.groupMap.tombstones",
          "host.migration.busy.loadFactor",
          "host.mmu.queueDepth"}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing gauge " << key;
    }
    // Rates and load factors stay inside [0, 1] (the sampler column
    // contract for *hitRate* / *loadFactor* names).
    EXPECT_GE(system.forwardingTable()->observedFpRate(), 0.0);
    EXPECT_LE(system.forwardingTable()->observedFpRate(), 1.0);
}

// ---------------------------------------------------------------------------
// System: the watchdog holds end-to-end, and keeping timelines is
// purely observational.
// ---------------------------------------------------------------------------

TEST(AttributionSystem, TransFwRunBalancesAndResolvesRaces)
{
    wl::SyntheticWorkload workload(tinySpec());
    cfg::SystemConfig config = sys::transFwConfig();
    config.cusPerGpu = 6;

    sys::SimResults r = sys::runWorkload(workload, config);

    EXPECT_EQ(r.obsCheckViolations, 0u);
    EXPECT_GT(r.obsCheckedRequests, 0u);
    EXPECT_EQ(r.obsCheckedRequests, r.attribution.requests);
    EXPECT_EQ(r.attribution.requests, r.l2TlbMisses);
    EXPECT_EQ(r.attribution.unresolvedRaces, 0u);
    // The ledger agrees with the component counters.
    EXPECT_EQ(r.attribution.forwards, r.forwards);
    EXPECT_EQ(r.attribution.failedForwards, r.forwardFail);
    EXPECT_EQ(r.attribution.remoteWins + r.attribution.hostWins,
              r.forwardSuccess);
    EXPECT_EQ(r.attribution.duplicateHostWalks, r.duplicateWalks);
    EXPECT_EQ(r.attribution.shortCircuits, r.shortCircuits);
    EXPECT_GT(r.attribution.bucketTotal(), 0.0);
    EXPECT_GE(r.attribution.forwardSavedCycles, 0.0);
    EXPECT_GE(r.attribution.forwardWastedCycles, 0.0);
}

namespace {

void
expectSameAttribution(const obs::AttributionTable &a,
                      const obs::AttributionTable &b)
{
    for (std::size_t i = 0; i < obs::kNumAttribBuckets; ++i)
        EXPECT_EQ(a.bucket[i], b.bucket[i])
            << obs::bucketName(static_cast<obs::AttribBucket>(i));
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.forwards, b.forwards);
    EXPECT_EQ(a.remoteWins, b.remoteWins);
    EXPECT_EQ(a.hostWins, b.hostWins);
    EXPECT_EQ(a.failedForwards, b.failedForwards);
    EXPECT_EQ(a.cancelledHostWalks, b.cancelledHostWalks);
    EXPECT_EQ(a.duplicateHostWalks, b.duplicateHostWalks);
    EXPECT_EQ(a.unresolvedRaces, b.unresolvedRaces);
    EXPECT_EQ(a.forwardSavedCycles, b.forwardSavedCycles);
    EXPECT_EQ(a.forwardSavedEstCycles, b.forwardSavedEstCycles);
    EXPECT_EQ(a.forwardWastedCycles, b.forwardWastedCycles);
    EXPECT_EQ(a.shortCircuits, b.shortCircuits);
    EXPECT_EQ(a.shortCircuitSavedEstCycles, b.shortCircuitSavedEstCycles);
    EXPECT_EQ(a.lateCharges, b.lateCharges);
    EXPECT_EQ(a.lateCycles, b.lateCycles);
}

sys::SimResults
runKeepingTimelines(const std::string &app, const cfg::SystemConfig &config,
                    bool keep)
{
    auto workload = wl::makeApp(app, 0.25);
    sys::MultiGpuSystem system(config, *workload);
    system.obs().attribution.setKeepTimelines(keep);
    return system.run();
}

} // namespace

TEST(AttributionSystem, KeepingTimelinesChangesNoResult)
{
    // `transfw explain`'s path: timelines route every charge through the
    // engine and trace migration payloads hop by hop. Neither may move
    // a simulated result or an attribution total.
    cfg::SystemConfig remote_map = sys::transFwConfig();
    remote_map.migrationPolicy = cfg::MigrationPolicy::RemoteMap;
    const std::pair<std::string, cfg::SystemConfig> runs[] = {
        {"MT", sys::transFwConfig()},
        {"PR", remote_map},
    };
    for (const auto &[app, config] : runs) {
        SCOPED_TRACE(app);
        sys::SimResults plain = runKeepingTimelines(app, config, false);
        sys::SimResults kept = runKeepingTimelines(app, config, true);
        EXPECT_EQ(plain.execTime, kept.execTime);
        EXPECT_EQ(plain.eventsExecuted, kept.eventsExecuted);
        EXPECT_EQ(plain.farFaults, kept.farFaults);
        expectSameAttribution(plain.attribution, kept.attribution);
        EXPECT_EQ(plain.obsCheckedRequests, kept.obsCheckedRequests);
        EXPECT_EQ(kept.obsCheckViolations, 0u);
        EXPECT_GT(plain.attribution.lateCharges, 0u);
    }
}

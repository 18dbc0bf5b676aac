/**
 * The event kernel's canonical order. MultiGpuSystem merges the host
 * queue and one queue per GPU by (tick, host first, GPU index); each
 * queue orders its own events by (tick, seq). These tests pin that
 * order with probe events scheduled before run(), check that the
 * merge's cached next ticks follow queues that gain earlier work,
 * record every dispatch of whole runs across the config matrix and
 * require it to be sorted by (tick, queue), check that sampler rows
 * see every queue at the row tick, and keep one run-twice identity
 * check on an 8-GPU ring pod.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

/** Sharing-heavy workload: faults, migrations and remote traffic on
 *  every GPU. */
wl::SyntheticSpec
sharingSpec(const char *name, int ctas)
{
    wl::SyntheticSpec spec;
    spec.name = name;
    spec.numCtas = ctas;
    spec.memOpsPerCta = 30;
    spec.computePerOp = 2;
    spec.regions = {
        {.name = "hot", .pages = 48, .pattern = wl::Pattern::Random,
         .shareDegree = 64, .weight = 0.5, .writeFrac = 0.4, .reuse = 2},
        {.name = "own", .pages = 192, .weight = 0.5, .reuse = 2},
    };
    return spec;
}

/** A 2-GPU system plus a log the probe events append to. */
struct Probe
{
    Probe() : workload(sharingSpec("probe", 8)), system(config(), workload)
    {}

    static cfg::SystemConfig
    config()
    {
        cfg::SystemConfig c = sys::baselineConfig();
        c.numGpus = 2;
        c.cusPerGpu = 1;
        return c;
    }

    /** Schedule an event on @p eq at @p tick that logs @p tag. */
    void
    at(sim::EventQueue &eq, sim::Tick tick, std::string tag)
    {
        eq.scheduleAt(tick, [this, tag]() { log.push_back(tag); });
    }

    wl::SyntheticWorkload workload;
    sys::MultiGpuSystem system;
    std::vector<std::string> log;
};

constexpr sim::Tick kTick = 7;

/** Far past the probe workload's last event: from here on only the
 *  probes keep queues busy, so each queue's cached next tick is a
 *  probe's tick. */
constexpr sim::Tick kIdle = 10'000'000;

/**
 * Records the (tick, queue) key of every dispatch on the host queue
 * (queue 0) and each GPU queue (queue g + 1) and keeps the first step
 * where the key went down. Needs config.obs.selfProfile off: run()
 * otherwise installs the profiler as every queue's dispatch hook.
 */
class OrderRecorder
{
  public:
    explicit OrderRecorder(sys::MultiGpuSystem &system)
    {
        watch(system.eventq());
        for (int g = 0; g < system.config().numGpus; ++g)
            watch(system.gpuEventq(g));
    }

    std::uint64_t dispatches() const { return dispatches_; }
    /** Dispatches per queue, host first. */
    const std::vector<std::uint64_t> &perQueue() const { return perQueue_; }
    /** "(tick,queue) after (tick,queue)" for the first step that went
     *  down; empty while the order holds. */
    const std::string &violation() const { return violation_; }

  private:
    struct Hook : sim::EventQueue::DispatchHook
    {
        Hook(OrderRecorder &r, sim::EventQueue &q, std::size_t i)
            : rec(r), eq(q), index(i)
        {}
        void beginDispatch() override { rec.note(eq.now(), index); }
        void endDispatch() override {}

        OrderRecorder &rec;
        sim::EventQueue &eq;
        std::size_t index;
    };

    void
    watch(sim::EventQueue &eq)
    {
        hooks_.push_back(
            std::make_unique<Hook>(*this, eq, hooks_.size()));
        eq.setDispatchHook(hooks_.back().get());
        perQueue_.push_back(0);
    }

    void
    note(sim::Tick tick, std::size_t queue)
    {
        if (dispatches_ && violation_.empty() &&
            std::tie(tick, queue) < std::tie(lastTick_, lastQueue_)) {
            violation_ = "(" + std::to_string(tick) + "," +
                         std::to_string(queue) + ") after (" +
                         std::to_string(lastTick_) + "," +
                         std::to_string(lastQueue_) + ")";
        }
        lastTick_ = tick;
        lastQueue_ = queue;
        ++dispatches_;
        ++perQueue_[queue];
    }

    std::vector<std::unique_ptr<Hook>> hooks_;
    std::vector<std::uint64_t> perQueue_;
    std::uint64_t dispatches_ = 0;
    sim::Tick lastTick_ = 0;
    std::size_t lastQueue_ = 0;
    std::string violation_;
};

/**
 * Run @p workload under @p config and require every dispatch of the
 * whole run to follow the canonical (tick, queue) order, with every
 * queue taking part and the far-fault path exercised.
 */
void
expectCanonicalRun(const wl::Workload &workload, cfg::SystemConfig config)
{
    config.obs.selfProfile = false;
    sys::MultiGpuSystem system(config, workload);
    OrderRecorder rec(system);
    sys::SimResults r = system.run();
    EXPECT_GT(r.farFaults, 0u);
    EXPECT_EQ(r.obsCheckViolations, 0u);
    EXPECT_EQ(rec.dispatches(), r.eventsExecuted);
    EXPECT_EQ(rec.violation(), "");
    for (std::size_t q = 0; q < rec.perQueue().size(); ++q)
        EXPECT_GT(rec.perQueue()[q], 0u) << "queue " << q << " never ran";
}

} // namespace

TEST(EventOrder, HostRunsBeforeGpuOnSameTick)
{
    Probe p;
    // Scheduled first, yet the host event at the same tick runs first.
    p.at(p.system.gpuEventq(0), kTick, "gpu0");
    p.at(p.system.eventq(), kTick, "host");
    p.system.run();
    EXPECT_EQ(p.log, (std::vector<std::string>{"host", "gpu0"}));
}

TEST(EventOrder, LowerGpuIndexRunsFirstOnSameTick)
{
    Probe p;
    p.at(p.system.gpuEventq(1), kTick, "gpu1");
    p.at(p.system.gpuEventq(0), kTick, "gpu0");
    p.system.run();
    EXPECT_EQ(p.log, (std::vector<std::string>{"gpu0", "gpu1"}));
}

TEST(EventOrder, SameTickHandoffRunsAfterEveryHostEvent)
{
    Probe p;
    sim::EventQueue &host = p.system.eventq();
    sim::EventQueue &gpu0 = p.system.gpuEventq(0);
    p.at(gpu0, kTick, "gpu0");
    // The first host event hands work to GPU 0 at the current tick and
    // schedules one more host event at that same tick.
    host.scheduleAt(kTick, [&p, &host, &gpu0]() {
        p.log.push_back("host1");
        p.at(gpu0, host.now(), "handoff");
        p.at(host, host.now(), "host3");
    });
    p.at(host, kTick, "host2");
    p.system.run();
    EXPECT_EQ(p.log, (std::vector<std::string>{"host1", "host2", "host3",
                                               "gpu0", "handoff"}));
}

TEST(EventOrder, SameTickUplinkMessagesArriveInGpuOrder)
{
    Probe p;
    ic::Network &net = p.system.network();
    // GPU 1's send is scheduled first; both messages leave at kTick
    // and reach the host on the same tick.
    for (int g : {1, 0}) {
        p.system.gpuEventq(g).scheduleAt(kTick, [&p, &net, g]() {
            std::string tag = "up" + std::to_string(g);
            net.toHost(g).sendCtrl(32, [&p, tag]() {
                p.log.push_back(tag);
            });
        });
    }
    p.system.run();
    EXPECT_EQ(p.log, (std::vector<std::string>{"up0", "up1"}));
}

TEST(EventOrder, GpuEventPullsHostQueueEarlier)
{
    Probe p;
    sim::EventQueue &host = p.system.eventq();
    // The host's cached next tick is kIdle + 1000 when GPU 0 adds a
    // host event at kIdle + 10; it must run before GPU 1's at + 20.
    p.at(host, kIdle + 1000, "host-late");
    p.system.gpuEventq(0).scheduleAt(kIdle + 5, [&p, &host]() {
        p.log.push_back("gpu0");
        p.at(host, kIdle + 10, "host-early");
    });
    p.at(p.system.gpuEventq(1), kIdle + 20, "gpu1");
    p.system.run();
    EXPECT_EQ(p.log, (std::vector<std::string>{"gpu0", "host-early", "gpu1",
                                               "host-late"}));
}

TEST(EventOrder, HostEventPullsGpuQueueEarlier)
{
    Probe p;
    sim::EventQueue &gpu1 = p.system.gpuEventq(1);
    // GPU 1's cached next tick is kIdle + 100 when the host adds a GPU
    // 1 event at kIdle + 10; it must run before GPU 0's at + 50.
    p.at(gpu1, kIdle + 100, "gpu1-late");
    p.system.eventq().scheduleAt(kIdle, [&p, &gpu1]() {
        p.log.push_back("host");
        p.at(gpu1, kIdle + 10, "gpu1-early");
    });
    p.at(p.system.gpuEventq(0), kIdle + 50, "gpu0");
    p.system.run();
    EXPECT_EQ(p.log, (std::vector<std::string>{"host", "gpu1-early", "gpu0",
                                               "gpu1-late"}));
}

TEST(EventOrder, HostEventWakesDrainedGpuQueue)
{
    Probe p;
    sim::EventQueue &gpu1 = p.system.gpuEventq(1);
    // GPU 1 has nothing queued past the workload; work the host hands
    // it must still run, and keep the run going until it does.
    p.system.eventq().scheduleAt(kIdle, [&p, &gpu1]() {
        p.log.push_back("host");
        gpu1.scheduleAt(kIdle + 3, [&p, &gpu1]() {
            p.log.push_back("gpu1");
            p.at(gpu1, kIdle + 30, "gpu1-again");
        });
    });
    sys::SimResults r = p.system.run();
    EXPECT_EQ(p.log,
              (std::vector<std::string>{"host", "gpu1", "gpu1-again"}));
    EXPECT_EQ(r.execTime, kIdle + 30);
}

/** Interval rows are recorded between events: the row for tick S sees
 *  no queue past S and no queue with work left at or before S. */
TEST(EventOrder, SamplerRowsSeeEveryQueueAtTheRowTick)
{
    wl::SyntheticWorkload workload(sharingSpec("sampled", 32));
    cfg::SystemConfig config = sys::baselineConfig();
    config.cusPerGpu = 4;
    config.obs.sampleInterval = 97;
    sys::MultiGpuSystem system(config, workload);

    auto queues = [&system]() {
        std::vector<sim::EventQueue *> qs{&system.eventq()};
        for (int g = 0; g < system.config().numGpus; ++g)
            qs.push_back(&system.gpuEventq(g));
        return qs;
    };
    obs::IntervalSampler &sampler = system.obs().sampler;
    const std::size_t lastCol = sampler.columns();
    sampler.addColumn("probe.latestNow", [queues]() {
        sim::Tick latest = 0;
        for (sim::EventQueue *q : queues())
            latest = std::max(latest, q->now());
        return static_cast<double>(latest);
    });
    sampler.addColumn("probe.earliestPending", [queues]() {
        sim::Tick earliest = sim::kMaxTick;
        for (sim::EventQueue *q : queues())
            if (q->strongPending())
                earliest = std::min(earliest, q->nextTick());
        return static_cast<double>(earliest);
    });

    sys::SimResults r = system.run();
    ASSERT_GT(r.execTime, 10 * config.obs.sampleInterval);
    // One row per grid tick strictly before the last event.
    ASSERT_EQ(sampler.rows(), (r.execTime - 1) / config.obs.sampleInterval);
    for (std::size_t row = 0; row < sampler.rows(); ++row) {
        const sim::Tick tick = sampler.rowTick(row);
        SCOPED_TRACE("row tick " + std::to_string(tick));
        EXPECT_EQ(tick, (row + 1) * config.obs.sampleInterval);
        EXPECT_LE(sampler.cell(row, lastCol), static_cast<double>(tick));
        EXPECT_GT(sampler.cell(row, lastCol + 1), static_cast<double>(tick));
    }
}

/** The merge order over the full (policy × fault mode × Trans-FW)
 *  matrix: each config reaches the host queue from the GPUs by a
 *  different path (faults, driver batches, counter bumps, replica
 *  invalidations, forwards). */
class MergeOrderMatrix
    : public ::testing::TestWithParam<
          std::tuple<cfg::MigrationPolicy, cfg::FaultMode, bool>>
{};

TEST_P(MergeOrderMatrix, DispatchesInCanonicalOrder)
{
    auto [policy, mode, transfw] = GetParam();
    wl::SyntheticWorkload workload(sharingSpec("matrix", 48));
    cfg::SystemConfig config = sys::baselineConfig();
    config.cusPerGpu = 6;
    config.migrationPolicy = policy;
    config.faultMode = mode;
    config.transFw.enabled = transfw;
    expectCanonicalRun(workload, config);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, MergeOrderMatrix,
    ::testing::Combine(
        ::testing::Values(cfg::MigrationPolicy::OnTouch,
                          cfg::MigrationPolicy::ReadReplicate,
                          cfg::MigrationPolicy::RemoteMap),
        ::testing::Values(cfg::FaultMode::HostMmu,
                          cfg::FaultMode::UvmDriver),
        ::testing::Bool()));

namespace {

/** Machine shapes where one GPU's events touch another GPU's state or
 *  where link latencies sit at their edges. */
struct Shape
{
    const char *name;
    void (*apply)(cfg::SystemConfig &);
};

/** Test names show the shape's name, not its bytes. */
void
PrintTo(const Shape &shape, std::ostream *os)
{
    *os << shape.name;
}

} // namespace

class MergeOrderShapes : public ::testing::TestWithParam<Shape>
{};

TEST_P(MergeOrderShapes, DispatchesInCanonicalOrder)
{
    wl::SyntheticWorkload workload(sharingSpec(GetParam().name, 48));
    cfg::SystemConfig config = sys::transFwConfig();
    config.cusPerGpu = 4;
    GetParam().apply(config);
    expectCanonicalRun(workload, config);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MergeOrderShapes,
    ::testing::Values(
        Shape{"Ring8",
              [](cfg::SystemConfig &c) {
                  c.numGpus = 8;
                  c.cusPerGpu = 2;
                  c.peerTopology = ic::Topology::Ring;
              }},
        Shape{"Mesh8Shards2",
              [](cfg::SystemConfig &c) {
                  c.numGpus = 8;
                  c.peerTopology = ic::Topology::Mesh2D;
                  c.hostShards = 2;
              }},
        Shape{"Switch16Shards4ReplicatedFt",
              [](cfg::SystemConfig &c) {
                  c.numGpus = 16;
                  c.cusPerGpu = 1;
                  c.peerTopology = ic::Topology::Switch;
                  c.switchRadix = 4;
                  c.hostShards = 4;
                  c.transFw.ftReplicated = true;
              }},
        Shape{"LeastTlb",
              [](cfg::SystemConfig &c) {
                  c.transFw.enabled = false;
                  c.leastTlb.enabled = true;
              }},
        Shape{"OneTickLinks",
              [](cfg::SystemConfig &c) {
                  c.hostLink.latency = 1;
                  c.peerLink.latency = 1;
              }},
        Shape{"OneTickUplinkSlowPeers",
              [](cfg::SystemConfig &c) {
                  c.hostLink.latency = 1;
                  c.peerLink.latency = 200;
              }},
        Shape{"SlowUplinkOneTickPeers",
              [](cfg::SystemConfig &c) {
                  c.hostLink.latency = 200;
                  c.peerLink.latency = 1;
              }},
        Shape{"Sampled",
              [](cfg::SystemConfig &c) { c.obs.sampleInterval = 64; }}));

/** An 8-GPU pod on a ring, the widest config the scaling story is
 *  about: two runs must agree on every deterministic result. */
TEST(EventOrder, EightGpuRingPodRunsIdentically)
{
    wl::SyntheticWorkload workload(sharingSpec("pod8", 64));
    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 8;
    config.cusPerGpu = 2;
    config.peerTopology = ic::Topology::Ring;
    config.transFw.enabled = true;

    sys::SimResults a = sys::runWorkload(workload, config);
    sys::SimResults b = sys::runWorkload(workload, config);
    EXPECT_GT(a.farFaults, 0u);
    EXPECT_GT(a.migrations, 0u);

    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l2TlbMisses, b.l2TlbMisses);
    EXPECT_EQ(a.farFaults, b.farFaults);
    EXPECT_EQ(a.attribution.bucketTotal(), b.attribution.bucketTotal());
    EXPECT_EQ(a.avgXlatLatency, b.avgXlatLatency);
    EXPECT_EQ(a.xlatLatencyHist.quantile(0.99),
              b.xlatLatencyHist.quantile(0.99));
    EXPECT_EQ(a.sharedPageReads, b.sharedPageReads);
    EXPECT_EQ(a.sharedPageWrites, b.sharedPageWrites);
    EXPECT_EQ(a.forwards, b.forwards);
    EXPECT_EQ(a.forwardSuccess, b.forwardSuccess);
    EXPECT_EQ(a.hostWalks, b.hostWalks);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.bytesMoved, b.bytesMoved);
    EXPECT_EQ(a.peakEventBacklog, b.peakEventBacklog);
    for (std::size_t i = 0; i < obs::kNumAttribBuckets; ++i)
        EXPECT_EQ(a.attribution.bucket[i], b.attribution.bucket[i]);
    EXPECT_EQ(a.obsCheckViolations, 0u);
}

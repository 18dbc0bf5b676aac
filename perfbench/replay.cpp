#include "replay.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>

#include "interconnect/network.hpp"
#include "mem/page_table.hpp"
#include "pwc/pwc.hpp"
#include "sim/event_queue.hpp"
#include "tlb/tlb.hpp"
#include "transfw/forwarding_table.hpp"
#include "transfw/prt.hpp"
#include "workload/apps.hpp"

namespace perfbench {

using namespace transfw;

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
SpanLog::begin(const std::string &name, int parent, int point)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{name, nowNs(), 0, parent, point});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::end(int id)
{
    if (id >= 0)
        spans_[static_cast<std::size_t>(id)].endNs = nowNs();
}

double
SpanLog::seconds(int id) const
{
    if (id < 0)
        return 0.0;
    const Span &s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

void
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\"unit\": \"ns\", \"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start\": %lld, "
                     "\"end\": %lld, \"parent\": %d, \"point\": %d}%s\n",
                     i, s.name.c_str(), static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent, s.point,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

namespace {

constexpr int kReps = 3;
/** Page accesses captured per app: bounds the replay's run time. */
constexpr std::size_t kMaxAccesses = std::size_t{1} << 17;
/** Sends between drains of the interconnect replay's event queue. */
constexpr std::size_t kSendBatch = 256;

/** Keeps replay results observable so the compiler cannot drop them. */
volatile std::uint64_t gSink = 0;

struct Access
{
    mem::Vpn vpn = 0;
    int gpu = 0;
};

struct Miss
{
    mem::Vpn vpn = 0;
    int gpu = 0;
    int pwcLevel = 0;
};

/** One layer's replay cost summed over inputs, one sum per repetition. */
struct Tally
{
    std::array<double, kReps> seconds{};
    std::uint64_t ops = 0; ///< operations of one repetition

    double
    nsPerOp() const
    {
        if (ops == 0)
            return 0.0;
        std::array<double, kReps> s = seconds;
        std::sort(s.begin(), s.end());
        return s[kReps / 2] / static_cast<double>(ops) * 1e9;
    }
};

/** Stopwatch that is also a span. */
class Timed
{
  public:
    Timed(SpanLog &spans, const char *name, int parent, int point)
        : spans_(spans), id_(spans.begin(name, parent, point))
    {}

    double
    stop()
    {
        double s = secondsSince(start_);
        spans_.end(id_);
        return s;
    }

  private:
    SpanLog &spans_;
    int id_;
    Clock::time_point start_ = Clock::now();
};

using Streams = std::vector<std::unique_ptr<wl::CtaStream>>;

Streams
openStreams(const wl::Workload &workload, const cfg::SystemConfig &config)
{
    Streams streams;
    for (int cta = 0; cta < workload.numCtas(); ++cta)
        streams.push_back(
            workload.makeStream(cta, config.numGpus, config.seed));
    return streams;
}

/** Pull every CTA's ops round-robin, as concurrent wavefronts would. */
template <typename Fn>
std::uint64_t
drain(Streams &streams, Fn &&fn)
{
    std::uint64_t ops = 0;
    wl::MemOp op;
    for (bool live = true; live;) {
        live = false;
        for (std::size_t i = 0; i < streams.size(); ++i) {
            if (!streams[i])
                continue;
            if (streams[i]->next(op)) {
                fn(op, static_cast<int>(i));
                ++ops;
                live = true;
            } else {
                streams[i].reset();
            }
        }
    }
    return ops;
}

/** Chains of events spaced by the stream's compute gaps. */
struct ChainReplay
{
    sim::EventQueue eq;
    const std::vector<std::uint32_t> *gaps = nullptr;
    std::size_t chains = 1;

    void
    fire(std::size_t i)
    {
        std::size_t n = i + chains;
        if (n < gaps->size())
            eq.schedule((*gaps)[n] + 1, [this, n] { fire(n); });
    }
};

struct Tallies
{
    Tally next, event, tlb, pwc, walk, prt, ft, send;
    std::uint64_t hops = 0;
};

void
replayInput(const ReplayInput &in, int point, Tallies &t, SpanLog &spans,
            int parent)
{
    const cfg::SystemConfig &config = in.config;
    const int gpus = config.numGpus;
    const mem::PagingGeometry geo = config.geometry();
    auto workload = wl::makeApp(in.app, in.scale);
    const int ctas = workload->numCtas();

    // --- workload: CtaStream::next over every CTA ---------------------
    for (int r = 0; r < kReps; ++r) {
        Streams streams = openStreams(*workload, config);
        std::uint64_t pages = 0;
        Timed timer(spans, "replay.workload", parent, point);
        std::uint64_t ops = drain(streams, [&](const wl::MemOp &op, int) {
            pages += static_cast<std::uint64_t>(op.numPages);
        });
        t.next.seconds[static_cast<std::size_t>(r)] += timer.stop();
        if (r == 0)
            t.next.ops += ops;
        gSink = gSink + pages;
    }

    std::vector<Access> accesses;
    std::vector<std::uint32_t> gaps;
    {
        Streams streams = openStreams(*workload, config);
        drain(streams, [&](const wl::MemOp &op, int cta) {
            if (accesses.size() >= kMaxAccesses)
                return;
            gaps.push_back(op.computeGap);
            int gpu = wl::homeGpu(cta, ctas, gpus);
            for (int p = 0; p < op.numPages; ++p)
                accesses.push_back({op.pages[static_cast<std::size_t>(p)].vpn,
                                    gpu});
        });
    }

    // --- sim: one event per op, chained per wavefront slot ------------
    for (int r = 0; r < kReps; ++r) {
        auto replay = std::make_unique<ChainReplay>();
        replay->gaps = &gaps;
        replay->chains = std::min<std::size_t>(
            gaps.size(), static_cast<std::size_t>(gpus) *
                             static_cast<std::size_t>(config.cusPerGpu) *
                             static_cast<std::size_t>(
                                 config.wavefrontSlotsPerCu));
        Timed timer(spans, "replay.sim", parent, point);
        for (std::size_t i = 0; i < replay->chains; ++i) {
            ChainReplay *self = replay.get();
            replay->eq.schedule(gaps[i] + 1, [self, i] { self->fire(i); });
        }
        std::uint64_t events = replay->eq.run();
        t.event.seconds[static_cast<std::size_t>(r)] += timer.stop();
        if (r == 0)
            t.event.ops += events;
    }

    // --- tlb: per-GPU L1 and L2 at the configured geometry ------------
    std::vector<Miss> misses;
    for (int r = 0; r < kReps; ++r) {
        std::vector<std::unique_ptr<tlb::Tlb>> l1, l2;
        for (int g = 0; g < gpus; ++g) {
            l1.push_back(std::make_unique<tlb::Tlb>("l1", config.l1Tlb));
            l2.push_back(std::make_unique<tlb::Tlb>("l2", config.l2Tlb));
        }
        const tlb::TlbEntry entry{};
        Timed timer(spans, "replay.tlb", parent, point);
        for (const Access &a : accesses) {
            auto g = static_cast<std::size_t>(a.gpu);
            if (l1[g]->lookup(a.vpn))
                continue;
            if (!l2[g]->lookup(a.vpn)) {
                l2[g]->fill(a.vpn, entry);
                if (r == 0)
                    misses.push_back({a.vpn, a.gpu, 0});
            }
            l1[g]->fill(a.vpn, entry);
        }
        t.tlb.seconds[static_cast<std::size_t>(r)] += timer.stop();
        if (r == 0)
            for (int g = 0; g < gpus; ++g)
                t.tlb.ops += l1[static_cast<std::size_t>(g)]->lookups() +
                             l2[static_cast<std::size_t>(g)]->lookups();
    }

    // --- pwc: GMMU PW-cache lookups and walk fills on L2 misses -------
    for (int r = 0; r < kReps; ++r) {
        std::vector<std::unique_ptr<pwc::PageWalkCache>> caches;
        for (int g = 0; g < gpus; ++g)
            caches.push_back(
                pwc::makePwc(config.pwcKind, config.pwcEntries, geo));
        Timed timer(spans, "replay.pwc", parent, point);
        for (Miss &m : misses) {
            auto &cache = *caches[static_cast<std::size_t>(m.gpu)];
            int level = cache.lookup(m.vpn);
            m.pwcLevel = level;
            int top = level ? level - 1 : geo.levels;
            for (int l = geo.lowestCachedLevel(); l <= top; ++l)
                cache.fill(m.vpn, l);
        }
        t.pwc.seconds[static_cast<std::size_t>(r)] += timer.stop();
        if (r == 0)
            t.pwc.ops += misses.size();
    }

    // --- mem, transfw: structures loaded with the initial placement ---
    mem::PageTable table(geo);
    std::vector<std::unique_ptr<core::PendingRequestTable>> prts;
    for (int g = 0; g < gpus; ++g)
        prts.push_back(
            std::make_unique<core::PendingRequestTable>(config.transFw, g));
    core::ForwardingTable ft(config.transFw);
    mem::Ppn ppn = 0;
    workload->forEachPage([&](mem::Vpn vpn) {
        mem::DeviceId owner = workload->initialOwner(vpn, gpus);
        table.map(vpn, mem::PageInfo{.ppn = ppn++, .owner = owner});
        if (owner >= 0) {
            prts[static_cast<std::size_t>(owner)]->pageArrived(vpn);
            ft.pageArrived(vpn, owner);
        }
    });

    for (int r = 0; r < kReps; ++r) {
        std::uint64_t accessesWalked = 0;
        Timed timer(spans, "replay.mem", parent, point);
        for (const Miss &m : misses)
            accessesWalked += static_cast<std::uint64_t>(
                table.walk(m.vpn, m.pwcLevel).accesses);
        t.walk.seconds[static_cast<std::size_t>(r)] += timer.stop();
        gSink = gSink + accessesWalked;
    }
    t.walk.ops += misses.size();

    for (int r = 0; r < kReps; ++r) {
        std::uint64_t hits = 0;
        Timed timer(spans, "replay.prt", parent, point);
        for (const Miss &m : misses)
            hits += prts[static_cast<std::size_t>(m.gpu)]->mayBeLocal(m.vpn);
        t.prt.seconds[static_cast<std::size_t>(r)] += timer.stop();
        gSink = gSink + hits;
    }
    t.prt.ops += misses.size();

    for (int r = 0; r < kReps; ++r) {
        std::uint64_t found = 0;
        Timed timer(spans, "replay.ft", parent, point);
        for (const Miss &m : misses)
            found += ft.findOwner(m.vpn, gpus, m.gpu).has_value();
        t.ft.seconds[static_cast<std::size_t>(r)] += timer.stop();
        gSink = gSink + found;
    }
    t.ft.ops += misses.size();

    // --- interconnect: page-sized routed sends owner -> requester -----
    if (gpus < 2)
        return;
    for (int r = 0; r < kReps; ++r) {
        auto eq = std::make_unique<sim::EventQueue>();
        ic::Network net(*eq, gpus, config.hostLink, config.peerLink,
                        config.peerTopology, config.meshCols,
                        config.switchRadix);
        std::uint64_t delivered = 0;
        std::uint64_t hops = 0;
        std::size_t sent = 0;
        Timed timer(spans, "replay.interconnect", parent, point);
        for (const Miss &m : misses) {
            int owner = workload->initialOwner(m.vpn, gpus);
            int from = owner >= 0 && owner != m.gpu
                           ? owner
                           : static_cast<int>(
                                 (static_cast<std::uint64_t>(m.gpu) + 1 +
                                  m.vpn % static_cast<std::uint64_t>(
                                              gpus - 1)) %
                                 static_cast<std::uint64_t>(gpus));
            hops += static_cast<std::uint64_t>(net.peerHops(from, m.gpu));
            net.sendPeer(from, m.gpu, geo.pageBytes(),
                         [&delivered] { ++delivered; });
            if (++sent % kSendBatch == 0)
                eq->run();
        }
        eq->run();
        t.send.seconds[static_cast<std::size_t>(r)] += timer.stop();
        if (r == 0) {
            t.send.ops += sent;
            t.hops += hops;
        }
        gSink = gSink + delivered;
    }
}

} // namespace

LayerTimes
replayLayers(const std::vector<ReplayInput> &inputs, SpanLog &spans,
             int parent)
{
    Tallies t;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        int span = spans.begin("replay." + inputs[i].app, parent,
                               static_cast<int>(i));
        replayInput(inputs[i], static_cast<int>(i), t, spans, span);
        spans.end(span);
    }

    LayerTimes out;
    out.nsPerOp = t.next.nsPerOp();
    out.nsPerEvent = t.event.nsPerOp();
    out.tlbNsPerLookup = t.tlb.nsPerOp();
    out.pwcNsPerLookup = t.pwc.nsPerOp();
    out.memNsPerWalk = t.walk.nsPerOp();
    out.prtNsPerLookup = t.prt.nsPerOp();
    out.ftNsPerLookup = t.ft.nsPerOp();
    out.icNsPerSend = t.send.nsPerOp();
    out.icNsPerHop = t.hops ? out.icNsPerSend * static_cast<double>(
                                                    t.send.ops) /
                                  static_cast<double>(t.hops)
                            : 0.0;
    return out;
}

} // namespace perfbench

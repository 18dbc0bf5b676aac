#include "obs/checks.hpp"

#include <cmath>
#include <cstring>
#include <string_view>

#include "sim/flat_map.hpp"
#include "sim/logging.hpp"

namespace transfw::obs {

namespace {

/** Spans allowed to overhang their lane's "xlat" root: race losers and
 *  remote service that legitimately outlive the request they belong to
 *  under first-reply-wins, plus borrowed-GMMU lanes where a remote
 *  request's spans share a (pid, tid) lane with a local request. */
bool
mayOverhang(std::string_view name)
{
    return name == "host.forward" || name == "host.forward.fail" ||
           name == "driver.forward" || name == "driver.forward.fail" ||
           name == "gmmu.remote.queue" || name == "gmmu.remote.walk" ||
           name == "host.walk" || name == "host.queue";
}

} // namespace

void
Checks::violation(const std::string &msg)
{
    ++violations_;
    if (messages_.size() < kMaxMessages)
        messages_.push_back(msg);
#if TRANSFW_OBS_STRICT
    sim::panic("obs::Checks: " + msg);
#endif
}

void
Checks::onFinish(int gpu, std::uint64_t id, const RequestLatency &lat,
                 bool short_circuit)
{
    ++checked_;
    constexpr double kTol = 1.0;

    // Per-hop attribution: once any counted hop touched this record,
    // every Network/HostRoute cycle must have arrived edge-tagged, so
    // the buckets equal their per-edge sums — sum-of-edges == bucket
    // by construction, and a call site that slips a plain charge into
    // either bucket breaks the balance and fires here.
    if (lat.sawCountedHop) {
        double net =
            lat.bucket[static_cast<std::size_t>(AttribBucket::Network)];
        double route =
            lat.bucket[static_cast<std::size_t>(AttribBucket::HostRoute)];
        if (std::abs(net - lat.netHopCycles) > kTol) {
            violation(sim::strfmt(
                "gpu%d req %llu: network bucket %.1f != per-hop sum %.1f",
                gpu, static_cast<unsigned long long>(id), net,
                lat.netHopCycles));
            return;
        }
        if (std::abs(route - lat.routeHopCycles) > kTol) {
            violation(sim::strfmt(
                "gpu%d req %llu: hostRoute bucket %.1f != per-hop sum "
                "%.1f",
                gpu, static_cast<unsigned long long>(id), route,
                lat.routeHopCycles));
            return;
        }
    }

    // PRT-negative short circuit skips the local walk entirely, so no
    // local-queue or local-walk cycles may have been charged.
    if (short_circuit) {
        double local =
            lat.bucket[static_cast<std::size_t>(AttribBucket::L2TlbQueue)] +
            lat.bucket[static_cast<std::size_t>(AttribBucket::GmmuQueue)] +
            lat.bucket[static_cast<std::size_t>(AttribBucket::GmmuWalkMem)];
        if (local > 0) {
            violation(sim::strfmt(
                "gpu%d req %llu: PRT short circuit but %.1f local-walk "
                "cycles charged",
                gpu, static_cast<unsigned long long>(id), local));
        }
    }
}

std::uint64_t
Checks::verifySpanNesting(const SpanRecorder &spans)
{
#if TRANSFW_OBS
    if (spans.dropped() > 0)
        return 0; // truncated lanes would alias as nesting breaks
    struct Lane
    {
        const Span *root = nullptr;
        std::vector<const Span *> children;
    };
    sim::FlatMap<std::uint64_t, Lane> lanes;
    for (const Span &s : spans.spans()) {
        if (s.pid >= SpanRecorder::kHostPid)
            continue; // host/obs lanes interleave requests; no root
        std::uint64_t lane_key =
            (static_cast<std::uint64_t>(s.pid) << 48) | s.tid;
        Lane &lane = lanes[lane_key];
        if (std::string_view(s.name) == "xlat")
            lane.root = &s;
        else
            lane.children.push_back(&s);
    }

    std::uint64_t before = violations_;
    for (const auto &kv : lanes) {
        const Lane &lane = kv.second;
        if (!lane.root)
            continue; // request never finished (or non-request lane)
        for (const Span *c : lane.children) {
            bool nests = c->start >= lane.root->start &&
                         c->end <= lane.root->end;
            if (!nests && !mayOverhang(c->name)) {
                violation(sim::strfmt(
                    "span '%s' [%llu, %llu] escapes its xlat root "
                    "[%llu, %llu] (pid %u tid %llu)",
                    c->name,
                    static_cast<unsigned long long>(c->start),
                    static_cast<unsigned long long>(c->end),
                    static_cast<unsigned long long>(lane.root->start),
                    static_cast<unsigned long long>(lane.root->end),
                    c->pid, static_cast<unsigned long long>(c->tid)));
            }
        }
    }
    return violations_ - before;
#else
    (void)spans;
    return 0;
#endif
}

} // namespace transfw::obs

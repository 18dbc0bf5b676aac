#include "obs/checks.hpp"

#include <algorithm>
#include <cmath>

#include "sim/logging.hpp"

namespace transfw::obs {

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
Checks::verifyTimelines(const AttributionEngine &attrib)
{
    using Kind = AttribEvent::Kind;
    const std::uint64_t before = violations_;
    for (const Timeline &tl : attrib.timelines()) {
        if (!tl.finished)
            continue;
        const bool raced = std::any_of(
            tl.events.begin(), tl.events.end(), [](const AttribEvent &ev) {
                return ev.kind == Kind::ForwardLaunched;
            });
        tl.forEachSlice([&](const char *name, sim::Tick start, double dur,
                            const AttribEvent &ev) {
            // A forward and the race's losing side may run past the
            // finish.
            const AttribBucket b = ev.bucket;
            const bool forward =
                ev.kind != Kind::Charge && ev.kind != Kind::NetworkHop;
            const bool overhang =
                raced && (forward || b == AttribBucket::HostQueue ||
                          b == AttribBucket::HostWalkMem ||
                          b == AttribBucket::RemoteWalk);
            const double end = static_cast<double>(start) + dur;
            if (ev.late ||
                (start >= tl.tIssue &&
                 (overhang || end <= static_cast<double>(tl.tFinish))))
                return;
            violation(sim::strfmt(
                "gpu%d req %llu: %s slice [%llu, %.0f] escapes its "
                "request [%llu, %llu]",
                tl.gpu, static_cast<unsigned long long>(tl.id), name,
                static_cast<unsigned long long>(start), end,
                static_cast<unsigned long long>(tl.tIssue),
                static_cast<unsigned long long>(tl.tFinish)));
        });
    }
    return violations_ - before;
}

} // namespace transfw::obs

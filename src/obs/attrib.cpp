#include "obs/attrib.hpp"

#include <algorithm>
#include <iterator>

#include "obs/checks.hpp"

namespace transfw::obs {

const char *
bucketName(AttribBucket b)
{
    switch (b) {
      case AttribBucket::L2TlbQueue:
        return "l2tlbQueue";
      case AttribBucket::GmmuQueue:
        return "gmmuQueue";
      case AttribBucket::GmmuWalkMem:
        return "gmmuWalkMem";
      case AttribBucket::FaultFixed:
        return "faultFixed";
      case AttribBucket::PrtLookup:
        return "prtLookup";
      case AttribBucket::LeastTlbProbe:
        return "leastTlbProbe";
      case AttribBucket::Network:
        return "network";
      case AttribBucket::HostTlb:
        return "hostTlb";
      case AttribBucket::HostRoute:
        return "hostRoute";
      case AttribBucket::HostQueue:
        return "hostQueue";
      case AttribBucket::HostWalkMem:
        return "hostWalkMem";
      case AttribBucket::FtProbe:
        return "ftProbe";
      case AttribBucket::RemoteWalk:
        return "remoteWalk";
      case AttribBucket::Migration:
        return "migration";
      case AttribBucket::Shootdown:
        return "shootdown";
      case AttribBucket::PteInstall:
        return "pteInstall";
      case AttribBucket::Replay:
        return "replay";
      default:
        return "other";
    }
}

namespace {

double
sumBuckets(const double (&bucket)[kNumAttribBuckets])
{
    double sum = 0;
    for (double b : bucket)
        sum += b;
    return sum;
}

} // namespace

double
AttributionTable::bucketTotal() const
{
    return sumBuckets(bucket);
}

double
AttributionTable::fieldTotal(LatField field) const
{
    double sum = 0;
    for (std::size_t i = 0; i < kNumAttribBuckets; ++i)
        if (fieldOf(static_cast<AttribBucket>(i)) == field)
            sum += bucket[i];
    return sum;
}

double
RequestLatency::total() const
{
    return sumBuckets(bucket);
}

void
AttributionEngine::openTimeline(RequestLatency &lat, int gpu,
                                std::uint64_t id, std::uint64_t vpn,
                                sim::Tick now)
{
    Timeline &tl = timelines_[key(gpu, id)];
    tl = Timeline{};
    tl.vpn = vpn;
    tl.tIssue = now;
    lat.timeline = &tl;
}

void
AttributionEngine::note(RequestLatency &lat, sim::Tick tick,
                        AttribEvent::Kind kind, AttribBucket bucket,
                        double cycles)
{
    if (!lat.timeline)
        return;
    AttribEvent ev;
    ev.tick = tick;
    ev.kind = kind;
    ev.bucket = bucket;
    ev.cycles = cycles;
    lat.timeline->events.push_back(ev);
}

void
AttributionEngine::closeRace(RequestLatency &lat)
{
    lat.race = RequestLatency::Race::None;
    --openRaces_;
}

void
AttributionEngine::charge(RequestLatency &lat, AttribBucket bucket,
                          double cycles, sim::Tick now)
{
    note(lat, now, AttribEvent::Kind::Charge, bucket, cycles);
    if (lat.finished) {
        // Race loser still in flight after first-reply-wins resolved
        // the request: off the critical path, so ledger-only.
        ++table_.lateCharges;
        table_.lateCycles += cycles;
        return;
    }
    lat.add(bucket, cycles);
}

void
AttributionEngine::hop(RequestLatency &lat, AttribBucket bucket,
                       const AttribHop &h, bool counted, sim::Tick now)
{
    if (lat.timeline) {
        AttribEvent ev;
        ev.tick = now;
        ev.kind = AttribEvent::Kind::NetworkHop;
        ev.bucket = bucket;
        ev.cycles = h.total();
        ev.hopFrom = h.from;
        ev.hopTo = h.to;
        ev.hopWait = static_cast<float>(h.wait);
        ev.hopSer = static_cast<float>(h.ser);
        ev.hopProp = static_cast<float>(h.prop);
        lat.timeline->events.push_back(ev);
    }
    if (!counted)
        return;
    if (lat.finished) {
        // Same quarantine as charge(): race losers still in flight
        // stay off the critical-path buckets (and the hop sums, so
        // the two sides of the invariant move together).
        ++table_.lateCharges;
        table_.lateCycles += h.total();
        return;
    }
    lat.addHop(bucket, h.total());
}

void
AttributionEngine::shortCircuited(RequestLatency &lat, double est_saved,
                                  sim::Tick now)
{
    ++table_.shortCircuits;
    table_.shortCircuitSavedEstCycles += est_saved;
    note(lat, now, AttribEvent::Kind::ShortCircuit,
         AttribBucket::PrtLookup, est_saved);
}

void
AttributionEngine::forwardLaunched(RequestLatency &lat, sim::Tick now)
{
    if (lat.race == RequestLatency::Race::None)
        ++openRaces_;
    lat.race = RequestLatency::Race::Open;
    lat.tForward = now;
    ++table_.forwards;
    note(lat, now, AttribEvent::Kind::ForwardLaunched, AttribBucket::Other,
         0);
}

void
AttributionEngine::forwardOutcome(RequestLatency &lat, bool success,
                                  bool won, double est_saved,
                                  sim::Tick now)
{
    if (lat.race != RequestLatency::Race::Open)
        return;
    double remote_service = static_cast<double>(now - lat.tForward);
    if (!success) {
        ++table_.failedForwards;
        table_.forwardWastedCycles += remote_service;
        closeRace(lat);
        note(lat, now, AttribEvent::Kind::ForwardFailed,
             AttribBucket::Other, remote_service);
    } else if (won) {
        ++table_.remoteWins;
        table_.forwardSavedEstCycles += est_saved;
        lat.tWin = now;
        // Driver forwards have no parallel walk racing them: the win
        // closes the race outright. Hardware forwards stay open until
        // the losing host walk reports back (duplicate or cancelled),
        // which is when the measured saving becomes known.
        if (est_saved > 0)
            closeRace(lat);
        else
            lat.race = RequestLatency::Race::RemoteWon;
        note(lat, now, AttribEvent::Kind::RemoteWon, AttribBucket::Other,
             est_saved);
    } else {
        // The host walk already resolved the request: this forward's
        // remote service bought nothing.
        ++table_.hostWins;
        table_.forwardWastedCycles += remote_service;
        closeRace(lat);
        note(lat, now, AttribEvent::Kind::HostWon, AttribBucket::Other,
             remote_service);
    }
}

void
AttributionEngine::hostWalkDone(RequestLatency &lat, bool duplicate,
                                sim::Tick now)
{
    if (duplicate && lat.race == RequestLatency::Race::RemoteWon) {
        // The loser just crossed the finish line: the forward saved
        // exactly the tail the host walk still needed after the win.
        double saved = static_cast<double>(now - lat.tWin);
        ++table_.duplicateHostWalks;
        table_.forwardSavedCycles += saved;
        closeRace(lat);
        note(lat, now, AttribEvent::Kind::DuplicateHostWalk,
             AttribBucket::Other, saved);
    }
}

void
AttributionEngine::hostWalkCancelled(RequestLatency &lat, double est_walk,
                                     sim::Tick now)
{
    if (lat.race == RequestLatency::Race::RemoteWon) {
        // The loser never even started; estimate the walk it skipped.
        ++table_.cancelledHostWalks;
        table_.forwardSavedEstCycles += est_walk;
        closeRace(lat);
        note(lat, now, AttribEvent::Kind::HostWalkCancelled,
             AttribBucket::Other, est_walk);
    }
}

void
AttributionEngine::finish(RequestLatency &lat, int gpu, std::uint64_t id,
                          bool short_circuit, sim::Tick now)
{
    if (lat.finished)
        return;
    lat.finished = true;
    double total = lat.total();
    if (Timeline *tl = lat.timeline) {
        tl->tFinish = now;
        std::copy(std::begin(lat.bucket), std::end(lat.bucket),
                  std::begin(tl->bucket));
    }
    note(lat, now, AttribEvent::Kind::Finish, AttribBucket::Other, total);

    ++table_.requests;
    for (std::size_t i = 0; i < kNumAttribBuckets; ++i)
        table_.bucket[i] += lat.bucket[i];

    if (total > slowestWall_) {
        slowestWall_ = total;
        slowestGpu_ = gpu;
        slowestId_ = id;
    }

    if (checks_)
        checks_->onFinish(gpu, id, lat, short_circuit);
}

const Timeline *
AttributionEngine::timeline(int gpu, std::uint64_t id) const
{
    auto it = timelines_.find(key(gpu, id));
    return it == timelines_.end() ? nullptr : &it->second;
}

} // namespace transfw::obs

#include "obs/attrib.hpp"

#include <numeric>
#include <ostream>
#include <set>

#include "obs/checks.hpp"
#include "obs/json.hpp"
#include "obs/sampler.hpp"

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

std::array<double, kNumAttribBuckets>
Timeline::buckets() const
{
    std::array<double, kNumAttribBuckets> sums{};
    for (const AttribEvent &ev : events)
        if ((ev.kind == AttribEvent::Kind::Charge ||
             ev.kind == AttribEvent::Kind::NetworkHop) &&
            !ev.late && !ev.uncounted)
            sums[static_cast<std::size_t>(ev.bucket)] += ev.cycles;
    return sums;
}

void
AttributionEngine::openTimeline(RequestLatency &lat, int gpu,
                                std::uint64_t id, std::uint64_t vpn,
                                sim::Tick now)
{
    if (timelines_.size() >= kMaxTimelines) {
        ++droppedTimelines_;
        return;
    }
    Timeline &tl = timelines_.emplace_back();
    tl.gpu = gpu;
    tl.id = id;
    tl.vpn = vpn;
    tl.tIssue = now;
    lat.timeline = &tl;
}

AttribEvent *
AttributionEngine::note(RequestLatency &lat, sim::Tick tick,
                        AttribEvent::Kind kind, double cycles,
                        AttribBucket bucket)
{
    if (!lat.timeline)
        return nullptr;
    AttribEvent &ev = lat.timeline->events.emplace_back();
    ev.tick = tick;
    ev.bucket = bucket;
    ev.kind = kind;
    ev.late = lat.finished;
    ev.cycles = cycles;
    return &ev;
}

void
AttributionEngine::closeRace(RequestLatency &lat)
{
    lat.race = RequestLatency::Race::None;
    --openRaces_;
}

void
AttributionEngine::charge(RequestLatency &lat, AttribBucket bucket,
                          double cycles, sim::Tick start)
{
    note(lat, start, AttribEvent::Kind::Charge, cycles, bucket);
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
                       const AttribHop &h, bool counted, sim::Tick start)
{
    if (AttribEvent *ev = note(lat, start, AttribEvent::Kind::NetworkHop,
                               h.total(), bucket)) {
        ev->uncounted = !counted;
        ev->hopFrom = h.from;
        ev->hopTo = h.to;
        ev->hopWait = static_cast<float>(h.wait);
        ev->hopSer = static_cast<float>(h.ser);
        ev->hopProp = static_cast<float>(h.prop);
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
    note(lat, now, AttribEvent::Kind::ShortCircuit, est_saved);
}

void
AttributionEngine::forwardLaunched(RequestLatency &lat, sim::Tick now)
{
    if (lat.race == RequestLatency::Race::None)
        ++openRaces_;
    lat.race = RequestLatency::Race::Open;
    lat.tForward = now;
    ++table_.forwards;
    note(lat, now, AttribEvent::Kind::ForwardLaunched, 0);
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
        note(lat, now, AttribEvent::Kind::ForwardFailed, remote_service);
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
        note(lat, now, AttribEvent::Kind::RemoteWon, est_saved);
    } else {
        // The host walk already resolved the request: this forward's
        // remote service bought nothing.
        ++table_.hostWins;
        table_.forwardWastedCycles += remote_service;
        closeRace(lat);
        note(lat, now, AttribEvent::Kind::HostWon, remote_service);
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
        note(lat, now, AttribEvent::Kind::DuplicateHostWalk, saved);
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
        note(lat, now, AttribEvent::Kind::HostWalkCancelled, est_walk);
    }
}

void
AttributionEngine::finish(RequestLatency &lat, int gpu, std::uint64_t id,
                          bool short_circuit, sim::Tick now)
{
    if (lat.finished)
        return;
    double total = lat.total();
    note(lat, now, AttribEvent::Kind::Finish, total);
    lat.finished = true;
    if (Timeline *tl = lat.timeline) {
        tl->finished = true;
        tl->tFinish = now;
    }

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
    for (const Timeline &tl : timelines_)
        if (tl.gpu == gpu && tl.id == id)
            return &tl;
    return nullptr;
}

void
writeChromeTrace(std::ostream &os, const AttributionEngine &attrib,
                 const IntervalSampler *sampler)
{
    constexpr int kMetricsPid = 1002; // the counter tracks' process
    const char *sep = "\n";
    auto field = [&](const char *key, double v) {
        os << ",\"" << key << "\":";
        jsonNumber(os, v);
    };
    // Opens one event; the caller adds its fields and closes it.
    auto open = [&](const std::string &name, const char *ph, int pid,
                    std::uint64_t tid) {
        os << sep << "{\"name\":";
        sep = ",\n";
        jsonEscape(os, name);
        os << ",\"ph\":\"" << ph << "\",\"pid\":" << pid
           << ",\"tid\":" << tid;
    };
    auto slice = [&](const char *name, const Timeline &tl, sim::Tick start,
                     double dur) {
        open(name, "X", tl.gpu, tl.id);
        os << ",\"cat\":\"xlat\",\"ts\":" << start;
        field("dur", dur);
        os << ",\"args\":{\"vpn\":" << tl.vpn;
    };

    os << "{\"traceEvents\":[";
    std::set<int> gpus;
    for (const Timeline &tl : attrib.timelines()) {
        if (gpus.insert(tl.gpu).second) {
            open("process_name", "M", tl.gpu, 0);
            os << ",\"args\":{\"name\":\"gpu" << tl.gpu << "\"}}";
        }
        if (tl.finished) {
            const auto b = tl.buckets();
            slice("xlat", tl, tl.tIssue,
                  static_cast<double>(tl.tFinish - tl.tIssue));
            field("charged", std::accumulate(b.begin(), b.end(), 0.0));
            os << "}}";
        }
        tl.forEachSlice([&](const char *name, sim::Tick start, double dur,
                            const AttribEvent &ev) {
            using Kind = AttribEvent::Kind;
            slice(name, tl, start, dur);
            if (ev.kind == Kind::NetworkHop) {
                field("from", ev.hopFrom);
                field("to", ev.hopTo);
                field("wait", ev.hopWait);
                field("ser", ev.hopSer);
                field("prop", ev.hopProp);
            } else if (ev.kind != Kind::Charge) {
                os << ",\"outcome\":\""
                   << (ev.kind == Kind::ForwardFailed ? "failed"
                       : ev.kind == Kind::RemoteWon   ? "remoteWon"
                                                      : "hostWon")
                   << '"';
            }
            os << (ev.late ? ",\"late\":true" : "")
               << (ev.uncounted ? ",\"uncounted\":true" : "") << "}}";
        });
    }

    // Perfetto keys counter tracks on (pid, name): one "C" event per
    // (row, column) of the sampler.
    if (sampler && sampler->rows() && sampler->columns()) {
        open("process_name", "M", kMetricsPid, 0);
        os << ",\"args\":{\"name\":\"metrics\"}}";
        for (std::size_t row = 0; row < sampler->rows(); ++row) {
            for (std::size_t col = 0; col < sampler->columns(); ++col) {
                open(sampler->columnName(col), "C", kMetricsPid, 0);
                os << ",\"cat\":\"metrics\",\"ts\":"
                   << sampler->rowTick(row) << ",\"args\":{\"value\":";
                jsonNumber(os, sampler->cell(row, col));
                os << "}}";
            }
        }
    }
    os << "\n]}\n";
}

} // namespace transfw::obs

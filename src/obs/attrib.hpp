#ifndef TRANSFW_OBS_ATTRIB_HPP
#define TRANSFW_OBS_ATTRIB_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <utility>
#include <vector>

#include "sim/ticks.hpp"

namespace transfw::obs {

class Checks;
class IntervalSampler;

/**
 * Exhaustive, mutually-exclusive latency buckets for one translation.
 * Every cycle charged to a request lands in exactly one bucket; the
 * buckets refine the seven coarse Fig. 3 components (LatField) down
 * to the individual mechanism, so the report can show *which* penalty
 * each Trans-FW path removes.
 */
enum class AttribBucket : std::uint8_t
{
    L2TlbQueue,    ///< PW-queue overflow wait (parked in the L2 MSHRs)
    GmmuQueue,     ///< in-capacity wait for a local PT-walk thread
    GmmuWalkMem,   ///< local walk memory accesses (PW-cache misses)
    FaultFixed,    ///< hardware fault bookkeeping before leaving the GPU
    PrtLookup,     ///< Trans-FW PRT probe on the L2-miss path
    LeastTlbProbe, ///< sibling-L2 probe (Least-TLB comparison mode)
    Network,       ///< CPU-GPU / GPU-GPU interconnect hops
    HostTlb,       ///< host MMU TLB lookup on fault admission
    HostRoute,     ///< IOMMU shard-steering crossbar (hostShards > 1)
    HostQueue,     ///< host PW-queue / driver walk-queue wait
    HostWalkMem,   ///< host walk memory accesses (hardware or software)
    FtProbe,       ///< driver-side Forwarding Table probe (CPU memory)
    RemoteWalk,    ///< borrowed remote GMMU service (queue + walk)
    Migration,     ///< far-fault data transfer + per-page serialization
    Shootdown,     ///< stale-copy invalidation on the critical path
    PteInstall,    ///< remote-map PTE install
    Replay,        ///< faulted access replay after resolution
    Other,         ///< escape hatch; no shipped call site charges it
    kCount
};

constexpr std::size_t kNumAttribBuckets =
    static_cast<std::size_t>(AttribBucket::kCount);

/**
 * The coarse Fig. 3 / Fig. 12 component a bucket refines. The seven
 * components are never stored: AttributionTable::fieldTotal() sums
 * their buckets, which is exact because every charge is a whole
 * number of cycles.
 */
enum class LatField : std::uint8_t
{
    GmmuQueue,
    GmmuMem,
    HostQueue,
    HostMem,
    Migration,
    Network,
    Other,
    kCount
};

constexpr LatField
fieldOf(AttribBucket b)
{
    switch (b) {
      case AttribBucket::L2TlbQueue:
      case AttribBucket::GmmuQueue:
        return LatField::GmmuQueue;
      case AttribBucket::GmmuWalkMem:
        return LatField::GmmuMem;
      case AttribBucket::HostRoute:
      case AttribBucket::HostQueue:
        return LatField::HostQueue;
      case AttribBucket::HostWalkMem:
        return LatField::HostMem;
      case AttribBucket::Migration:
        return LatField::Migration;
      case AttribBucket::Network:
        return LatField::Network;
      default:
        return LatField::Other;
    }
}

/** Stable dotted-key suffix for reports ("gmmuQueue", "remoteWalk"...). */
const char *bucketName(AttribBucket b);

/**
 * Aggregated attribution over one run: per-bucket cycle totals plus
 * the reply-race ledger. Lives in SimResults, so sweeps and the report
 * carry the full penalty decomposition per app/config.
 *
 * Race semantics (first-reply-wins, Section IV-C): a forward opens a
 * race between the host walk and the remote lookup. Cycles *saved* by
 * a winning forward are measured directly when the losing host walk
 * later finishes (loser-finish minus win time); when the losing walk
 * was cancelled before it started, or on the driver path (where the
 * forward replaces the walk outright), the avoided walk is estimated
 * and booked separately. Cycles *wasted* are the remote service time
 * of forwards that lost or failed.
 */
struct AttributionTable
{
    double bucket[kNumAttribBuckets] = {};
    std::uint64_t requests = 0; ///< finished translations folded in

    // --- reply-race ledger -------------------------------------------------
    std::uint64_t forwards = 0;
    std::uint64_t remoteWins = 0;        ///< forward replied first
    std::uint64_t hostWins = 0;          ///< host walk replied first
    std::uint64_t failedForwards = 0;    ///< FT false positives
    std::uint64_t cancelledHostWalks = 0;///< loser never left the queue
    std::uint64_t duplicateHostWalks = 0;///< loser walk ran to completion
    std::uint64_t unresolvedRaces = 0;   ///< still open at end of run
    double forwardSavedCycles = 0;    ///< measured: loser finish - win
    double forwardSavedEstCycles = 0; ///< estimated avoided walks
    double forwardWastedCycles = 0;   ///< remote service on lost forwards

    // --- PRT short circuits ------------------------------------------------
    std::uint64_t shortCircuits = 0;
    /** Estimated: the skipped local walk + fault bookkeeping. The
     *  avoided walk never executes, so it cannot be measured. */
    double shortCircuitSavedEstCycles = 0;

    // --- bookkeeping -------------------------------------------------------
    /** Charges arriving after a request finished (race losers still in
     *  flight). Off the critical path, so excluded from bucket[]. */
    std::uint64_t lateCharges = 0;
    double lateCycles = 0;

    double bucketTotal() const;
    /** Sum of the buckets mapping onto @p field (one Fig. 3 column). */
    double fieldTotal(LatField field) const;
};

/**
 * One traversed edge of a routed message, as reported to the
 * attribution engine: the node pair plus the queue-wait /
 * serialization / propagation split of that hop. Node id -1 is the
 * host; ids >= numGpus are internal switch nodes.
 */
struct AttribHop
{
    std::int16_t from = -1;
    std::int16_t to = -1;
    double wait = 0;
    double ser = 0;
    double prop = 0;

    double total() const { return wait + ser + prop; }
};

/** One step of a request's causal timeline (kept on demand). */
struct AttribEvent
{
    /** Charge and NetworkHop: when the phase began, so it spans
     *  [tick, tick + cycles]. Every other kind: when it happened. */
    sim::Tick tick = 0;
    AttribBucket bucket = AttribBucket::Other; ///< Charge / NetworkHop
    enum class Kind : std::uint8_t
    {
        Charge,
        ShortCircuit,
        ForwardLaunched,
        ForwardFailed,
        RemoteWon,
        HostWon,
        HostWalkCancelled,
        DuplicateHostWalk,
        Finish,
        NetworkHop, ///< one traversed edge (hop fields below are valid)
    } kind = Kind::Charge;
    /** Booked after the request finished (a race loser in flight);
     *  a late charge is off the request's buckets. */
    bool late = false;
    /** Timeline-only hop (a migration payload edge): its cycles sit
     *  inside a Migration charge and are not in the buckets again. */
    bool uncounted = false;
    double cycles = 0;
    // --- NetworkHop only ---------------------------------------------------
    std::int16_t hopFrom = 0;
    std::int16_t hopTo = 0;
    float hopWait = 0;
    float hopSer = 0;
    float hopProp = 0;
};

/** One request's causal timeline (AttributionEngine keepTimelines). */
struct Timeline
{
    int gpu = 0;
    bool finished = false;
    std::uint64_t id = 0;
    std::uint64_t vpn = 0;
    sim::Tick tIssue = 0;
    sim::Tick tFinish = 0;
    std::vector<AttribEvent> events;

    /** The request's bucket sums, added up from its charged events in
     *  booking order, so they equal RequestLatency::bucket exactly. */
    std::array<double, kNumAttribBuckets> buckets() const;

    /**
     * Calls fn(name, start, dur, event) for each phase the timeline
     * draws: every Charge and NetworkHop event over [tick, tick +
     * cycles], named by its bucket, and every forward as "forward"
     * from its launch to its outcome event. The trace export and the
     * timeline check both draw phases through this.
     */
    template <class Fn>
    void
    forEachSlice(Fn &&fn) const
    {
        using Kind = AttribEvent::Kind;
        sim::Tick launched = 0;
        for (const AttribEvent &ev : events) {
            if (ev.kind == Kind::Charge || ev.kind == Kind::NetworkHop)
                fn(bucketName(ev.bucket), ev.tick, ev.cycles, ev);
            else if (ev.kind == Kind::ForwardLaunched)
                launched = ev.tick;
            else if (ev.kind == Kind::ForwardFailed ||
                     ev.kind == Kind::RemoteWon || ev.kind == Kind::HostWon)
                fn("forward", launched,
                   static_cast<double>(ev.tick - launched), ev);
        }
    }
};

/**
 * The one stored form of a translation's latency, carried by every
 * mmu::XlatRequest: its bucket sums, the share of them that arrived as
 * counted per-hop charges, and its reply-race state. mmu::charge() and
 * mmu::chargeHop() add to it in place; AttributionEngine::finish()
 * folds it into the run's AttributionTable.
 */
struct RequestLatency
{
    /** Reply race (Section IV-C): open from the forward until the
     *  remote reply, and after a hardware-path win until the losing
     *  host walk reports back. */
    enum class Race : std::uint8_t
    {
        None,
        Open,
        RemoteWon,
    };

    double bucket[kNumAttribBuckets] = {};
    /** Network / HostRoute cycles that arrived via counted hops; the
     *  watchdog proves they equal the buckets themselves. */
    double netHopCycles = 0;
    double routeHopCycles = 0;
    /** Kept timeline (AttributionEngine keepTimelines), else null. */
    Timeline *timeline = nullptr;
    sim::Tick tForward = 0; ///< launch of the open race's forward
    sim::Tick tWin = 0;     ///< when the remote reply won
    Race race = Race::None;
    bool sawCountedHop = false;
    bool finished = false;

    /** Late and timeline-traced charges take the engine's path; every
     *  other charge is a plain add. */
    bool needsEngine() const { return finished || timeline; }

    void
    add(AttribBucket b, double cycles)
    {
        bucket[static_cast<std::size_t>(b)] += cycles;
    }

    /** A counted hop: the bucket charge plus its per-hop sum. */
    void
    addHop(AttribBucket b, double cycles)
    {
        add(b, cycles);
        sawCountedHop = true;
        if (b == AttribBucket::Network)
            netHopCycles += cycles;
        else if (b == AttribBucket::HostRoute)
            routeHopCycles += cycles;
    }

    double total() const;
};

/**
 * Run-wide latency attribution. Per-request state lives in each
 * request's RequestLatency; the engine handles what a plain add
 * cannot: charges that arrive after finish (race losers, booked as
 * late), the reply-race ledger, folding finished requests into the
 * table, and — only when asked — per-request timelines.
 *
 * Purely observational: the engine never schedules events or touches
 * simulated state, so simulated timing is identical whether or not
 * timelines are kept.
 */
class AttributionEngine
{
  public:
    /** Cap on kept timelines. A default MT Trans-FW request keeps
     *  about 14 events, some 0.7 KB, so the cap bounds a run's
     *  timelines near 200 MB. */
    static constexpr std::size_t kMaxTimelines = std::size_t{1} << 18;

    /** Retain per-request timelines (`transfw explain`, the Perfetto
     *  export). Off by default; set before the run, because it only
     *  affects requests begun afterwards. Requests begun once
     *  kMaxTimelines are kept get none and are counted as dropped. */
    void setKeepTimelines(bool on) { keepTimelines_ = on; }
    bool keepTimelines() const { return keepTimelines_; }

    /** Watchdog consulted at finish() (nullable). */
    void attachChecks(Checks *checks) { checks_ = checks; }

    // --- lifecycle (called from the components) ---------------------------
    /** A translation entered the GMMU path; opens its timeline when
     *  timelines are kept. */
    void
    begin(RequestLatency &lat, int gpu, std::uint64_t id,
          std::uint64_t vpn, sim::Tick now)
    {
        if (keepTimelines_)
            openTimeline(lat, gpu, id, vpn, now);
    }
    /** A charge onto a finished request (booked late, off the table)
     *  or a traced one (also noted on its timeline). @p start is when
     *  the charged phase began. */
    void charge(RequestLatency &lat, AttribBucket bucket, double cycles,
                sim::Tick start);
    /**
     * One traversed edge of a routed message carrying this request,
     * entered at @p start. When @p counted is true this *is* the
     * charge — the hop's total lands in @p bucket and in the request's
     * per-hop sum, exactly as mmu::chargeHop() adds it. When false the
     * hop is timeline-only (migration payload hops, which stay charged
     * as one Migration lump).
     */
    void hop(RequestLatency &lat, AttribBucket bucket, const AttribHop &h,
             bool counted, sim::Tick start);
    void shortCircuited(RequestLatency &lat, double est_saved,
                        sim::Tick now);
    void forwardLaunched(RequestLatency &lat, sim::Tick now);
    /** Remote reply arrived. @p won: it beat the host walk. @p est_saved
     *  is the avoided-walk estimate for paths with no measurable loser
     *  (driver forwards); 0 on the hardware path. */
    void forwardOutcome(RequestLatency &lat, bool success, bool won,
                        double est_saved, sim::Tick now);
    /** Host walk completed. @p duplicate: the remote reply had already
     *  resolved the request (this walk was the race loser). */
    void hostWalkDone(RequestLatency &lat, bool duplicate, sim::Tick now);
    /** The losing host walk was pulled from the PW-queue before it
     *  started; @p est_walk estimates the walk it avoided. */
    void hostWalkCancelled(RequestLatency &lat, double est_walk,
                           sim::Tick now);
    /** Fold a finished request into the table and run the watchdog;
     *  later charges to it are late. */
    void finish(RequestLatency &lat, int gpu, std::uint64_t id,
                bool short_circuit, sim::Tick now);

    /** Count still-open races; call once after the event queue drains. */
    void finalize() { table_.unresolvedRaces = openRaces_; }

    const AttributionTable &table() const { return table_; }

    // --- timeline access (keepTimelines mode) ------------------------------
    /** Kept timelines, in the order their requests began. */
    const std::deque<Timeline> &timelines() const { return timelines_; }
    /** Requests begun past the cap, which got no timeline. */
    std::uint64_t droppedTimelines() const { return droppedTimelines_; }
    /** Timeline of one request, or nullptr (unknown / not kept). */
    const Timeline *timeline(int gpu, std::uint64_t id) const;
    /** (gpu, id) of the slowest finished request; gpu < 0 when none. */
    std::pair<int, std::uint64_t>
    slowestRequest() const
    {
        return {slowestGpu_, slowestId_};
    }

  private:
    void openTimeline(RequestLatency &lat, int gpu, std::uint64_t id,
                      std::uint64_t vpn, sim::Tick now);
    /** Appends an event to a kept timeline; nullptr when none is kept. */
    AttribEvent *note(RequestLatency &lat, sim::Tick tick,
                      AttribEvent::Kind kind, double cycles,
                      AttribBucket bucket = AttribBucket::Other);
    void closeRace(RequestLatency &lat);

    bool keepTimelines_ = false;
    Checks *checks_ = nullptr;
    AttributionTable table_;
    std::uint64_t openRaces_ = 0;
    /** A deque, so RequestLatency::timeline stays valid as it grows. */
    std::deque<Timeline> timelines_;
    std::uint64_t droppedTimelines_ = 0;
    double slowestWall_ = -1.0;
    int slowestGpu_ = -1;
    std::uint64_t slowestId_ = 0;
};

/**
 * Export kept timelines as Chrome trace-event JSON, which
 * ui.perfetto.dev (or chrome://tracing) loads directly; ticks map 1:1
 * onto trace microseconds. One process per GPU and one thread per
 * request: an "xlat" root slice over [tIssue, tFinish] with the vpn and
 * charged total in its args, one slice per charge (named by
 * bucketName()), one per network hop (from/to and the wait/ser/prop
 * split in its args) and a "forward" slice from launch to outcome.
 * Slices booked after the finish and uncounted hops carry a "late" or
 * "uncounted" tag in their args. When
 * @p sampler is non-null its columns export as counter tracks of a
 * "metrics" process, so queue depths plot under the requests.
 */
void writeChromeTrace(std::ostream &os, const AttributionEngine &attrib,
                      const IntervalSampler *sampler = nullptr);

} // namespace transfw::obs

#endif // TRANSFW_OBS_ATTRIB_HPP

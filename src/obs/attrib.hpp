#ifndef TRANSFW_OBS_ATTRIB_HPP
#define TRANSFW_OBS_ATTRIB_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp" // TRANSFW_OBS master switch
#include "sim/flat_map.hpp"
#include "sim/ticks.hpp"
#include "stats/stats.hpp"

namespace transfw::obs {

class Checks;

/**
 * Exhaustive, mutually-exclusive latency buckets for one translation.
 * Every cycle a request accumulates in its stats::LatencyBreakdown is
 * charged to exactly one bucket; the buckets refine the seven coarse
 * breakdown fields (Fig. 3) down to the individual mechanism, so the
 * report can show *which* penalty each Trans-FW path removes.
 *
 * The bucket -> field mapping (fieldOf) is the contract the invariant
 * watchdog enforces: summing an engine record's buckets grouped by
 * field must reproduce the request's LatencyBreakdown exactly.
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

/** Which LatencyBreakdown field a bucket refines. */
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
    /** Sum of the buckets mapping onto @p field. */
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
    sim::Tick tick = 0;
    AttribBucket bucket = AttribBucket::Other; ///< for Charge events
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
    double cycles = 0;
    // --- NetworkHop only ---------------------------------------------------
    std::int16_t hopFrom = 0;
    std::int16_t hopTo = 0;
    float hopWait = 0;
    float hopSer = 0;
    float hopProp = 0;
};

/**
 * Per-request latency-attribution engine. Components report every
 * LatencyBreakdown charge through mmu::charge(), which updates the
 * request's breakdown and this engine's per-request record in one
 * step — the bucket sums therefore equal the breakdown by
 * construction, and obs::Checks verifies that at finish time.
 *
 * Purely observational: the engine never schedules events or touches
 * request state, so simulated timing is identical with it on or off.
 * Compiled out entirely under TRANSFW_OBS=0, like SpanRecorder.
 */
class AttributionEngine
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on);

    /** Retain per-request timelines (explain_request). Off by default:
     *  records are released as soon as their race closes. */
    void setKeepTimelines(bool on);
    bool keepTimelines() const { return keepTimelines_; }

    /** Watchdog consulted at finish() (nullable). */
    void attachChecks(Checks *checks) { checks_ = checks; }

    // --- lifecycle (called from the components) ---------------------------
    void begin(int gpu, std::uint64_t id, std::uint64_t vpn,
               sim::Tick now);
    void charge(int gpu, std::uint64_t id, AttribBucket bucket,
                double cycles, sim::Tick now);
    /**
     * One traversed edge of a routed message carrying this request.
     * When @p counted is true this *is* the charge — the hop's total
     * lands in @p bucket exactly like charge(), and additionally
     * accumulates into the record's per-hop sum so the watchdog can
     * prove sum-of-edges == bucket. When false the hop is
     * timeline-only (e.g. migration payload hops, which stay charged
     * as one Migration lump).
     */
    void hop(int gpu, std::uint64_t id, AttribBucket bucket,
             const AttribHop &h, bool counted, sim::Tick now);
    void shortCircuited(int gpu, std::uint64_t id, double est_saved,
                        sim::Tick now);
    void forwardLaunched(int gpu, std::uint64_t id,
                         sim::Tick now);
    /** Remote reply arrived. @p won: it beat the host walk. @p est_saved
     *  is the avoided-walk estimate for paths with no measurable loser
     *  (driver forwards); 0 on the hardware path. */
    void forwardOutcome(int gpu, std::uint64_t id, bool success,
                        bool won, double est_saved,
                        sim::Tick now);
    /** Host walk completed. @p duplicate: the remote reply had already
     *  resolved the request (this walk was the race loser). */
    void hostWalkDone(int gpu, std::uint64_t id, bool duplicate,
                      sim::Tick now);
    /** The losing host walk was pulled from the PW-queue before it
     *  started; @p est_walk estimates the walk it avoided. */
    void hostWalkCancelled(int gpu, std::uint64_t id, double est_walk,
                           sim::Tick now);
    void finish(int gpu, std::uint64_t id,
                const stats::LatencyBreakdown &lat, bool short_circuit,
                sim::Tick now);

    /** Count still-open races; call once after the event queue drains. */
    void finalize();

    const AttributionTable &table() const { return table_; }

    /** Requests currently tracked (unfinished or open-race). */
    std::size_t liveRequests() const { return live_.size(); }

    // --- timeline access (keepTimelines mode) ------------------------------
    struct Timeline
    {
        std::uint64_t vpn = 0;
        sim::Tick tIssue = 0;
        sim::Tick tFinish = 0;
        double total = 0; ///< LatencyBreakdown::total() at finish
        double bucket[kNumAttribBuckets] = {};
        /** Cycles that arrived via counted hops, split by bucket — the
         *  watchdog proves these equal the buckets themselves. */
        double netHopCycles = 0;
        double routeHopCycles = 0;
        bool sawCountedHop = false;
        std::vector<AttribEvent> events;
    };

    /** Timeline of one request, or nullptr (unknown / not kept). */
    const Timeline *timeline(int gpu, std::uint64_t id) const;
    /** (gpu, id) of the slowest finished request; gpu < 0 when none. */
    std::pair<int, std::uint64_t> slowestRequest() const;

  private:
    struct Record
    {
        Timeline tl;
        enum class Race : std::uint8_t
        {
            None,
            Open,
            RemoteWon,
        } race = Race::None;
        sim::Tick tForward = 0;
        sim::Tick tWin = 0;
        bool finished = false;
        bool shortCircuit = false;
    };

    static std::uint64_t
    key(int gpu, std::uint64_t id)
    {
        return (static_cast<std::uint64_t>(gpu + 1) << 48) | id;
    }

    Record *lookup(int gpu, std::uint64_t id);
    void note(Record &rec, sim::Tick tick, AttribEvent::Kind kind,
              AttribBucket bucket, double cycles);
    void noteHop(Record &rec, sim::Tick tick, AttribBucket bucket,
                 const AttribHop &h);
    /** Drop the record once it can no longer receive events. */
    void maybeRelease(int gpu, std::uint64_t id, Record &rec);

    bool enabled_ = false;
    bool keepTimelines_ = false;
    Checks *checks_ = nullptr;
    AttributionTable table_;
    sim::FlatMap<std::uint64_t, Record> live_;
    double slowestWall_ = -1.0;
    int slowestGpu_ = -1;
    std::uint64_t slowestId_ = 0;
};

} // namespace transfw::obs

#endif // TRANSFW_OBS_ATTRIB_HPP

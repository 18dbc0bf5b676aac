#ifndef TRANSFW_OBS_SELF_PROFILER_HPP
#define TRANSFW_OBS_SELF_PROFILER_HPP

#include <chrono>
#include <cstdint>

#include "sim/event_queue.hpp"

namespace transfw::obs {

/**
 * Host-time buckets the SelfProfiler attributes event-dispatch wall
 * clock to. Kernel is the residual: dispatch time no component scope
 * claimed (queue bookkeeping, un-instrumented callbacks).
 */
enum class ProfBucket : std::uint8_t
{
    Kernel,       ///< event-kernel dispatch not claimed by any scope
    ComputeUnit,  ///< CU issue loop / workload generation
    Gmmu,         ///< GMMU queueing and walk bookkeeping
    HostMmu,      ///< host MMU / UVM driver fault handling
    TlbPwc,       ///< TLB and PW-cache lookups/fills
    PageWalk,     ///< radix page-table walks (local, host, remote)
    Forwarding,   ///< Trans-FW PRT/FT probes and forwarding decisions
    Interconnect, ///< link delivery callbacks and reply fan-out
    Migration,    ///< page migration/replication engine
    Stats,        ///< interval sampler and metric probes
};
inline constexpr std::size_t kNumProfBuckets = 10;

const char *profBucketName(ProfBucket bucket);

/**
 * One run's host-side profile. Plain data, present (and all-zero) when
 * the profiler is off so SimResults keeps a stable shape. Seconds are
 * scaled estimates: the profiler samples one dispatch in `stride`, so
 * every measured interval is multiplied by the stride when snapshotted.
 * By construction sum(seconds[]) equals totalSeconds (both accumulate
 * exactly the same clock intervals), which test_ledger pins.
 */
struct HostProfile
{
    double seconds[kNumProfBuckets] = {};
    double totalSeconds = 0;           ///< measured dispatch wall (scaled)
    std::uint64_t dispatches = 0;      ///< every event fired
    std::uint64_t sampledDispatches = 0;
    std::uint32_t stride = 0;          ///< 0 = profiler was off

    double
    bucketSum() const
    {
        double s = 0;
        for (double v : seconds)
            s += v;
        return s;
    }
};

/**
 * Wall-clock self-profiler for the simulator itself: attributes host
 * time spent inside event dispatch to component buckets, the ground
 * truth any event-kernel change will be judged against.
 *
 * Attached to every EventQueue of a run as its DispatchHook, it
 * samples one dispatch in `stride` (default
 * cfg::ObsConfig::profileStride): a
 * sampled dispatch opens a Kernel-bucket frame, and obs::ProfScope
 * RAII timers inside component code carve *self time* out of whatever
 * frame is open — nested scopes never double-count, and the interval
 * sum always equals the measured dispatch window. Unsampled dispatches
 * cost one counter increment and two virtual calls, keeping the
 * enabled-profiler overhead well under the 5% events/sec budget;
 * switched off (cfg::ObsConfig::selfProfile false) the hook is never
 * installed and every scope costs one branch.
 */
class SelfProfiler final : public sim::EventQueue::DispatchHook
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Arm the profiler. stride == 0 is clamped to 1 (every event). */
    void configure(bool enabled, std::uint32_t stride);

    bool enabled() const { return enabled_; }

    /** True while inside a sampled dispatch (scopes are live). */
    bool sampling() const { return depth_ > 0; }

    // --- sim::EventQueue::DispatchHook -----------------------------------
    void beginDispatch() override;
    void endDispatch() override;

    // --- component scopes (use obs::ProfScope, not these) -----------------
    void enter(ProfBucket bucket);
    void exit();

    /** Scaled bucket/total estimate of where host time went. */
    HostProfile snapshot() const;

    /**
     * Dispatches per wall second since the previous call (sampler
     * column probe; the first call measures from configure()).
     */
    double recentEventsPerSec();

    void reset();

  private:
    static constexpr int kMaxDepth = 32;

    /** Close the open interval into @p bucket and restart it at @p t. */
    void
    charge(ProfBucket bucket, Clock::time_point t)
    {
        ns_[static_cast<std::size_t>(bucket)] +=
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - mark_)
                    .count());
        mark_ = t;
    }

    bool enabled_ = false;
    std::uint32_t stride_ = 16;
    std::uint32_t countdown_ = 16; ///< dispatches until the next sample
    std::uint64_t dispatches_ = 0;
    std::uint64_t sampledDispatches_ = 0;
    std::uint64_t ns_[kNumProfBuckets] = {};
    std::uint64_t totalNs_ = 0;
    int depth_ = 0; ///< 0 = not inside a sampled dispatch
    ProfBucket stack_[kMaxDepth];
    Clock::time_point mark_;      ///< start of the open interval
    Clock::time_point dispatch0_; ///< start of the sampled dispatch
    // recentEventsPerSec() bookkeeping.
    Clock::time_point probeTime_;
    std::uint64_t probeDispatches_ = 0;
    bool probed_ = false;
};

/**
 * RAII self-time timer: carves this scope's own time out of the
 * enclosing bucket while inside a sampled dispatch; free otherwise.
 * @p profiler may be null (component with observability detached).
 */
class ProfScope
{
  public:
    ProfScope(SelfProfiler *profiler, ProfBucket bucket)
        : profiler_(profiler && profiler->sampling() ? profiler : nullptr)
    {
        if (profiler_)
            profiler_->enter(bucket);
    }

    ~ProfScope()
    {
        if (profiler_)
            profiler_->exit();
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    SelfProfiler *profiler_;
};

} // namespace transfw::obs

#endif // TRANSFW_OBS_SELF_PROFILER_HPP

#ifndef TRANSFW_SIM_EVENT_QUEUE_HPP
#define TRANSFW_SIM_EVENT_QUEUE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/ticks.hpp"

namespace transfw::sim {

/**
 * Discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute or relative ticks; run()
 * drains events in (tick, insertion-order) order, which makes execution
 * fully deterministic: two events at the same tick fire in the order
 * they were scheduled.
 *
 * Internally the queue is two-level, in the spirit of calendar/ladder
 * queues: events within kWindow ticks of now() land in a ring of
 * per-tick buckets (append = already sorted, since the insertion
 * sequence is monotonic), and only far-future events pay for a binary
 * heap. A bitmap over the ring makes "next non-empty tick" a handful
 * of word scans. Combined with the small-buffer-optimised EventFn
 * callback, the schedule → fire round trip on the common path touches
 * no allocator at steady state (bucket vectors retain their capacity).
 *
 * Ordering across the two levels is safe by construction: an event can
 * only ever sit in the heap if it was scheduled ≥ kWindow ticks ahead,
 * i.e. strictly earlier in simulation time than any bucket insertion
 * for the same tick — so its sequence number is strictly smaller, and
 * draining the heap before the bucket at each tick preserves exact
 * (tick, seq) order.
 */
class EventQueue
{
  public:
    using Callback = EventFn;

    /** Near-future window covered by the bucket ring (power of two). */
    static constexpr std::size_t kWindow = 1024;

    /**
     * Observer of event-dispatch boundaries (the obs::SelfProfiler).
     * beginDispatch() fires immediately before a callback is invoked
     * and endDispatch() immediately after; both run on the hot path,
     * so implementations must keep the common case to a few
     * instructions. With no hook installed (the profiler off) a
     * dispatch pays one null-pointer test.
     */
    class DispatchHook
    {
      public:
        virtual ~DispatchHook() = default;
        virtual void beginDispatch() = 0;
        virtual void endDispatch() = 0;
    };

    /** Install (or clear, with nullptr) the dispatch observer. */
    void setDispatchHook(DispatchHook *hook) { hook_ = hook; }

    /**
     * High-water mark of queued events (strong + weak) over the queue's
     * lifetime. A pure function of the event schedule, so deterministic
     * — it lands in the ledger's metrics section, not the wall section.
     */
    std::size_t peakPending() const { return peak_; }

    /** Current simulation time. */
    Tick now() const { return now_; }

    /** Schedule @p cb to fire @p delay ticks from now. */
    void schedule(Tick delay, Callback cb) { scheduleAt(now_ + delay, std::move(cb)); }

    /**
     * Schedule @p cb at absolute tick @p when.
     * Scheduling in the past is an invariant violation (panics).
     */
    void scheduleAt(Tick when, Callback cb);

    /**
     * Schedule @p cb like schedule(), but weakly: weak events never
     * keep the simulation alive. They execute in normal (tick,
     * insertion) order while at least one strong event remains
     * pending; once only weak events are left, they are discarded
     * unrun and now() does not advance to them. Observers (e.g. the
     * interval sampler) use this so instrumentation cannot perturb
     * the measured end of the simulation.
     */
    void scheduleWeak(Tick delay, Callback cb)
    {
        scheduleWeakAt(now_ + delay, std::move(cb));
    }

    /** Absolute-tick variant of scheduleWeak(). */
    void scheduleWeakAt(Tick when, Callback cb);

    /** True when no events remain (strong or weak). */
    bool empty() const { return size_ == 0; }

    /**
     * Number of pending events that can still execute. While strong
     * work remains this counts strong and weak events alike; once only
     * weak events are left they will never run (see scheduleWeak), so
     * pending() reports 0 rather than counting zombies.
     */
    std::size_t pending() const { return strong_ ? size_ : 0; }

    /** Number of pending strong (simulation-driving) events. */
    std::size_t strongPending() const { return strong_; }

    /**
     * Number of weak events currently queued, whether or not they will
     * ever execute (they won't unless strong work precedes them).
     */
    std::size_t weakPending() const { return size_ - strong_; }

    /**
     * Execute events until the queue drains or the next event lies past
     * @p until. @return the number of events executed.
     */
    std::uint64_t run(Tick until = kMaxTick);

    /** Execute exactly one event if available. @return true if one ran. */
    bool runOne();

    /**
     * Earliest pending tick (strong or weak); kMaxTick when nothing is
     * queued. The multi-queue event loop uses this to pick the next
     * queue to run.
     */
    Tick nextTick() const { return nextEventTick(); }

    /**
     * Execute every event with tick < @p end, in exact (tick, seq)
     * order, and stop. Unlike run(), the weak remainder is never
     * discarded and now() stays at the last executed tick — the queue
     * stays open while other queues catch up. Events a callback
     * schedules inside [now, end) still execute within this call.
     * @return the number of events executed.
     */
    std::uint64_t runWindow(Tick end);

    /**
     * Destroy everything still queued (the trailing weak events of a
     * finished queue). The multi-queue event loop calls this once per
     * queue after global termination, mirroring run()'s final discard.
     */
    void discardPending() { discardAll(); }

  private:
    /** Near event parked in a bucket: its tick is the bucket's tick. */
    struct Entry
    {
        std::uint64_t seq;
        Callback cb;
        bool weak;
    };

    /** Far event in the fallback heap. */
    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
        bool weak;
    };

    /**
     * One tick's events. Entries are appended in seq order and
     * consumed front-to-back via @p head (so runOne() can leave a tick
     * half-drained); the vector keeps its capacity across reuse.
     */
    struct Bucket
    {
        std::vector<Entry> entries;
        std::size_t head = 0;

        bool drained() const { return head >= entries.size(); }
    };

    struct FarLater
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void push(Tick when, Callback cb, bool weak);
    /** Earliest pending tick; kMaxTick when nothing is queued. */
    Tick nextEventTick() const;
    /** Execute all events at tick @p when (== now_) in seq order. */
    std::uint64_t drainTick(Tick when);
    /** Pop + execute one event; @p when must be nextEventTick(). */
    void fireOne(Tick when);
    /** Execute @p e (counters first, mirroring the pop-then-run order). */
    void fire(Entry e);
    /** Destroy everything still queued (trailing weak events). */
    void discardAll();
    void resetBucket(std::size_t idx);

    std::size_t bucketIndex(Tick when) const
    {
        return static_cast<std::size_t>(when % kWindow);
    }

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t strong_ = 0;
    std::size_t size_ = 0; ///< live events, strong + weak
    std::size_t peak_ = 0; ///< lifetime high-water mark of size_
    DispatchHook *hook_ = nullptr;
    std::array<Bucket, kWindow> buckets_;
    /** Bit i set ⇔ buckets_[i] has undrained entries. */
    std::array<std::uint64_t, kWindow / 64> liveBits_{};
    std::vector<FarEntry> far_; ///< min-heap via std::push/pop_heap
};

} // namespace transfw::sim

#endif // TRANSFW_SIM_EVENT_QUEUE_HPP

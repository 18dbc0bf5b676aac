#ifndef TRANSFW_SIM_EVENT_QUEUE_HPP
#define TRANSFW_SIM_EVENT_QUEUE_HPP

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/pool.hpp"
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
 * of word scans.
 *
 * Every event lives in a node from the queue's own slab pool, and a
 * node never moves: schedule() constructs the callback inside it, a
 * bucket is a FIFO list of nodes, the far heap orders (tick, seq,
 * node) handles, and the callback runs where it was built before its
 * node goes back to the freelist. Combined with the small-buffer
 * EventFn, the schedule → fire round trip moves each callable once and
 * touches no allocator at steady state.
 *
 * Ordering across the two levels is safe by construction: an event can
 * only ever sit in the heap if it was scheduled ≥ kWindow ticks ahead,
 * i.e. strictly earlier in simulation time than any bucket insertion
 * for the same tick — so it was scheduled first, and draining the
 * heap (ordered by tick, then a sequence number counting far events)
 * before the bucket at each tick preserves exact (tick, seq) order.
 */
class EventQueue
{
  public:
    using Callback = EventFn;

    /** Near-future window covered by the bucket ring (power of two). */
    static constexpr std::size_t kWindow = 1024;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue() { discardAll(); }

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

    /**
     * Schedule @p cb to fire @p delay ticks from now. Every schedule
     * function takes any void() callable (or a Callback) and builds the
     * Callback inside the event's node.
     */
    template <typename F>
    void
    schedule(Tick delay, F &&cb)
    {
        scheduleAt(now_ + delay, std::forward<F>(cb));
    }

    /**
     * Schedule @p cb at absolute tick @p when.
     * Scheduling in the past is an invariant violation (panics).
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&cb)
    {
        if (when < now_)
            pastPanic(when, false);
        push(when, pool_.acquire(std::forward<F>(cb), false));
        ++strong_;
    }

    /**
     * Schedule @p cb like schedule(), but weakly: weak events never
     * keep the simulation alive. They execute in normal (tick,
     * insertion) order while at least one strong event remains
     * pending; once only weak events are left, they are discarded
     * unrun and now() does not advance to them. Observers (e.g. the
     * interval sampler) use this so instrumentation cannot perturb
     * the measured end of the simulation.
     */
    template <typename F>
    void
    scheduleWeak(Tick delay, F &&cb)
    {
        scheduleWeakAt(now_ + delay, std::forward<F>(cb));
    }

    /** Absolute-tick variant of scheduleWeak(). */
    template <typename F>
    void
    scheduleWeakAt(Tick when, F &&cb)
    {
        if (when < now_)
            pastPanic(when, true);
        push(when, pool_.acquire(std::forward<F>(cb), true));
    }

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
    /** One event. Its tick is its bucket's, or its far-heap entry's. */
    struct Node
    {
        template <typename F>
        Node(F &&fn, bool w) : cb(std::forward<F>(fn)), weak(w)
        {}

        Callback cb;
        Node *next = nullptr; ///< next event of the same bucket
        bool weak;
    };

    /** Far event in the fallback heap. */
    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Node *node;
    };

    /**
     * One tick's events, in seq order. A node is unlinked before its
     * callback runs, so runOne() can leave a tick half-drained and
     * same-tick events scheduled meanwhile join behind the rest.
     */
    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
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

    [[noreturn]] void pastPanic(Tick when, bool weak) const;
    void push(Tick when, Node *node);
    /** Earliest pending tick; kMaxTick when nothing is queued. */
    Tick nextEventTick() const;
    /** Execute all events at tick @p when (== now_) in seq order. */
    std::uint64_t drainTick(Tick when);
    /** Pop + execute one event; @p when must be nextEventTick(). */
    void fireOne(Tick when);
    /** Unlink the first event of bucket @p idx (which holds one). */
    Node *popBucket(std::size_t idx);
    /** Unlink the earliest far event. */
    Node *popFar();
    /**
     * Execute the unlinked @p node in place (counters first, mirroring
     * the pop-then-run order), then return it to the pool.
     */
    void fire(Node *node);
    /** Destroy everything still queued (trailing weak events). */
    void discardAll();

    std::size_t bucketIndex(Tick when) const
    {
        return static_cast<std::size_t>(when % kWindow);
    }

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0; ///< insertion order of far events
    std::size_t strong_ = 0;
    std::size_t size_ = 0; ///< live events, strong + weak
    std::size_t peak_ = 0; ///< lifetime high-water mark of size_
    DispatchHook *hook_ = nullptr;
    /** Nodes of every queued event; grows on the first schedule(). */
    ObjectPool<Node> pool_;
    std::array<Bucket, kWindow> buckets_;
    /** Bit i set ⇔ buckets_[i] holds an event. */
    std::array<std::uint64_t, kWindow / 64> liveBits_{};
    std::vector<FarEntry> far_; ///< min-heap via std::push/pop_heap
};

} // namespace transfw::sim

#endif // TRANSFW_SIM_EVENT_QUEUE_HPP

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"

using namespace transfw;

TEST(EventQueue, RunsInTimeOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ReentrantScheduling)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(1, [&] {
            ++fired;
            eq.schedule(1, [&] { ++fired; });
        });
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, RunUntilStopsEarly)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_EQ(eq.run(15), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, WeakEventsRunWhileStrongWorkRemains)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(30, [&] { order.push_back(3); });
    eq.scheduleWeak(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TrailingWeakEventsNeitherRunNorAdvanceClock)
{
    sim::EventQueue eq;
    int weakFired = 0;
    eq.schedule(10, [] {});
    eq.scheduleWeak(25, [&] { ++weakFired; });
    eq.run();
    EXPECT_EQ(weakFired, 0);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, WeakOnlyQueueDrainsImmediately)
{
    sim::EventQueue eq;
    int fired = 0;
    eq.scheduleWeak(5, [&] { ++fired; });
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, SelfReschedulingWeakEventEndsWithStrongWork)
{
    // The interval-sampler shape: a weak event that reschedules itself
    // forever must stop exactly when strong work stops.
    sim::EventQueue eq;
    std::vector<sim::Tick> samples;
    std::function<void()> tick = [&] {
        samples.push_back(eq.now());
        eq.scheduleWeak(10, tick);
    };
    eq.scheduleWeak(0, tick);
    eq.schedule(35, [] {});
    eq.run();
    EXPECT_EQ(samples, (std::vector<sim::Tick>{0, 10, 20, 30}));
    EXPECT_EQ(eq.now(), 35u);
    EXPECT_EQ(eq.strongPending(), 0u);
}

TEST(EventQueue, StrongPendingCountsOnlyStrong)
{
    sim::EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    eq.scheduleWeak(3, [] {});
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_EQ(eq.strongPending(), 2u);
    EXPECT_EQ(eq.weakPending(), 1u);
}

TEST(EventQueue, PendingIsZeroWhenOnlyWeakEventsRemain)
{
    // Weak-only events will never run, so a caller polling pending()
    // to decide whether the simulation is live must see zero.
    sim::EventQueue eq;
    eq.scheduleWeak(5, [] {});
    eq.scheduleWeak(6, [] {});
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.weakPending(), 2u);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.weakPending(), 0u);
}

TEST(EventQueue, RunUntilWithOnlyWeakEventsBeforeBoundary)
{
    // A weak event before the boundary runs (strong work still exists
    // beyond it); the strong event past the boundary stays pending and
    // now() rests at the weak event's tick.
    sim::EventQueue eq;
    std::vector<int> order;
    eq.scheduleWeak(10, [&] { order.push_back(1); });
    eq.schedule(50, [&] { order.push_back(2); });
    EXPECT_EQ(eq.run(20), 1u);
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, FarEventsBeyondBucketWindow)
{
    // Delays past the bucket window take the fallback-heap path; the
    // (tick, insertion) order contract must hold across both levels.
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(5000, [&] { order.push_back(3); });
    eq.schedule(2000, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(1); });
    eq.schedule(5000, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventQueue, FarAndNearEventsAtSameTickKeepFifoOrder)
{
    // Schedule tick 1500 first from afar (heap), then walk time close
    // enough that a second event at 1500 lands in a bucket: the heap
    // entry was inserted first and must fire first.
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(1500, [&] { order.push_back(1); });
    eq.schedule(600, [&] {
        // now = 600: tick 1500 is within the window now.
        eq.scheduleAt(1500, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, LongChainCrossesWindowRepeatedly)
{
    // A self-rescheduling chain whose hops straddle the window exercises
    // bucket wrap-around and heap migration many times.
    sim::EventQueue eq;
    std::uint64_t fired = 0;
    std::function<void()> hop = [&] {
        if (++fired < 500)
            eq.schedule(fired % 3 == 0 ? 1700 : 37, hop);
    };
    eq.schedule(0, hop);
    EXPECT_EQ(eq.run(), 500u);
    EXPECT_EQ(fired, 500u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, MoveOnlyCallback)
{
    // std::function required copyable callables; the event kernel must
    // accept move-only ones (e.g. capturing a unique_ptr).
    sim::EventQueue eq;
    int fired = 0;
    auto payload = std::make_unique<int>(41);
    eq.schedule(1, [&fired, p = std::move(payload)] { fired = *p + 1; });
    eq.run();
    EXPECT_EQ(fired, 42);
}

TEST(EventQueue, RunOneAcrossWindowBoundary)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(2, [&] { order.push_back(1); });
    eq.schedule(4000, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 2u);
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 4000u);
    EXPECT_FALSE(eq.runOne());
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

namespace {

/** Callable that counts its own moves and calls. */
struct MoveCounter
{
    int *moves;
    int *calls;

    MoveCounter(int *m, int *c) : moves(m), calls(c) {}
    MoveCounter(MoveCounter &&other) noexcept
        : moves(other.moves), calls(other.calls)
    {
        ++*moves;
    }
    MoveCounter(const MoveCounter &) = delete;

    void operator()() { ++*calls; }
};

} // namespace

TEST(EventQueue, CallbackIsBuiltInItsNodeAndRunsThere)
{
    // schedule() builds the callback in its event's node and the kernel
    // runs it there: at most the move into the node and one more, for
    // a near and a far event alike.
    sim::EventQueue eq;
    int moves = 0;
    int calls = 0;
    eq.schedule(3, MoveCounter{&moves, &calls});
    eq.run();
    EXPECT_EQ(calls, 1);
    EXPECT_LE(moves, 2);

    moves = calls = 0;
    eq.schedule(5000, MoveCounter{&moves, &calls});
    eq.run();
    EXPECT_EQ(calls, 1);
    EXPECT_LE(moves, 2);

    // Many events sharing three buckets cost no extra moves either.
    moves = calls = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<sim::Tick>(i % 3),
                    MoveCounter{&moves, &calls});
    eq.run();
    EXPECT_EQ(calls, 100);
    EXPECT_LE(moves, 200);
}

TEST(EventQueue, CallbackSchedulesMoreThanASlabAtItsOwnTick)
{
    // The running callback schedules more events than one pool slab
    // holds, so the pool grows under it. It must keep running in its
    // own node (its captures stay readable), and every new event fires
    // after it, in schedule order, at the same tick.
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&eq, &order] {
        for (int i = 0; i < 300; ++i)
            eq.schedule(0, [&order, i] { order.push_back(i); });
        order.push_back(-1);
    });
    EXPECT_EQ(eq.run(), 301u);
    EXPECT_EQ(eq.now(), 5u);
    ASSERT_EQ(order.size(), 301u);
    EXPECT_EQ(order[0], -1);
    for (int i = 0; i < 300; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
}

TEST(EventQueue, EventJoinsBehindAHalfDrainedTick)
{
    sim::EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 3; ++i)
        eq.schedule(4, [&order, i] { order.push_back(i); });
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 4u);
    eq.schedule(0, [&order] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, DiscardedNodesAreReusedInOrder)
{
    // Near and far events at interleaved ticks, scheduled relative to
    // now(); returns the order they fired in.
    auto pass = [](sim::EventQueue &eq) {
        std::vector<int> order;
        for (int i = 0; i < 600; ++i) {
            sim::Tick delay = static_cast<sim::Tick>(i % 7) +
                              (i % 5 == 0 ? 3000 : 0);
            eq.schedule(delay, [&order, i] { order.push_back(i); });
        }
        eq.run();
        return order;
    };
    sim::EventQueue fresh;
    const std::vector<int> expected = pass(fresh);

    // A finished queue whose trailing weak events, near and far, are
    // still queued when the multi-queue loop discards them.
    sim::EventQueue eq;
    int strong = 0;
    for (int i = 0; i < 300; ++i) {
        eq.schedule(static_cast<sim::Tick>(i % 4), [&strong] { ++strong; });
        eq.scheduleWeak(static_cast<sim::Tick>(10 + i % 9), [] {
            FAIL() << "a discarded weak event ran";
        });
        eq.scheduleWeak(4000, [] { FAIL() << "a discarded weak event ran"; });
    }
    eq.runWindow(sim::kMaxTick);
    EXPECT_EQ(strong, 300);
    EXPECT_EQ(eq.weakPending(), 600u);
    eq.discardPending();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(pass(eq), expected);
}

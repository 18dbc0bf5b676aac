#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace transfw::sim {

void
EventQueue::scheduleAt(Tick when, Callback cb)
{
    if (when < now_)
        panic(strfmt("event scheduled in the past: %llu < %llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now_)));
    push(when, std::move(cb), false);
    ++strong_;
}

void
EventQueue::scheduleWeakAt(Tick when, Callback cb)
{
    if (when < now_)
        panic(strfmt("weak event scheduled in the past: %llu < %llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now_)));
    push(when, std::move(cb), true);
}

void
EventQueue::push(Tick when, Callback cb, bool weak)
{
    ++size_;
    if (size_ > peak_)
        peak_ = size_;
    if (when - now_ < kWindow) {
        std::size_t idx = bucketIndex(when);
        buckets_[idx].entries.push_back(
            Entry{nextSeq_++, std::move(cb), weak});
        liveBits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
        return;
    }
    far_.push_back(FarEntry{when, nextSeq_++, std::move(cb), weak});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
}

namespace {

/**
 * First set bit in @p bits within [lo, hi), or kLimit when none.
 * @p bits spans kLimit bits across 64-bit words.
 */
template <std::size_t kWords>
std::size_t
firstLiveSlot(const std::array<std::uint64_t, kWords> &bits,
              std::size_t lo, std::size_t hi, std::size_t none)
{
    if (lo >= hi)
        return none;
    std::size_t w = lo / 64;
    std::uint64_t word = bits[w] & (~std::uint64_t{0} << (lo % 64));
    while (true) {
        if (word) {
            std::size_t idx =
                w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
            return idx < hi ? idx : none;
        }
        ++w;
        if (w * 64 >= hi)
            return none;
        word = bits[w];
    }
}

} // namespace

Tick
EventQueue::nextEventTick() const
{
    Tick next = far_.empty() ? kMaxTick : far_.front().when;
    // The ring covers ticks [now_, now_ + kWindow): slot
    // (start + d) % kWindow holds tick now_ + d, so the first live
    // slot in circular order starting at now_'s own slot is the
    // earliest bucketed tick.
    std::size_t start = bucketIndex(now_);
    std::size_t idx = firstLiveSlot(liveBits_, start, kWindow, kWindow);
    std::size_t dist;
    if (idx < kWindow) {
        dist = idx - start;
    } else {
        idx = firstLiveSlot(liveBits_, 0, start, kWindow);
        dist = idx < kWindow ? idx + kWindow - start : kWindow;
    }
    if (dist < kWindow) {
        Tick t = now_ + dist;
        if (t < next)
            next = t;
    }
    return next;
}

std::uint64_t
EventQueue::run(Tick until)
{
    std::uint64_t executed = 0;
    while (strong_ > 0) {
        Tick t = nextEventTick();
        if (t > until)
            break;
        now_ = t;
        executed += drainTick(t);
    }
    // Once only weak events remain they must neither run nor advance
    // the clock: the simulation ends exactly at its last strong event.
    if (strong_ == 0)
        discardAll();
    return executed;
}

std::uint64_t
EventQueue::drainTick(Tick when)
{
    std::uint64_t executed = 0;
    // Far entries for this tick fire first: they were scheduled at
    // least a window earlier, so their sequence numbers precede every
    // bucket entry for the same tick (see the class comment).
    while (strong_ > 0 && !far_.empty() && far_.front().when == when) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        FarEntry e = std::move(far_.back());
        far_.pop_back();
        fire(Entry{e.seq, std::move(e.cb), e.weak});
        ++executed;
    }
    std::size_t idx = bucketIndex(when);
    Bucket &b = buckets_[idx];
    // Callbacks may append same-tick events to this very bucket (a
    // zero-delay reschedule), growing the vector mid-drain: move each
    // entry out before invoking and re-check the bounds every step.
    while (strong_ > 0 && !b.drained()) {
        Entry e = std::move(b.entries[b.head++]);
        fire(std::move(e));
        ++executed;
    }
    if (strong_ > 0)
        resetBucket(idx);
    return executed;
}

std::uint64_t
EventQueue::runWindow(Tick end)
{
    std::uint64_t executed = 0;
    // Guard on strong_: with only weak events left nothing may run
    // (drainTick would execute zero events forever), and the decision
    // to discard them belongs to the caller at global termination.
    while (strong_ > 0) {
        Tick t = nextEventTick();
        if (t >= end)
            break;
        now_ = t;
        executed += drainTick(t);
    }
    return executed;
}

bool
EventQueue::runOne()
{
    if (strong_ == 0) {
        discardAll();
        return false;
    }
    Tick t = nextEventTick();
    now_ = t;
    fireOne(t);
    return true;
}

void
EventQueue::fireOne(Tick when)
{
    if (!far_.empty() && far_.front().when == when) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        FarEntry e = std::move(far_.back());
        far_.pop_back();
        fire(Entry{e.seq, std::move(e.cb), e.weak});
        return;
    }
    std::size_t idx = bucketIndex(when);
    Bucket &b = buckets_[idx];
    Entry e = std::move(b.entries[b.head++]);
    // Recycle the bucket before invoking: the callback may schedule a
    // new event at this same tick, which must land in a fresh bucket,
    // not be wiped by a post-hoc reset.
    if (b.drained())
        resetBucket(idx);
    fire(std::move(e));
}

void
EventQueue::fire(Entry e)
{
    // Counters drop before the callback runs so pending()/strongPending()
    // observed from inside an event exclude the event itself.
    if (!e.weak)
        --strong_;
    --size_;
    if (hook_) {
        hook_->beginDispatch();
        e.cb();
        hook_->endDispatch();
        return;
    }
    e.cb();
}

void
EventQueue::resetBucket(std::size_t idx)
{
    Bucket &b = buckets_[idx];
    if (b.head == 0 && b.entries.empty())
        return;
    b.entries.clear(); // keeps capacity for the next tick landing here
    b.head = 0;
    liveBits_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
}

void
EventQueue::discardAll()
{
    if (size_ == 0)
        return;
    for (std::size_t idx = 0; idx < kWindow; ++idx)
        resetBucket(idx);
    far_.clear();
    size_ = 0;
}

} // namespace transfw::sim

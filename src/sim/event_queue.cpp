#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace transfw::sim {

void
EventQueue::pastPanic(Tick when, bool weak) const
{
    panic(strfmt("%sevent scheduled in the past: %llu < %llu",
                 weak ? "weak " : "", static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_)));
}

void
EventQueue::push(Tick when, Node *node)
{
    ++size_;
    if (size_ > peak_)
        peak_ = size_;
    if (when - now_ < kWindow) {
        std::size_t idx = bucketIndex(when);
        Bucket &b = buckets_[idx];
        if (b.tail) {
            b.tail->next = node;
        } else {
            b.head = node;
            liveBits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
        }
        b.tail = node;
        return;
    }
    far_.push_back(FarEntry{when, nextSeq_++, node});
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
        fire(popFar());
        ++executed;
    }
    // Callbacks may append same-tick events to this very bucket (a
    // zero-delay reschedule); each is unlinked in turn, so they run
    // within this call, behind everything scheduled before them.
    std::size_t idx = bucketIndex(when);
    while (strong_ > 0 && buckets_[idx].head) {
        fire(popBucket(idx));
        ++executed;
    }
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
    if (!far_.empty() && far_.front().when == when)
        fire(popFar());
    else
        fire(popBucket(bucketIndex(when)));
}

EventQueue::Node *
EventQueue::popBucket(std::size_t idx)
{
    Bucket &b = buckets_[idx];
    Node *node = b.head;
    b.head = node->next;
    if (!b.head) {
        b.tail = nullptr;
        liveBits_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    }
    return node;
}

EventQueue::Node *
EventQueue::popFar()
{
    std::pop_heap(far_.begin(), far_.end(), FarLater{});
    Node *node = far_.back().node;
    far_.pop_back();
    return node;
}

void
EventQueue::fire(Node *node)
{
    // Counters drop before the callback runs so pending()/strongPending()
    // observed from inside an event exclude the event itself.
    if (!node->weak)
        --strong_;
    --size_;
    if (hook_) {
        hook_->beginDispatch();
        node->cb();
        hook_->endDispatch();
    } else {
        node->cb();
    }
    pool_.release(node);
}

void
EventQueue::discardAll()
{
    if (size_ == 0)
        return;
    for (std::size_t w = 0; w < liveBits_.size(); ++w) {
        for (std::uint64_t bits = liveBits_[w]; bits; bits &= bits - 1) {
            Bucket &b = buckets_[w * 64 + static_cast<std::size_t>(
                                              __builtin_ctzll(bits))];
            for (Node *node = b.head; node;) {
                Node *next = node->next;
                pool_.release(node);
                node = next;
            }
            b = Bucket{};
        }
        liveBits_[w] = 0;
    }
    for (const FarEntry &e : far_)
        pool_.release(e.node);
    far_.clear();
    size_ = 0;
}

} // namespace transfw::sim

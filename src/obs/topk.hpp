#ifndef TRANSFW_OBS_TOPK_HPP
#define TRANSFW_OBS_TOPK_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/flat_map.hpp"

namespace transfw::obs {

/**
 * Space-saving top-K frequency sketch (Metwally, Agrawal & El Abbadi,
 * "Efficient Computation of Frequent and Top-k Elements in Data
 * Streams"). Tracks at most `capacity` keys in O(capacity) memory no
 * matter how many distinct keys the stream contains: a hit increments
 * the key's counter; an unseen key with the table full evicts the
 * current minimum-count entry and inherits its count (+1), keeping the
 * inherited amount as the entry's error bound.
 *
 * Guarantees of the algorithm: a key's true count never exceeds its
 * estimate, and estimate - error never exceeds the true count — so any
 * key whose true frequency beats the minimum counter is guaranteed to
 * be in the table. That makes it the right tool for "which VPN groups
 * keep the hot shard hot": heavy hitters can't be missed, and the
 * error field says how trustworthy each reported count is.
 *
 * Purely observational and deterministic (no hashing, no randomness):
 * fed from the simulated event stream, it produces identical tables on
 * every run.
 */
class TopK
{
  public:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t count = 0; ///< over-estimate of the true count
        std::uint64_t error = 0; ///< count inherited at eviction time
    };

    explicit TopK(std::size_t capacity = 64) : capacity_(capacity) {}

    /** Observe one occurrence of @p key. */
    void
    note(std::uint64_t key)
    {
        ++total_;
        auto it = index_.find(key);
        if (it != index_.end()) {
            ++entries_[it->second].count;
            return;
        }
        if (entries_.size() < capacity_) {
            index_.insert_or_assign(key, entries_.size());
            entries_.push_back(Entry{key, 1, 0});
            return;
        }
        // Table full and the key is unseen: replace the current
        // minimum (linear scan — capacity is small by design) and
        // inherit its count as the new entry's error bound.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < entries_.size(); ++i)
            if (entries_[i].count < entries_[victim].count)
                victim = i;
        index_.erase(entries_[victim].key);
        std::uint64_t inherited = entries_[victim].count;
        entries_[victim] = Entry{key, inherited + 1, inherited};
        index_.insert_or_assign(key, victim);
    }

    /** Total keys noted (exact, not an estimate). */
    std::uint64_t total() const { return total_; }
    /** Distinct keys currently tracked (<= capacity). */
    std::size_t tracked() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    /**
     * The top @p k entries by estimated count, descending (ties broken
     * by key for a deterministic order). k = 0 returns all tracked.
     */
    std::vector<Entry>
    top(std::size_t k = 0) const
    {
        std::vector<Entry> out = entries_;
        std::sort(out.begin(), out.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.count != b.count ? a.count > b.count
                                                : a.key < b.key;
                  });
        if (k && out.size() > k)
            out.resize(k);
        return out;
    }

    /** Estimated share of the stream held by the top @p k keys. */
    double
    topShare(std::size_t k) const
    {
        if (!total_)
            return 0.0;
        std::uint64_t sum = 0;
        for (const Entry &e : top(k))
            sum += e.count;
        double share =
            static_cast<double>(sum) / static_cast<double>(total_);
        return share > 1.0 ? 1.0 : share;
    }

    void
    clear()
    {
        entries_.clear();
        index_.clear();
        total_ = 0;
    }

  private:
    std::size_t capacity_;
    std::vector<Entry> entries_;
    sim::FlatMap<std::uint64_t, std::size_t> index_;
    std::uint64_t total_ = 0;
};

} // namespace transfw::obs

#endif // TRANSFW_OBS_TOPK_HPP

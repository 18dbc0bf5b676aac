#ifndef TRANSFW_STATS_STATS_HPP
#define TRANSFW_STATS_STATS_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace transfw::stats {

/** Monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Scalar sample distribution: tracks count / sum / min / max and a
 * running second central moment (Welford's algorithm), enough to report
 * mean and variance without storing samples. The naive sum-of-squares
 * form cancels catastrophically when the mean dwarfs the spread (e.g.
 * tick timestamps near 1e9 with unit variance); Welford's update keeps
 * full precision regardless of the samples' magnitude.
 */
class Distribution
{
  public:
    void record(double x);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double minimum() const { return count_ ? min_ : 0.0; }
    double maximum() const { return count_ ? max_ : 0.0; }
    double variance() const;
    void reset() { *this = Distribution(); }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0; ///< sum of squared deviations from the mean
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-bucket histogram over small integer categories (e.g., "PW-cache
 * hit level" or "number of GPUs sharing a page").
 */
class BucketHistogram
{
  public:
    explicit BucketHistogram(std::size_t buckets = 0) : counts_(buckets, 0) {}

    void resize(std::size_t buckets) { counts_.assign(buckets, 0); }

    void
    record(std::size_t bucket, std::uint64_t n = 1)
    {
        if (bucket >= counts_.size())
            counts_.resize(bucket + 1, 0);
        counts_[bucket] += n;
    }

    std::uint64_t bucket(std::size_t i) const
    {
        return i < counts_.size() ? counts_[i] : 0;
    }
    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t total() const;

    /** Fraction of all samples that fell in bucket @p i. */
    double fraction(std::size_t i) const;

    void reset() { std::fill(counts_.begin(), counts_.end(), 0); }

  private:
    std::vector<std::uint64_t> counts_;
};

/**
 * Named scalar export table. Components register their headline numbers
 * here so examples can dump a full stats report; benches read typed
 * fields from SimResults directly instead.
 */
class Registry
{
  public:
    void set(const std::string &name, double value) { values_[name] = value; }
    double get(const std::string &name) const;
    bool has(const std::string &name) const { return values_.count(name) > 0; }

    /** All named scalars, sorted by name (ledger/diff iteration). */
    const std::map<std::string, double> &values() const { return values_; }

    /** Render "name = value" lines sorted by name. */
    std::string format() const;

  private:
    std::map<std::string, double> values_;
};

} // namespace transfw::stats

#endif // TRANSFW_STATS_STATS_HPP

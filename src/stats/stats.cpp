#include "stats/stats.hpp"

#include <cmath>
#include <sstream>

#include "sim/logging.hpp"

namespace transfw::stats {

void
Distribution::record(double x)
{
    ++count_;
    sum_ += x;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
Distribution::variance() const
{
    if (count_ < 2)
        return 0.0;
    return std::max(0.0, m2_ / static_cast<double>(count_));
}

std::uint64_t
BucketHistogram::total() const
{
    std::uint64_t t = 0;
    for (auto c : counts_)
        t += c;
    return t;
}

double
BucketHistogram::fraction(std::size_t i) const
{
    std::uint64_t t = total();
    return t ? static_cast<double>(bucket(i)) / static_cast<double>(t) : 0.0;
}

double
Registry::get(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        sim::fatal("unknown stat: " + name);
    return it->second;
}

std::string
Registry::format() const
{
    std::ostringstream os;
    for (const auto &[name, value] : values_)
        os << name << " = " << value << "\n";
    return os.str();
}

} // namespace transfw::stats

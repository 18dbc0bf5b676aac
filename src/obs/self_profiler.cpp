#include "obs/self_profiler.hpp"

namespace transfw::obs {

const char *
profBucketName(ProfBucket bucket)
{
    switch (bucket) {
      case ProfBucket::Kernel: return "kernel";
      case ProfBucket::ComputeUnit: return "computeUnit";
      case ProfBucket::Gmmu: return "gmmu";
      case ProfBucket::HostMmu: return "hostMmu";
      case ProfBucket::TlbPwc: return "tlbPwc";
      case ProfBucket::PageWalk: return "pageWalk";
      case ProfBucket::Forwarding: return "forwarding";
      case ProfBucket::Interconnect: return "interconnect";
      case ProfBucket::Migration: return "migration";
      case ProfBucket::Stats: return "stats";
    }
    return "?";
}

void
SelfProfiler::configure(bool enabled, std::uint32_t stride)
{
    enabled_ = enabled;
    stride_ = stride ? stride : 1;
    countdown_ = stride_;
    probeTime_ = Clock::now();
    probeDispatches_ = dispatches_;
    probed_ = true;
}

void
SelfProfiler::beginDispatch()
{
    ++dispatches_;
    // Countdown rather than modulo: the unsampled path is two
    // increments and a branch, no 64-bit division.
    if (--countdown_ != 0)
        return;
    countdown_ = stride_;
    ++sampledDispatches_;
    depth_ = 1;
    stack_[0] = ProfBucket::Kernel;
    dispatch0_ = Clock::now();
    mark_ = dispatch0_;
}

void
SelfProfiler::endDispatch()
{
    if (depth_ == 0)
        return;
    Clock::time_point t = Clock::now();
    // Unwind any frames an early-returning scope left open (none in
    // practice, but the accounting must never wedge).
    while (depth_ > 1)
        charge(stack_[--depth_], t);
    charge(stack_[0], t);
    depth_ = 0;
    totalNs_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                             dispatch0_)
            .count());
}

void
SelfProfiler::enter(ProfBucket bucket)
{
    if (depth_ == 0 || depth_ >= kMaxDepth)
        return;
    Clock::time_point t = Clock::now();
    charge(stack_[depth_ - 1], t);
    stack_[depth_++] = bucket;
}

void
SelfProfiler::exit()
{
    if (depth_ <= 1)
        return;
    charge(stack_[--depth_], Clock::now());
}

HostProfile
SelfProfiler::snapshot() const
{
    HostProfile profile;
    if (!enabled_)
        return profile;
    double scale = static_cast<double>(stride_) * 1e-9;
    for (std::size_t b = 0; b < kNumProfBuckets; ++b)
        profile.seconds[b] = static_cast<double>(ns_[b]) * scale;
    profile.totalSeconds = static_cast<double>(totalNs_) * scale;
    profile.dispatches = dispatches_;
    profile.sampledDispatches = sampledDispatches_;
    profile.stride = stride_;
    return profile;
}

double
SelfProfiler::recentEventsPerSec()
{
    Clock::time_point t = Clock::now();
    if (!probed_) {
        probeTime_ = t;
        probeDispatches_ = dispatches_;
        probed_ = true;
        return 0.0;
    }
    double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            t - probeTime_)
            .count();
    double rate = secs > 0.0
                      ? static_cast<double>(dispatches_ -
                                            probeDispatches_) /
                            secs
                      : 0.0;
    probeTime_ = t;
    probeDispatches_ = dispatches_;
    return rate;
}

void
SelfProfiler::reset()
{
    dispatches_ = 0;
    sampledDispatches_ = 0;
    countdown_ = stride_;
    for (std::uint64_t &v : ns_)
        v = 0;
    totalNs_ = 0;
    depth_ = 0;
    probed_ = false;
}

} // namespace transfw::obs

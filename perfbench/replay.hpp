#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "config/config.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Spans the benchmark records around its own calls into the simulator's
 * layers: name, start, end, parent span and point id. Kept in memory and
 * written out once, when the benchmark ends. A disabled log records
 * nothing, so untraced passes pay one branch per call site.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Open a span; @return its id, or -1 when the log is disabled. */
    int begin(const std::string &name, int parent, int point);
    void end(int id);
    /** Duration of a closed span in seconds (0 for id -1). */
    double seconds(int id) const;
    void write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        int point = -1;
    };

    std::int64_t nowNs() const;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** One app of a workload, replayed through the layers in isolation. */
struct ReplayInput
{
    std::string app;
    double scale = 1.0;
    transfw::cfg::SystemConfig config; ///< geometry, sizing, fabric, seed
};

/**
 * Host cost of each layer's public operations, measured by replaying the
 * workload's own generated access stream through that layer alone.
 * Each figure is the median of several repetitions on fresh structures.
 */
struct LayerTimes
{
    double nsPerOp = 0;        ///< wl::CtaStream::next
    double nsPerEvent = 0;     ///< sim::EventQueue::scheduleAt + run
    double tlbNsPerLookup = 0; ///< tlb::Tlb::lookup (+ fill on miss)
    double pwcNsPerLookup = 0; ///< pwc lookup (+ fills of the walk)
    double memNsPerWalk = 0;   ///< mem::PageTable::walk
    double prtNsPerLookup = 0; ///< core::PendingRequestTable::mayBeLocal
    double ftNsPerLookup = 0;  ///< core::ForwardingTable::findOwner
    double icNsPerSend = 0;    ///< ic::Network::sendPeer, drained
    double icNsPerHop = 0;     ///< the same cost per traversed link
};

/** Replay every input's stream through each layer, under @p parent. */
LayerTimes replayLayers(const std::vector<ReplayInput> &inputs,
                        SpanLog &spans, int parent);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP

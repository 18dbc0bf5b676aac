#ifndef TRANSFW_OBS_SPAN_HPP
#define TRANSFW_OBS_SPAN_HPP

#include <cstdint>
#include <ostream>
#include <vector>

#include "sim/ticks.hpp"

// Compile-time master switch for request-span recording. Building with
// -DTRANSFW_OBS=0 (CMake option TRANSFW_OBS=OFF) compiles every
// record() call site down to nothing, proving the instrumentation adds
// zero cost to the translation hot path.
#ifndef TRANSFW_OBS
#define TRANSFW_OBS 1
#endif

namespace transfw::obs {

class IntervalSampler;

/**
 * One closed, timed span of a translation request's lifecycle. POD:
 * @p name must be a string literal (every call site passes one), so
 * recording never allocates per span beyond vector growth — and when
 * the recorder is disabled, recording does nothing at all.
 */
struct Span
{
    const char *name;    ///< phase name, e.g. "gmmu.queue"
    sim::Tick start = 0;
    sim::Tick end = 0;
    std::uint32_t pid = 0;  ///< process track: requesting GPU / kHostPid
    std::uint64_t tid = 0;  ///< thread track: request id within the GPU
    std::uint64_t vpn = 0;  ///< faulting page (0 when not applicable)
    /** Optional numeric arg (< 0 = absent). The "xlat" root span
     *  carries the request's charged total (RequestLatency::total())
     *  here so traces are self-checking: dur must equal this within
     *  one tick. */
    double arg = -1.0;
};

/**
 * Span recorder: components append closed spans as request phases
 * finish; the whole buffer exports as Chrome trace-event JSON that
 * ui.perfetto.dev (or chrome://tracing) loads directly. One Perfetto
 * "process" per GPU, one "thread" per request id, so the nested phase
 * spans of each translation stack on their own lane.
 *
 * Disabled (the default) it is a single branch per call site and never
 * allocates; enable via cfg::SystemConfig::obs.spans or setEnabled().
 */
class SpanRecorder
{
  public:
    /** pid for host-side tracks with no requesting GPU (driver batches). */
    static constexpr std::uint32_t kHostPid = 1000;
    /** pid for the recorder's own bookkeeping track (obs.dropped). */
    static constexpr std::uint32_t kObsPid = 1001;
    /** pid for IntervalSampler counter tracks (queue depths, rates). */
    static constexpr std::uint32_t kMetricsPid = 1002;

    bool enabled() const { return enabled_; }
    void setEnabled(bool on);

    /** Cap the buffer; spans beyond it are counted, not stored. */
    void setCapacity(std::size_t max_spans) { maxSpans_ = max_spans; }

    void
    record(const char *name, std::uint32_t pid, std::uint64_t tid,
           sim::Tick start, sim::Tick end, std::uint64_t vpn = 0,
           double arg = -1.0)
    {
#if TRANSFW_OBS
        if (!enabled_)
            return;
        if (spans_.size() >= maxSpans_ || droppedIdx_ != kNoDropped) {
            noteDropped(start, end);
            return;
        }
        spans_.push_back(Span{name, start, end, pid, tid, vpn, arg});
#else
        (void)name; (void)pid; (void)tid; (void)start; (void)end;
        (void)vpn; (void)arg;
#endif
    }

    const std::vector<Span> &spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }
    void clear();

    /**
     * Export as Chrome trace-event JSON ("X" complete events plus
     * process-name metadata), loadable in ui.perfetto.dev. Ticks map
     * 1:1 onto trace microseconds. When @p sampler is non-null, its
     * time series also export as Perfetto counter tracks ("C" events
     * on the kMetricsPid process, one track per column) so queue
     * depths and rates plot directly under the request spans.
     */
    void writeChromeTrace(std::ostream &os,
                          const IntervalSampler *sampler = nullptr) const;

  private:
    static constexpr std::size_t kNoDropped = static_cast<std::size_t>(-1);

    /**
     * Capacity overflow: instead of silently truncating the Perfetto
     * export, record one synthetic "obs.dropped" span on the kObsPid
     * track covering the whole dropped window, its arg carrying the
     * running drop count. One extra slot past the cap; later drops
     * extend it in place.
     */
    void noteDropped(sim::Tick start, sim::Tick end);

    bool enabled_ = false;
    std::size_t maxSpans_ = std::size_t{1} << 22; ///< ~4M span cap
    std::uint64_t dropped_ = 0;
    std::size_t droppedIdx_ = kNoDropped;
    std::vector<Span> spans_;
};

} // namespace transfw::obs

#endif // TRANSFW_OBS_SPAN_HPP

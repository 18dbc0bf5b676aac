#ifndef TRANSFW_INTERCONNECT_LINK_HPP
#define TRANSFW_INTERCONNECT_LINK_HPP

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "sim/sim_object.hpp"

namespace transfw::ic {

/** Latency/bandwidth parameters of one unidirectional link. */
struct LinkConfig
{
    sim::Tick latency = 150;     ///< propagation latency (Table II: PCIe 150)
    double bytesPerCycle = 32.0; ///< bulk serialization bandwidth
};

/**
 * Send-side decomposition of one link traversal. Every message spends
 * its time in exactly three places: waiting behind earlier traffic for
 * the wire (queue wait), occupying the wire (serialization), and in
 * flight (propagation). The split is what per-hop attribution and the
 * fabric heatmaps consume; wait + ser + prop always equals
 * arrive - send tick by construction.
 */
struct HopTiming
{
    sim::Tick wait = 0; ///< cycles queued behind earlier traffic
    sim::Tick ser = 0;  ///< cycles serializing onto the wire
    sim::Tick prop = 0; ///< propagation latency
    sim::Tick arrive = 0;

    sim::Tick total() const { return wait + ser + prop; }
};

/**
 * A unidirectional point-to-point link with two virtual channels, as in
 * PCIe/NVLink: small control messages (fault alerts, translation
 * replies, forwards) ride a priority channel that only pays propagation
 * latency plus a token of serialization, while bulk page-migration
 * payloads serialize against each other on the data channel. Without
 * the split, every translation reply would queue behind 4 KB page
 * bodies and the interconnect — not the translation machinery — would
 * dominate, which matches neither real hardware nor the paper.
 */
class Link : public sim::SimObject
{
  public:
    Link(sim::EventQueue &eq, std::string name, const LinkConfig &config)
        : SimObject(eq, std::move(name)), config_(config)
    {}

    /**
     * Deliver control messages on @p target instead of the link's own
     * queue: each link runs on its sender's clock, and a control
     * message is delivered on the receiver's queue (host -> GPU on
     * the GPU's, GPU -> host on the host's). Pass nullptr to clear.
     */
    void setCtrlTarget(sim::EventQueue *target) { ctrlTarget_ = target; }

    /**
     * Send @p bytes on the bulk data channel; @p deliver fires at the
     * receiver when the whole payload has arrived. @return that tick.
     * When @p timing is non-null it receives the queue-wait /
     * serialization / propagation split of this traversal.
     */
    sim::Tick
    send(std::uint64_t bytes, sim::EventQueue::Callback deliver,
         HopTiming *timing = nullptr)
    {
        sim::Tick now = curTick();
        sim::Tick depart = std::max(now, busyUntil_);
        sim::Tick ser = static_cast<sim::Tick>(
            static_cast<double>(bytes) / config_.bytesPerCycle);
        ser = std::max<sim::Tick>(ser, 1);
        busyUntil_ = depart + ser;
        sim::Tick arrive = busyUntil_ + config_.latency;
        eventq().scheduleAt(arrive, std::move(deliver));
        bytesSent_ += bytes;
        ++messages_;
        noteData(now, depart - now, ser);
        if (timing)
            *timing = HopTiming{depart - now, ser, config_.latency, arrive};
        return arrive;
    }

    /**
     * Send a control message on the priority channel: propagation
     * latency plus a fixed 2-cycle serialization token, independent of
     * in-flight bulk transfers. The priority channel never queues, so
     * a control traversal's timing split is always {0, 2, latency}.
     */
    sim::Tick
    sendCtrl(std::uint64_t bytes, sim::EventQueue::Callback deliver,
             HopTiming *timing = nullptr)
    {
        sim::Tick arrive = curTick() + 2 + config_.latency;
        (ctrlTarget_ ? *ctrlTarget_ : eventq())
            .scheduleAt(arrive, std::move(deliver));
        bytesSent_ += bytes;
        ++messages_;
        ++ctrlMessages_;
        if (timing)
            *timing = HopTiming{0, 2, config_.latency, arrive};
        return arrive;
    }

    sim::Tick latency() const { return config_.latency; }
    std::uint64_t bytesSent() const { return bytesSent_; }
    std::uint64_t messages() const { return messages_; }

    /** Control-channel share of messages() (never queues). */
    std::uint64_t ctrlMessages() const { return ctrlMessages_; }
    /** Cumulative data-channel serialization cycles (wire occupancy). */
    std::uint64_t busyCycles() const { return busyCycles_; }
    /** High-water mark of the data-channel send queue. */
    std::uint64_t peakQueueDepth() const { return peakQueueDepth_; }

    /** Data-channel messages queued or serializing right now. */
    std::size_t
    queueDepth() const
    {
        // Departure ticks are monotonic, so one binary search finds
        // the still-pending suffix without mutating any state (the
        // gauge may be probed by the sampler between events).
        sim::Tick now = curTick();
        auto it =
            std::upper_bound(inflight_.begin(), inflight_.end(), now);
        return static_cast<std::size_t>(inflight_.end() - it);
    }

    /** Fraction of elapsed cycles the data wire was occupied. */
    double
    utilization() const
    {
        sim::Tick now = curTick();
        return now ? std::min(1.0, static_cast<double>(busyCycles_) /
                                       static_cast<double>(now))
                   : 0.0;
    }

    double
    queueWaitMean() const
    {
        return waitHist_ ? waitHist_->mean() : 0.0;
    }

    /**
     * Queue-wait histogram of the data channel. Zero-traffic links
     * never allocate one (the full grid at 64 GPUs all-to-all is 4k+
     * links × ~16 KB); they share a static empty instance so callers
     * always get a valid, zero-count histogram.
     */
    const obs::LogHistogram &
    queueWaitHistogram() const
    {
        static const obs::LogHistogram kEmpty;
        return waitHist_ ? *waitHist_ : kEmpty;
    }

    /**
     * Register "<link name>.bytes", ".messages", ".queueWaitMean",
     * ".peakQueueDepth", ".queueDepth" and ".utilization" gauges.
     */
    void
    registerMetrics(obs::MetricRegistry &reg) const
    {
        reg.registerGauge(name() + ".bytes", [this] {
            return static_cast<double>(bytesSent_);
        });
        reg.registerGauge(name() + ".messages", [this] {
            return static_cast<double>(messages_);
        });
        reg.registerGauge(name() + ".queueWaitMean",
                          [this] { return queueWaitMean(); });
        reg.registerGauge(name() + ".peakQueueDepth", [this] {
            return static_cast<double>(peakQueueDepth_);
        });
        reg.registerGauge(name() + ".queueDepth", [this] {
            return static_cast<double>(queueDepth());
        });
        reg.registerGauge(name() + ".utilization",
                          [this] { return utilization(); });
    }

  private:
    void
    noteData(sim::Tick now, sim::Tick wait, sim::Tick ser)
    {
        busyCycles_ += ser;
        if (!waitHist_)
            waitHist_ = std::make_unique<obs::LogHistogram>();
        waitHist_->record(static_cast<double>(wait));
        while (!inflight_.empty() && inflight_.front() <= now)
            inflight_.pop_front();
        inflight_.push_back(busyUntil_);
        peakQueueDepth_ =
            std::max<std::uint64_t>(peakQueueDepth_, inflight_.size());
    }

    LinkConfig config_;
    sim::Tick busyUntil_ = 0;
    std::uint64_t bytesSent_ = 0;
    std::uint64_t messages_ = 0;
    std::uint64_t ctrlMessages_ = 0;
    std::uint64_t busyCycles_ = 0;
    std::uint64_t peakQueueDepth_ = 0;
    std::deque<sim::Tick> inflight_; ///< departure ticks of queued sends
    std::unique_ptr<obs::LogHistogram> waitHist_; ///< lazy, data channel
    sim::EventQueue *ctrlTarget_ = nullptr;
};

} // namespace transfw::ic

#endif // TRANSFW_INTERCONNECT_LINK_HPP

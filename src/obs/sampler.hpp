#ifndef TRANSFW_OBS_SAMPLER_HPP
#define TRANSFW_OBS_SAMPLER_HPP

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/self_profiler.hpp"
#include "sim/event_queue.hpp"
#include "sim/ticks.hpp"

namespace transfw::obs {

class MetricRegistry;

/**
 * Interval time-series sampler: rides the simulation event queue and
 * snapshots a set of probes every @p interval ticks — PW-queue depths,
 * forwarding-threshold crossings, Cuckoo-filter load factors, TLB/PWC
 * hit rates — into an in-memory table exported as CSV or JSON.
 *
 * The sampler rides weak events (EventQueue::scheduleWeak), so it
 * never keeps EventQueue::run() from draining and never advances the
 * clock past the last real simulation event: when only the sampler
 * remains, the series simply ends and execTime is unperturbed.
 */
class IntervalSampler
{
  public:
    using Probe = std::function<double()>;

    /** Add a column with an explicit probe. */
    void addColumn(std::string name, Probe probe);

    /** Add a column that reads metric @p name from @p registry. */
    void addRegistryColumn(const MetricRegistry &registry,
                           const std::string &name);

    /** Charge probe time to the profiler's Stats bucket (may be null). */
    void attachProfiler(SelfProfiler *profiler) { profiler_ = profiler; }

    /**
     * Begin sampling @p eq every @p interval ticks, starting with one
     * immediate row at the current tick. No-op when interval == 0 or
     * there are no columns.
     */
    void start(sim::EventQueue &eq, sim::Tick interval);

    /**
     * Append one row stamped @p tick by probing every column now. The
     * multi-queue system drives sampling this way instead of riding
     * weak events on one queue (start()): its event loop records the
     * row for tick S after every event at or before S has run, on any
     * queue, and before any later event, so each row shows the machine
     * exactly at its tick.
     */
    void recordRow(sim::Tick tick);

    std::size_t columns() const { return columns_.size(); }
    std::size_t rows() const { return ticks_.size(); }
    sim::Tick rowTick(std::size_t row) const { return ticks_[row]; }
    double cell(std::size_t row, std::size_t col) const
    {
        return values_[row * columns_.size() + col];
    }
    const std::string &columnName(std::size_t col) const
    {
        return columns_[col].name;
    }

    /** "tick,<col>,<col>,..." header plus one line per sample row. */
    void writeCsv(std::ostream &os) const;
    /** {"columns":[...],"rows":[[tick,v,...],...]} */
    void writeJson(std::ostream &os) const;

    void clear();

  private:
    struct Column
    {
        std::string name;
        Probe probe;
    };

    void sample(sim::EventQueue &eq, sim::Tick interval);

    std::vector<Column> columns_;
    std::vector<sim::Tick> ticks_;
    std::vector<double> values_; ///< rows * columns, row-major
    SelfProfiler *profiler_ = nullptr;
};

} // namespace transfw::obs

#endif // TRANSFW_OBS_SAMPLER_HPP

#ifndef TRANSFW_OBS_OBS_HPP
#define TRANSFW_OBS_OBS_HPP

#include "obs/attrib.hpp"
#include "obs/checks.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/self_profiler.hpp"

namespace transfw::obs {

/**
 * The per-system observability bundle: unified metrics registry,
 * interval sampler, latency-attribution engine (whose kept timelines
 * are the per-request trace) and its invariant watchdog. Owned by
 * sys::MultiGpuSystem (declared after every observed component so it
 * is destroyed first — registry gauges hold raw component pointers)
 * and handed to components as a raw pointer they may ignore.
 */
struct Observability
{
    MetricRegistry metrics;
    IntervalSampler sampler;
    AttributionEngine attribution;
    Checks checks;
    SelfProfiler profiler;
};

} // namespace transfw::obs

#endif // TRANSFW_OBS_OBS_HPP

#ifndef TRANSFW_SYSTEM_EXPERIMENT_HPP
#define TRANSFW_SYSTEM_EXPERIMENT_HPP

#include <string>

#include "config/config.hpp"
#include "system/results.hpp"
#include "system/system.hpp"
#include "workload/workload.hpp"

namespace transfw::sys {

/** The paper's Table II baseline configuration (host-MMU far faults). */
cfg::SystemConfig baselineConfig();

/** Baseline plus Trans-FW with the paper's default PRT/FT/threshold. */
cfg::SystemConfig transFwConfig();

/**
 * Run one application (Table III abbreviation) under @p config.
 * @p scale multiplies per-CTA work; scale <= 0 reads the
 * TRANSFW_SCALE environment variable (default 1.0), letting slow
 * machines shrink every experiment uniformly.
 */
SimResults runApp(const std::string &abbr, const cfg::SystemConfig &config,
                  double scale = 0.0);

/** Run an arbitrary workload under @p config. */
SimResults runWorkload(const wl::Workload &workload,
                       const cfg::SystemConfig &config);

/** Relative speedup of @p candidate over @p baseline (1.0 = equal). */
inline double
speedup(const SimResults &baseline, const SimResults &candidate)
{
    return candidate.execTime
               ? static_cast<double>(baseline.execTime) /
                     static_cast<double>(candidate.execTime)
               : 0.0;
}

/**
 * Effective work scale: @p requested when positive, else the
 * TRANSFW_SCALE environment variable, else 1.0. A negative scale or a
 * TRANSFW_SCALE that is not a positive number is fatal.
 */
double effectiveScale(double requested);

} // namespace transfw::sys

#endif // TRANSFW_SYSTEM_EXPERIMENT_HPP

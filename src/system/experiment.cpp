#include "system/experiment.hpp"

#include <cmath>
#include <cstdlib>

#include "sim/logging.hpp"
#include "sim/parse.hpp"
#include "workload/apps.hpp"

namespace transfw::sys {

cfg::SystemConfig
baselineConfig()
{
    // Every default in cfg::SystemConfig already matches Table II.
    return cfg::SystemConfig{};
}

cfg::SystemConfig
transFwConfig()
{
    cfg::SystemConfig config = baselineConfig();
    config.transFw.enabled = true;
    return config;
}

double
effectiveScale(double requested)
{
    if (requested > 0.0)
        return requested;
    if (requested < 0.0 || std::isnan(requested))
        sim::fatal(sim::strfmt("scale must be positive, not %g", requested));
    const char *env = std::getenv("TRANSFW_SCALE");
    if (!env)
        return 1.0;
    std::optional<double> v = sim::parseToken<double>(env);
    if (!v || *v <= 0.0)
        sim::fatal(sim::strfmt("TRANSFW_SCALE must be a positive number, "
                               "not '%s'", env));
    return *v;
}

SimResults
runApp(const std::string &abbr, const cfg::SystemConfig &config,
       double scale)
{
    auto workload = wl::makeApp(abbr, effectiveScale(scale));
    return runWorkload(*workload, config);
}

SimResults
runWorkload(const wl::Workload &workload, const cfg::SystemConfig &config)
{
    MultiGpuSystem system(config, workload);
    return system.run();
}

} // namespace transfw::sys

#include "system/experiment.hpp"

#include <cstdlib>

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
    if (const char *env = std::getenv("TRANSFW_SCALE")) {
        double v = std::atof(env);
        if (v > 0.0)
            return v;
    }
    return 1.0;
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

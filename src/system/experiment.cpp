#include "system/experiment.hpp"

#include <cstdlib>

#include "sim/logging.hpp"
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

cfg::SystemConfig
modeConfig(const std::string &mode)
{
    if (mode != "baseline" && mode != "transfw" && mode != "sw" &&
        mode != "sw-transfw")
        sim::fatal("unknown mode '" + mode +
                   "' (want baseline, transfw, sw or sw-transfw)");
    cfg::SystemConfig config =
        mode.ends_with("transfw") ? transFwConfig() : baselineConfig();
    if (mode.starts_with("sw"))
        config.faultMode = cfg::FaultMode::UvmDriver;
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

/**
 * trace_viewer_export: run one application with every request's
 * attribution timeline kept and export everything the obs subsystem
 * produces:
 *
 *   <out>/trace.json       Chrome trace-event JSON — open directly in
 *                          ui.perfetto.dev (or chrome://tracing). One
 *                          Perfetto "process" per GPU, one "thread"
 *                          lane per translation request: an "xlat"
 *                          root slice, one slice per latency charge
 *                          (gmmuQueue, gmmuWalkMem, hostQueue, ...),
 *                          one per network hop and one per forward;
 *                          plus a "metrics" process whose counter
 *                          tracks plot the interval-sampler series
 *                          (queue depths, event backlog, hit rates,
 *                          driver batches) under the requests.
 *   <out>/metrics.json     The unified metrics registry: every
 *                          component's gauges under hierarchical keys
 *                          ("gpu0.gmmu.pwc.hitRate", "host.mmu.queueDepth")
 *                          plus latency percentiles.
 *   <out>/timeseries.csv   Interval samples of queue depths, filter
 *   <out>/timeseries.json  load factors and TLB/PWC hit rates.
 *
 * Usage: trace_viewer_export [APP] [baseline|transfw|sw|sw-transfw]
 *                            [OUTDIR] [SAMPLE_INTERVAL]
 */
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

constexpr const char *kUsage =
    "usage: trace_viewer_export [APP] [baseline|transfw|sw|sw-transfw] "
    "[OUTDIR] [SAMPLE_INTERVAL]\n";

void
writeFile(const std::string &path, const std::function<void(std::ostream &)> &fn)
{
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open " + path + " for writing");
    fn(os);
    std::printf("wrote %s\n", path.c_str());
}

/** SAMPLE_INTERVAL in ticks; anything but a whole number is fatal. */
sim::Tick
parseInterval(const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno != 0)
        sim::fatal("SAMPLE_INTERVAL must be a whole number of ticks, not '" +
                   text + "'");
    return static_cast<sim::Tick>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h") {
            std::printf("%s", kUsage);
            return 0;
        }
    }
    std::string app = args.size() > 0 ? args[0] : "MT";
    std::string mode = args.size() > 1 ? args[1] : "baseline";
    std::string out = args.size() > 2 ? args[2] : ".";
    sim::Tick interval = args.size() > 3 ? parseInterval(args[3]) : 5000;

    cfg::SystemConfig config = sys::modeConfig(mode);
    config.obs.sampleInterval = interval;

    wl::SyntheticSpec spec = wl::appSpec(app, sys::effectiveScale(0.0));
    wl::SyntheticWorkload workload(spec);

    sys::MultiGpuSystem system(config, workload);
    // Kept from the start: only requests begun while timelines are
    // kept get one.
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();

    obs::Observability &obs = system.obs();
    // Requests past the timeline cap have no slices in trace.json.
    std::printf("== %s (%s): %llu cycles, %zu request timelines "
                "(%llu dropped at the cap), %zu samples ==\n",
                app.c_str(), mode.c_str(),
                static_cast<unsigned long long>(r.execTime),
                obs.attribution.timelines().size(),
                static_cast<unsigned long long>(
                    obs.attribution.droppedTimelines()),
                obs.sampler.rows());

    writeFile(out + "/trace.json", [&](std::ostream &os) {
        obs::writeChromeTrace(os, obs.attribution, &obs.sampler);
    });
    writeFile(out + "/metrics.json",
              [&](std::ostream &os) { obs.metrics.writeJson(os); });
    writeFile(out + "/timeseries.csv",
              [&](std::ostream &os) { obs.sampler.writeCsv(os); });
    writeFile(out + "/timeseries.json",
              [&](std::ostream &os) { obs.sampler.writeJson(os); });

    std::printf("open trace.json at https://ui.perfetto.dev\n");
    return 0;
}

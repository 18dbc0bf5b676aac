/**
 * Fig. 27: Trans-FW with 2 MB pages, normalized to the 2 MB baseline.
 * Large pages raise TLB reach (helping the baseline) but migrate at
 * 2 MB granularity with false sharing, so Trans-FW still helps.
 *
 * Layout note: the default VA spread (512) would place exactly one
 * application page in each 2 MB frame, which nullifies the large-page
 * experiment. Here regions use a spread of 16 with 8x the pages, so a
 * 2 MB frame holds 32 application pages — restoring both the TLB-reach
 * benefit and the false sharing the paper discusses. The PRT/FT
 * fingerprint mask drops to 0 bits because the translation unit is
 * already a 2 MB page.
 */
#include "bench_util.hpp"

using namespace transfw;

namespace {

sys::SimResults
runLarge(const std::string &app, const cfg::SystemConfig &config)
{
    wl::SyntheticSpec spec = wl::appSpec(app, sys::effectiveScale(0.0));
    spec.vaSpread = 16;
    for (auto &region : spec.regions)
        region.pages *= 8;
    wl::SyntheticWorkload workload(spec);
    return sys::runWorkload(workload, config);
}

} // namespace

int
main()
{
    cfg::SystemConfig baseline = sys::baselineConfig();
    baseline.pageShift = mem::kLargePageShift;
    cfg::SystemConfig fw = sys::transFwConfig();
    fw.pageShift = mem::kLargePageShift;
    fw.transFw.vpnMaskBits = 0;
    bench::header("Fig. 27: Trans-FW speedup with 2MB pages", fw);

    bench::columns("app", {"speedup", "b.pfpki"});
    std::vector<double> speedups;
    for (const auto &app : bench::allApps()) {
        sys::SimResults base = runLarge(app, baseline);
        sys::SimResults trans = runLarge(app, fw);
        double s = sys::speedup(base, trans);
        speedups.push_back(s);
        bench::row(app, {s, base.pfpki()});
    }
    bench::row("geomean", {bench::geomean(speedups)});
    return 0;
}

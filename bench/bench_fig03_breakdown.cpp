/**
 * Fig. 3: breakdown of GPU L2 TLB miss latency on the baseline into
 * GMMU PW-queue wait, GMMU walk memory, host PW-queue wait, host walk
 * memory, page migration, interconnect+replay, and other (fixed
 * lookups, fault bookkeeping). Printed as percent of total.
 */
#include <cstdio>

#include "bench_util.hpp"

using namespace transfw;

int
main()
{
    cfg::SystemConfig baseline = sys::baselineConfig();
    bench::header("Fig. 3: L2 TLB miss latency breakdown (%)", baseline);

    bench::columns("app", {"gmmuQ", "gmmuMem", "hostQ", "hostMem", "migr",
                           "net", "other", "avgLat", "p50", "p99"});
    std::vector<sys::SimResults> runs;
    for (const auto &app : bench::allApps()) {
        sys::SimResults r = sys::runApp(app, baseline);
        const obs::AttributionTable &at = r.attribution;
        double total = at.bucketTotal();
        if (total <= 0)
            total = 1;
        auto pct = [&](obs::LatField f) {
            return 100.0 * at.fieldTotal(f) / total;
        };
        bench::row(app,
                   {pct(obs::LatField::GmmuQueue),
                    pct(obs::LatField::GmmuMem),
                    pct(obs::LatField::HostQueue),
                    pct(obs::LatField::HostMem),
                    pct(obs::LatField::Migration),
                    pct(obs::LatField::Network),
                    pct(obs::LatField::Other), r.avgXlatLatency,
                    r.xlatLatencyHist.quantile(0.50),
                    r.xlatLatencyHist.quantile(0.99)},
                   1);
        runs.push_back(std::move(r));
    }
    std::printf("\n");
    for (std::size_t i = 0; i < runs.size(); ++i)
        bench::latencyPercentiles(runs[i].app, runs[i]);
    return 0;
}

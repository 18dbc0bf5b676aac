/**
 * Fig. 12: percentage reduction of each L2-TLB-miss latency component
 * under Trans-FW (paper: GMMU PW-queue wait -95.8%, host PW-queue wait
 * -79.8%, fault translation parts -43.4% on average).
 */
#include "bench_util.hpp"

using namespace transfw;

namespace {

double
reduction(double before, double after)
{
    return before > 0 ? 100.0 * (before - after) / before : 0.0;
}

} // namespace

int
main()
{
    cfg::SystemConfig baseline = sys::baselineConfig();
    cfg::SystemConfig fw = sys::transFwConfig();
    bench::header("Fig. 12: latency component reduction (%)", fw);

    bench::columns("app", {"gmmuQ", "gmmuMem", "hostQ", "hostMem",
                           "xlatPart", "total"});
    std::vector<double> gq, gm, hq, hm, xp, tot;
    for (const auto &app : bench::allApps()) {
        sys::SimResults a = sys::runApp(app, baseline);
        sys::SimResults b = sys::runApp(app, fw);
        // Normalize sums per L2 miss so request-count changes between
        // the runs do not distort the comparison.
        double na = static_cast<double>(std::max<std::uint64_t>(
            1, a.l2TlbMisses));
        double nb = static_cast<double>(std::max<std::uint64_t>(
            1, b.l2TlbMisses));
        auto cmp = [&](obs::LatField f) {
            return reduction(a.attribution.fieldTotal(f) / na,
                             b.attribution.fieldTotal(f) / nb);
        };
        // The translation part: everything but page migration.
        auto xlat_part = [](const sys::SimResults &r) {
            return r.attribution.bucketTotal() -
                   r.attribution.fieldTotal(obs::LatField::Migration);
        };
        double r1 = cmp(obs::LatField::GmmuQueue);
        double r2 = cmp(obs::LatField::GmmuMem);
        double r3 = cmp(obs::LatField::HostQueue);
        double r4 = cmp(obs::LatField::HostMem);
        double r5 = reduction(xlat_part(a) / na, xlat_part(b) / nb);
        double r6 = reduction(a.avgXlatLatency, b.avgXlatLatency);
        gq.push_back(r1);
        gm.push_back(r2);
        hq.push_back(r3);
        hm.push_back(r4);
        xp.push_back(r5);
        tot.push_back(r6);
        bench::row(app, {r1, r2, r3, r4, r5, r6}, 1);
    }
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return s / static_cast<double>(v.size());
    };
    bench::row("mean", {mean(gq), mean(gm), mean(hq), mean(hm), mean(xp),
                        mean(tot)},
               1);
    return 0;
}

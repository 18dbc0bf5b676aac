#include "system/sweep.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "obs/ledger.hpp"
#include "sim/logging.hpp"
#include "sim/task_pool.hpp"
#include "system/experiment.hpp"
#include "system/report.hpp"

namespace transfw::sys {

std::string
runKey(const RunSpec &spec)
{
    // effectiveScale folds TRANSFW_SCALE in, so two specs that differ
    // only in how they spell the ambient scale share one key.
    return spec.app + ";" +
           sim::strfmt("%.17g;", effectiveScale(spec.scale)) +
           spec.config.key();
}

SweepRunner::SweepRunner(int jobs)
    : jobs_(jobs > 0 ? jobs
                     : static_cast<int>(sim::TaskPool::defaultThreads())),
      jobsDetected_(jobs <= 0 && sim::TaskPool::envThreads() == 0),
      ledgerPath_(obs::RunLedger::envPath())
{
    // Sweeps memoize every (config, app, scale) point; typical matrices
    // are tens of points, so one up-front reserve avoids all rehashing.
    memo_.reserve(64);
}

void
SweepRunner::setLedgerPath(std::string path)
{
    std::lock_guard<std::mutex> lock(mu_);
    ledgerPath_ = std::move(path);
}

SimResults
SweepRunner::runOne(const RunSpec &spec)
{
    return run({spec}).front();
}

std::vector<SimResults>
SweepRunner::run(const std::vector<RunSpec> &specs)
{
    // Partition into memo hits and unique pending keys first, so a
    // spec repeated within one batch also executes only once.
    struct Pending
    {
        std::string key;
        const RunSpec *spec;
        SimResults result;
    };
    std::vector<Pending> pending;
    std::vector<std::string> keys(specs.size());
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.requested += specs.size();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            keys[i] = runKey(specs[i]);
            if (memo_.count(keys[i]))
                continue;
            bool queued = false;
            for (const Pending &p : pending)
                if (p.key == keys[i]) {
                    queued = true;
                    break;
                }
            if (!queued)
                pending.push_back({keys[i], &specs[i], {}});
        }
        stats_.executed += pending.size();
        stats_.memoHits += specs.size() - pending.size();
    }

    auto execute = [](Pending &p) {
        p.result = runApp(p.spec->app, p.spec->config, p.spec->scale);
    };

    // Effective parallelism for this batch — what actually happened,
    // as opposed to what was requested. Recorded in stats() and the
    // ledger so a sweep that silently ran serial is visible after the
    // fact, and warned about up front.
    unsigned effective_jobs = 1;
    if (jobs_ > 1 && pending.size() > 1)
        effective_jobs = static_cast<unsigned>(
            std::min<std::size_t>(pending.size(),
                                  static_cast<std::size_t>(jobs_)));
    if (jobsDetected_ && jobs_ <= 1 && pending.size() > 1) {
        static std::once_flag warned;
        std::call_once(warned, [] {
            sim::warn("sweep: running serial (1 job); thread detection "
                      "may have failed — set TRANSFW_JOBS to override");
        });
    }

    if (effective_jobs <= 1) {
        for (Pending &p : pending)
            execute(p);
    } else {
        sim::TaskPool pool(effective_jobs);
        for (Pending &p : pending)
            pool.submit([&execute, &p] { execute(p); });
        pool.wait();
    }

    // Ledger each executed point (memo hits already have a record from
    // the run that produced them). RunLedger::append serialises writers.
    std::string ledger_path;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ledger_path = ledgerPath_;
    }
    if (!ledger_path.empty()) {
        for (Pending &p : pending) {
            obs::LedgerRecord rec =
                toLedgerRecord(p.result, p.spec->config,
                               effectiveScale(p.spec->scale), "sweep");
            rec.wall["jobs"] = static_cast<double>(effective_jobs);
            obs::RunLedger::append(ledger_path, rec);
        }
    }

    std::vector<SimResults> out;
    out.reserve(specs.size());
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.effectiveJobs = effective_jobs;
        for (Pending &p : pending)
            memo_.emplace(p.key, std::move(p.result));
        for (const std::string &k : keys)
            out.push_back(memo_.at(k));
    }
    return out;
}

SweepRunner::Stats
SweepRunner::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
SweepRunner::clearMemo()
{
    std::lock_guard<std::mutex> lock(mu_);
    memo_.clear();
}

SweepRunner &
SweepRunner::shared()
{
    static SweepRunner runner;
    return runner;
}

} // namespace transfw::sys

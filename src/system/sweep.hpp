#ifndef TRANSFW_SYSTEM_SWEEP_HPP
#define TRANSFW_SYSTEM_SWEEP_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/config.hpp"
#include "system/results.hpp"

namespace transfw::sys {

/** One point of a sweep: an application under a configuration. */
struct RunSpec
{
    std::string app;          ///< Table III abbreviation
    cfg::SystemConfig config;
    double scale = 0.0;       ///< see runApp(); 0 reads TRANSFW_SCALE
};

/** Memoisation key: equal keys ⇒ bit-identical simulation results. */
std::string runKey(const RunSpec &spec);

/**
 * Runs batches of independent simulation instances on a worker-thread
 * pool, memoising duplicates. Every figure of the paper is a sweep of
 * full-system runs (apps × configs) that share a baseline; running the
 * points concurrently and deduplicating repeated baselines is where
 * sweep wall-clock goes down, without touching the simulator:
 *
 *  - Each instance remains single-threaded and deterministic, so
 *    results are bitwise identical to a serial run of the same spec
 *    (test_sweep asserts this).
 *  - Duplicate specs — within one run() call or across calls on the
 *    same runner — execute once; later requests are served from the
 *    memo. The figures bench routes every figure's points through
 *    shared(), so a baseline many figures share is simulated once.
 *
 * Thread count: explicit > TRANSFW_JOBS env > hardware concurrency.
 * jobs() == 1 runs inline with no threads at all; a serial sweep warns
 * only when the count came from hardware detection.
 */
class SweepRunner
{
  public:
    struct Stats
    {
        std::uint64_t requested = 0; ///< specs asked for
        std::uint64_t executed = 0;  ///< simulations actually run
        std::uint64_t memoHits = 0;  ///< served from the memo
        /** Workers actually used by the most recent batch (1 = serial). */
        std::uint64_t effectiveJobs = 0;
    };

    /** @p jobs == 0 picks TRANSFW_JOBS / hardware concurrency. */
    explicit SweepRunner(int jobs = 0);

    /**
     * Run every spec (memoised, possibly concurrent) and return
     * results in spec order.
     */
    std::vector<SimResults> run(const std::vector<RunSpec> &specs);

    /** Single-spec convenience (still memoised). */
    SimResults runOne(const RunSpec &spec);

    int jobs() const { return jobs_; }
    Stats stats() const;
    void clearMemo();

    /**
     * JSONL run-ledger destination: every executed (non-memoised)
     * point appends one transfw-ledger-v1 record there. Defaults to
     * $TRANSFW_LEDGER; empty disables.
     */
    void setLedgerPath(std::string path);
    const std::string &ledgerPath() const { return ledgerPath_; }

    /**
     * Process-wide runner the figures bench shares, so a point every
     * figure needs is simulated once per process.
     */
    static SweepRunner &shared();

  private:
    int jobs_;
    bool jobsDetected_; ///< jobs_ came from hardware detection
    std::string ledgerPath_;
    mutable std::mutex mu_;
    std::unordered_map<std::string, SimResults> memo_;
    Stats stats_;
};

} // namespace transfw::sys

#endif // TRANSFW_SYSTEM_SWEEP_HPP

#ifndef TRANSFW_SYSTEM_REPORT_HPP
#define TRANSFW_SYSTEM_REPORT_HPP

#include <string>

#include "config/config.hpp"
#include "obs/ledger.hpp"
#include "stats/stats.hpp"
#include "system/results.hpp"

namespace transfw::sys {

/**
 * Export every SimResults field into a named-scalar registry
 * (dot-separated keys, e.g. "xlat.hostQueue", "tlb.l2HitRate"), so
 * tools can diff runs, dump CSV rows, or feed dashboards without
 * knowing the struct layout.
 */
stats::Registry toRegistry(const SimResults &results);

/** Human-readable multi-section report (what `transfw run --report` prints). */
std::string formatReport(const SimResults &results);

/** One CSV line (with a matching header line) for sweep tooling. */
std::string csvHeader();
std::string csvRow(const SimResults &results);

/**
 * Pack one run into a ledger record: the full toRegistry() metrics map
 * plus host-side wall measurements (wall seconds, events/sec, profiler
 * buckets) in the record's noisy wall section. Stamps the wall
 * timestamp; callers append via obs::RunLedger::append().
 */
obs::LedgerRecord toLedgerRecord(const SimResults &results,
                                 const cfg::SystemConfig &config,
                                 double scale,
                                 const std::string &source);

} // namespace transfw::sys

#endif // TRANSFW_SYSTEM_REPORT_HPP

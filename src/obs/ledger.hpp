#ifndef TRANSFW_OBS_LEDGER_HPP
#define TRANSFW_OBS_LEDGER_HPP

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace transfw::obs {

/**
 * One run's durable record: everything a later session needs to decide
 * "did my change regress anything?" without re-running the original.
 *
 * The record splits into a *deterministic* part (app identity, config
 * key, and the full metrics map — pure simulation outputs that must be
 * bit-identical across reruns of the same binary+config) and an
 * explicitly-stamped *wall* part (timestamp, host wall time, events/sec,
 * job counts, profiler buckets) that is expected to vary run-to-run.
 * diffLedgers() holds the first part to exact equality and the second
 * to a relative tolerance, so regression gates stay noise-free.
 *
 * Serialized as one JSON object per line ("transfw-ledger-v1" JSONL):
 * doubles round-trip via %.17g, map keys emit in sorted order, so the
 * deterministic portion of a line is itself byte-stable.
 */
struct LedgerRecord
{
    std::string schema;        ///< "transfw-ledger-v1"
    std::string app;           ///< workload identity (e.g. "MT", "KM")
    double scale = 1.0;        ///< workload scale factor
    std::string configKey;     ///< cfg::SystemConfig::key()
    std::string configSummary; ///< human-readable config line
    std::string source;        ///< producing tool ("run", "sweep", ...)

    /** Deterministic simulation metrics (sys::toRegistry keys). */
    std::map<std::string, double> metrics;

    /** Noisy host-side measurements (wall seconds, events/sec, ...). */
    std::map<std::string, double> wall;
    std::string wallTimestamp; ///< ISO-8601 UTC stamp, noisy by design

    /** Pairing identity for diffs: app + scale + configKey. */
    std::string matchKey() const;

    /** One newline-free JSON object (append '\n' for JSONL). */
    std::string toJsonLine() const;
};

/**
 * Append-only JSONL ledger. All writers funnel through append(), which
 * serialises the whole line first and holds a process-wide mutex across
 * the single write, so parallel sweep workers interleave records, never
 * bytes. Readers tolerate (and report) trailing garbage lines.
 */
class RunLedger
{
  public:
    static constexpr const char *kSchema = "transfw-ledger-v1";

    /** Path from $TRANSFW_LEDGER, or "" when unset (ledger disabled). */
    static std::string envPath();

    /** Stamp record.wallTimestamp with the current UTC time. */
    static void stampWall(LedgerRecord &record);

    /** Append one record to @p path; false on open/write failure. */
    static bool append(const std::string &path,
                       const LedgerRecord &record);

    /**
     * Parse one JSONL line. Returns false (with *error set) on malformed
     * JSON or a schema other than kSchema.
     */
    static bool parseLine(const std::string &line, LedgerRecord &out,
                          std::string *error = nullptr);

    /**
     * Load every record in @p path. Malformed lines are skipped and
     * reported through @p errors ("line N: why"); missing file is an
     * error with zero records.
     */
    static std::vector<LedgerRecord>
    load(const std::string &path,
         std::vector<std::string> *errors = nullptr);
};

// --- noise-aware regression diffing --------------------------------------

struct LedgerDiffOptions
{
    /** Relative tolerance for wall-section fields (0.5 = ±50%). */
    double wallRelTol = 0.5;
    /** Pair records by matchKey(); false pairs line-by-line instead. */
    bool matchOnKey = true;
};

/** One matched pair of records and everything that differs between them. */
struct LedgerDiffEntry
{
    std::string app;
    std::string matchKey;
    /** Deterministic metrics whose values differ ("key: a -> b"). */
    std::vector<std::string> drifted;
    /** Metric keys present on only one side ("-key" / "+key"). */
    std::vector<std::string> missingKeys;
    /** Wall fields outside tolerance — reported, never failing. */
    std::vector<std::string> wallWarnings;
};

struct LedgerDiff
{
    /** Matched pairs with at least one difference; clean pairs are
     *  counted (comparedMetrics) but not stored. */
    std::vector<LedgerDiffEntry> pairs;
    std::vector<std::string> unmatchedA; ///< match keys only in A
    std::vector<std::string> unmatchedB; ///< match keys only in B
    std::vector<std::string> errors;     ///< schema mismatches etc.

    std::size_t driftedMetrics = 0;
    std::size_t missingKeys = 0;
    std::size_t wallWarningCount = 0;
    std::size_t comparedMetrics = 0;

    /**
     * True when nothing deterministic moved: no drifted metrics, no
     * missing keys, no unmatched records, no errors. Wall warnings do
     * not dirty a diff.
     */
    bool
    clean() const
    {
        return driftedMetrics == 0 && missingKeys == 0 &&
               unmatchedA.empty() && unmatchedB.empty() &&
               errors.empty();
    }

    std::string toMarkdown() const;
    std::string toJson() const;
};

/**
 * Diff two record sets. Deterministic metrics must match exactly;
 * wall fields outside opts.wallRelTol produce warnings. Records whose
 * schema field is not RunLedger::kSchema land in errors.
 */
LedgerDiff diffLedgers(const std::vector<LedgerRecord> &a,
                       const std::vector<LedgerRecord> &b,
                       const LedgerDiffOptions &opts = {});

} // namespace transfw::obs

#endif // TRANSFW_OBS_LEDGER_HPP

#ifndef TRANSFW_OBS_CHECKS_HPP
#define TRANSFW_OBS_CHECKS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/attrib.hpp"

#ifndef TRANSFW_OBS_STRICT
#define TRANSFW_OBS_STRICT 0
#endif

namespace transfw::obs {

/**
 * Invariant watchdog over the attribution instrumentation.
 *
 * Checked per finished request:
 *   1. per-hop balance: when the request's interconnect cycles arrived
 *      via edge-tagged hops, the Network and HostRoute buckets must
 *      equal the sums of their traversed edges (sum-of-edges ==
 *      bucket — a plain charge sneaking into either bucket fires);
 *   2. PRT-negative short circuit => no local walk or local-queue
 *      cycles were charged (the walk really was skipped).
 *
 * Plus a post-run pass over kept timelines, verifyTimelines(): every
 * slice the trace export draws must lie inside its request's
 * [tIssue, tFinish], except the race losers that legitimately outlive
 * their request under first-reply-wins.
 *
 * Under TRANSFW_OBS_STRICT (sanitizer builds) a violation panics at
 * the faulting request; otherwise it is counted, the first few
 * messages are retained, and the count flows into SimResults where
 * the config-matrix tests assert it is zero.
 */
class Checks
{
  public:
    void
    clear()
    {
        violations_ = 0;
        checked_ = 0;
        messages_.clear();
    }

    std::uint64_t violations() const { return violations_; }
    std::uint64_t checkedRequests() const { return checked_; }
    /** First few violation messages (capped; for reports and tests). */
    const std::vector<std::string> &messages() const { return messages_; }

    /** Per-request invariants; called by AttributionEngine::finish. */
    void onFinish(int gpu, std::uint64_t id, const RequestLatency &lat,
                  bool short_circuit);

    /**
     * Post-run pass over the kept timelines of finished requests: each
     * charge, hop and forward slice must start no earlier than its
     * request's tIssue and end no later than its tFinish. Late charges
     * are skipped. In a request that launched a forward, the
     * HostQueue, HostWalkMem and RemoteWalk slices and the forward
     * itself may end after tFinish, because the losing side of the
     * reply race runs on; so may the Shootdown slice, which a remote
     * win overlaps with the page push. @return violations found.
     */
    std::uint64_t verifyTimelines(const AttributionEngine &attrib);

  private:
    void violation(const std::string &msg);

    std::uint64_t violations_ = 0;
    std::uint64_t checked_ = 0;
    std::vector<std::string> messages_;
    static constexpr std::size_t kMaxMessages = 8;
};

} // namespace transfw::obs

#endif // TRANSFW_OBS_CHECKS_HPP

#ifndef TRANSFW_WORKLOAD_TRACE_HPP
#define TRANSFW_WORKLOAD_TRACE_HPP

#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace transfw::wl {

/**
 * A workload replayed from a trace file, so users can drive the
 * simulator with access streams captured elsewhere (an instrumented
 * application, another simulator, or recordTrace() below).
 *
 * Text format, `#` comments allowed:
 *
 *   trace-v1 <numCtas>
 *   <cta> <computeGap> <r|w><vpn-hex> [<r|w><vpn-hex> ...]
 *
 * One line per coalesced memory op, ops of a CTA in program order
 * (lines of different CTAs may interleave), with 1 to
 * MemOp::kMaxPages accesses. VPNs are 4 KB-page numbers in hex, with
 * no 0x prefix; CTA ids and gaps are decimal, gaps below 2^32 - 1.
 * Each number must be the whole token, and numCtas is at most
 * kMaxCtas. The footprint is the set of
 * distinct VPNs; a page's initial owner is the home GPU of the first
 * CTA that touches it.
 */
class TraceWorkload : public Workload
{
  public:
    /**
     * Largest CTA count a header may declare, 1,024 times the 1,024
     * CTAs of every shipped generator. The parser sizes its per-CTA
     * table from the header before it reads an op, so the cap keeps a
     * typo from asking for tens of gigabytes.
     */
    static constexpr int kMaxCtas = 1 << 20;

    /** Parse @p path; fatal on malformed input. */
    explicit TraceWorkload(const std::string &path);

    const std::string &name() const override { return name_; }
    int numCtas() const override { return numCtas_; }
    std::uint64_t footprintPages() const override
    {
        return pages_.size();
    }
    mem::Vpn baseVpn() const override { return baseVpn_; }

    std::unique_ptr<CtaStream> makeStream(int cta, int num_gpus,
                                          std::uint64_t seed) const override;

    mem::DeviceId initialOwner(mem::Vpn vpn4k,
                               int num_gpus) const override;

    void forEachPage(
        const std::function<void(mem::Vpn)> &fn) const override;

    /** Total ops across all CTAs (for tests/sanity). */
    std::uint64_t totalOps() const;

  private:
    friend class TraceStream;

    std::string name_;
    int numCtas_ = 0;
    mem::Vpn baseVpn_ = 0;
    std::vector<std::vector<MemOp>> opsPerCta_;
    std::vector<mem::Vpn> pages_;          ///< sorted distinct VPNs
    std::vector<int> firstToucher_;        ///< parallel to pages_
};

/**
 * Record @p workload's streams (for @p num_gpus GPUs, seeded with
 * @p seed) into a trace file readable by TraceWorkload. Useful for
 * freezing a synthetic workload into a portable artifact.
 */
void recordTrace(const Workload &workload, int num_gpus,
                 std::uint64_t seed, const std::string &path);

} // namespace transfw::wl

#endif // TRANSFW_WORKLOAD_TRACE_HPP

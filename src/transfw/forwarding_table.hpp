#ifndef TRANSFW_TRANSFW_FORWARDING_TABLE_HPP
#define TRANSFW_TRANSFW_FORWARDING_TABLE_HPP

#include <cstdint>
#include <optional>

#include "config/config.hpp"
#include "filter/cuckoo_filter.hpp"
#include "mem/address.hpp"
#include "obs/metrics.hpp"
#include "obs/topk.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"

namespace transfw::core {

/**
 * Forwarding Table (Section IV-C): a Cuckoo filter in the host MMU
 * keyed by (VPN group, owner GPU id) that answers "which GPU holds the
 * valid copy of this page?". A lookup probes every GPU id in parallel
 * (the paper's FT performs four parallel ID lookups); a false positive
 * forwards the walk to a GPU that cannot resolve it, which the
 * requester treats as a failed remote lookup.
 *
 * As in the PRT, a per-(group, gpu) reference count decides when
 * fingerprints are inserted/deleted so eight pages can share one
 * fingerprint without duplicate copies.
 */
class ForwardingTable
{
  public:
    explicit ForwardingTable(const cfg::TransFwConfig &config);

    /** A page became resident on GPU @p owner. */
    void pageArrived(mem::Vpn vpn, int owner);

    /** A page left GPU @p owner's memory. */
    void pageDeparted(mem::Vpn vpn, int owner);

    /**
     * Find a candidate owner for @p vpn among @p num_gpus GPUs,
     * excluding the requester (forwarding a fault back to the faulting
     * GPU is useless). When several ids match (stale duplicates or
     * split groups), one is chosen at random, as in the paper.
     */
    std::optional<int> findOwner(mem::Vpn vpn, int num_gpus,
                                 int exclude_gpu);

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t bits() const { return filter_.bits(); }
    std::uint64_t kicks() const { return filter_.kicks(); }
    std::uint64_t probes() const { return probes_; }
    double loadFactor() const { return filter_.loadFactor(); }
    std::uint64_t overflowEvictions() const
    {
        return filter_.overflowEvictions();
    }
    /**
     * Tap every findOwner into a frequency sketch at VPN-group
     * granularity. The sketch outlives the table (FtCluster owns
     * both); the skew tracker hangs here because shard MMUs probe
     * their table slice directly, below any cluster-level routing.
     */
    void setHotGroupSketch(obs::TopK *sketch) { hotGroups_ = sketch; }

    /** Per-GPU-id probes where the filter hit with no live reference. */
    std::uint64_t observedFalsePositives() const { return falsePositives_; }
    double observedFpRate() const
    {
        return probes_ ? static_cast<double>(falsePositives_) /
                             static_cast<double>(probes_)
                       : 0.0;
    }

    /** Register filter health gauges under "<prefix>.". */
    void
    registerMetrics(obs::MetricRegistry &reg,
                    const std::string &prefix) const
    {
        reg.registerGauge(prefix + ".lookups", [this] {
            return static_cast<double>(lookups_);
        });
        reg.registerGauge(prefix + ".hits", [this] {
            return static_cast<double>(hits_);
        });
        reg.registerGauge(prefix + ".loadFactor",
                          [this] { return loadFactor(); });
        reg.registerGauge(prefix + ".occupancy", [this] {
            return static_cast<double>(filter_.size());
        });
        reg.registerGauge(prefix + ".kicks", [this] {
            return static_cast<double>(filter_.kicks());
        });
        reg.registerGauge(prefix + ".observedFpRate",
                          [this] { return observedFpRate(); });
        reg.registerGauge(prefix + ".overflowEvictions", [this] {
            return static_cast<double>(overflowEvictions());
        });
        reg.registerGauge(prefix + ".refMap.loadFactor", [this] {
            return refCount_.loadFactor();
        });
        reg.registerGauge(prefix + ".refMap.tombstones", [this] {
            return static_cast<double>(refCount_.tombstones());
        });
    }

  private:
    std::uint64_t
    key(mem::Vpn vpn, int owner) const
    {
        return ((vpn >> maskBits_) << 6) |
               static_cast<std::uint64_t>(owner & 0x3F);
    }

    unsigned maskBits_;
    filter::CuckooFilter filter_;
    sim::Rng rng_{0x4654'BEEFULL};
    /** Exact per-(group, gpu) residency counts (see class comment). */
    sim::FlatMap<std::uint64_t, std::uint32_t> refCount_;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t probes_ = 0;
    std::uint64_t falsePositives_ = 0;
    obs::TopK *hotGroups_ = nullptr; ///< cluster-owned lookup sketch
};

} // namespace transfw::core

#endif // TRANSFW_TRANSFW_FORWARDING_TABLE_HPP

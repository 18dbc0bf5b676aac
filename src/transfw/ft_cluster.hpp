#ifndef TRANSFW_TRANSFW_FT_CLUSTER_HPP
#define TRANSFW_TRANSFW_FT_CLUSTER_HPP

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "config/config.hpp"
#include "mem/address.hpp"
#include "obs/metrics.hpp"
#include "obs/topk.hpp"
#include "sim/logging.hpp"
#include "transfw/forwarding_table.hpp"

namespace transfw::core {

/**
 * Deterministic VPN-group → shard map shared by the sharded host MMU
 * and the partitioned Forwarding Table: hashing at FT-fingerprint
 * granularity (vpn >> mask_bits) keeps a fingerprint group wholly
 * inside one shard, so a fault routed to its home IOMMU shard always
 * finds the FT slice that could know its owner. splitmix64 finalizer:
 * cheap, well-mixed, stable across platforms.
 */
inline int
shardOfVpnGroup(mem::Vpn vpn, unsigned mask_bits, int shards)
{
    if (shards <= 1)
        return 0;
    std::uint64_t x = vpn >> mask_bits;
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<int>(x % static_cast<std::uint64_t>(shards));
}

/**
 * K Forwarding Tables behind the sharded host MMU (one per IOMMU
 * shard). Two placement modes (cfg.transFw.ftReplicated):
 *
 *  - Partitioned (default): shard s owns the VPN groups hashing to s
 *    and gets ftBuckets/K of the filter capacity. Residency updates
 *    touch exactly one shard and no coherence traffic exists, but a
 *    fault can only consult its home shard's slice — which is also
 *    where the sharded MMU routes it, so the probe is always local.
 *
 *  - Replicated: every shard keeps a full-capacity replica, so faults
 *    may be routed to any shard (the MMU cluster load-balances
 *    round-robin). The price is an explicit coherence protocol: every
 *    pageArrived broadcasts an update and every pageDeparted an
 *    invalidation to the K-1 other replicas, counted in
 *    replicaUpdates()/replicaInvalidations() (the broadcast rides the
 *    host-internal fabric, modeled as bandwidth-free control traffic).
 *
 * With K = 1 every call delegates verbatim to the single table — the
 * paper's host-MMU FT, byte-identical behavior and metric names.
 */
class FtCluster
{
  public:
    explicit FtCluster(const cfg::TransFwConfig &config, int shards = 1)
        : cfg_(config), shards_(std::max(1, shards)),
          replicated_(config.ftReplicated && shards_ > 1)
    {
        cfg::TransFwConfig shard_cfg = config;
        if (!replicated_ && shards_ > 1)
            shard_cfg.ftBuckets =
                std::max<std::size_t>(1, config.ftBuckets /
                                             static_cast<std::size_t>(
                                                 shards_));
        for (int s = 0; s < shards_; ++s)
            tables_.push_back(
                std::make_unique<ForwardingTable>(shard_cfg));
        // The shard MMUs hold raw per-shard table pointers and probe
        // them directly, so the lookup stream is tapped at the table —
        // every path (cluster route, shard-local probe, UVM driver)
        // feeds the one sketch exactly once.
        for (auto &t : tables_)
            t->setHotGroupSketch(&hotGroups_);
    }

    int shards() const { return shards_; }
    bool replicated() const { return replicated_; }

    /** Owning shard of @p vpn under partitioning (0 when replicated —
     *  every replica is equivalent). */
    int
    homeShard(mem::Vpn vpn) const
    {
        return replicated_ ? 0
                           : shardOfVpnGroup(vpn, cfg_.vpnMaskBits,
                                             shards_);
    }

    /** A page became resident on GPU @p owner. */
    void
    pageArrived(mem::Vpn vpn, int owner)
    {
        if (replicated_) {
            for (auto &t : tables_)
                t->pageArrived(vpn, owner);
            replicaUpdates_ +=
                static_cast<std::uint64_t>(shards_ - 1);
        } else {
            tables_[static_cast<std::size_t>(homeShard(vpn))]
                ->pageArrived(vpn, owner);
        }
    }

    /** A page left GPU @p owner's memory. */
    void
    pageDeparted(mem::Vpn vpn, int owner)
    {
        if (replicated_) {
            for (auto &t : tables_)
                t->pageDeparted(vpn, owner);
            replicaInvalidations_ +=
                static_cast<std::uint64_t>(shards_ - 1);
        } else {
            tables_[static_cast<std::size_t>(homeShard(vpn))]
                ->pageDeparted(vpn, owner);
        }
    }

    /**
     * Probe for an owner candidate from shard @p shard's vantage: its
     * own replica when replicated, the home slice otherwise (the MMU
     * cluster routes partitioned faults home, so both cases read the
     * prober's local table).
     */
    std::optional<int>
    findOwner(int shard, mem::Vpn vpn, int num_gpus, int exclude_gpu)
    {
        int s = replicated_ ? shard : homeShard(vpn);
        return tables_[static_cast<std::size_t>(s)]->findOwner(
            vpn, num_gpus, exclude_gpu);
    }

    /** Probe from outside any shard (the software UVM-driver path,
     *  which validate() restricts to a single shard). */
    std::optional<int>
    findOwner(mem::Vpn vpn, int num_gpus, int exclude_gpu)
    {
        return findOwner(0, vpn, num_gpus, exclude_gpu);
    }

    /** Shard @p s's table (the sharded MMU probes it directly). */
    ForwardingTable &table(int s)
    {
        return *tables_.at(static_cast<std::size_t>(s));
    }
    const ForwardingTable &table(int s) const
    {
        return *tables_.at(static_cast<std::size_t>(s));
    }

    // --- aggregate stats (collect(), ledger) -------------------------------
    std::uint64_t
    lookups() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tables_)
            n += t->lookups();
        return n;
    }
    std::uint64_t
    hits() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tables_)
            n += t->hits();
        return n;
    }
    std::uint64_t
    overflowEvictions() const
    {
        std::uint64_t n = 0;
        for (const auto &t : tables_)
            n += t->overflowEvictions();
        return n;
    }
    double
    loadFactor() const
    {
        double sum = 0;
        for (const auto &t : tables_)
            sum += t->loadFactor();
        return sum / static_cast<double>(shards_);
    }
    /** Replica-coherence traffic (replicated mode only; 0 otherwise). */
    std::uint64_t replicaUpdates() const { return replicaUpdates_; }
    std::uint64_t replicaInvalidations() const
    {
        return replicaInvalidations_;
    }

    /** Space-saving sketch over VPN-group lookups (skew tracker). */
    const obs::TopK &hotGroups() const { return hotGroups_; }
    /** Shard a tracked group maps to under the partition hash. */
    int
    shardOfGroup(std::uint64_t group) const
    {
        return shardOfVpnGroup(group << cfg_.vpnMaskBits,
                               cfg_.vpnMaskBits, shards_);
    }

    /**
     * Register gauges under "<prefix>.". K = 1 delegates to the single
     * table, preserving the exact pre-shard metric names and values;
     * K > 1 registers cluster aggregates under the same names (so the
     * sampler columns keep working) plus per-shard trees and the
     * replica-coherence counters.
     */
    void
    registerMetrics(obs::MetricRegistry &reg,
                    const std::string &prefix) const
    {
        // Skew-tracker gauges exist at every shard count (K = 1 still
        // answers "how concentrated is the lookup stream").
        reg.registerGauge(prefix + ".hotGroups.tracked", [this] {
            return static_cast<double>(hotGroups_.tracked());
        });
        reg.registerGauge(prefix + ".hotGroups.total", [this] {
            return static_cast<double>(hotGroups_.total());
        });
        reg.registerGauge(prefix + ".hotGroups.top8Share", [this] {
            return hotGroups_.topShare(8);
        });
        if (shards_ == 1) {
            tables_[0]->registerMetrics(reg, prefix);
            return;
        }
        reg.registerGauge(prefix + ".lookups", [this] {
            return static_cast<double>(lookups());
        });
        reg.registerGauge(prefix + ".hits", [this] {
            return static_cast<double>(hits());
        });
        reg.registerGauge(prefix + ".loadFactor",
                          [this] { return loadFactor(); });
        reg.registerGauge(prefix + ".overflowEvictions", [this] {
            return static_cast<double>(overflowEvictions());
        });
        reg.registerGauge(prefix + ".kicks", [this] {
            double n = 0;
            for (const auto &t : tables_)
                n += static_cast<double>(t->kicks());
            return n;
        });
        reg.registerGauge(prefix + ".observedFpRate", [this] {
            double fp = 0, probes = 0;
            for (const auto &t : tables_) {
                fp += static_cast<double>(t->observedFalsePositives());
                probes += static_cast<double>(t->probes());
            }
            return probes > 0 ? fp / probes : 0.0;
        });
        reg.registerGauge(prefix + ".replicaUpdates", [this] {
            return static_cast<double>(replicaUpdates_);
        });
        reg.registerGauge(prefix + ".replicaInvalidations", [this] {
            return static_cast<double>(replicaInvalidations_);
        });
        for (int s = 0; s < shards_; ++s)
            tables_[static_cast<std::size_t>(s)]->registerMetrics(
                reg, prefix + sim::strfmt(".shard%d", s));
    }

  private:
    cfg::TransFwConfig cfg_;
    int shards_;
    bool replicated_;
    std::vector<std::unique_ptr<ForwardingTable>> tables_;
    std::uint64_t replicaUpdates_ = 0;
    std::uint64_t replicaInvalidations_ = 0;
    obs::TopK hotGroups_; ///< VPN-group lookup frequency sketch
};

} // namespace transfw::core

#endif // TRANSFW_TRANSFW_FT_CLUSTER_HPP

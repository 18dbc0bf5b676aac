#ifndef TRANSFW_MMU_HOST_MMU_CLUSTER_HPP
#define TRANSFW_MMU_HOST_MMU_CLUSTER_HPP

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "mmu/host_mmu.hpp"
#include "transfw/ft_cluster.hpp"

namespace transfw::mmu {

/**
 * K host-MMU/IOMMU shards behind one fault-steering front end — the
 * scale-out answer to the paper's single-IOMMU serialization point.
 * Each shard is a complete HostMmu instance (its own host TLB,
 * PW-cache, PW-queue, and walker pool — the scale-out replica model a
 * multi-IOMMU pod actually builds) plus the matching slice/replica of
 * the Forwarding Table (core::FtCluster).
 *
 * Routing: faults are steered by VPN-group hash (the same hash that
 * partitions the FT, so a fault's home shard always holds the FT slice
 * that could forward it). In replicated-FT mode every shard can serve
 * any fault, so the steering becomes deterministic round-robin load
 * balancing — that routing freedom is exactly what the replication's
 * invalidation-broadcast cost buys. The steering crossbar itself costs
 * kRouteCycles per fault, charged to the HostRoute attribution bucket
 * as one tagged crossbar hop.
 *
 * With hostShards == 1 every call is a direct pass-through to one
 * HostMmu constructed exactly as the pre-shard system built it —
 * event-for-event identical, same metric names, no routing event and
 * no HostRoute charge.
 *
 * Everything here runs on the host queue, so sharding never changes
 * the order in which the event kernel merges host and GPU events.
 */
class HostMmuCluster
{
  public:
    /** Shard-steering crossbar traversal (hostShards > 1 only). */
    static constexpr sim::Tick kRouteCycles = 1;

    HostMmuCluster(sim::EventQueue &eq, const cfg::SystemConfig &config,
                   mem::PageTable &central, uvm::MigrationEngine &engine,
                   core::FtCluster *ft, std::vector<GpuIface *> gpus,
                   sim::Rng &rng)
        : eq_(eq), cfg_(config),
          roundRobin_(config.transFw.ftReplicated &&
                      config.hostShards > 1)
    {
        const int k = config.hostShards;
        for (int s = 0; s < k; ++s)
            shards_.push_back(std::make_unique<HostMmu>(
                eq, config, central, engine,
                ft ? &ft->table(s) : nullptr, gpus, rng, s, k));
        for (auto &shard : shards_) {
            shard->onResolved = [this](XlatPtr req) {
                onResolved(std::move(req));
            };
            shard->forwardToGpu = [this](RemoteLookupPtr rl) {
                forwardToGpu(std::move(rl));
            };
        }
        if (k > 1) {
            // Owner changes shoot down the host TLB(s) that may cache
            // the stale translation: the home shard under hash
            // steering, every shard under round-robin (any shard may
            // have served — and cached — any page).
            engine.onOwnerChanged = [this](mem::Vpn vpn) {
                if (roundRobin_) {
                    for (auto &shard : shards_)
                        shard->tlb().invalidate(vpn);
                } else {
                    shards_[static_cast<std::size_t>(hashShard(vpn))]
                        ->tlb()
                        .invalidate(vpn);
                }
            };
        }
    }

    int shards() const { return static_cast<int>(shards_.size()); }
    HostMmu &shard(int s)
    {
        return *shards_.at(static_cast<std::size_t>(s));
    }
    const HostMmu &shard(int s) const
    {
        return *shards_.at(static_cast<std::size_t>(s));
    }

    /** A far fault arrived over the CPU-GPU interconnect. */
    void
    handleFault(XlatPtr req)
    {
        if (shards_.size() == 1) {
            shards_[0]->handleFault(std::move(req));
            return;
        }
        const int s = routeShard(req->vpn);
        req->hostShard = s;
        ++routedFaults_;
        // The crossbar traversal is one edge of the request's route:
        // host front end (-1) → shard s, pure serialization. Tagging
        // it (instead of a plain charge) is what lets the watchdog
        // prove HostRoute == sum of traversed crossbar edges.
        obs::AttribHop hop;
        hop.from = -1;
        hop.to = static_cast<std::int16_t>(s);
        hop.ser = static_cast<double>(kRouteCycles);
        chargeHop(*req, attrib_, obs::AttribBucket::HostRoute, hop,
                  eq_.now());
        eq_.scheduleAt(eq_.now() + kRouteCycles,
                       [this, s, req = std::move(req)]() mutable {
                           shards_[static_cast<std::size_t>(s)]
                               ->handleFault(std::move(req));
                       });
    }

    /** Remote-lookup completion, routed back to the launching shard. */
    void
    remoteLookupDone(RemoteLookupPtr rl)
    {
        shards_.at(static_cast<std::size_t>(rl->req->hostShard))
            ->remoteLookupDone(std::move(rl));
    }

    /** Reply channel back to the requesting GPU (set by the system). */
    std::function<void(XlatPtr)> onResolved;
    /** Forward channel host → remote GPU (set by the system). */
    std::function<void(RemoteLookupPtr)> forwardToGpu;

    /** Faults that crossed the steering crossbar (0 when K == 1). */
    std::uint64_t routedFaults() const { return routedFaults_; }

    // --- shard-skew metrics (gauges, collect(), pod study) ------------------

    /** Largest single shard's share of all host walks (1/K = even). */
    double
    shardLoadShareMax() const
    {
        std::uint64_t total = 0, worst = 0;
        for (const auto &s : shards_) {
            total += s->stats().walks;
            worst = std::max(worst, s->stats().walks);
        }
        return total ? static_cast<double>(worst) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Coefficient of variation of per-shard walk counts (0 = even). */
    double
    shardLoadCv() const
    {
        const std::size_t k = shards_.size();
        if (k <= 1)
            return 0.0;
        double mean = 0;
        for (const auto &s : shards_)
            mean += static_cast<double>(s->stats().walks);
        mean /= static_cast<double>(k);
        if (mean <= 0)
            return 0.0;
        double var = 0;
        for (const auto &s : shards_) {
            double d = static_cast<double>(s->stats().walks) - mean;
            var += d * d;
        }
        return std::sqrt(var / static_cast<double>(k)) / mean;
    }

    /** Worst shard's mean queue wait over the mean of per-shard means
     *  — the "worst shard is 3-4x the mean" pod-study headline. */
    double
    shardWaitRatio() const
    {
        if (shards_.size() <= 1)
            return shards_.empty() ? 0.0 : 1.0;
        double worst = 0, sum = 0;
        for (const auto &s : shards_) {
            const auto &w = s->stats().queueWait;
            double m = w.count() ? w.sum() / static_cast<double>(
                                                 w.count())
                                 : 0.0;
            worst = std::max(worst, m);
            sum += m;
        }
        double mean = sum / static_cast<double>(shards_.size());
        return mean > 0 ? worst / mean : 0.0;
    }

    // --- aggregated views (collect(), report) ------------------------------
    double
    tlbHitRate() const
    {
        std::uint64_t lookups = 0, hits = 0;
        for (const auto &s : shards_) {
            lookups += s->tlb().lookups();
            hits += s->tlb().hits();
        }
        return lookups ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }

    // --- observability ------------------------------------------------------
    void
    attachAttribution(obs::AttributionEngine *attrib)
    {
        attrib_ = attrib;
        for (auto &s : shards_)
            s->attachAttribution(attrib);
    }
    void
    attachProfiler(obs::SelfProfiler *profiler)
    {
        for (auto &s : shards_)
            s->attachProfiler(profiler);
    }

    /**
     * Register gauges under "<prefix>.". K = 1 delegates to the single
     * shard — the exact pre-shard names and values. K > 1 registers
     * cluster aggregates under the same names (the sampler columns
     * keep resolving) plus one subtree per shard, whose queueDepth /
     * queueWaitMean gauges are the per-shard walk-queue occupancy the
     * pod scaling study plots.
     */
    void
    registerMetrics(obs::MetricRegistry &reg,
                    const std::string &prefix) const
    {
        if (shards_.size() == 1) {
            shards_[0]->registerMetrics(reg, prefix);
            return;
        }
        auto sum = [this](std::uint64_t HostMmu::Stats::*field) {
            std::uint64_t n = 0;
            for (const auto &s : shards_)
                n += s->stats().*field;
            return static_cast<double>(n);
        };
        reg.registerGauge(prefix + ".faults", [sum] {
            return sum(&HostMmu::Stats::faults);
        });
        reg.registerGauge(prefix + ".tlbHits", [sum] {
            return sum(&HostMmu::Stats::tlbHits);
        });
        reg.registerGauge(prefix + ".walks", [sum] {
            return sum(&HostMmu::Stats::walks);
        });
        reg.registerGauge(prefix + ".memAccesses", [sum] {
            return sum(&HostMmu::Stats::memAccesses);
        });
        reg.registerGauge(prefix + ".forwards", [sum] {
            return sum(&HostMmu::Stats::forwards);
        });
        reg.registerGauge(prefix + ".forwardSuccess", [sum] {
            return sum(&HostMmu::Stats::forwardSuccess);
        });
        reg.registerGauge(prefix + ".forwardFail", [sum] {
            return sum(&HostMmu::Stats::forwardFail);
        });
        reg.registerGauge(prefix + ".duplicateWalks", [sum] {
            return sum(&HostMmu::Stats::duplicateWalks);
        });
        reg.registerGauge(prefix + ".removedFromQueue", [sum] {
            return sum(&HostMmu::Stats::removedFromQueue);
        });
        reg.registerGauge(prefix + ".queueOverflows", [sum] {
            return sum(&HostMmu::Stats::queueOverflows);
        });
        reg.registerGauge(prefix + ".queueDepth", [this] {
            double n = 0;
            for (const auto &s : shards_)
                n += static_cast<double>(s->queueDepth());
            return n;
        });
        reg.registerGauge(prefix + ".queueWaitMean", [this] {
            double sum_w = 0;
            std::uint64_t n = 0;
            for (const auto &s : shards_) {
                sum_w += s->stats().queueWait.sum();
                n += s->stats().queueWait.count();
            }
            return n ? sum_w / static_cast<double>(n) : 0.0;
        });
        // Shards at/past the Section IV-C trigger right now (0..K).
        reg.registerGauge(prefix + ".queueAboveTrigger", [this] {
            double n = 0;
            for (const auto &s : shards_)
                if (s->queueDepth() >= cfg_.forwardQueueTrigger())
                    n += 1.0;
            return n;
        });
        reg.registerGauge(prefix + ".routedFaults", [this] {
            return static_cast<double>(routedFaults_);
        });
        // The steering crossbar as its own component: traffic, the
        // cycles it charged to HostRoute, and how evenly its hash is
        // spreading the load — without these a sharded run's host
        // section reported nothing about the crossbar at all.
        reg.registerGauge(prefix + ".crossbar.routedFaults", [this] {
            return static_cast<double>(routedFaults_);
        });
        reg.registerGauge(prefix + ".crossbar.routeCycles", [this] {
            return static_cast<double>(routedFaults_) *
                   static_cast<double>(kRouteCycles);
        });
        reg.registerGauge(prefix + ".crossbar.loadShareMax",
                          [this] { return shardLoadShareMax(); });
        reg.registerGauge(prefix + ".crossbar.loadCv",
                          [this] { return shardLoadCv(); });
        reg.registerGauge(prefix + ".crossbar.waitRatio",
                          [this] { return shardWaitRatio(); });
        reg.registerGauge(prefix + ".tlb.hitRate",
                          [this] { return tlbHitRate(); });
        reg.registerGauge(prefix + ".pwc.hitRate", [this] {
            std::uint64_t lookups = 0, misses = 0;
            for (const auto &s : shards_) {
                lookups += s->pwc().lookups();
                misses += s->pwc().hitLevels().bucket(0);
            }
            return lookups ? 1.0 - static_cast<double>(misses) /
                                       static_cast<double>(lookups)
                           : 0.0;
        });
        for (int s = 0; s < shards(); ++s)
            shards_[static_cast<std::size_t>(s)]->registerMetrics(
                reg, prefix + sim::strfmt(".shard%d", s));
    }

  private:
    int
    hashShard(mem::Vpn vpn) const
    {
        return core::shardOfVpnGroup(vpn, cfg_.transFw.vpnMaskBits,
                                     static_cast<int>(shards_.size()));
    }

    int
    routeShard(mem::Vpn vpn)
    {
        if (!roundRobin_)
            return hashShard(vpn);
        const int s = rrNext_;
        rrNext_ = (rrNext_ + 1) % static_cast<int>(shards_.size());
        return s;
    }

    sim::EventQueue &eq_;
    const cfg::SystemConfig &cfg_;
    bool roundRobin_;
    std::vector<std::unique_ptr<HostMmu>> shards_;
    obs::AttributionEngine *attrib_ = nullptr;
    int rrNext_ = 0;
    std::uint64_t routedFaults_ = 0;
};

} // namespace transfw::mmu

#endif // TRANSFW_MMU_HOST_MMU_CLUSTER_HPP

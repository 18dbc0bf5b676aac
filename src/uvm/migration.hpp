#ifndef TRANSFW_UVM_MIGRATION_HPP
#define TRANSFW_UVM_MIGRATION_HPP

#include <deque>
#include <functional>
#include <vector>

#include "config/config.hpp"
#include "interconnect/network.hpp"
#include "mem/page_table.hpp"
#include "mmu/gpu_iface.hpp"
#include "mmu/request.hpp"
#include "obs/metrics.hpp"
#include "obs/self_profiler.hpp"
#include "sim/flat_map.hpp"
#include "sim/sim_object.hpp"
#include "transfw/ft_cluster.hpp"

namespace transfw::uvm {

/**
 * Applies the configured page placement policy once a far fault's
 * translation is known: on-touch migration (default), read replication
 * with ESI coherence (Section V-D), or remote mapping with
 * access-counter promotion (Section V-E). Owns every functional side
 * effect of a page move — local page tables, frame allocators, TLB
 * shootdowns, PRT/FT maintenance, the central page table — plus the
 * timed page transfer over the interconnect.
 *
 * Page moves are serialized per VPN: a resolve (or counter-triggered
 * migration) for a busy page waits until the in-flight move finishes
 * and then re-evaluates against the updated central entry — which is
 * exactly how hot shared pages ping-pong.
 */
class MigrationEngine : public sim::SimObject
{
  public:
    struct Stats
    {
        std::uint64_t migrations = 0;
        std::uint64_t alreadyLocal = 0;
        std::uint64_t replications = 0;
        std::uint64_t writeInvalidations = 0;
        std::uint64_t remoteMappings = 0;
        std::uint64_t counterMigrations = 0;
        std::uint64_t bytesMoved = 0;
    };

    using DoneCb = std::function<void(const tlb::TlbEntry &)>;

    MigrationEngine(sim::EventQueue &eq, const cfg::SystemConfig &config,
                    mem::PageTable &central,
                    std::vector<mmu::GpuIface *> gpus, ic::Network &net,
                    core::FtCluster *ft);

    /**
     * Resolve the placement side of a fault whose central-table entry
     * is current. @p done receives the translation the requesting GPU
     * should install.
     */
    void resolve(mmu::XlatPtr req, DoneCb done);

    /** Remote-mapping access counter tap (from the data-access path). */
    void noteRemoteAccess(mem::Vpn vpn, int gpu);

    /** Fired whenever a page's owner changes (host MMU TLB shootdown). */
    std::function<void(mem::Vpn)> onOwnerChanged;

    const Stats &stats() const { return stats_; }

    /** Observability: race ledger and late charges (nullable). */
    void attachAttribution(obs::AttributionEngine *attrib)
    {
        attrib_ = attrib;
    }

    /** Observability: charge host time to profiler buckets (nullable). */
    void attachProfiler(obs::SelfProfiler *profiler)
    {
        profiler_ = profiler;
    }

    /** Register live gauges under "<prefix>." (e.g. "host.migration"). */
    void
    registerMetrics(obs::MetricRegistry &reg,
                    const std::string &prefix) const
    {
        reg.registerGauge(prefix + ".migrations", [this] {
            return static_cast<double>(stats_.migrations);
        });
        reg.registerGauge(prefix + ".alreadyLocal", [this] {
            return static_cast<double>(stats_.alreadyLocal);
        });
        reg.registerGauge(prefix + ".replications", [this] {
            return static_cast<double>(stats_.replications);
        });
        reg.registerGauge(prefix + ".writeInvalidations", [this] {
            return static_cast<double>(stats_.writeInvalidations);
        });
        reg.registerGauge(prefix + ".remoteMappings", [this] {
            return static_cast<double>(stats_.remoteMappings);
        });
        reg.registerGauge(prefix + ".counterMigrations", [this] {
            return static_cast<double>(stats_.counterMigrations);
        });
        reg.registerGauge(prefix + ".bytesMoved", [this] {
            return static_cast<double>(stats_.bytesMoved);
        });
        reg.registerGauge(prefix + ".busyPages", [this] {
            return static_cast<double>(busy_.size());
        });
        reg.registerGauge(prefix + ".busy.loadFactor",
                          [this] { return busy_.loadFactor(); });
        reg.registerGauge(prefix + ".busy.tombstones", [this] {
            return static_cast<double>(busy_.tombstones());
        });
    }

  private:
    struct Pending
    {
        mmu::XlatPtr req;
        DoneCb done;
        sim::Tick parked = 0;
    };

    void doResolve(mmu::XlatPtr req, DoneCb done);
    void complete(mem::Vpn vpn, const tlb::TlbEntry &entry, DoneCb done);
    void releasePage(mem::Vpn vpn);

    void migrate(mmu::XlatPtr req, mem::PageInfo &info, DoneCb done);
    void replicate(mmu::XlatPtr req, mem::PageInfo &info, DoneCb done);
    void writeUpgrade(mmu::XlatPtr req, mem::PageInfo &info, DoneCb done);
    void remoteMap(mmu::XlatPtr req, mem::PageInfo &info, DoneCb done);
    void counterMigrate(mem::Vpn vpn, int gpu);

    /** Remove @p vpn from GPU @p gpu (PTE, frame, TLBs, PRT, FT). */
    void unmapFrom(int gpu, mem::Vpn vpn);

    /** Map @p vpn locally at @p gpu; returns the installed entry. */
    tlb::TlbEntry mapLocal(int gpu, mem::Vpn vpn, bool writable);

    /** Map @p vpn at @p gpu as a remote-mapped PTE onto @p info. */
    tlb::TlbEntry mapRemote(int gpu, mem::Vpn vpn,
                            const mem::PageInfo &info);

    /** Timed page transfer; @p cb fires on arrival. */
    void transfer(int from_owner, int to_gpu,
                  sim::EventQueue::Callback cb);
    /**
     * As above; @p latency_overlapped models owner-push transfers
     * whose propagation overlapped the host notification hop. When
     * @p traced names the request the payload serves and timelines are
     * kept, every traversed edge is reported to its timeline as an
     * *uncounted* hop (the Migration bucket keeps its lump-sum charge —
     * the hops localize it on the fabric without double-charging).
     */
    void transfer(int from_owner, int to_gpu, bool latency_overlapped,
                  sim::EventQueue::Callback cb,
                  mmu::XlatPtr traced = {});

    const cfg::SystemConfig &cfg_;
    mem::PageTable &central_;
    std::vector<mmu::GpuIface *> gpus_;
    ic::Network &net_;
    core::FtCluster *ft_;
    Stats stats_;
    obs::AttributionEngine *attrib_ = nullptr;
    obs::SelfProfiler *profiler_ = nullptr;

    /** Pages with a move in flight → resolves waiting on them.
     *  Checked on every resolve and every remote-access note, so flat. */
    sim::FlatMap<mem::Vpn, std::deque<Pending>> busy_;
    /** Remote-mapping access counters, bumped per remote data access. */
    sim::FlatMap<std::uint64_t, std::uint32_t> remoteAccess_;
};

} // namespace transfw::uvm

#endif // TRANSFW_UVM_MIGRATION_HPP

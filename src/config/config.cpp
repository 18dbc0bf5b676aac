#include "config/config.hpp"

#include <cmath>

#include "sim/logging.hpp"

namespace transfw::cfg {

std::string
SystemConfig::summary() const
{
    std::string s = sim::strfmt(
        "%d GPUs x %d CUs, %d-level PT, %u KB pages, "
        "PW-cache %zu (%s), walkers %d/%d, %s faults%s",
        numGpus, cusPerGpu, pageTableLevels,
        static_cast<unsigned>((1u << pageShift) >> 10),
        pwcEntries,
        pwcKind == pwc::PwcKind::Utc   ? "UTC"
        : pwcKind == pwc::PwcKind::Stc ? "STC"
                                       : "infinite",
        gmmuWalkers, hostWalkers,
        faultMode == FaultMode::HostMmu ? "host-MMU" : "UVM-driver",
        transFw.enabled ? ", Trans-FW" : "");
    if (peerTopology != ic::Topology::AllToAll)
        s += sim::strfmt(", %s fabric", ic::topologyName(peerTopology));
    if (hostShards > 1)
        s += sim::strfmt(", %d host shards%s", hostShards,
                         transFw.ftReplicated ? " (replicated FT)" : "");
    return s;
}

std::string
SystemConfig::key() const
{
    std::string k;
    k.reserve(512);
    auto u = [&k](std::uint64_t v) {
        k += sim::strfmt("%llu;", static_cast<unsigned long long>(v));
    };
    auto d = [&k](double v) { k += sim::strfmt("%.17g;", v); };

    u(static_cast<std::uint64_t>(numGpus));
    u(static_cast<std::uint64_t>(cusPerGpu));
    u(static_cast<std::uint64_t>(wavefrontSlotsPerCu));
    u(gpuMemBytes);
    u(static_cast<std::uint64_t>(pageTableLevels));
    u(pageShift);
    u(memLatency);
    u(static_cast<std::uint64_t>(memModel));
    for (const mem::DataCacheConfig *c :
         {&memHierarchy.l1Vector, &memHierarchy.l2}) {
        u(c->sizeBytes);
        u(c->ways);
        u(c->lineBytes);
        u(c->hitLatency);
    }
    u(static_cast<std::uint64_t>(memHierarchy.dram.banks));
    u(memHierarchy.dram.rowHitLatency);
    u(memHierarchy.dram.rowMissLatency);
    u(memHierarchy.dram.dataBeat);
    u(memHierarchy.dram.rowShift);
    for (const tlb::TlbConfig *t : {&l1Tlb, &l2Tlb, &hostTlb}) {
        u(t->entries);
        u(t->ways);
        u(t->lookupLatency);
    }
    u(static_cast<std::uint64_t>(gmmuWalkers));
    u(static_cast<std::uint64_t>(hostWalkers));
    u(gmmuPwQueue);
    u(hostPwQueue);
    u(pwcEntries);
    u(static_cast<std::uint64_t>(pwcKind));
    for (const ic::LinkConfig *l : {&hostLink, &peerLink}) {
        u(l->latency);
        d(l->bytesPerCycle);
    }
    u(static_cast<std::uint64_t>(peerTopology));
    u(static_cast<std::uint64_t>(meshCols));
    u(static_cast<std::uint64_t>(switchRadix));
    u(static_cast<std::uint64_t>(hostShards));
    u(prewarmPlacement);
    u(static_cast<std::uint64_t>(faultMode));
    u(static_cast<std::uint64_t>(migrationPolicy));
    u(remoteMapMigrateThreshold);
    u(faultFixedCost);
    u(shootdownCost);
    u(replayCost);
    u(driverBatchSize);
    u(driverBatchWindow);
    u(driverBatchFixedCost);
    u(driverPerFaultCost);
    u(static_cast<std::uint64_t>(driverWalkThreads));
    u(transFw.enabled);
    u(transFw.enableShortCircuit);
    u(transFw.enableForwarding);
    d(transFw.forwardThreshold);
    u(transFw.prtBuckets);
    u(transFw.prtSlotsPerBucket);
    u(transFw.prtFingerprintBits);
    u(transFw.ftBuckets);
    u(transFw.ftSlotsPerBucket);
    u(transFw.ftFingerprintBits);
    u(transFw.vpnMaskBits);
    u(transFw.ftReplicated);
    u(asap.enabled);
    d(asap.accuracy);
    u(leastTlb.enabled);
    u(leastTlb.remoteProbeLatency);
    u(oracle.infinitePwc);
    u(oracle.infiniteWalkers);
    u(oracle.zeroMigrationCost);
    u(oracle.noLocalFaults);
    u(obs.sampleInterval);
    u(obs.selfProfile);
    u(obs.profileStride);
    u(seed);
    return k;
}

void
SystemConfig::validate() const
{
    if (numGpus < 1 || numGpus > 64)
        sim::fatal("numGpus must be in [1, 64]");
    if (cusPerGpu < 1)
        sim::fatal("cusPerGpu must be positive");
    if (wavefrontSlotsPerCu < 1)
        sim::fatal("wavefrontSlotsPerCu must be positive");
    if (pageTableLevels != 4 && pageTableLevels != 5)
        sim::fatal("pageTableLevels must be 4 or 5");
    if (pageShift != mem::kSmallPageShift &&
        pageShift != mem::kLargePageShift)
        sim::fatal("pageShift must select 4 KB or 2 MB pages");
    if (gmmuWalkers < 1 || hostWalkers < 1)
        sim::fatal("walker counts must be positive");
    if (pwcEntries < 1)
        sim::fatal("pwcEntries must be positive");
    if (!std::isfinite(transFw.forwardThreshold) ||
        transFw.forwardThreshold < 0)
        sim::fatal("forwardThreshold must be a finite number >= 0");
    if (!(asap.accuracy >= 0 && asap.accuracy <= 1))
        sim::fatal("asap.accuracy must be in [0, 1]");
    if (hostShards < 1 || hostShards > 64)
        sim::fatal("hostShards must be in [1, 64]");
    if (hostShards > 1 && faultMode == FaultMode::UvmDriver)
        sim::fatal("hostShards > 1 models sharded IOMMU hardware; the "
                   "software UVM driver path is unsharded");
    if (meshCols < 0)
        sim::fatal("meshCols must be non-negative (0 = auto)");
    if (peerTopology == ic::Topology::Mesh2D && meshCols > 0 &&
        meshCols > numGpus)
        sim::fatal("meshCols exceeds numGpus");
    if (switchRadix < 1)
        sim::fatal("switchRadix must be positive");
    // ic::Link::send divides a message's size by the link bandwidth.
    if (!(std::isfinite(hostLink.bytesPerCycle) &&
          hostLink.bytesPerCycle > 0))
        sim::fatal("hostLink.bytesPerCycle must be a finite number > 0");
    if (!(std::isfinite(peerLink.bytesPerCycle) &&
          peerLink.bytesPerCycle > 0))
        sim::fatal("peerLink.bytesPerCycle must be a finite number > 0");
    if (transFw.ftReplicated && hostShards == 1)
        sim::warn("ftReplicated has no effect with a single host shard");
    if (numGpus > 32 && faultMode == FaultMode::UvmDriver)
        sim::warn("UVM driver beyond 32 GPUs is far outside the "
                  "calibrated range");
}

} // namespace transfw::cfg

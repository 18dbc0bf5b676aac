#include "transfw/forwarding_table.hpp"

namespace transfw::core {

ForwardingTable::ForwardingTable(const cfg::TransFwConfig &config)
    : maskBits_(config.vpnMaskBits),
      filter_({.numBuckets = config.ftBuckets,
               .slotsPerBucket = config.ftSlotsPerBucket,
               .fingerprintBits = config.ftFingerprintBits,
               .maxKicks = 500,
               .seed = 0x4654'0000ULL})
{}

void
ForwardingTable::pageArrived(mem::Vpn vpn, int owner)
{
    std::uint64_t k = key(vpn, owner);
    if (refCount_[k]++ == 0)
        filter_.insert(k);
}

void
ForwardingTable::pageDeparted(mem::Vpn vpn, int owner)
{
    std::uint64_t k = key(vpn, owner);
    auto it = refCount_.find(k);
    if (it == refCount_.end() || it->second == 0)
        return;
    if (--it->second == 0) {
        filter_.erase(k);
        refCount_.erase(it);
    }
}

std::optional<int>
ForwardingTable::findOwner(mem::Vpn vpn, int num_gpus, int exclude_gpu)
{
    ++lookups_;
    // Skew tracker: lookups at VPN-group granularity — the same unit
    // the shard hash partitions on, so the sketch's heavy hitters are
    // exactly the groups that keep the hot shard hot.
    if (hotGroups_)
        hotGroups_->note(vpn >> maskBits_);
    int candidates[64];
    int n = 0;
    for (int gpu = 0; gpu < num_gpus; ++gpu) {
        if (gpu == exclude_gpu)
            continue;
        std::uint64_t k = key(vpn, gpu);
        ++probes_;
        if (filter_.contains(k)) {
            candidates[n++] = gpu;
            // Observed false positive: no live reference behind the
            // fingerprint. Observability tap only — the forward still
            // goes out and fails the hardware way.
            if (refCount_.find(k) == refCount_.end())
                ++falsePositives_;
        }
    }
    if (n == 0)
        return std::nullopt;
    ++hits_;
    return candidates[rng_.range(static_cast<std::uint64_t>(n))];
}

} // namespace transfw::core

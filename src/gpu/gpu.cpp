#include "gpu/gpu.hpp"

#include <algorithm>
#include <bit>

#include "sim/logging.hpp"

namespace transfw::gpu {

Gpu::Gpu(sim::EventQueue &eq, const cfg::SystemConfig &config, int gpu_id,
         sim::Rng &rng)
    : SimObject(eq, sim::strfmt("gpu%d", gpu_id)), cfg_(config),
      id_(gpu_id), vpnShift_(config.pageShift - mem::kSmallPageShift),
      rng_(rng), pt_(config.geometry()),
      frames_(config.gpuMemBytes, config.pageShift),
      l2tlb_(sim::strfmt("gpu%d.l2tlb", gpu_id), config.l2Tlb),
      l1Mshrs_(static_cast<std::size_t>(config.cusPerGpu)),
      gmmu_(eq, sim::strfmt("gpu%d.gmmu", gpu_id), config, gpu_id, pt_,
            rng)
{
    for (int cu = 0; cu < config.cusPerGpu; ++cu) {
        l1tlbs_.push_back(std::make_unique<tlb::Tlb>(
            sim::strfmt("gpu%d.cu%d.l1tlb", gpu_id, cu), config.l1Tlb));
    }
    if (config.memModel == cfg::MemModel::Hierarchy) {
        memHierarchy_ = std::make_unique<mem::GpuMemoryHierarchy>(
            eq, sim::strfmt("gpu%d.mem", gpu_id), config.memHierarchy,
            config.cusPerGpu);
        // One cursor per resident page at most; pre-size to the frame
        // pool so the map never rehashes mid-run (capped for
        // huge-memory cfgs).
        lineCursor_.reserve(static_cast<std::size_t>(
            std::min<std::uint64_t>(frames_.capacity(), 1u << 16)));
    }
    if (config.transFw.enabled) {
        prt_ = std::make_unique<core::PendingRequestTable>(config.transFw,
                                                           gpu_id);
    }
    trackL1Residency_ = config.cusPerGpu <= 64;

    gmmu_.onComplete = [this](mmu::XlatPtr req) { finishTranslation(req); };
    gmmu_.onFault = [this](mmu::XlatPtr req) { hooks.sendFault(req); };
}

void
Gpu::access(int cu, int slot, mem::Vpn vpn4k, bool write)
{
    mem::Vpn vpn = vpn4k >> vpnShift_;
    ++stats_.accesses;
    if (hooks.onPageAccess)
        hooks.onPageAccess(vpn, id_, write);

    schedule(cfg_.l1Tlb.lookupLatency, [this, cu, slot, vpn, write]() {
        tlb::Tlb &l1 = *l1tlbs_[static_cast<std::size_t>(cu)];
        const tlb::TlbEntry *entry = l1.lookup(vpn);
        if (entry) {
            if (write && !entry->writable) {
                // Stale read-only entry under a write: drop it and take
                // the miss path, which raises the protection fault.
                if (l1.invalidate(vpn))
                    noteL1Erased(cu, vpn);
            } else {
                dataAccess(cu, slot, vpn, *entry, write);
                return;
            }
        }
        bool primary = l1Mshrs_[static_cast<std::size_t>(cu)].allocate(
            vpn, L1Waiter{write, slot});
        if (primary)
            lookupL2(cu, vpn, write);
    });
}

void
Gpu::lookupL2(int cu, mem::Vpn vpn, bool write)
{
    schedule(cfg_.l2Tlb.lookupLatency, [this, cu, vpn, write]() {
        const tlb::TlbEntry *entry = l2tlb_.lookup(vpn);
        if (entry) {
            if (write && !entry->writable) {
                l2tlb_.invalidate(vpn);
            } else {
                deliverToL1(cu, vpn, *entry);
                return;
            }
        }
        bool primary = l2Mshr_.allocate(vpn, cu);
        if (primary)
            startTranslation(cu, vpn, write);
    });
}

void
Gpu::startTranslation(int cu, mem::Vpn vpn, bool write)
{
    ++stats_.l2Misses;
    mmu::XlatPtr req = mmu::makeRequest();
    req->id = nextReqId_++;
    req->vpn = vpn;
    req->gpu = id_;
    req->cu = cu;
    req->isWrite = write;
    req->tIssue = curTick();
    if (attrib_)
        attrib_->begin(req->lat, id_, req->id, req->vpn, curTick());

    if (prt_ && cfg_.transFw.enableShortCircuit) {
        // Trans-FW short circuit (Section IV-B): a PRT miss means the
        // page is definitely not local, so skip the GMMU walk entirely.
        mmu::charge(*req, attrib_, obs::AttribBucket::PrtLookup, 1.0,
                    curTick()); // PRT lookup cycle
        schedule(1, [this, req]() {
            if (prt_->mayBeLocal(req->vpn)) {
                gmmu_.translate(req);
            } else {
                ++stats_.shortCircuits;
                req->shortCircuited = true;
                req->faulted = true;
                if (attrib_) {
                    // The skipped work: a full local walk plus the
                    // fault bookkeeping before it left the GPU anyway.
                    double est = static_cast<double>(
                        cfg_.pageTableLevels * cfg_.memLatency +
                        cfg_.faultFixedCost);
                    attrib_->shortCircuited(req->lat, est, curTick());
                }
                hooks.sendFault(req);
            }
        });
        return;
    }

    if (cfg_.leastTlb.enabled && hooks.probeSiblingL2) {
        // Least-TLB-style sharing-aware lookup: consult sibling GPUs'
        // L2 TLBs before burning a local walker.
        schedule(cfg_.leastTlb.remoteProbeLatency, [this, req]() {
            mmu::charge(
                *req, attrib_, obs::AttribBucket::LeastTlbProbe,
                static_cast<double>(cfg_.leastTlb.remoteProbeLatency),
                req->tIssue);
            const tlb::TlbEntry *entry =
                hooks.probeSiblingL2(req->vpn, id_);
            if (entry && !entry->remote && (!req->isWrite ||
                                            entry->writable)) {
                ++stats_.leastTlbRemoteHits;
                // A sibling translates this page, but the data still
                // lives where the entry says; treat a non-local owner
                // as a fault like any walk would.
                if (entry->owner == id_) {
                    req->result = *entry;
                    finishTranslation(req);
                    return;
                }
            }
            gmmu_.translate(req);
        });
        return;
    }

    gmmu_.translate(req);
}

void
Gpu::translationReturned(mmu::XlatPtr req)
{
    // Far-fault replay (the request re-executes after resolution).
    mmu::charge(*req, attrib_, obs::AttribBucket::Replay,
                static_cast<double>(cfg_.replayCost), curTick());
    schedule(cfg_.replayCost,
             [this, req]() { finishTranslation(req); });
}

void
Gpu::finishTranslation(const mmu::XlatPtr &req)
{
    double wall = static_cast<double>(curTick() - req->tIssue);
    stats_.xlatLatency.record(wall);
    stats_.xlatHist.record(wall);
    if (attrib_)
        attrib_->finish(req->lat, id_, req->id, req->shortCircuited,
                        curTick());

    l2tlb_.fill(req->vpn, req->result);
    for (int cu : l2Mshr_.release(req->vpn))
        deliverToL1(cu, req->vpn, req->result);
}

void
Gpu::deliverToL1(int cu, mem::Vpn vpn, const tlb::TlbEntry &entry)
{
    tlb::Tlb &l1 = *l1tlbs_[static_cast<std::size_t>(cu)];
    if (trackL1Residency_) {
        bool refresh = l1.probe(vpn) != nullptr; // stats/LRU-neutral
        auto evicted = l1.fill(vpn, entry);
        if (evicted)
            noteL1Erased(cu, evicted->first);
        if (!refresh)
            l1Resident_[vpn] |= std::uint64_t{1} << cu;
    } else {
        l1.fill(vpn, entry);
    }
    auto waiters =
        l1Mshrs_[static_cast<std::size_t>(cu)].release(vpn);
    for (const L1Waiter &waiter : waiters) {
        if (waiter.write && !entry.writable) {
            // The fill cannot satisfy a write to a read-only replica:
            // retry, which raises the protection-fault path.
            access(cu, waiter.slot, vpn << vpnShift_, true);
        } else {
            dataAccess(cu, waiter.slot, vpn, entry, waiter.write);
        }
    }
}

void
Gpu::dataAccess(int cu, int slot, mem::Vpn vpn, const tlb::TlbEntry &entry,
                bool write)
{
    auto done = [this, cu, slot]() {
        clients_[static_cast<std::size_t>(cu)]->pageDone(slot);
    };
    if (entry.remote && hooks.remoteAccessLatency) {
        ++stats_.remoteDataAccesses;
        schedule(hooks.remoteAccessLatency(vpn, entry, id_), done);
        return;
    }
    if (!memHierarchy_) {
        schedule(cfg_.memLatency, done);
        return;
    }
    // Detailed model: successive touches of a page sweep its cache
    // lines (coalesced wavefront accesses are line-granular), so page
    // re-visits find their lines in the data caches.
    std::uint64_t page_bytes = cfg_.geometry().pageBytes();
    std::uint32_t lines = static_cast<std::uint32_t>(page_bytes / 64);
    std::uint32_t line = lineCursor_[vpn]++ % lines;
    mem::PhysAddr addr =
        entry.ppn * page_bytes + static_cast<mem::PhysAddr>(line) * 64;
    memHierarchy_->access(cu, addr, write, done);
}

void
Gpu::noteL1Erased(int cu, mem::Vpn vpn)
{
    if (!trackL1Residency_)
        return;
    auto it = l1Resident_.find(vpn);
    if (it == l1Resident_.end())
        sim::panic("L1 residency mask out of sync");
    it->second &= ~(std::uint64_t{1} << cu);
    if (it->second == 0)
        l1Resident_.erase(it);
}

void
Gpu::invalidateTlbs(mem::Vpn vpn)
{
    l2tlb_.invalidate(vpn);
    if (!trackL1Residency_) {
        for (auto &l1 : l1tlbs_)
            l1->invalidate(vpn);
        return;
    }
    // The residency mask is exact, so probing only the CUs it names
    // changes nothing: every skipped L1 would find no line, bump no
    // stat, and touch no LRU state. Most shootdowns (ping-ponging
    // pages another GPU pulled away) find no holders at all.
    auto it = l1Resident_.find(vpn);
    if (it == l1Resident_.end())
        return;
    std::uint64_t mask = it->second;
    l1Resident_.erase(it);
    for (; mask; mask &= mask - 1) {
        auto cu = static_cast<std::size_t>(std::countr_zero(mask));
        if (!l1tlbs_[cu]->invalidate(vpn))
            sim::panic("L1 residency mask out of sync");
    }
}

void
Gpu::registerMetrics(obs::MetricRegistry &reg,
                     const std::string &prefix) const
{
    reg.registerGauge(prefix + ".accesses", [this] {
        return static_cast<double>(stats_.accesses);
    });
    reg.registerGauge(prefix + ".l2Misses", [this] {
        return static_cast<double>(stats_.l2Misses);
    });
    reg.registerGauge(prefix + ".shortCircuits", [this] {
        return static_cast<double>(stats_.shortCircuits);
    });
    reg.registerGauge(prefix + ".remoteDataAccesses", [this] {
        return static_cast<double>(stats_.remoteDataAccesses);
    });
    reg.registerHistogram(prefix + ".xlat", &stats_.xlatHist);
    l2tlb_.registerMetrics(reg, prefix + ".l2tlb");
    gmmu_.registerMetrics(reg, prefix + ".gmmu");
    if (prt_)
        prt_->registerMetrics(reg, prefix + ".prt");
}

} // namespace transfw::gpu

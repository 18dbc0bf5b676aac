#include "mmu/host_mmu.hpp"

#include "mmu/walk_timing.hpp"
#include "sim/logging.hpp"

namespace transfw::mmu {

HostMmu::HostMmu(sim::EventQueue &eq, const cfg::SystemConfig &config,
                 mem::PageTable &central, uvm::MigrationEngine &engine,
                 core::ForwardingTable *ft, std::vector<GpuIface *> gpus,
                 sim::Rng &rng, int shard, int num_shards)
    : SimObject(eq, num_shards > 1 ? sim::strfmt("host_mmu.s%d", shard)
                                   : "host_mmu"),
      cfg_(config), central_(central), engine_(engine), ft_(ft),
      gpus_(std::move(gpus)), rng_(rng),
      tlb_(num_shards > 1 ? sim::strfmt("host_mmu.s%d.tlb", shard)
                          : "host_mmu.tlb",
           config.hostTlb),
      pwc_(pwc::makePwc(config.oracle.infinitePwc ? pwc::PwcKind::Infinite
                                                  : config.pwcKind,
                        config.pwcEntries, config.geometry()))
{
    // Single-IOMMU mode wires the shootdown directly; a cluster routes
    // owner-change shootdowns to the responsible shard(s) itself.
    if (num_shards == 1)
        engine_.onOwnerChanged = [this](mem::Vpn vpn) {
            tlb_.invalidate(vpn);
        };
}

void
HostMmu::handleFault(XlatPtr req)
{
    // Every arriving fault is looked up and walked independently (the
    // IOMMU has no cross-GPU fault coalescing); only the *placement*
    // stage serializes per page, inside the MigrationEngine. Concurrent
    // faults on one hot page therefore contend for walkers — the host
    // PW-queue pressure Trans-FW's forwarding relieves.
    ++stats_.faults;
    admit(std::move(req));
}

void
HostMmu::admit(XlatPtr req)
{
    charge(*req, attrib_, obs::AttribBucket::HostTlb,
           static_cast<double>(tlb_.lookupLatency()), curTick());
    schedule(tlb_.lookupLatency(), [this, req = std::move(req)]() mutable {
        obs::ProfScope prof(profiler_, obs::ProfBucket::HostMmu);
        // Fig. 8 characterization: could the owner GPU's PW-cache have
        // served (a prefix of) this translation?
        if (const mem::PageInfo *pi = central_.lookup(req->vpn)) {
            if (pi->owner != mem::kCpuDevice && pi->owner != req->gpu) {
                int level =
                    gpus_[static_cast<std::size_t>(pi->owner)]
                        ->gmmuPwc()
                        .probe(req->vpn);
                stats_.remoteProbeLevels.record(
                    static_cast<std::size_t>(level));
            }
        }

        const tlb::TlbEntry *hit = tlb_.lookup(req->vpn);
        if (hit) {
            ++stats_.tlbHits;
            translationKnown(std::move(req), *hit);
            return;
        }

        // Trans-FW: FT probed in parallel with the TLB; forward when
        // the PW-queue is congested past the threshold.
        bool no_free_walker =
            busyWalkers_ >= cfg_.hostWalkers && !cfg_.oracle.infiniteWalkers;
        if (ft_ && forwardToGpu && cfg_.transFw.enableForwarding &&
            no_free_walker &&
            queue_.size() >= cfg_.forwardQueueTrigger()) {
            obs::ProfScope fwdProf(profiler_,
                                   obs::ProfBucket::Forwarding);
            if (auto owner =
                    ft_->findOwner(req->vpn, static_cast<int>(gpus_.size()),
                                   req->gpu)) {
                ++stats_.forwards;
                req->remoteForwarded = true;
                RemoteLookupPtr rl = makeRemoteLookup();
                rl->req = req;
                rl->targetGpu = *owner;
                if (attrib_)
                    attrib_->forwardLaunched(req->lat, curTick());
                forwardToGpu(std::move(rl));
            }
        }

        if (cfg_.oracle.infiniteWalkers) {
            startWalk(std::move(req));
            return;
        }
        queue_.push_back(QueueEntry{std::move(req), curTick()});
        stats_.maxQueueDepth =
            std::max(stats_.maxQueueDepth, queue_.size());
        if (queue_.size() > cfg_.hostPwQueue)
            ++stats_.queueOverflows;
        tryDispatch();
    });
}

void
HostMmu::tryDispatch()
{
    while (busyWalkers_ < cfg_.hostWalkers && !queue_.empty()) {
        QueueEntry entry = std::move(queue_.front());
        queue_.pop_front();
        if (entry.req->hostWalkCancelled || entry.req->translationResolved) {
            // Pulled out by a successful remote lookup (Section IV-C).
            ++stats_.removedFromQueue;
            if (attrib_ && entry.req->hostWalkCancelled) {
                // The loser never started; estimate the walk it skipped.
                attrib_->hostWalkCancelled(
                    entry.req->lat,
                    static_cast<double>(cfg_.pageTableLevels *
                                        cfg_.memLatency),
                    curTick());
            }
            continue;
        }
        sim::Tick wait = curTick() - entry.enqueued;
        stats_.queueWait.record(static_cast<double>(wait));
        charge(*entry.req, attrib_, obs::AttribBucket::HostQueue,
               static_cast<double>(wait), entry.enqueued);
        startWalk(std::move(entry.req));
    }
}

void
HostMmu::startWalk(XlatPtr req)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::HostMmu);
    ++busyWalkers_;
    ++stats_.walks;
    int hit_level;
    {
        obs::ProfScope pwcProf(profiler_, obs::ProfBucket::TlbPwc);
        hit_level = pwc_->lookup(req->vpn);
    }
    mem::WalkResult walk;
    {
        obs::ProfScope walkProf(profiler_, obs::ProfBucket::PageWalk);
        walk = central_.walk(req->vpn, hit_level);
    }
    if (!walk.present)
        sim::panic("central page table is missing a UVM page");
    WalkTiming timing = walkTiming(walk.accesses, cfg_.asap, rng_);
    stats_.memAccesses +=
        static_cast<std::uint64_t>(timing.countedAccesses);
    charge(*req, attrib_, obs::AttribBucket::HostWalkMem,
           static_cast<double>(timing.serialAccesses * cfg_.memLatency),
           curTick());

    sim::Tick latency =
        static_cast<sim::Tick>(timing.serialAccesses) * cfg_.memLatency;
    schedule(latency, [this, req = std::move(req), walk,
                       hit_level]() mutable {
        obs::ProfScope prof(profiler_, obs::ProfBucket::HostMmu);
        {
            obs::ProfScope pwcProf(profiler_, obs::ProfBucket::TlbPwc);
            int start_node =
                hit_level ? hit_level - 1 : central_.geometry().levels;
            for (int level = walk.deepestFilled; level <= start_node;
                 ++level) {
                if (level >= central_.geometry().lowestCachedLevel())
                    pwc_->fill(req->vpn, level);
            }
        }
        --busyWalkers_;
        tryDispatch();

        tlb::TlbEntry entry{walk.info.ppn, walk.info.owner,
                            walk.info.writable, false};
        tlb_.fill(req->vpn, entry);

        if (req->translationResolved) {
            // A remote lookup won the race; this walk was the
            // replicated work Fig. 14 quantifies.
            ++stats_.duplicateWalks;
            if (attrib_)
                attrib_->hostWalkDone(req->lat, true, curTick());
            return;
        }
        translationKnown(std::move(req), entry);
    });
}

void
HostMmu::remoteLookupDone(RemoteLookupPtr rl)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::Forwarding);
    XlatPtr req = rl->req;
    if (!rl->success) {
        ++stats_.forwardFail;
        if (attrib_)
            attrib_->forwardOutcome(req->lat, false, false, 0, curTick());
        return; // the host walk proceeds as queued
    }
    ++stats_.forwardSuccess;
    if (req->translationResolved) {
        if (attrib_)
            attrib_->forwardOutcome(req->lat, true, false, 0, curTick());
        return; // host walk already finished first
    }
    if (attrib_)
        attrib_->forwardOutcome(req->lat, true, true, 0, curTick());
    req->hostWalkCancelled = true;
    req->resolvedByRemote = true;
    // The remote GPU supplied (ppn, owner) from its own table.
    translationKnown(std::move(req), rl->result);
}

void
HostMmu::translationKnown(XlatPtr req, const tlb::TlbEntry &entry)
{
    req->translationResolved = true;
    (void)entry; // placement decisions read the central entry directly
    engine_.resolve(req, [this, req](const tlb::TlbEntry &final_entry) {
        finishFault(req, final_entry);
    });
}

void
HostMmu::finishFault(XlatPtr req, const tlb::TlbEntry &entry)
{
    req->result = entry;
    onResolved(std::move(req));
}

void
HostMmu::registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix) const
{
    reg.registerGauge(prefix + ".faults", [this] {
        return static_cast<double>(stats_.faults);
    });
    reg.registerGauge(prefix + ".tlbHits", [this] {
        return static_cast<double>(stats_.tlbHits);
    });
    reg.registerGauge(prefix + ".walks", [this] {
        return static_cast<double>(stats_.walks);
    });
    reg.registerGauge(prefix + ".memAccesses", [this] {
        return static_cast<double>(stats_.memAccesses);
    });
    reg.registerGauge(prefix + ".forwards", [this] {
        return static_cast<double>(stats_.forwards);
    });
    reg.registerGauge(prefix + ".forwardSuccess", [this] {
        return static_cast<double>(stats_.forwardSuccess);
    });
    reg.registerGauge(prefix + ".forwardFail", [this] {
        return static_cast<double>(stats_.forwardFail);
    });
    reg.registerGauge(prefix + ".duplicateWalks", [this] {
        return static_cast<double>(stats_.duplicateWalks);
    });
    reg.registerGauge(prefix + ".removedFromQueue", [this] {
        return static_cast<double>(stats_.removedFromQueue);
    });
    reg.registerGauge(prefix + ".queueDepth", [this] {
        return static_cast<double>(queue_.size());
    });
    reg.registerGauge(prefix + ".queueOverflows", [this] {
        return static_cast<double>(stats_.queueOverflows);
    });
    reg.registerGauge(prefix + ".queueWaitMean",
                      [this] { return stats_.queueWait.mean(); });
    // Forwarding-threshold crossing indicator: 1 while the PW-queue sits
    // at or past the Section IV-C forwarding trigger — sampled over time
    // this shows *when* the congestion that drives forwarding occurs.
    reg.registerGauge(prefix + ".queueAboveTrigger", [this] {
        return queue_.size() >= cfg_.forwardQueueTrigger() ? 1.0 : 0.0;
    });
    tlb_.registerMetrics(reg, prefix + ".tlb");
    pwc_->registerMetrics(reg, prefix + ".pwc");
}

} // namespace transfw::mmu

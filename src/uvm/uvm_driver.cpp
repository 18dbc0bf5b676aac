#include "uvm/uvm_driver.hpp"

#include "sim/logging.hpp"

namespace transfw::uvm {

UvmDriver::UvmDriver(sim::EventQueue &eq, const cfg::SystemConfig &config,
                     mem::PageTable &central, MigrationEngine &engine,
                     core::FtCluster *ft, sim::Rng &rng)
    : SimObject(eq, "uvm_driver"), cfg_(config), central_(central),
      engine_(engine), ft_(ft), rng_(rng),
      pwc_(pwc::makePwc(config.oracle.infinitePwc ? pwc::PwcKind::Infinite
                                                  : config.pwcKind,
                        config.pwcEntries, config.geometry()))
{}

void
UvmDriver::handleFault(mmu::XlatPtr req)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::HostMmu);
    ++stats_.faults;

    auto it = inflight_.find(req->vpn);
    if (it != inflight_.end()) {
        ++stats_.coalesced;
        it->second.push_back(std::move(req));
        return;
    }
    inflight_.emplace(req->vpn, std::vector<mmu::XlatPtr>{});

    buffer_.push_back(std::move(req));
    if (buffer_.size() >= cfg_.driverBatchSize) {
        sealBatch();
    } else if (!flushScheduled_) {
        flushScheduled_ = true;
        std::uint64_t epoch = flushEpoch_;
        schedule(cfg_.driverBatchWindow, [this, epoch]() {
            if (epoch == flushEpoch_ && !buffer_.empty())
                sealBatch();
        });
    }
}

void
UvmDriver::sealBatch()
{
    ++flushEpoch_;
    flushScheduled_ = false;
    Batch batch;
    batch.faults = std::move(buffer_);
    batch.sealed = curTick();
    buffer_.clear();
    batchQueue_.push_back(std::move(batch));
    processNextBatch();
}

void
UvmDriver::processNextBatch()
{
    if (processing_)
        return;
    // Drain-all-pending: when the driver goes idle with faults already
    // buffered, seal them immediately instead of waiting out the batch
    // window — batch sizes adapt to the arrival rate, as in the real
    // driver's fault-servicing loop.
    if (batchQueue_.empty() && !buffer_.empty()) {
        sealBatch();
        return;
    }
    if (batchQueue_.empty())
        return;
    processing_ = true;
    ++stats_.batches;
    Batch batch = std::move(batchQueue_.front());
    batchQueue_.pop_front();
    stats_.batchSize.record(static_cast<double>(batch.faults.size()));
    batchStart_ = curTick();

    // Per-batch software overhead: fetching the fault buffer, sorting
    // and deduplicating the batch, taking the VA-space lock.
    schedule(cfg_.driverBatchFixedCost,
             [this, batch = std::move(batch)]() mutable {
                 for (auto &req : batch.faults)
                     walkQueue_.push_back(std::move(req));
                 dispatchWalks();
             });
}

void
UvmDriver::dispatchWalks()
{
    while (busyThreads_ < cfg_.driverWalkThreads && !walkQueue_.empty()) {
        mmu::XlatPtr req = std::move(walkQueue_.front());
        walkQueue_.pop_front();
        sim::Tick wait = curTick() - req->tHostArrive;
        charge(*req, attrib_, obs::AttribBucket::HostQueue,
               static_cast<double>(wait), req->tHostArrive);
        startWalk(std::move(req));
    }
    if (walkQueue_.empty() && processing_) {
        // All of this batch's faults are dispatched; the walks pipeline
        // into the next batch (the driver lock covers the fault-buffer
        // bookkeeping, not the walks), and migrations continue
        // asynchronously via DMA.
        processing_ = false;
        stats_.batchLatency.record(
            static_cast<double>(curTick() - batchStart_));
        processNextBatch();
    }
}

void
UvmDriver::startWalk(mmu::XlatPtr req)
{
    ++outstandingWalks_;
    ++busyThreads_;

    if (ft_ && forwardToGpu && cfg_.transFw.enableForwarding &&
        !req->remoteForwarded) {
        // Trans-FW on driver faults: the FT lives in CPU memory; one
        // memory access probes it before committing a software walk.
        charge(*req, attrib_, obs::AttribBucket::FtProbe,
               static_cast<double>(cfg_.memLatency), curTick());
        schedule(cfg_.memLatency, [this, req]() mutable {
            obs::ProfScope prof(profiler_,
                                obs::ProfBucket::Forwarding);
            auto owner =
                ft_->findOwner(req->vpn, cfg_.numGpus, req->gpu);
            if (owner) {
                ++stats_.forwards;
                req->remoteForwarded = true;
                mmu::RemoteLookupPtr rl = mmu::makeRemoteLookup();
                rl->req = req;
                rl->targetGpu = *owner;
                if (attrib_)
                    attrib_->forwardLaunched(req->lat, curTick());
                // Handed off: the thread is released and the fault no
                // longer gates this batch — the remote GPU completes it
                // asynchronously via remoteLookupDone().
                --busyThreads_;
                --outstandingWalks_;
                forwardToGpu(std::move(rl));
                dispatchWalks();
                return;
            }
            // FT miss: software walk on this thread.
            softwareWalk(std::move(req));
        });
        return;
    }

    softwareWalk(std::move(req));
}

void
UvmDriver::softwareWalk(mmu::XlatPtr req)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::HostMmu);
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
    sim::Tick latency =
        cfg_.driverPerFaultCost +
        static_cast<sim::Tick>(walk.accesses) * cfg_.memLatency;
    charge(*req, attrib_, obs::AttribBucket::HostWalkMem,
           static_cast<double>(latency), curTick());
    int start_node =
        hit_level ? hit_level - 1 : central_.geometry().levels;
    schedule(latency, [this, req, walk, start_node]() mutable {
        obs::ProfScope prof(profiler_, obs::ProfBucket::HostMmu);
        {
            obs::ProfScope pwcProf(profiler_, obs::ProfBucket::TlbPwc);
            for (int level = walk.deepestFilled; level <= start_node;
                 ++level) {
                if (level >= central_.geometry().lowestCachedLevel())
                    pwc_->fill(req->vpn, level);
            }
        }
        walkDone(std::move(req));
    });
}

void
UvmDriver::walkDone(mmu::XlatPtr req)
{
    ++stats_.walks;
    --busyThreads_;
    --outstandingWalks_;
    req->translationResolved = true;
    engine_.resolve(req, [this, req](const tlb::TlbEntry &entry) {
        req->result = entry;
        resolved(std::move(req));
    });
    dispatchWalks();
}

void
UvmDriver::remoteLookupDone(mmu::RemoteLookupPtr rl)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::Forwarding);
    mmu::XlatPtr req = rl->req;
    if (!rl->success) {
        // FT false positive: fall back to a software walk (the
        // remoteForwarded flag keeps startWalk from re-forwarding). The
        // walk queue wait restarts now: the first wait, the FT probe
        // and the forward's round trip are charged already.
        ++stats_.forwardFail;
        if (attrib_)
            attrib_->forwardOutcome(req->lat, false, false, 0, curTick());
        req->tHostArrive = curTick();
        walkQueue_.push_back(std::move(req));
        dispatchWalks();
        return;
    }
    ++stats_.forwardSuccess;
    if (attrib_) {
        // No software walk races a driver forward: success wins
        // outright, saving the estimated per-fault handling + walk.
        double est = static_cast<double>(
            cfg_.driverPerFaultCost +
            static_cast<sim::Tick>(cfg_.pageTableLevels) *
                cfg_.memLatency);
        attrib_->forwardOutcome(req->lat, true, true, est, curTick());
    }
    req->translationResolved = true;
    // The owner GPU pushes the page and replies to the requester
    // directly, exactly as on the hardware path.
    req->resolvedByRemote = true;
    engine_.resolve(req, [this, req](const tlb::TlbEntry &entry) {
        req->result = entry;
        resolved(std::move(req));
    });
    dispatchWalks();
}

void
UvmDriver::resolved(mmu::XlatPtr req)
{
    auto it = inflight_.find(req->vpn);
    if (it != inflight_.end()) {
        std::vector<mmu::XlatPtr> waiters = std::move(it->second);
        inflight_.erase(it);
        for (auto &waiter : waiters) {
            schedule(1, [this, waiter]() mutable {
                --stats_.faults; // re-dispatch, not a new fault
                handleFault(std::move(waiter));
            });
        }
    }
    onResolved(std::move(req));
}

void
UvmDriver::registerMetrics(obs::MetricRegistry &reg,
                           const std::string &prefix) const
{
    reg.registerGauge(prefix + ".faults", [this] {
        return static_cast<double>(stats_.faults);
    });
    reg.registerGauge(prefix + ".coalesced", [this] {
        return static_cast<double>(stats_.coalesced);
    });
    reg.registerGauge(prefix + ".batches", [this] {
        return static_cast<double>(stats_.batches);
    });
    reg.registerGauge(prefix + ".walks", [this] {
        return static_cast<double>(stats_.walks);
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
    reg.registerGauge(prefix + ".batchSizeMean",
                      [this] { return stats_.batchSize.mean(); });
    reg.registerGauge(prefix + ".batchLatencyMean",
                      [this] { return stats_.batchLatency.mean(); });
    reg.registerGauge(prefix + ".bufferedFaults", [this] {
        return static_cast<double>(buffer_.size());
    });
    reg.registerGauge(prefix + ".walkQueueDepth", [this] {
        return static_cast<double>(walkQueue_.size());
    });
    reg.registerGauge(prefix + ".busyThreads", [this] {
        return static_cast<double>(busyThreads_);
    });
    reg.registerGauge(prefix + ".inflight.loadFactor",
                      [this] { return inflight_.loadFactor(); });
    reg.registerGauge(prefix + ".inflight.tombstones", [this] {
        return static_cast<double>(inflight_.tombstones());
    });
    pwc_->registerMetrics(reg, prefix + ".pwc");
}

} // namespace transfw::uvm

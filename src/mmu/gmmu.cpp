#include "mmu/gmmu.hpp"

#include "mmu/walk_timing.hpp"
#include "sim/logging.hpp"

namespace transfw::mmu {

Gmmu::Gmmu(sim::EventQueue &eq, std::string name,
           const cfg::SystemConfig &config, int gpu_id,
           mem::PageTable &pt, sim::Rng &rng)
    : SimObject(eq, std::move(name)), cfg_(config), gpuId_(gpu_id),
      pt_(pt), rng_(rng),
      pwc_(pwc::makePwc(config.oracle.infinitePwc ? pwc::PwcKind::Infinite
                                                  : config.pwcKind,
                        config.pwcEntries, config.geometry()))
{}

void
Gmmu::translate(XlatPtr req)
{
    ++stats_.localWalks;
    enqueue(Job{std::move(req), nullptr, curTick()});
}

void
Gmmu::remoteLookup(RemoteLookupPtr rl)
{
    ++stats_.remoteLookups;
    enqueue(Job{nullptr, std::move(rl), curTick()});
}

void
Gmmu::enqueue(Job job)
{
    if (cfg_.oracle.infiniteWalkers) {
        startWalk(std::move(job));
        return;
    }
    job.overflowed = queue_.size() >= cfg_.gmmuPwQueue;
    queue_.push_back(std::move(job));
    stats_.maxQueueDepth = std::max(stats_.maxQueueDepth, queue_.size());
    if (queue_.size() > cfg_.gmmuPwQueue)
        ++stats_.queueOverflows;
    tryDispatch();
}

void
Gmmu::tryDispatch()
{
    while (busyWalkers_ < cfg_.gmmuWalkers && !queue_.empty()) {
        Job job = std::move(queue_.front());
        queue_.pop_front();
        startWalk(std::move(job));
    }
}

void
Gmmu::startWalk(Job job)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::Gmmu);
    sim::Tick wait = curTick() - job.enqueued;
    stats_.queueWait.record(static_cast<double>(wait));
    if (job.local) {
        charge(*job.local, attrib_,
               job.overflowed ? obs::AttribBucket::L2TlbQueue
                              : obs::AttribBucket::GmmuQueue,
               static_cast<double>(wait), job.enqueued);
    } else {
        // Remote GMMU contention is part of the fault-handling path but
        // not a host PW-queue wait; Fig. 3 buckets it as "other".
        charge(*job.remote->req, attrib_, obs::AttribBucket::RemoteWalk,
               static_cast<double>(wait), job.enqueued);
    }

    ++busyWalkers_;
    mem::Vpn vpn = job.local ? job.local->vpn : job.remote->req->vpn;
    int hit_level;
    {
        obs::ProfScope pwcProf(profiler_, obs::ProfBucket::TlbPwc);
        hit_level = pwc_->lookup(vpn);
    }
    mem::WalkResult walk;
    {
        obs::ProfScope walkProf(profiler_, obs::ProfBucket::PageWalk);
        walk = pt_.walk(vpn, hit_level);
    }
    WalkTiming timing = walkTiming(walk.accesses, cfg_.asap, rng_);

    if (job.local) {
        stats_.memAccesses +=
            static_cast<std::uint64_t>(timing.countedAccesses);
        charge(*job.local, attrib_, obs::AttribBucket::GmmuWalkMem,
               static_cast<double>(timing.serialAccesses *
                                   cfg_.memLatency),
               curTick());
    } else {
        stats_.remoteMemAccesses +=
            static_cast<std::uint64_t>(timing.countedAccesses);
        charge(*job.remote->req, attrib_, obs::AttribBucket::RemoteWalk,
               static_cast<double>(timing.serialAccesses *
                                   cfg_.memLatency),
               curTick());
    }

    sim::Tick walk_latency =
        static_cast<sim::Tick>(timing.serialAccesses) * cfg_.memLatency;
    // Moving the job into the lambda keeps the request alive even if
    // the caller drops its reference.
    schedule(walk_latency,
             [this, job = std::move(job), walk, hit_level]() mutable {
                 finishWalk(std::move(job), walk, hit_level);
             });
}

void
Gmmu::finishWalk(Job job, const mem::WalkResult &walk, int hit_level)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::Gmmu);
    // Fill the PW-cache with every intermediate entry this walk read
    // with a present entry (levels between the PW-cache hit point and
    // the deepest present level).
    int start_node = hit_level ? hit_level - 1
                               : pt_.geometry().levels;
    if (walk.deepestFilled >= pt_.geometry().lowestCachedLevel()) {
        obs::ProfScope pwcProf(profiler_, obs::ProfBucket::TlbPwc);
        int top = std::min(start_node, pt_.geometry().levels);
        for (int level = walk.deepestFilled; level <= top; ++level) {
            if (level >= pt_.geometry().lowestCachedLevel())
                pwc_->fill(job.local ? job.local->vpn
                                     : job.remote->req->vpn,
                           level);
        }
    }

    --busyWalkers_;
    tryDispatch();

    if (job.local) {
        XlatPtr req = std::move(job.local);
        if (walk.present && !walk.info.remote &&
            walk.info.owner != gpuId_) {
            sim::panic("local page table maps a non-local page without "
                       "the remote bit");
        }
        if (walk.present) {
            req->result = tlb::TlbEntry{walk.info.ppn, walk.info.owner,
                                        walk.info.writable,
                                        walk.info.remote};
            if (req->isWrite && !walk.info.writable) {
                // Write hit on a read-only replica: protection fault.
                req->protectionFault = true;
                ++stats_.localFaults;
                req->faulted = true;
                onFault(req);
                return;
            }
            onComplete(req);
        } else {
            ++stats_.localFaults;
            req->faulted = true;
            charge(*req, attrib_, obs::AttribBucket::FaultFixed,
                   static_cast<double>(cfg_.faultFixedCost), curTick());
            schedule(cfg_.faultFixedCost,
                     [this, req]() { onFault(req); });
        }
        return;
    }

    RemoteLookupPtr rl = std::move(job.remote);
    rl->success = walk.present && !walk.info.remote;
    if (rl->success) {
        ++stats_.remoteHits;
        rl->result = tlb::TlbEntry{walk.info.ppn, walk.info.owner,
                                   walk.info.writable, false};
    }
    onRemoteDone(rl);
}

void
Gmmu::registerMetrics(obs::MetricRegistry &reg,
                      const std::string &prefix) const
{
    reg.registerGauge(prefix + ".localWalks", [this] {
        return static_cast<double>(stats_.localWalks);
    });
    reg.registerGauge(prefix + ".localFaults", [this] {
        return static_cast<double>(stats_.localFaults);
    });
    reg.registerGauge(prefix + ".remoteLookups", [this] {
        return static_cast<double>(stats_.remoteLookups);
    });
    reg.registerGauge(prefix + ".remoteHits", [this] {
        return static_cast<double>(stats_.remoteHits);
    });
    reg.registerGauge(prefix + ".memAccesses", [this] {
        return static_cast<double>(stats_.memAccesses);
    });
    reg.registerGauge(prefix + ".queueDepth", [this] {
        return static_cast<double>(queue_.size());
    });
    reg.registerGauge(prefix + ".queueOverflows", [this] {
        return static_cast<double>(stats_.queueOverflows);
    });
    reg.registerGauge(prefix + ".queueWaitMean",
                      [this] { return stats_.queueWait.mean(); });
    pwc_->registerMetrics(reg, prefix + ".pwc");
}

} // namespace transfw::mmu

#include "uvm/migration.hpp"

#include "sim/logging.hpp"
#include "transfw/prt.hpp"

namespace transfw::uvm {

namespace {

/** Edge-tag a link traversal's timing split for the attribution
 *  timeline (node -1 is the host; ids >= numGpus are switch nodes). */
obs::AttribHop
toAttribHop(int from, int to, const ic::HopTiming &t)
{
    obs::AttribHop hop;
    hop.from = static_cast<std::int16_t>(from);
    hop.to = static_cast<std::int16_t>(to);
    hop.wait = static_cast<double>(t.wait);
    hop.ser = static_cast<double>(t.ser);
    hop.prop = static_cast<double>(t.prop);
    return hop;
}

} // namespace

MigrationEngine::MigrationEngine(sim::EventQueue &eq,
                                 const cfg::SystemConfig &config,
                                 mem::PageTable &central,
                                 std::vector<mmu::GpuIface *> gpus,
                                 ic::Network &net,
                                 core::FtCluster *ft)
    : SimObject(eq, "uvm.migration"), cfg_(config), central_(central),
      gpus_(std::move(gpus)), net_(net), ft_(ft)
{}

void
MigrationEngine::resolve(mmu::XlatPtr req, DoneCb done)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::Migration);
    auto it = busy_.find(req->vpn);
    if (it != busy_.end()) {
        it->second.push_back(
            Pending{std::move(req), std::move(done), curTick()});
        return;
    }
    busy_.emplace(req->vpn, std::deque<Pending>{});
    doResolve(std::move(req), std::move(done));
}

void
MigrationEngine::doResolve(mmu::XlatPtr req, DoneCb done)
{
    obs::ProfScope prof(profiler_, obs::ProfBucket::Migration);
    mem::PageInfo *info = central_.lookup(req->vpn);
    if (!info)
        sim::panic("fault on a page missing from the central page table");

    // The page may already be usable locally (PRT false negative, or a
    // waiter whose page arrived while it was queued).
    const mem::PageInfo *local =
        gpus_[static_cast<std::size_t>(req->gpu)]->localPageTable().lookup(
            req->vpn);
    if (local && (!req->isWrite || local->writable)) {
        ++stats_.alreadyLocal;
        complete(req->vpn,
                 tlb::TlbEntry{local->ppn, local->owner, local->writable,
                               local->remote},
                 std::move(done));
        return;
    }

    switch (cfg_.migrationPolicy) {
      case cfg::MigrationPolicy::OnTouch:
        migrate(std::move(req), *info, std::move(done));
        return;
      case cfg::MigrationPolicy::ReadReplicate:
        if (req->isWrite)
            writeUpgrade(std::move(req), *info, std::move(done));
        else
            replicate(std::move(req), *info, std::move(done));
        return;
      case cfg::MigrationPolicy::RemoteMap:
        remoteMap(std::move(req), *info, std::move(done));
        return;
    }
    sim::panic("unknown migration policy");
}

void
MigrationEngine::complete(mem::Vpn vpn, const tlb::TlbEntry &entry,
                          DoneCb done)
{
    done(entry);
    releasePage(vpn);
}

void
MigrationEngine::releasePage(mem::Vpn vpn)
{
    auto it = busy_.find(vpn);
    if (it == busy_.end())
        return;
    std::deque<Pending> waiters = std::move(it->second);
    busy_.erase(it);
    if (waiters.empty())
        return;
    // Re-submit waiters against the updated central entry; each may
    // trigger its own move (the ping-pong the paper measures). Time
    // parked behind the in-flight move is migration-serialization cost.
    schedule(0, [this, waiters = std::move(waiters)]() mutable {
        for (auto &pending : waiters) {
            mmu::charge(*pending.req, attrib_,
                        obs::AttribBucket::Migration,
                        static_cast<double>(curTick() - pending.parked),
                        pending.parked);
            resolve(std::move(pending.req), std::move(pending.done));
        }
    });
}

void
MigrationEngine::unmapFrom(int gpu, mem::Vpn vpn)
{
    mmu::GpuIface &gi = *gpus_[static_cast<std::size_t>(gpu)];
    const mem::PageInfo *pi = gi.localPageTable().lookup(vpn);
    if (!pi)
        return;
    bool was_remote = pi->remote;
    if (!was_remote)
        gi.frames().free(pi->ppn);
    gi.localPageTable().unmap(vpn);
    gi.invalidateTlbs(vpn);
    if (auto *prt = gi.prt())
        prt->pageDeparted(vpn);
    if (ft_ && !was_remote)
        ft_->pageDeparted(vpn, gpu);
}

tlb::TlbEntry
MigrationEngine::mapLocal(int gpu, mem::Vpn vpn, bool writable)
{
    mmu::GpuIface &gi = *gpus_[static_cast<std::size_t>(gpu)];
    mem::Ppn ppn = gi.frames().allocate();
    gi.localPageTable().map(
        vpn, mem::PageInfo{ppn, gpu, std::uint64_t{1} << gpu, writable, false});
    if (auto *prt = gi.prt())
        prt->pageArrived(vpn);
    if (ft_)
        ft_->pageArrived(vpn, gpu);
    return tlb::TlbEntry{ppn, gpu, writable, false};
}

tlb::TlbEntry
MigrationEngine::mapRemote(int gpu, mem::Vpn vpn,
                           const mem::PageInfo &info)
{
    mmu::GpuIface &gi = *gpus_[static_cast<std::size_t>(gpu)];
    gi.localPageTable().map(vpn, mem::PageInfo{info.ppn, info.owner,
                                               info.replicaMask, true,
                                               true});
    // The PRT tracks locally *translatable* pages, which includes
    // remote mappings; without this, every access to a mapped page
    // would keep short-circuiting to the host.
    if (auto *prt = gi.prt())
        prt->pageArrived(vpn);
    return tlb::TlbEntry{info.ppn, info.owner, true, true};
}

void
MigrationEngine::transfer(int from_owner, int to_gpu,
                          sim::EventQueue::Callback cb)
{
    transfer(from_owner, to_gpu, false, std::move(cb));
}

void
MigrationEngine::transfer(int from_owner, int to_gpu,
                          bool latency_overlapped,
                          sim::EventQueue::Callback cb,
                          mmu::XlatPtr traced)
{
    if (cfg_.oracle.zeroMigrationCost) {
        schedule(0, std::move(cb));
        return;
    }
    std::uint64_t bytes = cfg_.geometry().pageBytes();
    stats_.bytesMoved += bytes;
    if (latency_overlapped) {
        // Owner-push (Trans-FW remote hit): the data departed while the
        // success notification crossed to the host, so only the
        // serialization remains on this request's critical path.
        sim::Tick ser = std::max<sim::Tick>(
            1, static_cast<sim::Tick>(static_cast<double>(bytes) /
                                      256.0));
        schedule(ser, std::move(cb));
        return;
    }
    // The payload's route goes onto the request's timeline edge by
    // edge, when timelines are kept. Uncounted: the Migration bucket
    // is still charged as the lump `arrival - start` by the caller,
    // and these hops only say where on the fabric the payload spent
    // it. Traced and plain sends share one routing path, so timing
    // is the same either way.
    const bool trace = traced && attrib_ && attrib_->keepTimelines();
    if (from_owner == mem::kCpuDevice) {
        ic::HopTiming t;
        net_.fromHost(to_gpu).send(bytes, std::move(cb), &t);
        if (trace)
            attrib_->hop(traced->lat, obs::AttribBucket::Migration,
                         toAttribHop(-1, to_gpu, t), /*counted=*/false,
                         curTick());
    } else if (trace) {
        net_.sendPeerTraced(
            from_owner, to_gpu, bytes,
            [this, traced](int from, int to, const ic::HopTiming &t) {
                attrib_->hop(traced->lat, obs::AttribBucket::Migration,
                             toAttribHop(from, to, t),
                             /*counted=*/false, curTick());
            },
            std::move(cb));
    } else {
        net_.sendPeer(from_owner, to_gpu, bytes, std::move(cb));
    }
}

void
MigrationEngine::migrate(mmu::XlatPtr req, mem::PageInfo &info,
                         DoneCb done)
{
    ++stats_.migrations;
    int dst = req->gpu;
    int src = info.owner;

    // Invalidate every stale copy before the data moves. After a remote
    // lookup the owner GPU pushes the page at once: the shootdown
    // overlaps the host notification, nothing waits for it, and nothing
    // is charged. The zero-migration-cost oracle (Fig. 4, third bar)
    // removes the whole data-movement latency, shootdown included.
    sim::Tick serial_shootdown =
        (req->resolvedByRemote || cfg_.oracle.zeroMigrationCost)
            ? 0
            : cfg_.shootdownCost;
    if (serial_shootdown)
        mmu::charge(*req, attrib_, obs::AttribBucket::Shootdown,
                    static_cast<double>(serial_shootdown), curTick());
    for (int g = 0; g < net_.numGpus(); ++g) {
        if ((info.replicaMask >> g) & 1u)
            unmapFrom(g, req->vpn);
    }
    if (src != mem::kCpuDevice)
        unmapFrom(src, req->vpn);
    if (onOwnerChanged)
        onOwnerChanged(req->vpn);

    sim::Tick start = curTick() + serial_shootdown;
    schedule(serial_shootdown, [this, req, done = std::move(done), dst,
                                src, start]() mutable {
        transfer(src, dst, req->resolvedByRemote,
                 [this, req, done = std::move(done), dst,
                  start]() mutable {
            mmu::charge(*req, attrib_, obs::AttribBucket::Migration,
                        static_cast<double>(curTick() - start), start);
            tlb::TlbEntry entry = mapLocal(dst, req->vpn, true);
            mem::PageInfo *info = central_.lookup(req->vpn);
            info->owner = dst;
            info->ppn = entry.ppn;
            info->replicaMask = std::uint64_t{1} << dst;
            info->writable = true;
            complete(req->vpn, entry, std::move(done));
        }, req);
    });
}

void
MigrationEngine::replicate(mmu::XlatPtr req, mem::PageInfo &info,
                           DoneCb done)
{
    ++stats_.replications;
    int dst = req->gpu;
    int src = info.owner;

    // ESI: the owner's exclusive copy downgrades to shared/read-only.
    if (src != mem::kCpuDevice && info.writable) {
        mmu::GpuIface &owner = *gpus_[static_cast<std::size_t>(src)];
        if (mem::PageInfo *pi = owner.localPageTable().lookup(req->vpn)) {
            pi->writable = false;
            owner.invalidateTlbs(req->vpn);
        }
    }
    info.writable = false;
    info.replicaMask |= std::uint64_t{1} << dst;
    if (onOwnerChanged)
        onOwnerChanged(req->vpn);

    sim::Tick start = curTick();
    transfer(src, dst, /*latency_overlapped=*/false,
             [this, req, done = std::move(done), dst,
              start]() mutable {
        mmu::charge(*req, attrib_, obs::AttribBucket::Migration,
                    static_cast<double>(curTick() - start), start);
        tlb::TlbEntry entry = mapLocal(dst, req->vpn, false);
        complete(req->vpn, entry, std::move(done));
    }, req);
}

void
MigrationEngine::writeUpgrade(mmu::XlatPtr req, mem::PageInfo &info,
                              DoneCb done)
{
    ++stats_.writeInvalidations;
    int dst = req->gpu;
    int src = info.owner;

    bool had_replica =
        gpus_[static_cast<std::size_t>(dst)]->localPageTable().lookup(
            req->vpn) != nullptr;

    // Invalidate every other holder (protection-fault handler).
    mmu::charge(*req, attrib_, obs::AttribBucket::Shootdown,
                static_cast<double>(cfg_.shootdownCost), curTick());
    for (int g = 0; g < net_.numGpus(); ++g) {
        if (g != dst && ((info.replicaMask >> g) & 1u))
            unmapFrom(g, req->vpn);
    }
    if (src != mem::kCpuDevice && src != dst)
        unmapFrom(src, req->vpn);
    if (onOwnerChanged)
        onOwnerChanged(req->vpn);

    auto finish = [this, req, done = std::move(done), dst]() mutable {
        tlb::TlbEntry entry;
        mmu::GpuIface &gi = *gpus_[static_cast<std::size_t>(dst)];
        if (mem::PageInfo *pi = gi.localPageTable().lookup(req->vpn)) {
            // Upgrade the existing replica in place.
            pi->writable = true;
            gi.invalidateTlbs(req->vpn);
            entry = tlb::TlbEntry{pi->ppn, dst, true, false};
            if (ft_)
                ft_->pageArrived(req->vpn, dst);
        } else {
            entry = mapLocal(dst, req->vpn, true);
        }
        mem::PageInfo *info = central_.lookup(req->vpn);
        info->owner = dst;
        info->ppn = entry.ppn;
        info->replicaMask = std::uint64_t{1} << dst;
        info->writable = true;
        complete(req->vpn, entry, std::move(done));
    };

    if (had_replica) {
        // Data already local; only the coherence actions are timed.
        schedule(cfg_.shootdownCost, std::move(finish));
    } else {
        sim::Tick start = curTick() + cfg_.shootdownCost;
        schedule(cfg_.shootdownCost,
                 [this, src, dst, start, req,
                  finish = std::move(finish)]() mutable {
                     transfer(src, dst, /*latency_overlapped=*/false,
                              [this, req, start,
                               finish = std::move(finish)]() mutable {
                                  mmu::charge(
                                      *req, attrib_,
                                      obs::AttribBucket::Migration,
                                      static_cast<double>(curTick() -
                                                          start),
                                      start);
                                  finish();
                              },
                              req);
                 });
    }
}

void
MigrationEngine::remoteMap(mmu::XlatPtr req, mem::PageInfo &info,
                           DoneCb done)
{
    ++stats_.remoteMappings;
    int dst = req->gpu;
    info.replicaMask |= std::uint64_t{1} << dst;
    mmu::charge(*req, attrib_, obs::AttribBucket::PteInstall,
                static_cast<double>(cfg_.memLatency), curTick());
    schedule(cfg_.memLatency, [this, req, done = std::move(done)]() mutable {
        // Re-look the entry up: a PageInfo pointer is valid only until
        // the next map() on its table, so none is held across events.
        mem::PageInfo *cur = central_.lookup(req->vpn);
        tlb::TlbEntry entry = mapRemote(req->gpu, req->vpn, *cur);
        complete(req->vpn, entry, std::move(done));
    });
}

void
MigrationEngine::noteRemoteAccess(mem::Vpn vpn, int gpu)
{
    std::uint64_t key = (vpn << 6) | static_cast<std::uint64_t>(gpu);
    if (++remoteAccess_[key] < cfg_.remoteMapMigrateThreshold)
        return;
    remoteAccess_[key] = 0;
    if (busy_.count(vpn))
        return; // a move is already in flight
    counterMigrate(vpn, gpu);
}

void
MigrationEngine::counterMigrate(mem::Vpn vpn, int gpu)
{
    mem::PageInfo *info = central_.lookup(vpn);
    if (!info || info->owner == gpu)
        return;
    ++stats_.counterMigrations;
    busy_.emplace(vpn, std::deque<Pending>{});

    // Tear down every remote mapping and the owner's copy, then move
    // the page to the hot GPU in the background.
    for (int g = 0; g < net_.numGpus(); ++g) {
        if ((info->replicaMask >> g) & 1u)
            unmapFrom(g, vpn);
    }
    if (info->owner != mem::kCpuDevice)
        unmapFrom(info->owner, vpn);
    if (onOwnerChanged)
        onOwnerChanged(vpn);

    int src = info->owner;
    schedule(cfg_.shootdownCost, [this, vpn, gpu, src]() {
        transfer(src, gpu, [this, vpn, gpu]() {
            tlb::TlbEntry entry = mapLocal(gpu, vpn, true);
            mem::PageInfo *info = central_.lookup(vpn);
            info->owner = gpu;
            info->ppn = entry.ppn;
            info->replicaMask = std::uint64_t{1} << gpu;
            info->writable = true;
            releasePage(vpn);
        });
    });
}

} // namespace transfw::uvm

#include "system/system.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "sim/logging.hpp"

namespace transfw::sys {

namespace {

/**
 * Decompose a measured host-star control traversal (total = deliver
 * tick - send tick) into the edge-tagged hop chargeHop() wants: the
 * ctrl channel's fixed 2-cycle token, the link's propagation latency,
 * and whatever is left as wait (0 on the direct paths). Node -1 is the
 * host side of the star.
 */
obs::AttribHop
starHop(int from, int to, sim::Tick latency, double total)
{
    obs::AttribHop hop;
    hop.from = static_cast<std::int16_t>(from);
    hop.to = static_cast<std::int16_t>(to);
    hop.ser = 2.0;
    hop.prop = static_cast<double>(latency);
    hop.wait = total - hop.ser - hop.prop;
    return hop;
}

} // namespace

MultiGpuSystem::MultiGpuSystem(const cfg::SystemConfig &config,
                               const wl::Workload &workload)
    // cfg_ is the first member: validate before any is built from it.
    : cfg_((config.validate(), config)), workload_(workload),
      rng_(config.seed),
      central_(config.geometry()),
      cpuFrames_(256ULL << 30, config.pageShift),
      net_(hostEq_, config.numGpus, config.hostLink, config.peerLink,
           config.peerTopology, config.meshCols, config.switchRadix),
      scheduler_(workload, config.numGpus)
{
    if (cfg_.transFw.enabled)
        ft_ = std::make_unique<core::FtCluster>(cfg_.transFw,
                                                cfg_.hostShards);

    for (int g = 0; g < cfg_.numGpus; ++g) {
        gpuQs_.push_back(std::make_unique<sim::EventQueue>());
        gpuRngs_.push_back(std::make_unique<sim::Rng>(
            cfg_.seed * 0x9E3779B97F4A7C15ULL +
            2ULL * static_cast<std::uint64_t>(g) + 1));
    }

    for (int g = 0; g < cfg_.numGpus; ++g)
        gpus_.push_back(std::make_unique<gpu::Gpu>(
            *gpuQs_[static_cast<std::size_t>(g)], cfg_, g,
            *gpuRngs_[static_cast<std::size_t>(g)]));

    std::vector<mmu::GpuIface *> ifaces;
    for (auto &g : gpus_)
        ifaces.push_back(g.get());

    engine_ = std::make_unique<uvm::MigrationEngine>(
        hostEq_, cfg_, central_, ifaces, net_, ft_.get());

    // Replies and forwards leave the host side the same way on both
    // fault paths: over the host -> GPU downlink, as charged hops.
    auto on_resolved = [this](mmu::XlatPtr req) {
        int g = req->gpu;
        if (req->resolvedByRemote) {
            // The owner GPU replied to the requester directly along with
            // the pushed page (Fig. 10, path I); no extra host -> GPU
            // reply hop. Hand the completion to GPU g at the current
            // tick; it runs after every host event of this tick.
            gpuQs_[static_cast<std::size_t>(g)]->scheduleAt(
                hostEq_.now(), [this, req]() {
                    gpus_[static_cast<std::size_t>(req->gpu)]
                        ->translationReturned(req);
                });
            return;
        }
        sim::Tick t0 = hostEq_.now();
        net_.fromHost(g).sendCtrl(kCtrlMsgBytes, [this, req, t0, g]() {
            // Delivered on GPU g's queue.
            sim::Tick now = gpuQs_[static_cast<std::size_t>(g)]->now();
            obs::ProfScope prof(profiler(), obs::ProfBucket::Interconnect);
            mmu::chargeHop(*req, attribEngine(), obs::AttribBucket::Network,
                           starHop(-1, g, net_.fromHost(g).latency(),
                                   static_cast<double>(now - t0)),
                           t0);
            gpus_[static_cast<std::size_t>(g)]->translationReturned(req);
        });
    };
    auto forward_to_gpu = [this](mmu::RemoteLookupPtr rl) {
        sim::Tick t0 = hostEq_.now();
        int target = rl->targetGpu;
        net_.fromHost(target).sendCtrl(
            kCtrlMsgBytes, [this, rl, t0, target]() {
                // Delivered on GPU `target`'s queue.
                sim::Tick now =
                    gpuQs_[static_cast<std::size_t>(target)]->now();
                obs::ProfScope prof(profiler(),
                                    obs::ProfBucket::Interconnect);
                mmu::chargeHop(*rl->req, attribEngine(),
                               obs::AttribBucket::Network,
                               starHop(-1, target,
                                       net_.fromHost(target).latency(),
                                       static_cast<double>(now - t0)),
                               t0);
                gpus_[static_cast<std::size_t>(target)]
                    ->remoteLookupRequest(rl);
            });
    };
    if (cfg_.faultMode == cfg::FaultMode::HostMmu) {
        hostMmu_ = std::make_unique<mmu::HostMmuCluster>(
            hostEq_, cfg_, central_, *engine_, ft_.get(), ifaces, rng_);
        hostMmu_->onResolved = on_resolved;
        hostMmu_->forwardToGpu = forward_to_gpu;
    } else {
        driver_ = std::make_unique<uvm::UvmDriver>(
            hostEq_, cfg_, central_, *engine_, ft_.get(), rng_);
        driver_->onResolved = on_resolved;
        driver_->forwardToGpu = forward_to_gpu;
    }

    for (int g = 0; g < cfg_.numGpus; ++g)
        wireGpu(g);
    wireQueues();

    placeInitialPages();

    std::uint64_t cu_seed = cfg_.seed * 0x1234567ULL + 99;
    for (int g = 0; g < cfg_.numGpus; ++g) {
        for (int cu = 0; cu < cfg_.cusPerGpu; ++cu) {
            cus_.push_back(std::make_unique<gpu::ComputeUnit>(
                *gpuQs_[static_cast<std::size_t>(g)], cfg_,
                *gpus_[static_cast<std::size_t>(g)], cu, workload_,
                scheduler_, cu_seed));
        }
    }

    setupObservability();
}

void
MultiGpuSystem::wireQueues()
{
    // Each link runs on the clock of the queue that calls its send
    // methods: uplinks on their GPU's queue, downlinks and peer links
    // on the host queue (replies, forwards, migration traffic).
    std::vector<sim::EventQueue *> queues;
    for (auto &q : gpuQs_)
        queues.push_back(q.get());
    net_.bindQueues(queues, hostEq_);

    // Control messages are delivered on the receiver's queue: GPU ->
    // host on the host queue, host -> GPU on that GPU's queue.
    for (int g = 0; g < cfg_.numGpus; ++g) {
        net_.toHost(g).setCtrlTarget(&hostEq_);
        net_.fromHost(g).setCtrlTarget(
            gpuQs_[static_cast<std::size_t>(g)].get());
    }
}

void
MultiGpuSystem::setupObservability()
{
    obs_ = std::make_unique<obs::Observability>();
    obs_->attribution.attachChecks(&obs_->checks);

    obs::MetricRegistry &reg = obs_->metrics;
    for (int g = 0; g < cfg_.numGpus; ++g) {
        gpu::Gpu &gpu = *gpus_[static_cast<std::size_t>(g)];
        gpu.attachAttribution(&obs_->attribution);
        gpu.attachProfiler(&obs_->profiler);
        gpu.registerMetrics(reg, sim::strfmt("gpu%d", g));
    }
    if (hostMmu_) {
        hostMmu_->attachAttribution(&obs_->attribution);
        hostMmu_->attachProfiler(&obs_->profiler);
        hostMmu_->registerMetrics(reg, "host.mmu");
    }
    if (driver_) {
        driver_->attachAttribution(&obs_->attribution);
        driver_->attachProfiler(&obs_->profiler);
        driver_->registerMetrics(reg, "host.driver");
    }
    engine_->attachAttribution(&obs_->attribution);
    engine_->attachProfiler(&obs_->profiler);
    engine_->registerMetrics(reg, "host.migration");
    for (auto &cu : cus_)
        cu->attachProfiler(&obs_->profiler);
    if (ft_)
        ft_->registerMetrics(reg, "host.ft");
    net_.registerMetrics(reg);
    reg.registerGauge("sim.farFaults", [this] {
        return static_cast<double>(farFaults_);
    });
    reg.registerGauge("sim.tick", [this] {
        sim::Tick t = hostEq_.now();
        for (auto &q : gpuQs_)
            t = std::max(t, q->now());
        return static_cast<double>(t);
    });
    reg.registerGauge("sim.eventBacklog", [this] {
        std::size_t pending = hostEq_.pending();
        for (auto &q : gpuQs_)
            pending += q->pending();
        return static_cast<double>(pending);
    });
    reg.registerGauge("sim.peakEventBacklog", [this] {
        std::size_t peak = hostEq_.peakPending();
        for (auto &q : gpuQs_)
            peak += q->peakPending();
        return static_cast<double>(peak);
    });

    // Observability self-health: watchdog trips must be visible in
    // the same exports they guard.
    reg.registerGauge("obs.checks.violations", [this] {
        return static_cast<double>(obs_->checks.violations());
    });
    reg.registerGauge("obs.checks.checkedRequests", [this] {
        return static_cast<double>(obs_->checks.checkedRequests());
    });
    reg.registerGauge("obs.attrib.forwardSavedCycles", [this] {
        return obs_->attribution.table().forwardSavedCycles;
    });
    reg.registerGauge("obs.attrib.forwardWastedCycles", [this] {
        return obs_->attribution.table().forwardWastedCycles;
    });

    // Interval time series (Section IV-C dynamics): PW-queue pressure
    // and the forwarding trigger, filter load, translation-cache health.
    obs::IntervalSampler &sampler = obs_->sampler;
    sampler.attachProfiler(&obs_->profiler);
    // Host-side health: event backlog (deterministic) and events per
    // wall second since the previous sample (noisy by nature — it
    // rides the same rows but never feeds the deterministic metrics).
    sampler.addRegistryColumn(reg, "sim.eventBacklog");
    sampler.addColumn("host.eventsPerSec", [this] {
        return obs_->profiler.recentEventsPerSec();
    });
    if (hostMmu_) {
        sampler.addRegistryColumn(reg, "host.mmu.queueDepth");
        sampler.addRegistryColumn(reg, "host.mmu.queueAboveTrigger");
        sampler.addRegistryColumn(reg, "host.mmu.tlb.hitRate");
        sampler.addRegistryColumn(reg, "host.mmu.pwc.hitRate");
    }
    if (driver_) {
        sampler.addRegistryColumn(reg, "host.driver.batches");
        sampler.addRegistryColumn(reg, "host.driver.walkQueueDepth");
        sampler.addRegistryColumn(reg, "host.driver.bufferedFaults");
        sampler.addRegistryColumn(reg, "host.driver.pwc.hitRate");
    }
    if (ft_) {
        sampler.addRegistryColumn(reg, "host.ft.loadFactor");
        sampler.addRegistryColumn(reg, "host.ft.kicks");
        sampler.addRegistryColumn(reg, "host.ft.observedFpRate");
    }
    sampler.addRegistryColumn(reg, "host.migration.busy.loadFactor");
    for (int g = 0; g < cfg_.numGpus; ++g) {
        std::string prefix = sim::strfmt("gpu%d", g);
        sampler.addRegistryColumn(reg, prefix + ".gmmu.queueDepth");
        sampler.addRegistryColumn(reg, prefix + ".l2tlb.hitRate");
        sampler.addRegistryColumn(reg, prefix + ".gmmu.pwc.hitRate");
        if (gpus_[static_cast<std::size_t>(g)]->prt()) {
            sampler.addRegistryColumn(reg, prefix + ".prt.loadFactor");
            sampler.addRegistryColumn(reg, prefix + ".prt.kicks");
            sampler.addRegistryColumn(reg,
                                      prefix + ".prt.observedFpRate");
        }
    }
    // Fabric heat as counter tracks: every fabric edge's instantaneous
    // queue depth and utilization ride the same deterministic sample
    // grid as the columns above (the trace viewer renders each as its
    // own counter track). The host-star legs are skipped — their
    // pressure already shows up in host.mmu.queueDepth, and a 64-GPU
    // pod has 128 of them.
    net_.forEachLink([&](const ic::Link &link, bool is_fabric) {
        if (!is_fabric)
            return;
        sampler.addRegistryColumn(reg, link.name() + ".queueDepth");
        sampler.addRegistryColumn(reg, link.name() + ".utilization");
    });
}

void
MultiGpuSystem::wireGpu(int g)
{
    gpu::Gpu &gpu = *gpus_[static_cast<std::size_t>(g)];

    gpu.hooks.sendFault = [this](mmu::XlatPtr req) {
        sendFaultToHost(std::move(req));
    };

    gpu.hooks.onPageAccess = [this](mem::Vpn vpn, int from, bool write) {
        PageSharing &ps = sharing_[vpn];
        ps.gpuMask |= std::uint64_t{1} << from;
        if (write)
            ++ps.writes;
        else
            ++ps.reads;
    };

    gpu.hooks.remoteAccessLatency = [this, g](mem::Vpn vpn,
                                              const tlb::TlbEntry &entry,
                                              int from) -> sim::Tick {
        // The access-counter bump updates host-side state (the
        // migration engine), so it reaches the host queue with the
        // latency of an uplink control message: the 2-cycle token
        // plus propagation.
        hostEq_.scheduleAt(gpuQs_[static_cast<std::size_t>(g)]->now() +
                               2 + net_.toHost(g).latency(),
                           [this, vpn, from]() {
                               engine_->noteRemoteAccess(vpn, from);
                           });
        sim::Tick hop = entry.owner == mem::kCpuDevice
                            ? cfg_.hostLink.latency
                            : net_.peerLatency(from, entry.owner);
        return 2 * hop + cfg_.memLatency;
    };

    if (cfg_.leastTlb.enabled) {
        gpu.hooks.probeSiblingL2 =
            [this](mem::Vpn vpn, int requester) -> const tlb::TlbEntry * {
            for (int other = 0; other < cfg_.numGpus; ++other) {
                if (other == requester)
                    continue;
                const tlb::TlbEntry *entry =
                    gpus_[static_cast<std::size_t>(other)]->l2Tlb().probe(
                        vpn);
                if (entry)
                    return entry;
            }
            return nullptr;
        };
    }

    gpu.gmmu().onRemoteDone = [this, g](mmu::RemoteLookupPtr rl) {
        // Notify the host side over this GPU's uplink; the direct
        // remote -> requester reply is folded into the host-side
        // resolution (see DESIGN.md, remote forwarding approximation).
        sim::Tick t0 = gpuQs_[static_cast<std::size_t>(g)]->now();
        net_.toHost(g).sendCtrl(kCtrlMsgBytes, [this, rl, t0, g]() {
            // Delivered on the host queue.
            obs::ProfScope prof(profiler(),
                                obs::ProfBucket::Interconnect);
            mmu::chargeHop(
                *rl->req, attribEngine(), obs::AttribBucket::Network,
                starHop(g, -1, net_.toHost(g).latency(),
                        static_cast<double>(hostEq_.now() - t0)),
                t0);
            if (hostMmu_)
                hostMmu_->remoteLookupDone(rl);
            else
                driver_->remoteLookupDone(rl);
        });
    };
}

void
MultiGpuSystem::sendFaultToHost(mmu::XlatPtr req)
{
    int g = req->gpu;
    ++farFaults_;
    req->faulted = true;
    sim::Tick t0 = gpuQs_[static_cast<std::size_t>(g)]->now();
    net_.toHost(g).sendCtrl(kCtrlMsgBytes, [this, req, t0]() mutable {
        // Delivered on the host queue.
        obs::ProfScope prof(profiler(),
                            obs::ProfBucket::Interconnect);
        mmu::chargeHop(
            *req, attribEngine(), obs::AttribBucket::Network,
            starHop(req->gpu, -1, net_.toHost(req->gpu).latency(),
                    static_cast<double>(hostEq_.now() - t0)),
            t0);
        req->tHostArrive = hostEq_.now();
        if (hostMmu_)
            hostMmu_->handleFault(std::move(req));
        else
            driver_->handleFault(std::move(req));
    });
}

void
MultiGpuSystem::placeInitialPages()
{
    unsigned shift = cfg_.pageShift - mem::kSmallPageShift;

    // Collect the distinct system pages backing the footprint (several
    // 4 KB pages collapse into one 2 MB page under large pages).
    std::vector<mem::Vpn> pages;
    workload_.forEachPage([&](mem::Vpn vpn4k) {
        mem::Vpn vpn = vpn4k >> shift;
        if (pages.empty() || pages.back() != vpn)
            pages.push_back(vpn);
    });
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

    for (mem::Vpn vpn : pages) {
        if (cfg_.oracle.noLocalFaults) {
            // Oracle: every page pre-mapped in every GPU (Fig. 4).
            central_.map(vpn,
                         mem::PageInfo{cpuFrames_.allocate(),
                                       mem::kCpuDevice, 0, true, false});
            for (auto &g : gpus_) {
                g->localPageTable().map(
                    vpn, mem::PageInfo{g->frames().allocate(), g->id(),
                                       std::uint64_t{1} << g->id(), true, false});
            }
            continue;
        }

        mem::DeviceId owner = mem::kCpuDevice;
        if (cfg_.prewarmPlacement) {
            owner = workload_.initialOwner(vpn << shift, cfg_.numGpus);
            if (owner >= cfg_.numGpus)
                owner = cfg_.numGpus - 1;
        }
        if (owner == mem::kCpuDevice) {
            central_.map(vpn,
                         mem::PageInfo{cpuFrames_.allocate(),
                                       mem::kCpuDevice, 0, true, false});
            continue;
        }
        gpu::Gpu &g = *gpus_[static_cast<std::size_t>(owner)];
        mem::Ppn ppn = g.frames().allocate();
        g.localPageTable().map(
            vpn, mem::PageInfo{ppn, owner, std::uint64_t{1} << owner, true, false});
        central_.map(vpn, mem::PageInfo{ppn, owner, std::uint64_t{1} << owner, true,
                                        false});
        if (auto *prt = g.prt())
            prt->pageArrived(vpn);
        if (ft_)
            ft_->pageArrived(vpn, owner);
    }
}

std::uint64_t
MultiGpuSystem::runQueues()
{
    // Queue 0 is the host, queue g + 1 is GPU g: ascending index is
    // the same-tick order.
    std::vector<sim::EventQueue *> queues{&hostEq_};
    for (auto &q : gpuQs_)
        queues.push_back(q.get());
    const std::size_t n = queues.size();

    // A winner tree over the cached keys (next[q], q): internal node i
    // holds the queue that wins its subtree, leaf q sits at node
    // leaves + q, and node 1 is the overall winner. Padding leaves
    // keep next = kMaxTick, so they never win over a real queue.
    const std::size_t leaves = std::bit_ceil(n);
    std::vector<sim::Tick> next(leaves, sim::kMaxTick);
    std::vector<std::size_t> win(leaves, 0);
    auto play = [&](std::size_t node) {
        auto winner = [&](std::size_t child) {
            return child >= leaves ? child - leaves : win[child];
        };
        std::size_t a = winner(2 * node), b = winner(2 * node + 1);
        win[node] = next[b] < next[a] ? b : a;
    };

    // A queue that did not run can only have gained events, and each
    // one bumps its strong count: a moved count is the only other
    // reason to recompute its next tick.
    std::vector<std::size_t> seen(n, 0);
    auto load = [&](std::size_t q) {
        seen[q] = queues[q]->strongPending();
        next[q] = seen[q] ? queues[q]->nextTick() : sim::kMaxTick;
    };
    auto refresh = [&](std::size_t q) {
        load(q);
        for (std::size_t node = (leaves + q) / 2; node; node /= 2)
            play(node);
    };
    for (std::size_t q = 0; q < n; ++q)
        load(q);
    for (std::size_t node = leaves - 1; node; --node)
        play(node);

    obs::IntervalSampler &sampler = obs_->sampler;
    const sim::Tick interval =
        sampler.columns() ? cfg_.obs.sampleInterval : 0;
    sim::Tick nextSample = interval;

    std::uint64_t events = 0;
    for (;;) {
        const std::size_t q = win[1];
        const sim::Tick t = next[q];
        if (t == sim::kMaxTick)
            break;

        // Interval rows ride the deterministic sample grid: the row
        // for tick S is recorded once every event at or before S has
        // executed and none after it.
        for (; interval && nextSample < t; nextSample += interval)
            sampler.recordRow(nextSample);

        events += queues[q]->runWindow(t + 1);
        refresh(q);
        if (q == 0) {
            // A host tick may hand work to any GPU.
            for (std::size_t g = 1; g < n; ++g)
                if (queues[g]->strongPending() != seen[g])
                    refresh(g);
        } else if (hostEq_.strongPending() != seen[0]) {
            // A GPU reaches other queues only through the host queue
            // (uplink messages, access-counter bumps).
            refresh(0);
        }
    }

    for (sim::EventQueue *queue : queues)
        queue->discardPending();
    return events;
}

SimResults
MultiGpuSystem::run()
{
    if (ran_)
        sim::fatal("MultiGpuSystem::run() may only be called once");
    ran_ = true;

    obs_->profiler.configure(cfg_.obs.selfProfile,
                             cfg_.obs.profileStride);
    if (obs_->profiler.enabled()) {
        hostEq_.setDispatchHook(&obs_->profiler);
        for (auto &q : gpuQs_)
            q->setDispatchHook(&obs_->profiler);
    }

    for (auto &cu : cus_)
        cu->start();
    auto wall0 = std::chrono::steady_clock::now();
    std::uint64_t events = runQueues();
    double wallSeconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    hostEq_.setDispatchHook(nullptr);
    for (auto &q : gpuQs_)
        q->setDispatchHook(nullptr);

    if (scheduler_.remaining() != 0)
        sim::panic("simulation drained with unscheduled CTAs");
    SimResults res = collect();
    res.eventsExecuted = events;
    res.hostWallSeconds = wallSeconds;
    res.hostEventsPerSec =
        wallSeconds > 0.0 ? static_cast<double>(events) / wallSeconds
                          : 0.0;
    return res;
}

SimResults
MultiGpuSystem::collect()
{
    SimResults r;
    r.app = workload_.name();
    r.configSummary = cfg_.summary();
    r.execTime = hostEq_.now();
    for (auto &q : gpuQs_)
        r.execTime = std::max(r.execTime, q->now());
    r.farFaults = farFaults_;

    for (auto &cu : cus_) {
        r.instructions += cu->instructions();
        r.memOps += cu->memOps();
    }

    std::uint64_t l1_lookups = 0, l1_hits = 0;
    std::uint64_t l2_lookups = 0, l2_hits = 0;
    double queue_wait_sum = 0;
    std::uint64_t queue_wait_n = 0;

    for (auto &g : gpus_) {
        const gpu::Gpu::Stats &gs = g->stats();
        r.pageAccesses += gs.accesses;
        r.l2TlbMisses += gs.l2Misses;
        r.shortCircuits += gs.shortCircuits;
        // Distributions merge by sum; divided by the miss count below.
        r.avgXlatLatency += gs.xlatLatency.sum();
        r.xlatLatencyHist.merge(gs.xlatHist);

        l2_lookups += g->l2Tlb().lookups();
        l2_hits += g->l2Tlb().hits();
        for (int cu = 0; cu < cfg_.cusPerGpu; ++cu) {
            l1_lookups += g->l1Tlb(cu).lookups();
            l1_hits += g->l1Tlb(cu).hits();
        }

        const mmu::Gmmu::Stats &ms = g->gmmu().stats();
        r.gmmuWalkMemAccesses += ms.memAccesses;
        r.gmmuRemoteMemAccesses += ms.remoteMemAccesses;
        queue_wait_sum += ms.queueWait.sum();
        queue_wait_n += ms.queueWait.count();

        const pwc::PageWalkCache &pwc = g->gmmu().pwc();
        for (std::size_t b = 0; b < pwc.hitLevels().buckets(); ++b)
            r.gmmuPwcLevels.record(b, pwc.hitLevels().bucket(b));

        if (auto *prt = g->prt()) {
            r.prtLookups += prt->lookups();
            r.prtHits += prt->hits();
            r.prtOverflows += prt->overflowEvictions();
        }
        r.gmmuQueueOverflows += ms.queueOverflows;
    }
    std::uint64_t xlat_count = r.l2TlbMisses;
    r.avgXlatLatency =
        xlat_count ? r.avgXlatLatency / static_cast<double>(xlat_count)
                   : 0.0;
    r.l1HitRate = l1_lookups ? static_cast<double>(l1_hits) / l1_lookups
                             : 0.0;
    r.l2HitRate = l2_lookups ? static_cast<double>(l2_hits) / l2_lookups
                             : 0.0;
    r.gmmuQueueWaitMean =
        queue_wait_n ? queue_wait_sum / static_cast<double>(queue_wait_n)
                     : 0.0;

    if (hostMmu_) {
        // Sum over the IOMMU shards (one iteration, the exact pre-shard
        // values, when hostShards == 1). The per-shard vectors stay
        // empty in that case so K = 1 reports are byte-identical.
        const int shards = hostMmu_->shards();
        r.hostTlbHitRate = hostMmu_->tlbHitRate();
        r.hostRoutedFaults = hostMmu_->routedFaults();
        double host_wait_sum = 0;
        std::uint64_t host_wait_n = 0;
        for (int s = 0; s < shards; ++s) {
            mmu::HostMmu &shard = hostMmu_->shard(s);
            const mmu::HostMmu::Stats &hs = shard.stats();
            r.hostWalks += hs.walks;
            r.hostWalkMemAccesses += hs.memAccesses;
            r.forwards += hs.forwards;
            r.forwardSuccess += hs.forwardSuccess;
            r.forwardFail += hs.forwardFail;
            r.duplicateWalks += hs.duplicateWalks;
            r.removedFromQueue += hs.removedFromQueue;
            r.hostQueueOverflows += hs.queueOverflows;
            host_wait_sum += hs.queueWait.sum();
            host_wait_n += hs.queueWait.count();
            const pwc::PageWalkCache &pwc = shard.pwc();
            for (std::size_t b = 0; b < pwc.hitLevels().buckets(); ++b)
                r.hostPwcLevels.record(b, pwc.hitLevels().bucket(b));
            for (std::size_t b = 0; b < hs.remoteProbeLevels.buckets();
                 ++b)
                r.remoteProbeLevels.record(
                    b, hs.remoteProbeLevels.bucket(b));
            if (shards > 1) {
                r.hostShardWalks.push_back(hs.walks);
                r.hostShardQueueWaitMean.push_back(hs.queueWait.mean());
                r.hostShardMaxQueueDepth.push_back(
                    static_cast<std::uint64_t>(hs.maxQueueDepth));
            }
        }
        // K = 1 must report the shard's own Welford mean bit-for-bit
        // (sum/count reconstruction differs in the last ulp); the
        // cross-shard aggregate only exists when there are shards to
        // aggregate.
        r.hostQueueWaitMean =
            shards == 1
                ? hostMmu_->shard(0).stats().queueWait.mean()
                : (host_wait_n ? host_wait_sum /
                                     static_cast<double>(host_wait_n)
                               : 0.0);
    }
    if (driver_) {
        const uvm::UvmDriver::Stats &ds = driver_->stats();
        r.driverBatches = ds.batches;
        r.driverAvgBatchSize = ds.batchSize.mean();
        r.hostWalks = ds.walks;
        r.forwards = ds.forwards;
        r.forwardSuccess = ds.forwardSuccess;
        r.forwardFail = ds.forwardFail;
        r.hostQueueWaitMean = 0.0;
    }
    if (ft_) {
        r.ftLookups = ft_->lookups();
        r.ftHits = ft_->hits();
        r.ftOverflows = ft_->overflowEvictions();
        r.ftReplicaUpdates = ft_->replicaUpdates();
        r.ftReplicaInvalidations = ft_->replicaInvalidations();
    }

    // Shard skew scalars, derived from the per-shard stats above.
    if (hostMmu_) {
        r.shardSkewWaitRatio = hostMmu_->shardWaitRatio();
        r.shardSkewLoadShareMax = hostMmu_->shardLoadShareMax();
        r.shardSkewLoadCv = hostMmu_->shardLoadCv();
    }

    // Fabric telemetry: one row per link in forEachLink's stable order,
    // the worst-fabric-edge scalars the ledger keys summarize, and the
    // routed-traffic hop-distance mix. Utilization is busy wire cycles
    // over the run's final tick so links clocked by different queues
    // are comparable.
    {
        double util_sum = 0.0;
        std::size_t fabric_n = 0;
        net_.forEachLink([&](const ic::Link &link, bool is_fabric) {
            SimResults::FabricLinkStats fl;
            fl.name = link.name();
            fl.fabric = is_fabric;
            fl.bytes = link.bytesSent();
            fl.messages = link.messages();
            fl.ctrlMessages = link.ctrlMessages();
            const obs::LogHistogram &h = link.queueWaitHistogram();
            fl.queueWaitMean = h.mean();
            fl.queueWaitP99 = h.count() ? h.quantile(0.99) : 0.0;
            fl.queueWaitMax = h.count() ? h.maximum() : 0.0;
            fl.peakQueueDepth = link.peakQueueDepth();
            fl.utilization =
                r.execTime ? std::min(1.0,
                                      static_cast<double>(
                                          link.busyCycles()) /
                                          static_cast<double>(r.execTime))
                           : 0.0;
            if (is_fabric) {
                ++fabric_n;
                util_sum += fl.utilization;
                if (r.fabricWorstLink.empty() ||
                    fl.queueWaitP99 > r.fabricWorstQueueWaitP99) {
                    r.fabricWorstLink = fl.name;
                    r.fabricWorstQueueWaitP99 = fl.queueWaitP99;
                }
            }
            r.fabricLinks.push_back(std::move(fl));
        });
        r.fabricMeanUtilization =
            fabric_n ? util_sum / static_cast<double>(fabric_n) : 0.0;
        const auto &hd = net_.hopDistances();
        for (std::size_t hops = 1; hops < hd.size(); ++hops) {
            if (!hd[hops].messages)
                continue;
            SimResults::FabricHopDist d;
            d.hops = static_cast<int>(hops);
            d.messages = hd[hops].messages;
            d.bytes = hd[hops].bytes;
            d.waitPerMsg =
                hd[hops].waitSum / static_cast<double>(hd[hops].messages);
            r.fabricHopDist.push_back(d);
        }
    }
    if (ft_) {
        const obs::TopK &hot = ft_->hotGroups();
        for (const obs::TopK::Entry &e : hot.top(8)) {
            SimResults::HotVpnGroup hg;
            hg.group = e.key;
            hg.count = e.count;
            hg.error = e.error;
            hg.share = static_cast<double>(e.count) /
                       static_cast<double>(hot.total());
            hg.shard = ft_->shardOfGroup(e.key);
            r.hotVpnGroups.push_back(hg);
        }
    }

    const uvm::MigrationEngine::Stats &es = engine_->stats();
    r.migrations = es.migrations;
    r.replications = es.replications;
    r.writeInvalidations = es.writeInvalidations;
    r.remoteMappings = es.remoteMappings;
    r.counterMigrations = es.counterMigrations;
    r.bytesMoved = es.bytesMoved;

    for (const auto &[vpn, ps] : sharing_) {
        int sharers = std::popcount(ps.gpuMask);
        r.sharingAccesses.record(static_cast<std::size_t>(sharers),
                                 ps.reads + ps.writes);
        if (sharers >= 2) {
            r.sharedPageReads += ps.reads;
            r.sharedPageWrites += ps.writes;
        }
    }

    // Latency attribution + watchdog verdicts: finalize() counts races
    // still open after the queues drained; the timeline check runs
    // here because it needs every request finished.
    obs_->attribution.finalize();
    obs_->checks.verifyTimelines(obs_->attribution);
    r.attribution = obs_->attribution.table();
    r.obsCheckViolations = obs_->checks.violations();
    r.obsCheckedRequests = obs_->checks.checkedRequests();
    r.peakEventBacklog = hostEq_.peakPending();
    for (auto &q : gpuQs_)
        r.peakEventBacklog += q->peakPending();

    r.hostProfile = obs_->profiler.snapshot();
    return r;
}

} // namespace transfw::sys

/**
 * Microbenchmarks (google-benchmark) for the hot data structures: the
 * MetroHash-style hash, Cuckoo filter operations, UTC lookups,
 * set-associative arrays, radix page-table walks, and the event queue
 * (current kernel and the pre-optimization legacy kernel, kept here
 * verbatim as the before/after reference).
 *
 * Beyond the google-benchmark registry, this binary is the producer of
 * the machine-readable core-performance trajectory:
 *
 *   bench_micro_structures --json BENCH_core.json [--smoke]
 *
 * writes events/sec for the legacy and current event kernels, request
 * allocation throughput (shared_ptr vs pool), a serial-vs-parallel
 * mini sweep, and peak RSS. Schema v2 adds the translation-path memory
 * layout sections: page-table walks (node-map vs flat radix nodes),
 * MSHR cycles (unordered_map vs FlatMap + inline waiter lists),
 * FlatMap vs std::unordered_map, Cuckoo probes (three-hash scalar vs
 * single-pass packed-bucket), and a whole-simulation sim_end_to_end
 * run. Every "legacy" structure is kept here verbatim so the JSON
 * speedups always compare against the same frozen baseline. --smoke
 * shrinks every measurement to CI size (scripts/check.sh runs it on
 * every build). Both flags are stripped before google-benchmark sees
 * argv, so the normal benchmark CLI keeps working.
 */
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/mshr.hpp"
#include "cache/set_assoc.hpp"
#include "filter/cuckoo_filter.hpp"
#include "filter/metrohash.hpp"
#include "mem/page_table.hpp"
#include "mmu/request.hpp"
#include "pwc/utc.hpp"
#include "sim/event_queue.hpp"
#include "sim/flat_map.hpp"
#include "sim/random.hpp"
#include "sim/task_pool.hpp"
#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

/**
 * The event kernel this repo shipped before the two-level bucket queue
 * and EventFn: a std::priority_queue of std::function entries. Frozen
 * here (weak events dropped — the harness only schedules strong ones)
 * so the BENCH_core.json speedup always compares against the same
 * baseline, not against whatever the library currently is.
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    sim::Tick now() const { return now_; }

    void
    schedule(sim::Tick delay, Callback cb)
    {
        heap_.push(Entry{now_ + delay, next_seq_++, std::move(cb)});
    }

    std::uint64_t
    run()
    {
        std::uint64_t executed = 0;
        while (!heap_.empty()) {
            Entry e = std::move(const_cast<Entry &>(heap_.top()));
            heap_.pop();
            now_ = e.when;
            e.cb();
            ++executed;
        }
        return executed;
    }

  private:
    struct Entry
    {
        sim::Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    sim::Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
};

/**
 * The radix page table this repo shipped before the flat-node layout:
 * per-node std::unordered_map children/leaves behind unique_ptr.
 * Frozen verbatim (walk/map only — all the harness exercises) as the
 * page_table section's before/after reference.
 */
class LegacyPageTable
{
  public:
    explicit LegacyPageTable(mem::PagingGeometry geo) : geo_(geo) {}

    void
    map(mem::Vpn vpn, const mem::PageInfo &info)
    {
        Node *node = &root_;
        for (int level = geo_.levels; level > geo_.leafLevel(); --level) {
            unsigned idx = geo_.index(vpn, level);
            auto &child = node->children[idx];
            if (!child)
                child = std::make_unique<Node>();
            node = child.get();
        }
        node->leaves.insert_or_assign(geo_.index(vpn, geo_.leafLevel()),
                                      info);
    }

    mem::WalkResult
    walk(mem::Vpn vpn, int pwc_hit_level = 0) const
    {
        mem::WalkResult res;
        int start_level = pwc_hit_level ? pwc_hit_level - 1 : geo_.levels;
        const Node *node = &root_;
        for (int l = geo_.levels; l > start_level; --l) {
            auto it = node->children.find(geo_.index(vpn, l));
            if (it == node->children.end())
                return res;
            node = it->second.get();
        }
        res.deepestFilled = pwc_hit_level;
        for (int level = start_level; level >= geo_.leafLevel(); --level) {
            ++res.accesses;
            if (level == geo_.leafLevel()) {
                auto it = node->leaves.find(geo_.index(vpn, level));
                if (it == node->leaves.end())
                    return res;
                res.present = true;
                res.info = it->second;
                return res;
            }
            auto it = node->children.find(geo_.index(vpn, level));
            if (it == node->children.end())
                return res;
            res.deepestFilled = level;
            node = it->second.get();
        }
        return res;
    }

  private:
    struct Node
    {
        std::unordered_map<unsigned, std::unique_ptr<Node>> children;
        std::unordered_map<unsigned, mem::PageInfo> leaves;
    };

    mem::PagingGeometry geo_;
    Node root_;
};

/**
 * The MSHR file before FlatMap + inline waiter lists: hash-map entries
 * each owning a heap-allocated std::vector of waiters. Frozen as the
 * mshr section's baseline.
 */
template <typename Waiter>
class LegacyMshr
{
  public:
    bool
    allocate(std::uint64_t key, Waiter waiter)
    {
        auto [it, inserted] = entries_.try_emplace(key);
        it->second.push_back(std::move(waiter));
        return inserted;
    }

    bool outstanding(std::uint64_t key) const
    {
        return entries_.count(key) != 0;
    }

    std::vector<Waiter>
    release(std::uint64_t key)
    {
        auto it = entries_.find(key);
        if (it == entries_.end())
            return {};
        std::vector<Waiter> waiters = std::move(it->second);
        entries_.erase(it);
        return waiters;
    }

  private:
    std::unordered_map<std::uint64_t, std::vector<Waiter>> entries_;
};

/**
 * The Cuckoo filter before the single-pass probe: three full
 * MetroHash buffer-path computations per operation (fingerprint,
 * primary bucket, and the fingerprint's alt-bucket hash) plus scalar
 * slot-by-slot bucket scans. Frozen verbatim — identical insert/kick
 * sequences to the library filter — as the cuckoo_probe baseline.
 */
class LegacyCuckooFilter
{
  public:
    using Fingerprint = std::uint16_t;

    explicit LegacyCuckooFilter(const filter::CuckooParams &params)
        : params_(params),
          table_(params.numBuckets * params.slotsPerBucket, 0),
          rng_(params.seed)
    {}

    bool
    insert(std::uint64_t key)
    {
        Fingerprint fp = fingerprintOf(key);
        std::size_t b1 = primaryBucket(key);
        std::size_t b2 = altBucket(b1, fp);
        if (tryPlace(b1, fp) || tryPlace(b2, fp))
            return true;
        std::size_t bucket = rng_.chance(0.5) ? b1 : b2;
        for (unsigned kick = 0; kick < params_.maxKicks; ++kick) {
            unsigned victim =
                static_cast<unsigned>(rng_.range(params_.slotsPerBucket));
            std::swap(fp, slot(bucket, victim));
            bucket = altBucket(bucket, fp);
            if (tryPlace(bucket, fp))
                return true;
        }
        return false;
    }

    bool
    contains(std::uint64_t key) const
    {
        Fingerprint fp = fingerprintOf(key);
        std::size_t b1 = primaryBucket(key);
        if (bucketContains(b1, fp))
            return true;
        return bucketContains(altBucket(b1, fp), fp);
    }

  private:
    Fingerprint
    fingerprintOf(std::uint64_t key) const
    {
        const std::uint64_t mask = (1ULL << params_.fingerprintBits) - 1;
        // The pre-refactor uint64 overload routed through the generic
        // buffer path; call it directly to keep that cost in the
        // baseline.
        std::uint64_t h = filter::metroHash64(
            &key, sizeof key, params_.seed ^ 0xF1F1F1F1ULL);
        auto fp = static_cast<Fingerprint>(h & mask);
        if (fp == 0)
            fp = static_cast<Fingerprint>(
                     (h >> params_.fingerprintBits) & mask) |
                 1;
        return fp;
    }

    std::size_t
    primaryBucket(std::uint64_t key) const
    {
        return filter::metroHash64(&key, sizeof key, params_.seed) %
               params_.numBuckets;
    }

    std::size_t
    altBucket(std::size_t bucket, Fingerprint fp) const
    {
        std::uint64_t f = fp;
        std::size_t h =
            filter::metroHash64(&f, sizeof f, // old overload widened
                                params_.seed ^ 0xA5A5A5A5ULL) %
            params_.numBuckets;
        return (h + params_.numBuckets - bucket % params_.numBuckets) %
               params_.numBuckets;
    }

    Fingerprint &slot(std::size_t bucket, unsigned s)
    {
        return table_[bucket * params_.slotsPerBucket + s];
    }
    const Fingerprint &slot(std::size_t bucket, unsigned s) const
    {
        return table_[bucket * params_.slotsPerBucket + s];
    }

    bool
    tryPlace(std::size_t bucket, Fingerprint fp)
    {
        for (unsigned s = 0; s < params_.slotsPerBucket; ++s) {
            if (slot(bucket, s) == 0) {
                slot(bucket, s) = fp;
                return true;
            }
        }
        return false;
    }

    bool
    bucketContains(std::size_t bucket, Fingerprint fp) const
    {
        for (unsigned s = 0; s < params_.slotsPerBucket; ++s)
            if (slot(bucket, s) == fp)
                return true;
        return false;
    }

    filter::CuckooParams params_;
    std::vector<Fingerprint> table_;
    mutable sim::Rng rng_;
};

/**
 * Self-rescheduling event chain, the simulator's dominant pattern
 * (every fired event schedules its successor). The payload ballast
 * makes the callable 48 bytes — larger than std::function's inline
 * buffer (heap allocation per event on the legacy kernel) but within
 * EventFn's 64-byte buffer (allocation-free on the current one),
 * matching real callbacks that capture a component pointer plus a
 * pooled request handle. Delays are a deterministic pseudo-random mix:
 * mostly short (bucket window), every 16th event +1500 ticks to force
 * the far/heap path.
 */
template <class Queue>
struct Chain
{
    Queue *q;
    std::uint64_t *fired;
    std::uint32_t remaining;
    std::uint32_t id;
    std::uint64_t pad[3] = {0, 0, 0};

    void
    operator()()
    {
        ++*fired;
        if (remaining == 0)
            return;
        sim::Tick delay = 1 + ((id * 2654435761u + remaining) % 97);
        if (remaining % 16 == 0)
            delay += 1500;
        q->schedule(delay, Chain{q, fired, remaining - 1, id});
    }
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Events/sec driving @p chains self-rescheduling chains to the end. */
template <class Queue>
double
eventKernelThroughput(int chains, std::uint32_t perChain, int reps)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        Queue q;
        std::uint64_t fired = 0;
        auto start = std::chrono::steady_clock::now();
        for (int c = 0; c < chains; ++c)
            q.schedule(static_cast<sim::Tick>(c % 13),
                       Chain<Queue>{&q, &fired,
                                    perChain - 1,
                                    static_cast<std::uint32_t>(c)});
        q.run();
        double secs = secondsSince(start);
        if (secs > 0.0)
            best = std::max(best, static_cast<double>(fired) / secs);
    }
    return best;
}

double
sharedPtrRequestThroughput(std::uint64_t ops, int reps)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < ops; ++i) {
            auto req = std::make_shared<mmu::XlatRequest>();
            req->vpn = i;
            benchmark::DoNotOptimize(req);
        }
        double secs = secondsSince(start);
        if (secs > 0.0)
            best = std::max(best, static_cast<double>(ops) / secs);
    }
    return best;
}

double
pooledRequestThroughput(std::uint64_t ops, int reps)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        auto start = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < ops; ++i) {
            mmu::XlatPtr req = mmu::makeRequest();
            req->vpn = i;
            benchmark::DoNotOptimize(req);
        }
        double secs = secondsSince(start);
        if (secs > 0.0)
            best = std::max(best, static_cast<double>(ops) / secs);
    }
    return best;
}

/** Deterministic key stream spreading keys over a large VPN range. */
inline std::uint64_t
benchKey(std::uint64_t i)
{
    return (i * 0x9E3779B97F4A7C15ULL) >> 24;
}

/**
 * VPN stream for the page-table section: 512-page contiguous clusters
 * (one leaf node's span) at scattered bases, like the apps' large
 * contiguous buffers spread across the address space.
 */
inline std::uint64_t
pageKey(std::uint64_t i)
{
    return (benchKey(i >> 9) << 9) | (i & 511);
}

/** Walks/sec over @p pages mapped pages (hits and misses mixed). */
template <class Table>
double
pageTableWalkThroughput(std::size_t pages, std::uint64_t walks, int reps)
{
    mem::PagingGeometry geo{5, mem::kSmallPageShift};
    Table pt(geo);
    for (std::size_t i = 0; i < pages; ++i)
        pt.map(pageKey(i), mem::PageInfo{static_cast<mem::Ppn>(i), 0, 1,
                                         true, false});
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        auto start = std::chrono::steady_clock::now();
        int acc = 0;
        for (std::uint64_t w = 0; w < walks; ++w) {
            // ~3/4 hits, 1/4 faulting walks, like a warm translation
            // path that still takes far faults.
            std::uint64_t i = (w * 48271) % (pages + pages / 3);
            acc += pt.walk(pageKey(i)).accesses;
        }
        benchmark::DoNotOptimize(acc);
        double secs = secondsSince(start);
        if (secs > 0.0)
            best = std::max(best, static_cast<double>(walks) / secs);
    }
    return best;
}

/** MSHR allocate/merge/release cycles per second. */
template <class M>
double
mshrThroughput(std::uint64_t cycles, int reps)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        M mshr;
        auto start = std::chrono::steady_clock::now();
        std::uint64_t woken = 0;
        for (std::uint64_t i = 0; i < cycles; ++i) {
            std::uint64_t key = benchKey(i % 64);
            mshr.allocate(key, static_cast<int>(i));       // primary
            mshr.allocate(key, static_cast<int>(i) + 1);   // merge
            if (i % 2 == 0)
                mshr.allocate(key, static_cast<int>(i) + 2);
            for (int w : mshr.release(key))
                woken += static_cast<std::uint64_t>(w) & 1;
        }
        benchmark::DoNotOptimize(woken);
        double secs = secondsSince(start);
        if (secs > 0.0)
            best = std::max(best, static_cast<double>(cycles) / secs);
    }
    return best;
}

/**
 * Mixed map workload (insert, hit/miss lookups, erase half, re-insert)
 * shared by the FlatMap and std::unordered_map measurements.
 */
template <class Map>
double
mapMixedThroughput(std::size_t keys, int rounds, int reps)
{
    double best = 0.0;
    // One op = one insert/find/erase; count them for the rate.
    const std::uint64_t ops =
        static_cast<std::uint64_t>(rounds) * keys * 4;
    for (int r = 0; r < reps; ++r) {
        Map map;
        auto start = std::chrono::steady_clock::now();
        std::uint64_t sum = 0;
        for (int round = 0; round < rounds; ++round) {
            for (std::size_t i = 0; i < keys; ++i)
                map[benchKey(i)] = i;
            for (std::size_t i = 0; i < keys; ++i) {
                auto it = map.find(benchKey(i));
                sum += it == map.end() ? 0 : it->second;
            }
            for (std::size_t i = 0; i < keys; ++i)
                sum += map.find(benchKey(i + keys)) == map.end();
            for (std::size_t i = 0; i < keys; i += 2)
                map.erase(benchKey(i));
        }
        benchmark::DoNotOptimize(sum);
        double secs = secondsSince(start);
        if (secs > 0.0)
            best = std::max(best, static_cast<double>(ops) / secs);
    }
    return best;
}

/** Cuckoo probes/sec over a filter populated like the FT (load ~0.9). */
template <class Filter>
double
cuckooProbeThroughput(std::uint64_t probes, int reps)
{
    filter::CuckooParams params{.numBuckets = 1000,
                                .slotsPerBucket = 2,
                                .fingerprintBits = 11};
    Filter filter(params);
    for (std::uint64_t key = 0; key < 1800; ++key)
        filter.insert(benchKey(key));
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        auto start = std::chrono::steady_clock::now();
        std::uint64_t hits = 0;
        for (std::uint64_t p = 0; p < probes; ++p)
            hits += filter.contains(benchKey(p % 3600)) ? 1 : 0;
        benchmark::DoNotOptimize(hits);
        double secs = secondsSince(start);
        if (secs > 0.0)
            best = std::max(best, static_cast<double>(probes) / secs);
    }
    return best;
}

struct EndToEndMeasurement
{
    double rateScale = 0.0;
    double rateWallSeconds = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    double fullScale = 0.0;
    double fullWallSeconds = 0.0; ///< 0 in smoke mode
};

/**
 * Whole-simulation runs (MT under the Trans-FW config). The rate run
 * uses the same scale in smoke and full mode so scripts/check.sh can
 * gate events/sec against the committed full-mode JSON; the full mode
 * additionally times a scale-4 run.
 */
EndToEndMeasurement
simEndToEnd(bool smoke)
{
    EndToEndMeasurement m;
    m.rateScale = 0.5;
    sys::runApp("MT", sys::transFwConfig(), m.rateScale); // warm-up
    double bestWall = 1e30;
    // Best-of-N: wall-clock noise on shared hosts is one-sided (other
    // tenants only ever slow a run down), so the minimum is the
    // cleanest estimator of the true runtime.
    for (int r = 0; r < (smoke ? 2 : 5); ++r) {
        auto start = std::chrono::steady_clock::now();
        sys::SimResults res =
            sys::runApp("MT", sys::transFwConfig(), m.rateScale);
        double secs = secondsSince(start);
        if (secs < bestWall) {
            bestWall = secs;
            m.events = res.eventsExecuted;
        }
    }
    m.rateWallSeconds = bestWall;
    if (bestWall > 0.0)
        m.eventsPerSec = static_cast<double>(m.events) / bestWall;

    if (!smoke) {
        m.fullScale = 4.0;
        m.fullWallSeconds = 1e30;
        for (int r = 0; r < 5; ++r) {
            auto start = std::chrono::steady_clock::now();
            sys::runApp("MT", sys::transFwConfig(), m.fullScale);
            m.fullWallSeconds =
                std::min(m.fullWallSeconds, secondsSince(start));
        }
    }
    return m;
}

struct SweepMeasurement
{
    std::size_t points = 0;
    double scale = 0.0;
    double serialSeconds = 0.0;
    double parallelSeconds = 0.0;
    int parallelJobs = 0;
    bool identical = false;
};

SweepMeasurement
miniSweep(double scale)
{
    const std::vector<std::string> apps = {"AES", "FIR", "KM"};
    std::vector<sys::RunSpec> specs;
    for (const auto &app : apps) {
        specs.push_back({app, sys::baselineConfig(), scale});
        specs.push_back({app, sys::transFwConfig(), scale});
    }

    SweepMeasurement m;
    m.points = specs.size();
    m.scale = scale;

    sys::SweepRunner serial(1);
    auto start = std::chrono::steady_clock::now();
    std::vector<sys::SimResults> serialResults = serial.run(specs);
    m.serialSeconds = secondsSince(start);

    sys::SweepRunner parallel(
        static_cast<int>(sim::TaskPool::defaultThreads()));
    m.parallelJobs = parallel.jobs();
    if (m.parallelJobs <= 1)
        std::fprintf(stderr,
                     "warning: 1 hardware thread — sweep parallelism "
                     "cannot be measured here; recording degraded "
                     "speedup\n");
    start = std::chrono::steady_clock::now();
    std::vector<sys::SimResults> parallelResults = parallel.run(specs);
    m.parallelSeconds = secondsSince(start);

    m.identical = serialResults.size() == parallelResults.size();
    for (std::size_t i = 0; m.identical && i < serialResults.size(); ++i)
        m.identical = serialResults[i].execTime ==
                          parallelResults[i].execTime &&
                      serialResults[i].xlatLatencyHist.count() ==
                          parallelResults[i].xlatLatencyHist.count();
    return m;
}

/** One point of the pod-scaling surface. */
struct PodPoint
{
    const char *topology = "";
    int gpus = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    double xlatP99 = 0.0;
    std::uint64_t events = 0;
};

struct PodScalingMeasurement
{
    double scale = 0.0;
    int shards = 0;
    unsigned hardwareThreads = 0;
    bool degraded = false; ///< single hardware thread (wall noise only)
    std::vector<PodPoint> points;
};

/**
 * Pod-scaling surface: simulator throughput (events/sec) and modeled
 * p99 translation latency as the pod grows across fabric topologies,
 * under the Trans-FW config with a 4-way sharded host MMU. The
 * events/sec column is wall-clock (hardware_threads / degraded say
 * how much to trust it on this box); the p99 column is deterministic
 * modeled latency and diffs cleanly across runs. Smoke stops at 16
 * GPUs; the full run walks 4..64.
 */
PodScalingMeasurement
podScaling(bool smoke)
{
    PodScalingMeasurement m;
    m.scale = smoke ? 0.02 : 0.05;
    m.shards = 4;
    m.hardwareThreads = sim::TaskPool::defaultThreads();
    m.degraded = m.hardwareThreads <= 1;

    const std::pair<ic::Topology, const char *> topos[] = {
        {ic::Topology::AllToAll, "a2a"},
        {ic::Topology::Ring, "ring"},
        {ic::Topology::Mesh2D, "mesh"},
        {ic::Topology::Switch, "switch"},
    };
    std::vector<int> gpuCounts = {4, 8, 16};
    if (!smoke) {
        gpuCounts.push_back(32);
        gpuCounts.push_back(64);
    }

    for (const auto &[topo, name] : topos) {
        for (int gpus : gpuCounts) {
            cfg::SystemConfig config = sys::transFwConfig();
            config.numGpus = gpus;
            config.cusPerGpu = 4;
            config.peerTopology = topo;
            config.hostShards = m.shards;

            auto start = std::chrono::steady_clock::now();
            sys::SimResults r = sys::runApp("MT", config, m.scale);
            double wall = secondsSince(start);

            PodPoint p;
            p.topology = name;
            p.gpus = gpus;
            p.wallSeconds = wall;
            p.events = r.eventsExecuted;
            p.eventsPerSec =
                wall > 0.0
                    ? static_cast<double>(r.eventsExecuted) / wall
                    : 0.0;
            p.xlatP99 = r.xlatLatencyHist.quantile(0.99);
            m.points.push_back(p);
        }
    }
    return m;
}

std::uint64_t
peakRssBytes()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
writeCoreJson(const std::string &path, bool smoke)
{
    const int chains = 64;
    const std::uint32_t perChain = smoke ? 500u : 20000u;
    const std::uint64_t poolOps = smoke ? 200000ull : 4000000ull;
    const int reps = smoke ? 2 : 3;
    const double sweepScale = smoke ? 0.05 : 0.25;
    const std::size_t ptPages = smoke ? 20000 : 200000;
    const std::uint64_t ptWalks = smoke ? 200000ull : 2000000ull;
    const std::uint64_t mshrCycles = smoke ? 200000ull : 2000000ull;
    // Keys sized like the erase-churn maps the simulator actually has
    // (MSHRs, PRT/FT counters, UVM pending tables run tens to a few
    // thousand entries; the larger lineCursor_ map is append-only).
    const std::size_t mapKeys = 4096;
    const int mapRounds = smoke ? 4 : 32;
    const std::uint64_t cuckooProbes = smoke ? 1000000ull : 10000000ull;

    // Measure the whole-simulation section first, before the
    // microbench sections grow and fragment the process heap: the
    // wall-clock numbers are meant to reflect a normal simulator
    // process, and the smoke run (scripts/check.sh gate) measures in
    // the same position so the comparison stays like-for-like.
    std::fprintf(stderr, "sim end-to-end (MT, Trans-FW config)...\n");
    EndToEndMeasurement e2e = simEndToEnd(smoke);

    std::fprintf(stderr, "event kernel: %d chains x %u events...\n",
                 chains, perChain);
    double legacy =
        eventKernelThroughput<LegacyEventQueue>(chains, perChain, reps);
    double fast =
        eventKernelThroughput<sim::EventQueue>(chains, perChain, reps);

    std::fprintf(stderr, "request pool: %llu ops...\n",
                 static_cast<unsigned long long>(poolOps));
    double sharedPtr = sharedPtrRequestThroughput(poolOps, reps);
    double pooled = pooledRequestThroughput(poolOps, reps);

    std::fprintf(stderr, "page table: %zu pages x %llu walks...\n",
                 ptPages, static_cast<unsigned long long>(ptWalks));
    double ptLegacy =
        pageTableWalkThroughput<LegacyPageTable>(ptPages, ptWalks, reps);
    double ptFlat =
        pageTableWalkThroughput<mem::PageTable>(ptPages, ptWalks, reps);

    std::fprintf(stderr, "mshr: %llu cycles...\n",
                 static_cast<unsigned long long>(mshrCycles));
    double mshrLegacy = mshrThroughput<LegacyMshr<int>>(mshrCycles, reps);
    double mshrFlat = mshrThroughput<cache::Mshr<int>>(mshrCycles, reps);

    std::fprintf(stderr, "flat map: %zu keys x %d rounds...\n", mapKeys,
                 mapRounds);
    // Interleave the A/B reps (std, flat, std, flat, ...): the two
    // sides see the same tenancy drift, so a noise burst shifts both
    // rates instead of skewing the ratio. Same protocol as the
    // interleaved end-to-end A/B.
    double mapStd = 0.0, mapFlat = 0.0;
    for (int r = 0; r < reps; ++r) {
        mapStd = std::max(
            mapStd,
            mapMixedThroughput<
                std::unordered_map<std::uint64_t, std::size_t>>(
                mapKeys, mapRounds, 1));
        mapFlat = std::max(
            mapFlat,
            mapMixedThroughput<sim::FlatMap<std::uint64_t, std::size_t>>(
                mapKeys, mapRounds, 1));
    }

    std::fprintf(stderr, "cuckoo probes: %llu...\n",
                 static_cast<unsigned long long>(cuckooProbes));
    double cuckooLegacy =
        cuckooProbeThroughput<LegacyCuckooFilter>(cuckooProbes, reps);
    double cuckooPacked =
        cuckooProbeThroughput<filter::CuckooFilter>(cuckooProbes, reps);

    std::fprintf(stderr, "mini sweep: scale %.2f...\n", sweepScale);
    SweepMeasurement sweep = miniSweep(sweepScale);

    std::fprintf(stderr, "pod scaling: gpus x topology...\n");
    PodScalingMeasurement pod = podScaling(smoke);

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"transfw-bench-core-v3\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 sim::TaskPool::defaultThreads());
    std::fprintf(f, "  \"event_kernel\": {\n");
    std::fprintf(f, "    \"chains\": %d,\n", chains);
    std::fprintf(f, "    \"events_per_chain\": %u,\n", perChain);
    std::fprintf(f, "    \"legacy_events_per_sec\": %.0f,\n", legacy);
    std::fprintf(f, "    \"fast_events_per_sec\": %.0f,\n", fast);
    std::fprintf(f, "    \"speedup\": %.3f\n", ratio(fast, legacy));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"request_pool\": {\n");
    std::fprintf(f, "    \"ops\": %llu,\n",
                 static_cast<unsigned long long>(poolOps));
    std::fprintf(f, "    \"shared_ptr_ops_per_sec\": %.0f,\n", sharedPtr);
    std::fprintf(f, "    \"pooled_ops_per_sec\": %.0f,\n", pooled);
    std::fprintf(f, "    \"speedup\": %.3f\n", ratio(pooled, sharedPtr));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"page_table\": {\n");
    std::fprintf(f, "    \"pages\": %zu,\n", ptPages);
    std::fprintf(f, "    \"walks\": %llu,\n",
                 static_cast<unsigned long long>(ptWalks));
    std::fprintf(f, "    \"node_map_walks_per_sec\": %.0f,\n", ptLegacy);
    std::fprintf(f, "    \"flat_node_walks_per_sec\": %.0f,\n", ptFlat);
    std::fprintf(f, "    \"speedup\": %.3f\n", ratio(ptFlat, ptLegacy));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"mshr\": {\n");
    std::fprintf(f, "    \"cycles\": %llu,\n",
                 static_cast<unsigned long long>(mshrCycles));
    std::fprintf(f, "    \"unordered_map_cycles_per_sec\": %.0f,\n",
                 mshrLegacy);
    std::fprintf(f, "    \"flat_map_cycles_per_sec\": %.0f,\n", mshrFlat);
    std::fprintf(f, "    \"speedup\": %.3f\n",
                 ratio(mshrFlat, mshrLegacy));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"flat_map\": {\n");
    std::fprintf(f, "    \"keys\": %zu,\n", mapKeys);
    std::fprintf(f, "    \"rounds\": %d,\n", mapRounds);
    std::fprintf(f, "    \"unordered_map_ops_per_sec\": %.0f,\n", mapStd);
    std::fprintf(f, "    \"flat_map_ops_per_sec\": %.0f,\n", mapFlat);
    std::fprintf(f, "    \"speedup\": %.3f\n", ratio(mapFlat, mapStd));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"cuckoo_probe\": {\n");
    std::fprintf(f, "    \"probes\": %llu,\n",
                 static_cast<unsigned long long>(cuckooProbes));
    std::fprintf(f, "    \"three_hash_probes_per_sec\": %.0f,\n",
                 cuckooLegacy);
    std::fprintf(f, "    \"single_pass_probes_per_sec\": %.0f,\n",
                 cuckooPacked);
    std::fprintf(f, "    \"speedup\": %.3f\n",
                 ratio(cuckooPacked, cuckooLegacy));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sweep\": {\n");
    std::fprintf(f, "    \"points\": %zu,\n", sweep.points);
    std::fprintf(f, "    \"scale\": %.3f,\n", sweep.scale);
    std::fprintf(f, "    \"serial_seconds\": %.3f,\n", sweep.serialSeconds);
    std::fprintf(f, "    \"parallel_seconds\": %.3f,\n",
                 sweep.parallelSeconds);
    std::fprintf(f, "    \"parallel_jobs\": %d,\n", sweep.parallelJobs);
    std::fprintf(f, "    \"speedup\": %.3f,\n",
                 ratio(sweep.serialSeconds, sweep.parallelSeconds));
    std::fprintf(f, "    \"degraded\": %s,\n",
                 sweep.parallelJobs <= 1 ? "true" : "false");
    std::fprintf(f, "    \"identical_results\": %s\n",
                 sweep.identical ? "true" : "false");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"pod_scaling\": {\n");
    std::fprintf(f, "    \"app\": \"MT\",\n");
    std::fprintf(f, "    \"config\": \"transfw\",\n");
    std::fprintf(f, "    \"scale\": %.3f,\n", pod.scale);
    std::fprintf(f, "    \"host_shards\": %d,\n", pod.shards);
    std::fprintf(f, "    \"hardware_threads\": %u,\n",
                 pod.hardwareThreads);
    std::fprintf(f, "    \"degraded\": %s,\n",
                 pod.degraded ? "true" : "false");
    std::fprintf(f, "    \"points\": [\n");
    for (std::size_t i = 0; i < pod.points.size(); ++i) {
        const PodPoint &p = pod.points[i];
        std::fprintf(f,
                     "      {\"topology\": \"%s\", \"gpus\": %d, "
                     "\"wall_seconds\": %.4f, \"events_per_sec\": "
                     "%.0f, \"xlat_p99\": %.1f}%s\n",
                     p.topology, p.gpus, p.wallSeconds, p.eventsPerSec,
                     p.xlatP99,
                     i + 1 < pod.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sim_end_to_end\": {\n");
    std::fprintf(f, "    \"app\": \"MT\",\n");
    std::fprintf(f, "    \"config\": \"transfw\",\n");
    std::fprintf(f, "    \"rate_scale\": %.2f,\n", e2e.rateScale);
    std::fprintf(f, "    \"rate_wall_seconds\": %.4f,\n",
                 e2e.rateWallSeconds);
    std::fprintf(f, "    \"events_executed\": %llu,\n",
                 static_cast<unsigned long long>(e2e.events));
    std::fprintf(f, "    \"events_per_sec\": %.0f,\n", e2e.eventsPerSec);
    if (!smoke) {
        std::fprintf(f, "    \"full_scale\": %.2f,\n", e2e.fullScale);
        std::fprintf(f, "    \"full_wall_seconds\": %.4f\n",
                     e2e.fullWallSeconds);
    } else {
        std::fprintf(f, "    \"full_scale\": 0.0\n");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"peak_rss_bytes\": %llu\n",
                 static_cast<unsigned long long>(peakRssBytes()));
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::fprintf(stderr,
                 "event kernel %.2fx, request pool %.2fx, page table "
                 "%.2fx, mshr %.2fx, flat map %.2fx, cuckoo %.2fx, "
                 "sweep %.2fx on %d jobs (identical=%s), e2e %.3f s -> "
                 "%s\n",
                 ratio(fast, legacy), ratio(pooled, sharedPtr),
                 ratio(ptFlat, ptLegacy), ratio(mshrFlat, mshrLegacy),
                 ratio(mapFlat, mapStd), ratio(cuckooPacked, cuckooLegacy),
                 ratio(sweep.serialSeconds, sweep.parallelSeconds),
                 sweep.parallelJobs, sweep.identical ? "yes" : "no",
                 e2e.fullWallSeconds, path.c_str());
    return sweep.identical ? 0 : 1;
}

} // namespace

static void
BM_MetroHash64(benchmark::State &state)
{
    std::uint64_t key = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(filter::metroHash64(++key, 1));
}
BENCHMARK(BM_MetroHash64);

static void
BM_CuckooInsertEraseCycle(benchmark::State &state)
{
    filter::CuckooFilter filter(
        {.numBuckets = 1000, .slotsPerBucket = 2, .fingerprintBits = 11});
    std::uint64_t key = 0;
    for (auto _ : state) {
        filter.insert(key);
        filter.erase(key);
        ++key;
    }
}
BENCHMARK(BM_CuckooInsertEraseCycle);

static void
BM_CuckooLookup(benchmark::State &state)
{
    filter::CuckooFilter filter(
        {.numBuckets = 1000, .slotsPerBucket = 2, .fingerprintBits = 11});
    for (std::uint64_t key = 0; key < 1500; ++key)
        filter.insert(key);
    std::uint64_t key = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(filter.contains(key++ % 3000));
}
BENCHMARK(BM_CuckooLookup);

static void
BM_UtcLookup(benchmark::State &state)
{
    mem::PagingGeometry geo{5, mem::kSmallPageShift};
    pwc::UnifiedTranslationCache utc(128, geo);
    for (mem::Vpn vpn = 0; vpn < 64; ++vpn)
        utc.fill(vpn << 14, 3);
    mem::Vpn vpn = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(utc.lookup((vpn++ % 128) << 14));
}
BENCHMARK(BM_UtcLookup);

static void
BM_SetAssocLookup(benchmark::State &state)
{
    cache::SetAssoc<std::uint64_t> tlb(512, 16);
    for (std::uint64_t key = 0; key < 512; ++key)
        tlb.insert(key, key);
    std::uint64_t key = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookup(key++ % 1024));
}
BENCHMARK(BM_SetAssocLookup);

static void
BM_PageTableWalk(benchmark::State &state)
{
    mem::PageTable pt(mem::PagingGeometry{5, mem::kSmallPageShift});
    for (mem::Vpn vpn = 0; vpn < 4096; ++vpn)
        pt.map(vpn << 9, mem::PageInfo{vpn, 0, 1, true, false});
    mem::Vpn vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk((vpn % 4096) << 9));
        ++vpn;
    }
}
BENCHMARK(BM_PageTableWalk);

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int fired = 0;
        for (int i = 0; i < 64; ++i)
            eq.schedule(static_cast<sim::Tick>(i % 7), [&] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_EventKernelChains(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            eventKernelThroughput<sim::EventQueue>(16, 500, 1));
}
BENCHMARK(BM_EventKernelChains);

static void
BM_EventKernelChainsLegacy(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(
            eventKernelThroughput<LegacyEventQueue>(16, 500, 1));
}
BENCHMARK(BM_EventKernelChainsLegacy);

static void
BM_FlatMapFind(benchmark::State &state)
{
    sim::FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 4096; ++i)
        map[benchKey(i)] = i;
    std::uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(map.find(benchKey(i++ % 8192)));
}
BENCHMARK(BM_FlatMapFind);

static void
BM_UnorderedMapFind(benchmark::State &state)
{
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 4096; ++i)
        map[benchKey(i)] = i;
    std::uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(map.find(benchKey(i++ % 8192)));
}
BENCHMARK(BM_UnorderedMapFind);

static void
BM_MshrCycle(benchmark::State &state)
{
    cache::Mshr<int> mshr;
    std::uint64_t i = 0;
    for (auto _ : state) {
        std::uint64_t key = benchKey(i % 64);
        mshr.allocate(key, static_cast<int>(i));
        mshr.allocate(key, static_cast<int>(i) + 1);
        benchmark::DoNotOptimize(mshr.release(key));
        ++i;
    }
}
BENCHMARK(BM_MshrCycle);

static void
BM_CuckooLookupLegacy(benchmark::State &state)
{
    LegacyCuckooFilter filter(
        {.numBuckets = 1000, .slotsPerBucket = 2, .fingerprintBits = 11});
    for (std::uint64_t key = 0; key < 1500; ++key)
        filter.insert(key);
    std::uint64_t key = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(filter.contains(key++ % 3000));
}
BENCHMARK(BM_CuckooLookupLegacy);

static void
BM_PageTableWalkLegacy(benchmark::State &state)
{
    LegacyPageTable pt(mem::PagingGeometry{5, mem::kSmallPageShift});
    for (mem::Vpn vpn = 0; vpn < 4096; ++vpn)
        pt.map(vpn << 9, mem::PageInfo{vpn, 0, 1, true, false});
    mem::Vpn vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(pt.walk((vpn % 4096) << 9));
        ++vpn;
    }
}
BENCHMARK(BM_PageTableWalkLegacy);

static void
BM_RequestPoolCycle(benchmark::State &state)
{
    for (auto _ : state) {
        mmu::XlatPtr req = mmu::makeRequest();
        benchmark::DoNotOptimize(req);
    }
}
BENCHMARK(BM_RequestPoolCycle);

static void
BM_RequestSharedPtrCycle(benchmark::State &state)
{
    for (auto _ : state) {
        auto req = std::make_shared<mmu::XlatRequest>();
        benchmark::DoNotOptimize(req);
    }
}
BENCHMARK(BM_RequestSharedPtrCycle);

int
main(int argc, char **argv)
{
    std::string jsonPath;
    bool smoke = false;
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            rest.push_back(argv[i]);
    }

    if (!jsonPath.empty())
        return writeCoreJson(jsonPath, smoke);

    int restArgc = static_cast<int>(rest.size());
    benchmark::Initialize(&restArgc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(restArgc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

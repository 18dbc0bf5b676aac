/**
 * explain_request: run one application with per-request timelines
 * retained and dump one translation's causal latency story — every
 * charge (bucket, cycles, tick), the reply-race transitions, and the
 * final per-bucket decomposition.
 *
 * Usage: explain_request [APP] [baseline|transfw|sw|sw-transfw] [GPU:ID]
 *
 * Without GPU:ID the slowest finished translation of the run is
 * explained — usually the most interesting one.
 */
#include <array>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "transfw/transfw.hpp"

using namespace transfw;

namespace {

const char *
kindName(obs::AttribEvent::Kind kind)
{
    using Kind = obs::AttribEvent::Kind;
    switch (kind) {
      case Kind::Charge:
        return "charge";
      case Kind::ShortCircuit:
        return "prt short-circuit";
      case Kind::ForwardLaunched:
        return "forward launched";
      case Kind::ForwardFailed:
        return "forward failed";
      case Kind::RemoteWon:
        return "remote reply won";
      case Kind::HostWon:
        return "host walk won";
      case Kind::HostWalkCancelled:
        return "host walk cancelled";
      case Kind::DuplicateHostWalk:
        return "duplicate host walk";
      case Kind::Finish:
        return "finish";
      case Kind::NetworkHop:
        return "network hop";
    }
    return "?";
}

/** Human name of an attribution-hop node id (see obs::AttribHop). */
std::string
nodeName(int node, int num_gpus)
{
    char buf[32];
    if (node < 0)
        return "host";
    if (node < num_gpus) {
        std::snprintf(buf, sizeof buf, "gpu%d", node);
        return buf;
    }
    std::snprintf(buf, sizeof buf, "sw%d", node - num_gpus);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h") {
            std::printf("usage: explain_request [APP] "
                        "[baseline|transfw|sw|sw-transfw] [GPU:ID]\n");
            return 0;
        }
    }
    std::string app = args.size() > 0 ? args[0] : "MT";
    std::string mode = args.size() > 1 ? args[1] : "transfw";

    cfg::SystemConfig config = sys::modeConfig(mode);

    wl::SyntheticWorkload workload(
        wl::appSpec(app, sys::effectiveScale(0.0)));
    sys::MultiGpuSystem system(config, workload);
    // Timelines must be armed before the run: only requests begun
    // while they are kept get one.
    system.obs().attribution.setKeepTimelines(true);
    sys::SimResults r = system.run();

    int gpu = -1;
    std::uint64_t id = 0;
    if (args.size() > 2) {
        if (std::sscanf(args[2].c_str(), "%d:%llu", &gpu,
                        reinterpret_cast<unsigned long long *>(&id)) != 2) {
            std::fprintf(stderr, "bad request selector '%s' (want GPU:ID)\n",
                         args[2].c_str());
            return 1;
        }
    } else {
        auto slowest = system.obs().attribution.slowestRequest();
        gpu = slowest.first;
        id = slowest.second;
    }
    if (gpu < 0) {
        std::fprintf(stderr, "no finished translations recorded\n");
        return 1;
    }

    const obs::Timeline *tl =
        system.obs().attribution.timeline(gpu, id);
    if (!tl) {
        std::fprintf(stderr, "request gpu%d:%llu unknown\n", gpu,
                     static_cast<unsigned long long>(id));
        return 1;
    }

    const std::array<double, obs::kNumAttribBuckets> bucket = tl->buckets();
    const double total =
        std::accumulate(bucket.begin(), bucket.end(), 0.0);
    std::printf("== %s (%s): translation gpu%d:%llu ==\n", app.c_str(),
                mode.c_str(), gpu, static_cast<unsigned long long>(id));
    std::printf("vpn 0x%llx  issued @%llu  finished @%llu  wall %llu  "
                "charged %.0f cycles\n\n",
                static_cast<unsigned long long>(tl->vpn),
                static_cast<unsigned long long>(tl->tIssue),
                static_cast<unsigned long long>(tl->tFinish),
                static_cast<unsigned long long>(tl->tFinish - tl->tIssue),
                total);

    std::printf("[buckets]\n");
    for (std::size_t b = 0; b < obs::kNumAttribBuckets; ++b) {
        if (bucket[b] == 0)
            continue;
        std::printf("  %-16s %10.0f  (%5.1f%%)\n",
                    obs::bucketName(static_cast<obs::AttribBucket>(b)),
                    bucket[b], total ? 100.0 * bucket[b] / total : 0.0);
    }

    // The actual route this request's messages took, edge by edge,
    // with each hop's queue-wait / serialization / propagation split —
    // per-hop attribution is what turns "Network: N cycles" into
    // "N cycles, and here is the congested edge".
    bool any_hop = false;
    for (const obs::AttribEvent &ev : tl->events)
        any_hop |= ev.kind == obs::AttribEvent::Kind::NetworkHop;
    if (any_hop) {
        std::printf("\n[route]\n");
        for (const obs::AttribEvent &ev : tl->events) {
            if (ev.kind != obs::AttribEvent::Kind::NetworkHop)
                continue;
            std::printf("  @%-10llu %-6s -> %-6s %-10s wait %7.0f  "
                        "ser %5.0f  prop %6.0f\n",
                        static_cast<unsigned long long>(ev.tick),
                        nodeName(ev.hopFrom, config.numGpus).c_str(),
                        nodeName(ev.hopTo, config.numGpus).c_str(),
                        obs::bucketName(ev.bucket),
                        static_cast<double>(ev.hopWait),
                        static_cast<double>(ev.hopSer),
                        static_cast<double>(ev.hopProp));
        }
    }

    std::printf("\n[timeline]\n");
    for (const obs::AttribEvent &ev : tl->events) {
        if (ev.kind == obs::AttribEvent::Kind::Charge)
            std::printf("  @%-10llu charge %-16s %10.0f\n",
                        static_cast<unsigned long long>(ev.tick),
                        obs::bucketName(ev.bucket), ev.cycles);
        else
            std::printf("  @%-10llu %-23s %10.0f\n",
                        static_cast<unsigned long long>(ev.tick),
                        kindName(ev.kind), ev.cycles);
    }

    std::printf("\nrun context: %llu translations, %llu forwards "
                "(%llu remote wins), %llu short circuits, "
                "%llu watchdog violations\n",
                static_cast<unsigned long long>(r.attribution.requests),
                static_cast<unsigned long long>(r.attribution.forwards),
                static_cast<unsigned long long>(r.attribution.remoteWins),
                static_cast<unsigned long long>(r.attribution.shortCircuits),
                static_cast<unsigned long long>(r.obsCheckViolations));
    return 0;
}

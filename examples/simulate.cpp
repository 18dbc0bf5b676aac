/**
 * simulate: the command-line front end to the simulator. Choose a
 * workload (Table III app, ML model, or trace file), flip any of the
 * paper's configuration knobs, and get a full report or a CSV row.
 *
 * Examples:
 *   simulate --app MT --transfw
 *   simulate --app PR --transfw --threshold 1.0 --gpus 8
 *   simulate --model VGG16 --policy replicate --report
 *   simulate --trace /tmp/foo.trace --fault-mode sw --csv
 *   simulate --app KM --transfw --no-forwarding   # PRT-only ablation
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "system/report.hpp"
#include "transfw/transfw.hpp"
#include "workload/trace.hpp"

using namespace transfw;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [workload] [config] [output]\n"
        "workload (one of):\n"
        "  --app ABBR          Table III app (AES FIR KM PR MM MT SC ST\n"
        "                      Conv2d Im2col), default MT\n"
        "  --model NAME        VGG16 or ResNet18 training trace\n"
        "  --trace PATH        replay a trace-v1 file\n"
        "  --scale F           scale per-CTA work (default 1.0)\n"
        "config:\n"
        "  --transfw           enable Trans-FW (PRT + FT)\n"
        "  --no-short-circuit  ablation: disable the PRT short circuit\n"
        "  --no-forwarding     ablation: disable FT remote forwarding\n"
        "  --threshold F       forwarding threshold (default 0.5)\n"
        "  --gpus N --cus N --slots N\n"
        "  --walkers G,H       GMMU,host PT-walk threads (default 8,16)\n"
        "  --levels N          page-table levels, 4 or 5\n"
        "  --page-size 4k|2m\n"
        "  --pwc utc|stc|inf   PW-cache organization\n"
        "  --pwc-entries N\n"
        "  --fault-mode hw|sw  host MMU or UVM driver\n"
        "  --mem-model simple|hier  data-side memory model\n"
        "  --topology a2a|ring|mesh|switch  GPU-GPU fabric\n"
        "  --mesh-cols N       mesh columns (0 = near-square auto)\n"
        "  --switch-radix N    GPUs per leaf switch (default 8)\n"
        "  --shards K          host-MMU/IOMMU shards (default 1)\n"
        "  --ft-mode part|repl FT placement across shards\n"
        "  --policy on-touch|replicate|remote-map\n"
        "  --asap --least-tlb  comparator techniques\n"
        "  --cold              disable first-touch pre-placement\n"
        "  --seed N\n"
        "output:\n"
        "  --report            full named-scalar report (default: summary)\n"
        "  --csv               one CSV row (+ header)\n"
        "  --ledger PATH       append a transfw-ledger-v1 JSONL record\n"
        "                      (defaults to $TRANSFW_LEDGER when set)\n",
        argv0);
    std::exit(2);
}

const char *
nextArg(int argc, char **argv, int &i, const char *argv0)
{
    if (++i >= argc)
        usage(argv0);
    return argv[i];
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app = "MT", model, trace;
    std::string ledger = obs::RunLedger::envPath();
    double scale = 0.0;
    bool report = false, csv = false;
    cfg::SystemConfig config = sys::baselineConfig();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() { return nextArg(argc, argv, i, argv[0]); };
        if (arg == "--app") {
            app = next();
        } else if (arg == "--model") {
            model = next();
        } else if (arg == "--trace") {
            trace = next();
        } else if (arg == "--scale") {
            scale = std::atof(next());
        } else if (arg == "--transfw") {
            config.transFw.enabled = true;
        } else if (arg == "--no-short-circuit") {
            config.transFw.enableShortCircuit = false;
        } else if (arg == "--no-forwarding") {
            config.transFw.enableForwarding = false;
        } else if (arg == "--threshold") {
            config.transFw.forwardThreshold = std::atof(next());
        } else if (arg == "--gpus") {
            config.numGpus = std::atoi(next());
        } else if (arg == "--cus") {
            config.cusPerGpu = std::atoi(next());
        } else if (arg == "--slots") {
            config.wavefrontSlotsPerCu = std::atoi(next());
        } else if (arg == "--walkers") {
            const char *value = next();
            if (std::sscanf(value, "%d,%d", &config.gmmuWalkers,
                            &config.hostWalkers) != 2)
                usage(argv[0]);
        } else if (arg == "--levels") {
            config.pageTableLevels = std::atoi(next());
        } else if (arg == "--page-size") {
            std::string v = next();
            config.pageShift = v == "2m" ? mem::kLargePageShift
                                         : mem::kSmallPageShift;
        } else if (arg == "--pwc") {
            std::string v = next();
            config.pwcKind = v == "stc"   ? pwc::PwcKind::Stc
                             : v == "inf" ? pwc::PwcKind::Infinite
                                          : pwc::PwcKind::Utc;
        } else if (arg == "--pwc-entries") {
            config.pwcEntries =
                static_cast<std::size_t>(std::atoi(next()));
        } else if (arg == "--topology") {
            std::string v = next();
            if (v == "ring")
                config.peerTopology = ic::Topology::Ring;
            else if (v == "mesh")
                config.peerTopology = ic::Topology::Mesh2D;
            else if (v == "switch")
                config.peerTopology = ic::Topology::Switch;
            else if (v == "a2a" || v == "all-to-all")
                config.peerTopology = ic::Topology::AllToAll;
            else
                usage(argv[0]);
        } else if (arg == "--mesh-cols") {
            config.meshCols = std::atoi(next());
        } else if (arg == "--switch-radix") {
            config.switchRadix = std::atoi(next());
        } else if (arg == "--shards") {
            config.hostShards = std::atoi(next());
        } else if (arg == "--ft-mode") {
            std::string v = next();
            if (v == "repl" || v == "replicated")
                config.transFw.ftReplicated = true;
            else if (v == "part" || v == "partitioned")
                config.transFw.ftReplicated = false;
            else
                usage(argv[0]);
        } else if (arg == "--mem-model") {
            std::string v = next();
            config.memModel = v == "hier" ? cfg::MemModel::Hierarchy
                                          : cfg::MemModel::Simple;
        } else if (arg == "--fault-mode") {
            std::string v = next();
            config.faultMode = v == "sw" ? cfg::FaultMode::UvmDriver
                                         : cfg::FaultMode::HostMmu;
        } else if (arg == "--policy") {
            std::string v = next();
            config.migrationPolicy =
                v == "replicate"    ? cfg::MigrationPolicy::ReadReplicate
                : v == "remote-map" ? cfg::MigrationPolicy::RemoteMap
                                    : cfg::MigrationPolicy::OnTouch;
        } else if (arg == "--asap") {
            config.asap.enabled = true;
        } else if (arg == "--least-tlb") {
            config.leastTlb.enabled = true;
        } else if (arg == "--cold") {
            config.prewarmPlacement = false;
        } else if (arg == "--seed") {
            config.seed = static_cast<std::uint64_t>(std::atoll(next()));
        } else if (arg == "--report") {
            report = true;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--ledger") {
            ledger = next();
        } else {
            usage(argv[0]);
        }
    }

    std::unique_ptr<wl::Workload> workload;
    if (!trace.empty())
        workload = std::make_unique<wl::TraceWorkload>(trace);
    else if (!model.empty())
        workload = wl::makeMlModel(model);
    else
        workload = wl::makeApp(app, sys::effectiveScale(scale));

    sys::SimResults r = sys::runWorkload(*workload, config);

    if (!ledger.empty())
        obs::RunLedger::append(
            ledger, sys::toLedgerRecord(r, config,
                                        sys::effectiveScale(scale),
                                        "simulate"));

    if (csv) {
        std::printf("%s\n%s\n", sys::csvHeader().c_str(),
                    sys::csvRow(r).c_str());
    } else if (report) {
        std::printf("%s", sys::formatReport(r).c_str());
    } else {
        std::printf("%s on %s\n", r.app.c_str(),
                    r.configSummary.c_str());
        std::printf("exec %llu cycles, %llu faults (PFPKI %.3f), "
                    "avg L2-miss latency %.1f\n",
                    static_cast<unsigned long long>(r.execTime),
                    static_cast<unsigned long long>(r.farFaults),
                    r.pfpki(), r.avgXlatLatency);
    }
    return 0;
}

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/flags.hpp"
#include "sim/parse.hpp"
#include "system/experiment.hpp"

using namespace transfw;

namespace {

/** Parse @p args into a baseline config and default workload. */
struct Parsed
{
    cfg::SystemConfig config = sys::baselineConfig();
    cfg::WorkloadFlags workload;
    std::vector<std::string> positional;

    explicit Parsed(const std::vector<std::string> &args)
    {
        positional =
            cfg::parseFlags(args, cfg::configFlags(config, workload));
    }
};

} // namespace

TEST(ParseToken, AcceptsOnlyWholeTokens)
{
    EXPECT_EQ(sim::parseToken<int>("42"), 42);
    EXPECT_EQ(sim::parseToken<int>("-3"), -3);
    EXPECT_FALSE(sim::parseToken<int>("4x"));
    EXPECT_FALSE(sim::parseToken<int>(""));
    EXPECT_FALSE(sim::parseToken<int>(" 4"));
    EXPECT_FALSE(sim::parseToken<int>("99999999999"));
    EXPECT_FALSE(sim::parseToken<unsigned long long>("-3"));
    EXPECT_EQ(sim::parseToken<double>("0.5"), 0.5);
    EXPECT_EQ(sim::parseToken<double>("1e9"), 1e9);
    EXPECT_FALSE(sim::parseToken<double>("nan"));
    EXPECT_FALSE(sim::parseToken<double>("inf"));
    EXPECT_FALSE(sim::parseToken<double>("0.5s"));
}

TEST(ConfigFlags, NoFlagsLeaveTheBaseline)
{
    Parsed p({});
    EXPECT_EQ(p.config.key(), sys::baselineConfig().key());
    EXPECT_EQ(p.workload.app, "MT");
    EXPECT_EQ(p.workload.scale, 0.0);
    EXPECT_TRUE(p.positional.empty());
}

TEST(ConfigFlags, SetEveryField)
{
    Parsed p({"--app", "KM", "--model", "VGG16", "--trace", "t.trace",
              "--scale", "0.25", "--transfw", "--no-short-circuit",
              "--no-forwarding", "--threshold", "1.5", "--gpus", "16",
              "--cus", "4", "--slots", "2", "--walkers", "4,8", "--levels",
              "4", "--page-size", "2m", "--pwc", "stc", "--pwc-entries",
              "256", "--fault-mode", "sw", "--mem-model", "hier",
              "--topology", "mesh", "--mesh-cols", "4", "--switch-radix",
              "4", "--peer-latency", "400", "--shards", "4", "--ft-mode",
              "repl", "--policy", "remote-map", "--asap", "--least-tlb",
              "--cold", "--seed", "7", "extra"});
    const cfg::SystemConfig &c = p.config;
    EXPECT_EQ(p.workload.app, "KM");
    EXPECT_EQ(p.workload.model, "VGG16");
    EXPECT_EQ(p.workload.trace, "t.trace");
    EXPECT_EQ(p.workload.scale, 0.25);
    EXPECT_TRUE(c.transFw.enabled);
    EXPECT_FALSE(c.transFw.enableShortCircuit);
    EXPECT_FALSE(c.transFw.enableForwarding);
    EXPECT_EQ(c.transFw.forwardThreshold, 1.5);
    EXPECT_EQ(c.numGpus, 16);
    EXPECT_EQ(c.cusPerGpu, 4);
    EXPECT_EQ(c.wavefrontSlotsPerCu, 2);
    EXPECT_EQ(c.gmmuWalkers, 4);
    EXPECT_EQ(c.hostWalkers, 8);
    EXPECT_EQ(c.pageTableLevels, 4);
    EXPECT_EQ(c.pageShift, mem::kLargePageShift);
    EXPECT_EQ(c.pwcKind, pwc::PwcKind::Stc);
    EXPECT_EQ(c.pwcEntries, 256u);
    EXPECT_EQ(c.faultMode, cfg::FaultMode::UvmDriver);
    EXPECT_EQ(c.memModel, cfg::MemModel::Hierarchy);
    EXPECT_EQ(c.peerTopology, ic::Topology::Mesh2D);
    EXPECT_EQ(c.meshCols, 4);
    EXPECT_EQ(c.switchRadix, 4);
    EXPECT_EQ(c.peerLink.latency, 400u);
    EXPECT_EQ(c.hostShards, 4);
    EXPECT_TRUE(c.transFw.ftReplicated);
    EXPECT_EQ(c.migrationPolicy, cfg::MigrationPolicy::RemoteMap);
    EXPECT_TRUE(c.asap.enabled);
    EXPECT_TRUE(c.leastTlb.enabled);
    EXPECT_FALSE(c.prewarmPlacement);
    EXPECT_EQ(c.seed, 7u);
    EXPECT_EQ(p.positional, std::vector<std::string>{"extra"});
}

TEST(ConfigFlags, ChoiceNamesFollowEnumOrder)
{
    for (int t = 0; t < 4; ++t) {
        auto topo = static_cast<ic::Topology>(t);
        Parsed p({"--topology", ic::topologyName(topo)});
        EXPECT_EQ(p.config.peerTopology, topo);
    }
    EXPECT_EQ(Parsed({"--pwc", "inf"}).config.pwcKind,
              pwc::PwcKind::Infinite);
    EXPECT_EQ(Parsed({"--pwc", "utc"}).config.pwcKind, pwc::PwcKind::Utc);
    EXPECT_EQ(Parsed({"--policy", "replicate"}).config.migrationPolicy,
              cfg::MigrationPolicy::ReadReplicate);
    EXPECT_EQ(Parsed({"--policy", "on-touch"}).config.migrationPolicy,
              cfg::MigrationPolicy::OnTouch);
    EXPECT_EQ(Parsed({"--fault-mode", "hw"}).config.faultMode,
              cfg::FaultMode::HostMmu);
    EXPECT_EQ(Parsed({"--page-size", "4k"}).config.pageShift,
              mem::kSmallPageShift);
    EXPECT_FALSE(Parsed({"--ft-mode", "part"}).config.transFw.ftReplicated);
}

TEST(ConfigFlags, BadValuesAreFatalNamingTheFlag)
{
    const std::vector<std::pair<const char *, const char *>> bad = {
        {"--gpus", "abc"},        {"--gpus", "4x"},
        {"--pwc", "nope"},        {"--page-size", "3m"},
        {"--fault-mode", "swx"},  {"--policy", "foo"},
        {"--mem-model", "x"},     {"--topology", "x"},
        {"--ft-mode", "x"},       {"--pwc-entries", "-3"},
        {"--threshold", "nan"},   {"--threshold", "inf"},
        {"--scale", "1.0x"},      {"--walkers", "8"},
        {"--walkers", "8,x"},     {"--seed", "-1"},
        {"--peer-latency", "1e3"},
    };
    for (const auto &[flag, value] : bad)
        EXPECT_EXIT(Parsed({flag, value}), ::testing::ExitedWithCode(1),
                    std::string("fatal: ") + flag + " expects .*'" + value +
                        "'")
            << flag << " " << value;
}

TEST(ConfigFlags, MalformedCommandLinesAreFatal)
{
    EXPECT_EXIT(Parsed({"--gpus"}), ::testing::ExitedWithCode(1),
                "--gpus expects a value");
    EXPECT_EXIT(Parsed({"--gpu", "4"}), ::testing::ExitedWithCode(1),
                "unknown flag '--gpu'");
}

TEST(ConfigFlags, ApplyFlagSetsOneValueThroughTheTable)
{
    cfg::SystemConfig config;
    cfg::WorkloadFlags workload;
    std::vector<cfg::Flag> table = cfg::configFlags(config, workload);
    cfg::applyFlag(cfg::findFlag(table, "--walkers"), "16,32");
    cfg::applyFlag(cfg::findFlag(table, "--topology"), "switch");
    EXPECT_EQ(config.gmmuWalkers, 16);
    EXPECT_EQ(config.hostWalkers, 32);
    EXPECT_EQ(config.peerTopology, ic::Topology::Switch);
    EXPECT_EXIT(cfg::findFlag(table, "--dim"), ::testing::ExitedWithCode(1),
                "unknown flag '--dim'");
}

TEST(ConfigFlags, UsageListsEveryFlag)
{
    cfg::SystemConfig config;
    cfg::WorkloadFlags workload;
    std::vector<cfg::Flag> table = cfg::configFlags(config, workload);
    std::string usage = cfg::flagUsage(table);
    for (const cfg::Flag &flag : table) {
        EXPECT_NE(usage.find("  " + flag.name + (flag.meta.empty()
                                                      ? " "
                                                      : " " + flag.meta)),
                  std::string::npos)
            << flag.name;
        EXPECT_FALSE(flag.help.empty()) << flag.name;
    }
}

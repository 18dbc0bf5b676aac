#include "config/flags.hpp"

#include <sstream>

#include "sim/logging.hpp"
#include "sim/parse.hpp"

namespace transfw::cfg {

namespace {

using Value = const FlagValue &;

/** Store a whole-token parse of @p text in @p field; false if bad. */
template <typename T>
bool
parseInto(T &field, std::string_view text)
{
    std::optional<T> x = sim::parseToken<T>(text);
    field = x.value_or(field);
    return x.has_value();
}

/** Parse @p token per @p flag's Arg into @p v; false on bad syntax. */
bool
parseValue(const Flag &flag, const std::string &token, FlagValue &v)
{
    v.text = token;
    std::string_view text = token;
    switch (flag.arg) {
      case Arg::Int:
        return parseInto(v.ints[0], text);
      case Arg::Count:
        return parseInto(v.count, text);
      case Arg::Number:
        return parseInto(v.number, text);
      case Arg::IntPair: {
        // The separator is the one in meta: "G,H" or "GPU:ID".
        std::size_t sep = token.find(flag.meta.find(':') == std::string::npos
                                         ? ','
                                         : ':');
        return sep != std::string::npos &&
               parseInto(v.ints[0], text.substr(0, sep)) &&
               parseInto(v.ints[1], text.substr(sep + 1));
      }
      case Arg::Choice: {
        std::istringstream names(flag.meta);
        std::string name;
        for (v.choice = 0; std::getline(names, name, '|'); ++v.choice)
            if (name == token)
                return true;
        return false;
      }
      default:
        return true;
    }
}

} // namespace

std::vector<Flag>
configFlags(SystemConfig &c, WorkloadFlags &w)
{
    TransFwConfig &fw = c.transFw;
    return {
        fieldFlag("--app", "ABBR",
                  "Table III app: AES FIR KM PR MM MT SC ST Conv2d Im2col",
                  w.app),
        fieldFlag("--model", "NAME", "VGG16 or ResNet18 training trace",
                  w.model),
        fieldFlag("--trace", "PATH", "replay a trace-v1 file", w.trace),
        fieldFlag("--scale", "F",
                  "per-CTA work of --app (default TRANSFW_SCALE or 1)",
                  w.scale),
        fieldFlag("--transfw", "", "enable Trans-FW (PRT + FT)", fw.enabled),
        {"--no-short-circuit", Arg::None, "", "ablation: no PRT short circuit",
         [&fw](Value) { fw.enableShortCircuit = false; }},
        {"--no-forwarding", Arg::None, "", "ablation: no FT remote forwarding",
         [&fw](Value) { fw.enableForwarding = false; }},
        fieldFlag("--threshold", "F", "forwarding threshold (default 0.5)",
                  fw.forwardThreshold),
        fieldFlag("--gpus", "N", "GPUs (default 4)", c.numGpus),
        fieldFlag("--cus", "N", "CUs per GPU (default 64)", c.cusPerGpu),
        fieldFlag("--slots", "N", "wavefront slots per CU (default 6)",
                  c.wavefrontSlotsPerCu),
        {"--walkers", Arg::IntPair, "G,H",
         "GMMU,host PT-walk threads (default 8,16)",
         [&c](Value v) {
             c.gmmuWalkers = v.ints[0];
             c.hostWalkers = v.ints[1];
         }},
        fieldFlag("--levels", "N", "page-table levels, 4 or 5",
                  c.pageTableLevels),
        {"--page-size", Arg::Choice, "4k|2m", "page size",
         [&c](Value v) {
             c.pageShift = v.choice ? mem::kLargePageShift
                                    : mem::kSmallPageShift;
         }},
        fieldFlag("--pwc", "utc|stc|inf", "PW-cache organization",
                  c.pwcKind),
        fieldFlag("--pwc-entries", "N", "PW-cache entries (default 128)",
                  c.pwcEntries),
        fieldFlag("--fault-mode", "hw|sw", "host MMU or UVM driver",
                  c.faultMode),
        fieldFlag("--mem-model", "simple|hier", "data-side memory model",
                  c.memModel),
        fieldFlag("--topology", "a2a|ring|mesh|switch", "GPU-GPU fabric",
                  c.peerTopology),
        fieldFlag("--mesh-cols", "N", "mesh columns (0 = near-square)",
                  c.meshCols),
        fieldFlag("--switch-radix", "N", "GPUs per leaf switch (default 8)",
                  c.switchRadix),
        fieldFlag("--peer-latency", "N", "GPU-GPU link cycles (default 150)",
                  c.peerLink.latency),
        fieldFlag("--shards", "K", "host-MMU/IOMMU shards (default 1)",
                  c.hostShards),
        {"--ft-mode", Arg::Choice, "part|repl", "FT placement across shards",
         [&fw](Value v) { fw.ftReplicated = v.choice == 1; }},
        fieldFlag("--policy", "on-touch|replicate|remote-map",
                  "page placement policy", c.migrationPolicy),
        fieldFlag("--asap", "", "ASAP PW-cache prefetching comparator",
                  c.asap.enabled),
        fieldFlag("--least-tlb", "", "Least-TLB comparator",
                  c.leastTlb.enabled),
        {"--cold", Arg::None, "", "disable first-touch pre-placement",
         [&c](Value) { c.prewarmPlacement = false; }},
        fieldFlag("--seed", "N", "random seed (default 1)", c.seed),
    };
}

const Flag &
findFlag(const std::vector<Flag> &flags, const std::string &name)
{
    for (const Flag &flag : flags)
        if (flag.name == name)
            return flag;
    sim::fatal("unknown flag '" + name + "' (see --help)");
}

void
applyFlag(const Flag &flag, const std::string &token)
{
    static const char *const kExpected[] = {
        "no value", "an integer", "a non-negative integer",
        "a finite number", "two integers", "one of", "any text"};
    FlagValue v;
    if (!parseValue(flag, token, v))
        sim::fatal(flag.name + " expects " +
                   kExpected[static_cast<int>(flag.arg)] + " " + flag.meta +
                   ", not '" + token + "'");
    flag.set(v);
}

std::vector<std::string>
parseFlags(const std::vector<std::string> &args,
           const std::vector<Flag> &flags)
{
    std::vector<std::string> positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i].empty() || args[i][0] != '-') {
            positional.push_back(args[i]);
            continue;
        }
        const Flag &flag = findFlag(flags, args[i]);
        if (flag.arg != Arg::None && ++i == args.size())
            sim::fatal(flag.name + " expects a value (" + flag.meta + ")");
        applyFlag(flag, flag.arg == Arg::None ? "" : args[i]);
    }
    return positional;
}

std::string
flagUsage(const std::vector<Flag> &flags)
{
    std::string text;
    for (const Flag &flag : flags) {
        std::string left = flag.name;
        if (!flag.meta.empty())
            left += " " + flag.meta;
        // A long name and meta get a line of their own.
        if (left.size() > 24)
            left += "\n" + std::string(26, ' ');
        text += sim::strfmt("  %-24s  %s\n", left.c_str(), flag.help.c_str());
    }
    return text;
}

} // namespace transfw::cfg

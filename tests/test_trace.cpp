#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "transfw/transfw.hpp"
#include "workload/trace.hpp"

using namespace transfw;

namespace {

/** Write @p text to a temp file and return its path. */
std::string
tempTrace(const std::string &text, const char *name)
{
    std::string path = std::string("/tmp/transfw_test_") + name;
    std::ofstream out(path);
    out << text;
    return path;
}

} // namespace

TEST(TraceWorkload, ParsesBasicTrace)
{
    std::string path = tempTrace("# comment\n"
                                 "trace-v1 2\n"
                                 "0 5 r100 w101\n"
                                 "1 3 r200\n"
                                 "0 2 w100\n",
                                 "basic");
    wl::TraceWorkload trace(path);
    EXPECT_EQ(trace.numCtas(), 2);
    EXPECT_EQ(trace.totalOps(), 3u);
    EXPECT_EQ(trace.footprintPages(), 3u);

    auto stream = trace.makeStream(0, 4, 1);
    wl::MemOp op;
    ASSERT_TRUE(stream->next(op));
    EXPECT_EQ(op.computeGap, 5u);
    EXPECT_EQ(op.numPages, 2);
    EXPECT_EQ(op.pages[0].vpn, 0x100u);
    EXPECT_FALSE(op.pages[0].write);
    EXPECT_EQ(op.pages[1].vpn, 0x101u);
    EXPECT_TRUE(op.pages[1].write);
    ASSERT_TRUE(stream->next(op));
    EXPECT_EQ(op.computeGap, 2u);
    EXPECT_FALSE(stream->next(op));
}

TEST(TraceWorkload, FirstToucherOwnsPage)
{
    std::string path = tempTrace("trace-v1 4\n"
                                 "0 0 r100\n"
                                 "3 0 r200\n"
                                 "3 0 r100\n", // second toucher
                                 "owner");
    wl::TraceWorkload trace(path);
    EXPECT_EQ(trace.initialOwner(0x100, 4), 0);
    EXPECT_EQ(trace.initialOwner(0x200, 4), 3);
    EXPECT_EQ(trace.initialOwner(0x999, 4), mem::kCpuDevice);
}

TEST(TraceWorkload, MalformedTracesAreFatal)
{
    EXPECT_EXIT(
        { wl::TraceWorkload t(tempTrace("nonsense\n", "bad1")); },
        ::testing::ExitedWithCode(1), "trace-v1");
    EXPECT_EXIT(
        {
            wl::TraceWorkload t(
                tempTrace("trace-v1 1\n0 5 x123\n", "bad2"));
        },
        ::testing::ExitedWithCode(1), "bad access");
    EXPECT_EXIT(
        {
            wl::TraceWorkload t(
                tempTrace("trace-v1 1\n7 5 r123\n", "bad3"));
        },
        ::testing::ExitedWithCode(1), "malformed");
    EXPECT_EXIT({ wl::TraceWorkload t("/nonexistent/file"); },
                ::testing::ExitedWithCode(1), "cannot open");

    // Tokens the parser used to read a prefix of, wrap around or drop
    // without a word. Each must fail naming its line and token.
    const struct
    {
        const char *text;
        const char *message;
    } cases[] = {
        {"trace-v1 2x\n", ":1: expected 'trace-v1 <numCtas>'"},
        {"trace-v1 2 3\n", ":1: expected 'trace-v1 <numCtas>'"},
        {"trace-v1 2000000000\n0 5 r1\n",
         ":1: 2000000000 CTAs is above the cap of 1048576"},
        {"trace-v1 2\n0x 5 r1\n", ":2: malformed op line: CTA '0x'"},
        {"trace-v1 2\n1.9 5 r1\n", ":2: malformed op line: CTA '1.9'"},
        {"trace-v1 1\n0 5 r1azz\n", ":2: bad vpn in 'r1azz'"},
        {"trace-v1 1\n0 5 r-1\n", ":2: bad vpn in 'r-1'"},
        {"trace-v1 1\n0 5 r0x1a\n", ":2: bad vpn in 'r0x1a'"},
        {"trace-v1 1\n0 4294967301 r1\n",
         ":2: malformed op line: gap '4294967301'"},
        {"trace-v1 1\n0 4294967295 r1\n",
         ":2: malformed op line: gap '4294967295'"},
        {"trace-v1 1\n0 -3 r1\n", ":2: malformed op line: gap '-3'"},
        {"trace-v1 1\n0 5\n", ":2: malformed op line: expected"},
        {"# five pages\ntrace-v1 1\n\n0 5 r1 r2 r3 r4 r5\n",
         ":4: more than 4 accesses in one op"},
    };
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        std::string name = "bad_token" + std::to_string(i);
        EXPECT_EXIT(
            { wl::TraceWorkload t(tempTrace(cases[i].text, name.c_str())); },
            ::testing::ExitedWithCode(1), cases[i].message)
            << cases[i].text;
    }
}

TEST(TraceWorkload, ReadsFourAccessesAndTheLargestGap)
{
    wl::TraceWorkload trace(tempTrace(
        "trace-v1 1\n0 4294967294 r1 w2 rA wffffffffffffffff\n", "edge"));
    auto stream = trace.makeStream(0, 4, 1);
    wl::MemOp op;
    ASSERT_TRUE(stream->next(op));
    EXPECT_EQ(op.computeGap, 4294967294u);
    EXPECT_EQ(op.instructions, 4294967295u);
    ASSERT_EQ(op.numPages, 4);
    EXPECT_EQ(op.pages[2].vpn, 0xAu);
    EXPECT_EQ(op.pages[3].vpn, 0xffffffffffffffffu);
    EXPECT_TRUE(op.pages[3].write);
}

TEST(TraceWorkload, RecordReplayRoundTrip)
{
    wl::SyntheticSpec spec;
    spec.name = "roundtrip";
    spec.numCtas = 8;
    spec.memOpsPerCta = 12;
    spec.computePerOp = 3;
    spec.regions = {{.name = "r", .pages = 64, .weight = 1.0,
                     .writeFrac = 0.4, .reuse = 2}};
    wl::SyntheticWorkload original(spec);

    std::string path = "/tmp/transfw_test_roundtrip.trace";
    wl::recordTrace(original, 4, 7, path);
    wl::TraceWorkload replay(path);

    EXPECT_EQ(replay.numCtas(), original.numCtas());
    EXPECT_EQ(replay.totalOps(), 8u * 12u);

    // Streams must match op-for-op.
    for (int cta : {0, 3, 7}) {
        auto a = original.makeStream(cta, 4, 7);
        auto b = replay.makeStream(cta, 4, 7);
        wl::MemOp x, y;
        while (true) {
            bool more_a = a->next(x);
            bool more_b = b->next(y);
            ASSERT_EQ(more_a, more_b);
            if (!more_a)
                break;
            ASSERT_EQ(x.numPages, y.numPages);
            EXPECT_EQ(x.computeGap, y.computeGap);
            for (int i = 0; i < x.numPages; ++i) {
                EXPECT_EQ(x.pages[static_cast<std::size_t>(i)].vpn,
                          y.pages[static_cast<std::size_t>(i)].vpn);
                EXPECT_EQ(x.pages[static_cast<std::size_t>(i)].write,
                          y.pages[static_cast<std::size_t>(i)].write);
            }
        }
    }
}

TEST(TraceWorkload, ReplayRunsInSystem)
{
    wl::SyntheticSpec spec;
    spec.name = "sysreplay";
    spec.numCtas = 8;
    spec.memOpsPerCta = 10;
    spec.regions = {{.name = "r", .pages = 32, .weight = 1.0,
                     .reuse = 2}};
    wl::SyntheticWorkload original(spec);
    std::string path = "/tmp/transfw_test_sysreplay.trace";
    wl::recordTrace(original, 2, 7, path);
    wl::TraceWorkload replay(path);

    cfg::SystemConfig config = sys::baselineConfig();
    config.numGpus = 2;
    config.cusPerGpu = 4;
    config.seed = 7;
    sys::SimResults r = sys::runWorkload(replay, config);
    EXPECT_EQ(r.memOps, 80u);
    EXPECT_GT(r.execTime, 0u);
}

TEST(Ablation, MechanismSwitchesIsolate)
{
    wl::SyntheticSpec spec;
    spec.name = "ablation";
    spec.numCtas = 64;
    spec.memOpsPerCta = 40;
    spec.regions = {
        {.name = "hot", .pages = 64, .pattern = wl::Pattern::Random,
         .shareDegree = 64, .weight = 0.6, .writeFrac = 0.3, .reuse = 2},
        {.name = "own", .pages = 256, .weight = 0.4, .reuse = 2},
    };
    wl::SyntheticWorkload workload(spec);
    cfg::SystemConfig base = sys::baselineConfig();
    base.cusPerGpu = 8;

    cfg::SystemConfig prt_only = base;
    prt_only.transFw.enabled = true;
    prt_only.transFw.enableForwarding = false;
    sys::SimResults r1 = sys::runWorkload(workload, prt_only);
    EXPECT_GT(r1.shortCircuits, 0u);
    EXPECT_EQ(r1.forwards, 0u);

    cfg::SystemConfig ft_only = base;
    ft_only.transFw.enabled = true;
    ft_only.transFw.enableShortCircuit = false;
    sys::SimResults r2 = sys::runWorkload(workload, ft_only);
    EXPECT_EQ(r2.shortCircuits, 0u);
}

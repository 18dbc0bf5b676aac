#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "filter/cuckoo_filter.hpp"

using transfw::filter::CuckooFilter;
using transfw::filter::CuckooParams;

namespace {

CuckooParams
prtParams()
{
    return {.numBuckets = 125, .slotsPerBucket = 4, .fingerprintBits = 13};
}

CuckooParams
ftParams()
{
    return {.numBuckets = 1000, .slotsPerBucket = 2, .fingerprintBits = 11};
}

} // namespace

TEST(CuckooFilter, InsertContains)
{
    CuckooFilter filter(prtParams());
    EXPECT_FALSE(filter.contains(42));
    EXPECT_TRUE(filter.insert(42));
    EXPECT_TRUE(filter.contains(42));
    EXPECT_EQ(filter.size(), 1u);
}

TEST(CuckooFilter, EraseRemovesOneCopy)
{
    CuckooFilter filter(prtParams());
    filter.insert(7);
    filter.insert(7); // duplicate copies are allowed
    EXPECT_TRUE(filter.contains(7));
    EXPECT_TRUE(filter.erase(7));
    EXPECT_TRUE(filter.contains(7)); // one copy left
    EXPECT_TRUE(filter.erase(7));
    EXPECT_FALSE(filter.contains(7));
    EXPECT_FALSE(filter.erase(7));
}

TEST(CuckooFilter, NoFalseNegativesBeforeOverflow)
{
    CuckooFilter filter(prtParams()); // capacity 500
    std::vector<std::uint64_t> keys;
    for (std::uint64_t key = 1000; key < 1400; ++key)
        keys.push_back(key * 7919);
    for (auto key : keys)
        ASSERT_TRUE(filter.insert(key));
    EXPECT_EQ(filter.overflowEvictions(), 0u);
    for (auto key : keys)
        EXPECT_TRUE(filter.contains(key)) << key;
}

TEST(CuckooFilter, FalsePositiveRateNearDesign)
{
    CuckooFilter filter(ftParams()); // 11-bit fp, eps ~ 0.2%
    for (std::uint64_t key = 0; key < 1600; ++key)
        filter.insert(key * 104729);
    std::uint64_t false_positives = 0;
    constexpr std::uint64_t kProbes = 200000;
    for (std::uint64_t probe = 0; probe < kProbes; ++probe) {
        // Probe keys disjoint from the inserted set.
        if (filter.contains(probe * 104729 + 1))
            ++false_positives;
    }
    double rate = static_cast<double>(false_positives) / kProbes;
    EXPECT_LT(rate, 0.01);  // well under 1%
    EXPECT_GT(rate, 0.0001); // but FP do exist at 80% load
}

TEST(CuckooFilter, OverflowEvictionCountsAndKeepsWorking)
{
    CuckooParams params{.numBuckets = 8, .slotsPerBucket = 2,
                        .fingerprintBits = 8, .maxKicks = 50};
    CuckooFilter filter(params); // capacity 16
    int failures = 0;
    for (std::uint64_t key = 0; key < 64; ++key)
        failures += filter.insert(key * 31) ? 0 : 1;
    EXPECT_GT(failures, 0);
    EXPECT_EQ(filter.overflowEvictions(),
              static_cast<std::uint64_t>(failures));
    EXPECT_LE(filter.size(), filter.capacity());
}

TEST(CuckooFilter, KickCounterMonotoneAndInsertOnly)
{
    // A tiny table driven past capacity forces long relocation chains;
    // the kick gauge must grow monotonically and only on insert.
    CuckooParams params{.numBuckets = 8, .slotsPerBucket = 2,
                        .fingerprintBits = 8, .maxKicks = 50};
    CuckooFilter filter(params);
    EXPECT_EQ(filter.kicks(), 0u);
    std::uint64_t prev = 0;
    for (std::uint64_t key = 0; key < 64; ++key) {
        filter.insert(key * 31);
        ASSERT_GE(filter.kicks(), prev);
        prev = filter.kicks();
    }
    EXPECT_GT(filter.kicks(), 0u);
    // Overflow evictions imply at least maxKicks relocations each.
    EXPECT_GE(filter.kicks(),
              filter.overflowEvictions() * params.maxKicks);

    std::uint64_t afterInserts = filter.kicks();
    for (std::uint64_t key = 0; key < 64; ++key) {
        filter.contains(key * 31);
        filter.erase(key * 31);
    }
    EXPECT_EQ(filter.kicks(), afterInserts); // probes/erases never kick
}

TEST(CuckooFilter, LoadFactorAndBits)
{
    CuckooFilter filter(prtParams());
    EXPECT_EQ(filter.capacity(), 500u);
    EXPECT_EQ(filter.bits(), 500u * 13u);
    for (std::uint64_t key = 0; key < 250; ++key)
        filter.insert(key * 3);
    EXPECT_NEAR(filter.loadFactor(), 0.5, 0.01);
}

TEST(CuckooFilter, RejectsBadParams)
{
    CuckooParams params;
    params.fingerprintBits = 17;
    EXPECT_EXIT({ CuckooFilter filter(params); (void)filter; },
                ::testing::ExitedWithCode(1), "fingerprint");
}

namespace transfw::filter {

/** Test names show the shape (b125_s4_f13), not the struct's bytes. */
void
PrintTo(const CuckooParams &params, std::ostream *os)
{
    *os << 'b' << params.numBuckets << "_s" << params.slotsPerBucket
        << "_f" << params.fingerprintBits;
}

} // namespace transfw::filter

/** Parameterized: delete-after-insert round trips across shapes. */
class CuckooShapes : public ::testing::TestWithParam<CuckooParams>
{};

TEST_P(CuckooShapes, InsertEraseRoundTrip)
{
    CuckooFilter filter(GetParam());
    std::size_t n = filter.capacity() / 2;
    for (std::uint64_t key = 0; key < n; ++key)
        ASSERT_TRUE(filter.insert(key * 2654435761ULL));
    for (std::uint64_t key = 0; key < n; ++key)
        EXPECT_TRUE(filter.contains(key * 2654435761ULL));
    for (std::uint64_t key = 0; key < n; ++key)
        EXPECT_TRUE(filter.erase(key * 2654435761ULL));
    EXPECT_EQ(filter.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CuckooShapes,
    ::testing::Values(
        CuckooParams{.numBuckets = 125, .slotsPerBucket = 4,
                     .fingerprintBits = 13},
        CuckooParams{.numBuckets = 1000, .slotsPerBucket = 2,
                     .fingerprintBits = 11},
        CuckooParams{.numBuckets = 63, .slotsPerBucket = 4,
                     .fingerprintBits = 13},
        CuckooParams{.numBuckets = 250, .slotsPerBucket = 2,
                     .fingerprintBits = 11},
        CuckooParams{.numBuckets = 500, .slotsPerBucket = 2,
                     .fingerprintBits = 11}));

namespace {

/**
 * Digest of a fixed insert / probe / erase schedule. The expected
 * values below were captured from the scalar three-hash reference
 * implementation; the packed single-pass probe must reproduce every
 * one of them exactly (identical fingerprints, bucket choices, slot
 * order, kick sequences and overflow evictions).
 */
struct SequenceDigest
{
    std::uint64_t insertFails = 0;
    std::uint64_t overflow = 0;
    std::uint64_t present = 0;
    std::uint64_t fpHits = 0;
    std::uint64_t erased = 0;
    std::uint64_t sizeAfterErase = 0;
    std::uint64_t present2 = 0;
};

SequenceDigest
runSequence(CuckooParams params, std::uint64_t n, std::uint64_t stride)
{
    CuckooFilter f(params);
    SequenceDigest d;
    for (std::uint64_t k = 0; k < n; ++k)
        d.insertFails += f.insert(k * stride) ? 0 : 1;
    d.overflow = f.overflowEvictions();
    for (std::uint64_t k = 0; k < n; ++k)
        d.present += f.contains(k * stride) ? 1 : 0;
    for (std::uint64_t k = 0; k < 4096; ++k)
        d.fpHits += f.contains(k * stride + 1) ? 1 : 0;
    for (std::uint64_t k = 0; k < n; k += 3)
        d.erased += f.erase(k * stride) ? 1 : 0;
    d.sizeAfterErase = f.size();
    for (std::uint64_t k = 0; k < n; ++k)
        d.present2 += f.contains(k * stride) ? 1 : 0;
    return d;
}

void
expectDigest(const SequenceDigest &got, const SequenceDigest &want)
{
    EXPECT_EQ(got.insertFails, want.insertFails);
    EXPECT_EQ(got.overflow, want.overflow);
    EXPECT_EQ(got.present, want.present);
    EXPECT_EQ(got.fpHits, want.fpHits);
    EXPECT_EQ(got.erased, want.erased);
    EXPECT_EQ(got.sizeAfterErase, want.sizeAfterErase);
    EXPECT_EQ(got.present2, want.present2);
}

} // namespace

TEST(CuckooFilterSequence, PrtShapePinned)
{
    // 125x4 @ 13 bits, 520 keys at stride 7919 (past capacity).
    expectDigest(runSequence(prtParams(), 520, 7919),
                 {.insertFails = 31,
                  .overflow = 31,
                  .present = 489,
                  .fpHits = 9,
                  .erased = 165,
                  .sizeAfterErase = 324,
                  .present2 = 324});
}

TEST(CuckooFilterSequence, FtShapePinned)
{
    // 1000x2 @ 11 bits, 2100 keys at stride 104729.
    expectDigest(runSequence(ftParams(), 2100, 104729),
                 {.insertFails = 215,
                  .overflow = 215,
                  .present = 1885,
                  .fpHits = 8,
                  .erased = 631,
                  .sizeAfterErase = 1254,
                  .present2 = 1254});
}

TEST(CuckooFilterSequence, TinyShapePinned)
{
    // 8x2 @ 8 bits with long kick chains: heavy eviction traffic.
    expectDigest(runSequence({.numBuckets = 8,
                              .slotsPerBucket = 2,
                              .fingerprintBits = 8,
                              .maxKicks = 50},
                             64, 31),
                 {.insertFails = 48,
                  .overflow = 48,
                  .present = 16,
                  .fpHits = 63,
                  .erased = 5,
                  .sizeAfterErase = 11,
                  .present2 = 11});
}

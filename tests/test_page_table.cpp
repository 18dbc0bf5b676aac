#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "mem/page_table.hpp"
#include "sim/random.hpp"

using namespace transfw::mem;

namespace {

PageTable
makeTable(int levels = 5, unsigned shift = kSmallPageShift)
{
    return PageTable(PagingGeometry{levels, shift});
}

/**
 * Node-hash-map radix table with the pre-refactor walk/map/unmap
 * semantics, used as the differential reference for the flat inner
 * nodes plus PTE map: both must agree on every WalkResult field,
 * unmap result and lookup, and on the mapped set, for every operation
 * stream.
 */
class NodeMapTable
{
  public:
    explicit NodeMapTable(PagingGeometry geo) : geo_(geo) {}

    void
    map(Vpn vpn, const PageInfo &info)
    {
        Node *node = &root_;
        for (int level = geo_.levels; level > geo_.leafLevel(); --level) {
            auto &child = node->children[geo_.index(vpn, level)];
            if (!child)
                child = std::make_unique<Node>();
            node = child.get();
        }
        node->leaves.insert_or_assign(geo_.index(vpn, geo_.leafLevel()),
                                      info);
    }

    /** Do the interior nodes above @p hit's entry point exist? (The
     *  simulator only claims PWC hits for previously walked prefixes;
     *  the flat table panics on the impossible case.) */
    bool
    prefixPresent(Vpn vpn, int pwc_hit_level) const
    {
        // The free (uncounted) descent of walk(vpn, hit) follows child
        // links at levels [hit, levels]; the walk itself resumes at
        // hit - 1.
        const Node *node = &root_;
        for (int l = geo_.levels; l >= pwc_hit_level; --l) {
            auto it = node->children.find(geo_.index(vpn, l));
            if (it == node->children.end())
                return false;
            node = it->second.get();
        }
        return true;
    }

    bool
    unmap(Vpn vpn)
    {
        Node *node = &root_;
        for (int level = geo_.levels; level > geo_.leafLevel(); --level) {
            auto it = node->children.find(geo_.index(vpn, level));
            if (it == node->children.end())
                return false;
            node = it->second.get();
        }
        return node->leaves.erase(geo_.index(vpn, geo_.leafLevel())) != 0;
    }

    const PageInfo *
    lookup(Vpn vpn) const
    {
        const Node *node = &root_;
        for (int level = geo_.levels; level > geo_.leafLevel(); --level) {
            auto it = node->children.find(geo_.index(vpn, level));
            if (it == node->children.end())
                return nullptr;
            node = it->second.get();
        }
        auto it = node->leaves.find(geo_.index(vpn, geo_.leafLevel()));
        return it == node->leaves.end() ? nullptr : &it->second;
    }

    /** Every mapped page, its VPN rebuilt from the radix indices. */
    std::map<Vpn, PageInfo>
    mapped() const
    {
        std::map<Vpn, PageInfo> out;
        collect(root_, geo_.levels, 0, out);
        return out;
    }

    WalkResult
    walk(Vpn vpn, int pwc_hit_level = 0) const
    {
        WalkResult res;
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
        std::unordered_map<unsigned, PageInfo> leaves;
    };

    void
    collect(const Node &node, int level, Vpn prefix,
            std::map<Vpn, PageInfo> &out) const
    {
        for (const auto &[idx, info] : node.leaves)
            out.emplace((prefix << kIndexBits) | idx, info);
        for (const auto &[idx, child] : node.children)
            collect(*child, level - 1, (prefix << kIndexBits) | idx, out);
    }

    PagingGeometry geo_;
    Node root_;
};

void
expectSameInfo(const PageInfo &flat, const PageInfo &ref, Vpn vpn)
{
    ASSERT_EQ(flat.ppn, ref.ppn) << vpn;
    ASSERT_EQ(flat.owner, ref.owner) << vpn;
    ASSERT_EQ(flat.replicaMask, ref.replicaMask) << vpn;
    ASSERT_EQ(flat.writable, ref.writable) << vpn;
    ASSERT_EQ(flat.remote, ref.remote) << vpn;
}

void
expectSameWalk(const WalkResult &flat, const WalkResult &ref, Vpn vpn)
{
    ASSERT_EQ(flat.present, ref.present) << vpn;
    ASSERT_EQ(flat.accesses, ref.accesses) << vpn;
    ASSERT_EQ(flat.deepestFilled, ref.deepestFilled) << vpn;
    if (ref.present)
        expectSameInfo(flat.info, ref.info, vpn);
}

/**
 * Everything but walks: mappedPages(), the (vpn, info) set
 * forEachMapped() visits, and lookup() of every VPN in @p touched.
 */
void
expectSameContents(const PageTable &flat, const NodeMapTable &ref,
                   const std::set<Vpn> &touched)
{
    std::map<Vpn, PageInfo> expected = ref.mapped();
    ASSERT_EQ(flat.mappedPages(), expected.size());
    std::map<Vpn, PageInfo> visited;
    flat.forEachMapped([&](Vpn vpn, const PageInfo &info) {
        ASSERT_TRUE(visited.emplace(vpn, info).second)
            << "visited twice: " << vpn;
    });
    ASSERT_EQ(visited.size(), expected.size());
    for (auto v = visited.begin(), e = expected.begin();
         v != visited.end(); ++v, ++e) {
        ASSERT_EQ(v->first, e->first);
        expectSameInfo(v->second, e->second, v->first);
    }
    for (Vpn vpn : touched) {
        const PageInfo *got = flat.lookup(vpn);
        const PageInfo *want = ref.lookup(vpn);
        ASSERT_EQ(got != nullptr, want != nullptr) << vpn;
        if (want)
            expectSameInfo(*got, *want, vpn);
    }
}

PageInfo
randomInfo(transfw::sim::Rng &rng)
{
    return PageInfo{rng.next() & 0xFFFFF,
                    static_cast<DeviceId>(rng.range(5)),
                    static_cast<std::uint32_t>(rng.range(16)),
                    rng.chance(0.7), rng.chance(0.2)};
}

/** A random PW-cache hit level for @p vpn: hits exist only for
 *  prefixes an earlier walk could have cached, else 0. */
int
randomHit(transfw::sim::Rng &rng, const PagingGeometry &geo,
          const NodeMapTable &ref, Vpn vpn)
{
    int hit = static_cast<int>(
        rng.range(static_cast<std::uint64_t>(geo.levels) + 1));
    if (hit != 0 && (hit <= geo.leafLevel() || !ref.prefixPresent(vpn, hit)))
        return 0;
    return hit;
}

constexpr std::pair<int, unsigned> kFuzzGeometries[] = {
    {5, kSmallPageShift}, {4, kSmallPageShift}, {5, kLargePageShift}};

/**
 * Drive one table and its reference through @p ops random map / unmap
 * / walk operations on keys from @p pick, comparing every walk and
 * unmap result, and the full contents after every batch of 500.
 */
template <typename Pick>
void
fuzzAgainstReference(PagingGeometry geo, std::uint64_t seed, int ops,
                     Pick pick)
{
    PageTable flat(geo);
    NodeMapTable ref(geo);
    transfw::sim::Rng rng(seed);
    std::set<Vpn> touched;
    for (int op = 1; op <= ops; ++op) {
        Vpn vpn = pick(rng);
        touched.insert(vpn);
        switch (rng.range(4)) {
        case 0: {
            PageInfo info = randomInfo(rng);
            flat.map(vpn, info);
            ref.map(vpn, info);
            break;
        }
        case 1:
            ASSERT_EQ(flat.unmap(vpn), ref.unmap(vpn)) << vpn;
            break;
        default: {
            int hit = randomHit(rng, geo, ref, vpn);
            ASSERT_NO_FATAL_FAILURE(
                expectSameWalk(flat.walk(vpn, hit), ref.walk(vpn, hit), vpn));
            break;
        }
        }
        if (op % 500 == 0) {
            ASSERT_NO_FATAL_FAILURE(expectSameContents(flat, ref, touched));
        }
    }
}

} // namespace

TEST(PageTable, MapLookupUnmap)
{
    PageTable pt = makeTable();
    EXPECT_EQ(pt.lookup(42), nullptr);
    pt.map(42, PageInfo{7, 1, 0x2, true, false});
    const PageInfo *info = pt.lookup(42);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->ppn, 7u);
    EXPECT_EQ(info->owner, 1);
    EXPECT_EQ(pt.mappedPages(), 1u);
    EXPECT_TRUE(pt.unmap(42));
    EXPECT_EQ(pt.lookup(42), nullptr);
    EXPECT_FALSE(pt.unmap(42));
    EXPECT_EQ(pt.mappedPages(), 0u);
}

TEST(PageTable, MapOverwriteKeepsCount)
{
    PageTable pt = makeTable();
    pt.map(10, PageInfo{1, 0, 1, true, false});
    pt.map(10, PageInfo{2, 1, 2, false, false});
    EXPECT_EQ(pt.mappedPages(), 1u);
    EXPECT_EQ(pt.lookup(10)->ppn, 2u);
    EXPECT_FALSE(pt.lookup(10)->writable);
}

TEST(PageTable, FullWalkAccessCount)
{
    PageTable pt = makeTable();
    pt.map(0x12345, PageInfo{9, 0, 1, true, false});
    WalkResult walk = pt.walk(0x12345);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.accesses, 5); // five levels, no PW-cache help
    EXPECT_EQ(walk.info.ppn, 9u);
}

TEST(PageTable, WalkWithPwcHitSkipsLevels)
{
    PageTable pt = makeTable();
    pt.map(0x12345, PageInfo{9, 0, 1, true, false});
    // Hit at entry level 2 leaves only the leaf PTE read.
    WalkResult walk = pt.walk(0x12345, 2);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.accesses, 1);
    // Hit at level 3 -> L2 node + leaf.
    walk = pt.walk(0x12345, 3);
    EXPECT_EQ(walk.accesses, 2);
    // Hit at the top level -> 4 accesses.
    walk = pt.walk(0x12345, 5);
    EXPECT_EQ(walk.accesses, 4);
}

TEST(PageTable, EarlyTerminationOnUnmappedRegion)
{
    PageTable pt = makeTable();
    pt.map(0, PageInfo{1, 0, 1, true, false});
    // A VA in a totally different top-level subtree faults after the
    // very first node access.
    Vpn far = Vpn{1} << 36;
    WalkResult walk = pt.walk(far);
    EXPECT_FALSE(walk.present);
    EXPECT_EQ(walk.accesses, 1);
}

TEST(PageTable, FaultAfterUnmapStillWalksDeep)
{
    PageTable pt = makeTable();
    pt.map(0x12345, PageInfo{9, 0, 1, true, false});
    pt.unmap(0x12345);
    // Intermediate nodes persist, so the walk reaches the leaf level
    // before discovering the missing PTE.
    WalkResult walk = pt.walk(0x12345);
    EXPECT_FALSE(walk.present);
    EXPECT_EQ(walk.accesses, 5);
    EXPECT_EQ(walk.deepestFilled, 2);
}

TEST(PageTable, DeepestFilledTracksPresentLevels)
{
    PageTable pt = makeTable();
    pt.map(0x12345, PageInfo{9, 0, 1, true, false});
    WalkResult walk = pt.walk(0x12345);
    EXPECT_EQ(walk.deepestFilled, 2); // L2 entry was present
}

TEST(PageTable, FourLevelWalk)
{
    PageTable pt = makeTable(4);
    pt.map(0xABCDE, PageInfo{3, 2, 4, true, false});
    WalkResult walk = pt.walk(0xABCDE);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.accesses, 4);
    walk = pt.walk(0xABCDE, 2);
    EXPECT_EQ(walk.accesses, 1);
}

TEST(PageTable, LargePageWalk)
{
    PageTable pt = makeTable(5, kLargePageShift);
    pt.map(0x777, PageInfo{11, 0, 1, true, false});
    WalkResult walk = pt.walk(0x777);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.accesses, 4); // leaf lives at level 2
    walk = pt.walk(0x777, 3);
    EXPECT_EQ(walk.accesses, 1);
}

TEST(PageTable, ManyMappingsDistinct)
{
    PageTable pt = makeTable();
    for (Vpn vpn = 0; vpn < 2000; ++vpn)
        pt.map(vpn * 513, PageInfo{vpn, 0, 1, true, false});
    EXPECT_EQ(pt.mappedPages(), 2000u);
    for (Vpn vpn = 0; vpn < 2000; ++vpn) {
        const PageInfo *info = pt.lookup(vpn * 513);
        ASSERT_NE(info, nullptr);
        EXPECT_EQ(info->ppn, vpn);
    }
}

TEST(PageTable, NodeCountGrowsOnceAndPersists)
{
    PageTable pt = makeTable();
    std::size_t empty = pt.nodeCount();
    pt.map(0x12345, PageInfo{9, 0, 1, true, false});
    std::size_t afterFirst = pt.nodeCount();
    EXPECT_EQ(afterFirst, empty + 4); // L4, L3, L2 and the leaf node
    // A neighbour in the same leaf reuses the whole node path.
    pt.map(0x12346, PageInfo{10, 0, 1, true, false});
    EXPECT_EQ(pt.nodeCount(), afterFirst);
    // Remap and unmap never free nodes, the leaf node included.
    pt.map(0x12345, PageInfo{11, 0, 1, false, false});
    pt.unmap(0x12345);
    EXPECT_EQ(pt.nodeCount(), afterFirst);
}

/**
 * Randomized differential: the table must agree with the node-hash-map
 * reference on every walk field, every unmap result and its whole
 * contents across map / remap / unmap / walk streams, including
 * PWC-shortened walks.
 */
TEST(PageTable, DifferentialFuzzAgainstNodeMapReference)
{
    for (auto [levels, shift] : kFuzzGeometries) {
        // Clustered keyspace: a few dense regions plus far strays, so
        // sibling leaves, shared interior nodes and one-entry subtrees
        // all occur. Some keys set a bit above every geometry's radix
        // range, which the levels ignore, so they alias a clustered key.
        fuzzAgainstReference(
            PagingGeometry{levels, shift},
            0xBADC0FFE + static_cast<unsigned>(levels), 20000,
            [](transfw::sim::Rng &rng) {
                Vpn vpn = rng.chance(0.8)
                              ? rng.range(4) * (Vpn{1} << 30) + rng.range(2048)
                              : rng.next() & ((Vpn{1} << 44) - 1);
                return rng.chance(0.1) ? vpn | (Vpn{1} << 50) : vpn;
            });
        if (HasFatalFailure())
            return;
    }
}

/** The Table III layout: one page per 2 MB region (vaSpread 512), so
 *  every leaf node holds a single PTE. */
TEST(PageTable, DifferentialOnePagePerRegion)
{
    for (auto [levels, shift] : kFuzzGeometries) {
        fuzzAgainstReference(PagingGeometry{levels, shift},
                             0x7AB1E3 + static_cast<unsigned>(levels), 20000,
                             [](transfw::sim::Rng &rng) {
                                 return rng.range(4096) * 512;
                             });
        if (HasFatalFailure())
            return;
    }
}

/**
 * Migration ping-pong over eight GPU tables, as MigrationEngine moves
 * a page: the new owner faults (walk), the old owner's PTE is unmapped
 * and the new owner's mapped, and the central table's entry is updated
 * through a pointer held across both.
 */
TEST(PageTable, DifferentialMigrationPingPong)
{
    constexpr int kTables = 8;
    constexpr Vpn kPages = 1024;
    for (auto [levels, shift] : kFuzzGeometries) {
        PagingGeometry geo{levels, shift};
        std::deque<PageTable> flat;
        std::deque<NodeMapTable> ref;
        for (int t = 0; t < kTables; ++t) {
            flat.emplace_back(geo);
            ref.emplace_back(geo);
        }
        PageTable central(geo);
        NodeMapTable centralRef(geo);
        transfw::sim::Rng rng(0x9149 + static_cast<unsigned>(levels));
        std::set<Vpn> touched;
        for (Vpn page = 0; page < kPages; ++page) {
            Vpn vpn = page * 512;
            PageInfo info{page, static_cast<DeviceId>(page % kTables),
                          std::uint64_t{1} << (page % kTables), true, false};
            flat[page % kTables].map(vpn, info);
            ref[page % kTables].map(vpn, info);
            central.map(vpn, info);
            centralRef.map(vpn, info);
            touched.insert(vpn);
        }
        for (int move = 1; move <= 20000; ++move) {
            Vpn vpn = rng.range(kPages) * 512;
            PageInfo *owner = central.lookup(vpn);
            ASSERT_NE(owner, nullptr) << vpn;
            auto src = static_cast<std::size_t>(owner->owner);
            auto dst = static_cast<std::size_t>(
                (src + 1 + rng.range(kTables - 1)) % kTables);
            int hit = randomHit(rng, geo, ref[dst], vpn);
            ASSERT_NO_FATAL_FAILURE(expectSameWalk(
                flat[dst].walk(vpn, hit), ref[dst].walk(vpn, hit), vpn));
            ASSERT_TRUE(flat[src].unmap(vpn)) << vpn;
            ASSERT_TRUE(ref[src].unmap(vpn)) << vpn;
            PageInfo moved{rng.next() & 0xFFFFF, static_cast<DeviceId>(dst),
                           std::uint64_t{1} << dst, true, false};
            flat[dst].map(vpn, moved);
            ref[dst].map(vpn, moved);
            *owner = moved;
            centralRef.map(vpn, moved);
            // The old owner now faults after a walk to the leaf level.
            hit = randomHit(rng, geo, ref[src], vpn);
            ASSERT_NO_FATAL_FAILURE(expectSameWalk(
                flat[src].walk(vpn, hit), ref[src].walk(vpn, hit), vpn));
            if (move % 500 != 0)
                continue;
            for (std::size_t t = 0; t < kTables; ++t) {
                ASSERT_NO_FATAL_FAILURE(
                    expectSameContents(flat[t], ref[t], touched));
            }
            ASSERT_NO_FATAL_FAILURE(
                expectSameContents(central, centralRef, touched));
        }
    }
}

/** Walk access counts for every (levels, pageShift) geometry. */
class PageTableGeo
    : public ::testing::TestWithParam<std::pair<int, unsigned>>
{};

TEST_P(PageTableGeo, WalkAccessesMatchGeometry)
{
    auto [levels, shift] = GetParam();
    PagingGeometry geo{levels, shift};
    PageTable pt(geo);
    pt.map(0x321, PageInfo{1, 0, 1, true, false});
    WalkResult walk = pt.walk(0x321);
    EXPECT_TRUE(walk.present);
    EXPECT_EQ(walk.accesses, geo.walkAccesses());
    // Every cacheable hit level shortens the walk consistently.
    for (int k = geo.lowestCachedLevel(); k <= levels; ++k) {
        WalkResult w = pt.walk(0x321, k);
        EXPECT_TRUE(w.present);
        EXPECT_EQ(w.accesses, k - geo.leafLevel());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PageTableGeo,
    ::testing::Values(std::pair{5, transfw::mem::kSmallPageShift},
                      std::pair{4, transfw::mem::kSmallPageShift},
                      std::pair{5, transfw::mem::kLargePageShift},
                      std::pair{4, transfw::mem::kLargePageShift}));

#include "mem/page_table.hpp"

#include "sim/logging.hpp"

namespace transfw::mem {

PageTable::PageTable(PagingGeometry geo)
    : geo_(geo),
      vpnMask_((Vpn{1} << (kIndexBits * geo.walkAccesses())) - 1)
{
    // The root node: an inner node for the normal multi-level
    // geometries, or directly the leaf node for a degenerate
    // single-level table (levels == leafLevel()).
    if (geo_.levels > geo_.leafLevel())
        inner_.emplace_back();
    else
        leafNodes_ = 1;
}

std::uint32_t
PageTable::newInner()
{
    inner_.emplace_back();
    return static_cast<std::uint32_t>(inner_.size() - 1);
}

void
PageTable::map(Vpn vpn, const PageInfo &info)
{
    if (!inner_.empty()) {
        InnerNode *node = &inner_[0];
        int leaf_parent = geo_.leafLevel() + 1;
        for (int level = geo_.levels; level > leaf_parent; --level) {
            std::uint32_t &c = node->child[geo_.index(vpn, level)];
            if (c == 0)
                c = newInner();
            node = &inner_[c];
        }
        std::uint32_t &leaf = node->child[geo_.index(vpn, leaf_parent)];
        if (leaf == 0) {
            leaf = 1; // the leaf node now exists
            ++leafNodes_;
        }
    }
    ptes_.insert_or_assign(key(vpn), info);
}

bool
PageTable::unmap(Vpn vpn)
{
    return ptes_.erase(key(vpn)) != 0;
}

const PageInfo *
PageTable::lookup(Vpn vpn) const
{
    auto it = ptes_.find(key(vpn));
    return it == ptes_.end() ? nullptr : &it->second;
}

PageInfo *
PageTable::lookup(Vpn vpn)
{
    return const_cast<PageInfo *>(
        static_cast<const PageTable *>(this)->lookup(vpn));
}

void
PageTable::forEachMapped(
    const std::function<void(Vpn, const PageInfo &)> &fn) const
{
    for (const auto &[vpn, info] : ptes_)
        fn(vpn, info);
}

WalkResult
PageTable::walk(Vpn vpn, int pwc_hit_level) const
{
    WalkResult res;
    int start_level =
        pwc_hit_level ? pwc_hit_level - 1 : geo_.levels;
    if (pwc_hit_level && (pwc_hit_level > geo_.levels ||
                          pwc_hit_level < geo_.lowestCachedLevel()))
        sim::panic("walk started from an invalid PW-cache level");

    const int leaf_level = geo_.leafLevel();

    // Functional descent (no access accounting) to the start node; the
    // PW-cache only certifies prefixes whose subtree exists, and
    // intermediate nodes are never freed, so a missing node here is a
    // simulator bug.
    const InnerNode *node = inner_.empty() ? nullptr : &inner_[0];
    for (int level = geo_.levels; level > start_level; --level) {
        std::uint32_t c = node->child[geo_.index(vpn, level)];
        if (c == 0)
            sim::panic("stale PW-cache prefix: intermediate node missing");
        if (level - 1 > leaf_level)
            node = &inner_[c];
    }

    res.deepestFilled = pwc_hit_level;
    for (int level = start_level; level >= leaf_level; --level) {
        ++res.accesses; // read the entry in the level-`level` node
        if (level == leaf_level) {
            auto it = ptes_.find(key(vpn));
            if (it == ptes_.end())
                return res; // leaf PTE not present: page fault
            res.present = true;
            res.info = it->second;
            return res;
        }
        std::uint32_t c = node->child[geo_.index(vpn, level)];
        if (c == 0)
            return res; // intermediate entry not present: early fault
        res.deepestFilled = level;
        if (level - 1 > leaf_level)
            node = &inner_[c];
    }
    return res;
}

} // namespace transfw::mem

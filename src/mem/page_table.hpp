#ifndef TRANSFW_MEM_PAGE_TABLE_HPP
#define TRANSFW_MEM_PAGE_TABLE_HPP

#include <array>
#include <cstdint>
#include <deque>
#include <functional>

#include "mem/address.hpp"
#include "sim/flat_map.hpp"

namespace transfw::mem {

/**
 * Leaf page table entry contents. The same structure serves both the
 * per-GPU local page tables and the UVM centralized page table in host
 * memory: the central table's @ref owner / @ref replicaMask record which
 * device(s) hold the valid physical copy (Section II-A), while a local
 * table's entry describes the page as mapped by that GPU.
 */
struct PageInfo
{
    Ppn ppn = 0;               ///< frame number on the owning device
    DeviceId owner = kCpuDevice; ///< device whose memory backs the page
    std::uint64_t replicaMask = 0; ///< GPUs holding read replicas (bit per GPU)
    bool writable = true;
    bool remote = false;       ///< local PTE maps a peer GPU's memory
                               ///  (remote-mapping mode, Section V-E)
};

/**
 * Outcome of a (functional) radix walk used for timing: how many node
 * accesses the walk performed and whether it reached a present leaf.
 * A walk terminates early at the first non-present intermediate entry,
 * so an unmapped region faults after fewer memory accesses than a full
 * walk.
 */
struct WalkResult
{
    bool present = false;    ///< leaf PTE found and valid
    PageInfo info;           ///< valid when @ref present
    int accesses = 0;        ///< page-table memory accesses performed
    int deepestFilled = 0;   ///< deepest entry level traversed with a
                             ///  present entry (for PW-cache fills);
                             ///  0 when no level was present
};

/**
 * A radix page table (4 or 5 levels, 4 KB or 2 MB leaves). Intermediate
 * nodes are created on first map and never deallocated (matching real
 * page tables, where node reclamation is rare), which keeps PW-cache
 * entries for intermediate levels valid across page migrations — only
 * the leaf PTE changes.
 *
 * Storage splits the radix structure from its leaf PTEs. Inner nodes
 * are flat arrays sized by the radix fanout (512 entries) holding
 * 32-bit child references into one pool (0 = absent), so a walk is one
 * indexed load per level. A leaf node stores nothing of its own: its
 * entry in the level above holds a non-zero mark that the node exists,
 * and the table's present PTEs live in one VPN-keyed FlatMap, as
 * gpgpu-sim UVMSmart keeps its sparse `ptes` map. The Table III
 * workloads place one page per 2 MB region and a migrating page leaves
 * its leaf node behind in every GPU it visits, so a dense 512-entry
 * leaf would hold at most one live PTE: MT's central table has 2,056
 * nodes for 2,048 pages, and the 64 GPU tables of a 64-GPU MT run end
 * with 52,751 nodes for 2,048 mapped pages. Marks, like inner nodes,
 * are never cleared: unmap() erases only the PTE, and a walk of an
 * unmapped page still reaches the leaf level.
 *
 * A PageInfo pointer handed out by lookup() stays valid until the next
 * map() on the same table (an insert may rehash the PTE map); unmap()
 * moves no other entry.
 */
class PageTable
{
  public:
    explicit PageTable(PagingGeometry geo);

    const PagingGeometry &geometry() const { return geo_; }

    /** Install (or overwrite) the leaf PTE for @p vpn. */
    void map(Vpn vpn, const PageInfo &info);

    /** Clear the leaf PTE for @p vpn. @return true if it was present. */
    bool unmap(Vpn vpn);

    /** Functional lookup with no walk-cost accounting. */
    const PageInfo *lookup(Vpn vpn) const;
    PageInfo *lookup(Vpn vpn);

    /**
     * Timed walk. @p pwc_hit_level is the level of the longest-matching
     * PW-cache entry (0 = no PW-cache hit, so the walk starts at the
     * root). An entry at level k points at the level k-1 node, so the
     * first node accessed is level k-1 (or the top level with no hit).
     */
    WalkResult walk(Vpn vpn, int pwc_hit_level = 0) const;

    /** Number of mapped leaf pages. */
    std::uint64_t mappedPages() const { return ptes_.size(); }

    /** Nodes allocated (root and leaf nodes included) — sizing and
     *  inspection aid. */
    std::size_t nodeCount() const { return inner_.size() + leafNodes_; }

    /**
     * Visit every mapped leaf as (vpn, info). Used by consistency
     * validators (e.g., checking the PRT against the table) and
     * inspection tooling; order is unspecified.
     */
    void forEachMapped(
        const std::function<void(Vpn, const PageInfo &)> &fn) const;

  private:
    static constexpr std::size_t kFanout = std::size_t{1} << kIndexBits;

    /** Radix node above the leaf level: child references, 0 = absent.
     *  In a leaf-parent node a non-zero entry only marks that the leaf
     *  node exists; any other child indexes inner_. */
    struct InnerNode
    {
        std::array<std::uint32_t, kFanout> child{};
    };

    /** PTE map key: the VPN bits the radix levels index. Higher bits
     *  alias, as they do in the inner nodes. */
    Vpn key(Vpn vpn) const { return vpn & vpnMask_; }

    std::uint32_t newInner();

    PagingGeometry geo_;
    Vpn vpnMask_;
    /** inner_[0] is the root (when the geometry has inner levels). */
    std::deque<InnerNode> inner_;
    /** Leaf nodes marked in their parents (the root, when it is one). */
    std::size_t leafNodes_ = 0;
    /** Present leaf PTEs. */
    sim::FlatMap<Vpn, PageInfo> ptes_;
};

} // namespace transfw::mem

#endif // TRANSFW_MEM_PAGE_TABLE_HPP

#ifndef TRANSFW_MMU_REQUEST_HPP
#define TRANSFW_MMU_REQUEST_HPP

#include <cstdint>

#include "mem/address.hpp"
#include "obs/attrib.hpp"
#include "sim/pool.hpp"
#include "sim/ticks.hpp"
#include "stats/stats.hpp"
#include "tlb/tlb.hpp"

namespace transfw::mmu {

/**
 * One outstanding address translation that missed the GPU L2 TLB (the
 * unit of work for the whole GMMU / host MMU machinery). Requests are
 * slab-pooled (sim::ObjectPool) and shared by intrusive refcount
 * between the GMMU, the host MMU's per-page fault lists, and any
 * in-flight remote lookup referencing them — create with makeRequest(),
 * never by hand, so the hot path stays allocation-free.
 */
struct XlatRequest : public sim::Pooled<XlatRequest>
{
    std::uint64_t id = 0;
    mem::Vpn vpn = 0;   ///< in system page units (4 KB or 2 MB)
    int gpu = 0;        ///< requesting GPU
    int cu = 0;         ///< requesting CU (for L1 fill)
    int hostShard = 0;  ///< host-MMU shard handling the far fault
    bool isWrite = false;
    bool protectionFault = false; ///< write hit on a read-only replica

    sim::Tick tIssue = 0;      ///< when the L2 TLB miss entered the GMMU path
    sim::Tick tHostArrive = 0; ///< when the fault reached the host side

    /** Per-component latency, accumulated as the request moves. */
    stats::LatencyBreakdown lat;

    // --- lifecycle flags ---------------------------------------------------
    bool shortCircuited = false;   ///< PRT miss skipped the local walk
    bool faulted = false;          ///< went through the far-fault path
    bool translationResolved = false; ///< owner/PA known (first wins)
    bool hostWalkCancelled = false;   ///< removed from host PW-queue after
                                      ///  a successful remote lookup
    bool remoteForwarded = false;     ///< an FT forward was launched
    bool resolvedByRemote = false;    ///< a remote lookup supplied the
                                      ///  translation: the owner pushes the
                                      ///  page and replies to the requester
                                      ///  directly (Fig. 10, path I)

    /** Final translation delivered back to the requesting GPU. */
    tlb::TlbEntry result;
};

using XlatPtr = sim::PoolRef<XlatRequest>;

/**
 * The one way components charge translation latency: updates the
 * request's LatencyBreakdown field (chosen by the bucket's fieldOf
 * mapping) and mirrors the charge into the attribution engine in the
 * same step. Because both views are fed by this single call, the
 * engine's per-request bucket sums equal the breakdown by construction
 * — which is exactly the invariant obs::Checks enforces at finish.
 *
 * @p attrib may be null (observability detached); under TRANSFW_OBS=0
 * the mirror compiles out and only the breakdown update remains.
 */
inline void
charge(XlatRequest &req, obs::AttributionEngine *attrib,
       obs::AttribBucket bucket, double cycles, sim::Tick now)
{
    switch (obs::fieldOf(bucket)) {
      case obs::LatField::GmmuQueue:
        req.lat.gmmuQueue += cycles;
        break;
      case obs::LatField::GmmuMem:
        req.lat.gmmuMem += cycles;
        break;
      case obs::LatField::HostQueue:
        req.lat.hostQueue += cycles;
        break;
      case obs::LatField::HostMem:
        req.lat.hostMem += cycles;
        break;
      case obs::LatField::Migration:
        req.lat.migration += cycles;
        break;
      case obs::LatField::Network:
        req.lat.network += cycles;
        break;
      default:
        req.lat.other += cycles;
        break;
    }
#if TRANSFW_OBS
    if (attrib)
        attrib->charge(req.gpu, req.id, bucket, cycles, now);
#else
    (void)attrib;
    (void)now;
#endif
}

/**
 * Edge-tagged variant of charge() for interconnect traversals: the
 * breakdown update is identical (the hop's wait + ser + prop total
 * lands in the bucket's field), but the attribution mirror records
 * *which* edge the cycles came from, accumulating per-record hop sums
 * that obs::Checks proves equal the Network/HostRoute buckets. Every
 * Network and HostRoute charge site must use this form — a plain
 * charge() into those buckets alongside tagged hops trips the
 * watchdog's per-hop balance check.
 */
inline void
chargeHop(XlatRequest &req, obs::AttributionEngine *attrib,
          obs::AttribBucket bucket, const obs::AttribHop &hop,
          sim::Tick now)
{
    double cycles = hop.total();
    switch (obs::fieldOf(bucket)) {
      case obs::LatField::GmmuQueue:
        req.lat.gmmuQueue += cycles;
        break;
      case obs::LatField::GmmuMem:
        req.lat.gmmuMem += cycles;
        break;
      case obs::LatField::HostQueue:
        req.lat.hostQueue += cycles;
        break;
      case obs::LatField::HostMem:
        req.lat.hostMem += cycles;
        break;
      case obs::LatField::Migration:
        req.lat.migration += cycles;
        break;
      case obs::LatField::Network:
        req.lat.network += cycles;
        break;
      default:
        req.lat.other += cycles;
        break;
    }
#if TRANSFW_OBS
    if (attrib)
        attrib->hop(req.gpu, req.id, bucket, hop, /*counted=*/true, now);
#else
    (void)attrib;
    (void)now;
#endif
}

/** Allocate a fresh (default-initialised) request from this thread's pool. */
inline XlatPtr
makeRequest()
{
    return sim::makePooled<XlatRequest>();
}

/**
 * A Trans-FW remote lookup: the host MMU borrowing a peer GPU's
 * PT-walk machinery for a congested fault (Section IV-C).
 */
struct RemoteLookup : public sim::Pooled<RemoteLookup>
{
    XlatPtr req;        ///< the fault being short-circuited
    int targetGpu = 0;  ///< owner candidate from the Forwarding Table
    bool success = false;
    tlb::TlbEntry result;
    sim::Tick tForwarded = 0;
};

using RemoteLookupPtr = sim::PoolRef<RemoteLookup>;

/** Allocate a fresh remote lookup from this thread's pool. */
inline RemoteLookupPtr
makeRemoteLookup()
{
    return sim::makePooled<RemoteLookup>();
}

} // namespace transfw::mmu

#endif // TRANSFW_MMU_REQUEST_HPP

#ifndef TRANSFW_MMU_REQUEST_HPP
#define TRANSFW_MMU_REQUEST_HPP

#include <cstdint>

#include "mem/address.hpp"
#include "obs/attrib.hpp"
#include "sim/pool.hpp"
#include "sim/ticks.hpp"
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

    /** Latency attribution buckets, accumulated as the request moves. */
    obs::RequestLatency lat;

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
 * The one way components charge translation latency: adds @p cycles
 * to the request's @p bucket. @p start is when the charged phase began
 * (a queue wait is charged when it ends, a walk when it starts); only
 * a kept timeline reads it. Only a charge onto a finished request (a
 * race loser still in flight, booked late) or onto a kept timeline
 * goes through the engine; @p attrib may be null (no engine attached).
 */
inline void
charge(XlatRequest &req, obs::AttributionEngine *attrib,
       obs::AttribBucket bucket, double cycles, sim::Tick start)
{
    if (attrib && req.lat.needsEngine()) [[unlikely]]
        attrib->charge(req.lat, bucket, cycles, start);
    else
        req.lat.add(bucket, cycles);
}

/**
 * Edge-tagged variant of charge() for interconnect traversals entered
 * at @p start: the hop's wait + ser + prop total lands in @p bucket
 * and in the request's per-hop sum, which obs::Checks proves equals
 * the Network/HostRoute buckets. Every Network and HostRoute charge
 * site must use this form — a plain charge() into those buckets
 * alongside tagged hops trips the watchdog's per-hop balance check.
 */
inline void
chargeHop(XlatRequest &req, obs::AttributionEngine *attrib,
          obs::AttribBucket bucket, const obs::AttribHop &hop,
          sim::Tick start)
{
    if (attrib && req.lat.needsEngine()) [[unlikely]]
        attrib->hop(req.lat, bucket, hop, /*counted=*/true, start);
    else
        req.lat.addHop(bucket, hop.total());
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

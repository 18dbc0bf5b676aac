#ifndef TRANSFW_INTERCONNECT_NETWORK_HPP
#define TRANSFW_INTERCONNECT_NETWORK_HPP

#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "interconnect/link.hpp"
#include "sim/logging.hpp"

namespace transfw::ic {

/** GPU-GPU interconnect topology. */
enum class Topology
{
    AllToAll, ///< a direct link between every ordered GPU pair
    Ring,     ///< neighbour links only; traffic hops the shorter arc
    Mesh2D,   ///< near-square grid; dimension-order (X-then-Y) routing
    Switch,   ///< two-level switch tree: GPU → leaf → root → leaf → GPU
};

/** Short lowercase name for config keys and CLI parsing. */
inline const char *
topologyName(Topology t)
{
    switch (t) {
    case Topology::AllToAll: return "a2a";
    case Topology::Ring: return "ring";
    case Topology::Mesh2D: return "mesh";
    case Topology::Switch: return "switch";
    }
    return "?";
}

/**
 * The system interconnect: a PCIe-class star between the host and every
 * GPU (one uplink + one downlink per GPU, so fault traffic from
 * different GPUs does not serialize on one shared pipe) plus a
 * topology-parameterized GPU-GPU fabric (NVLink-class): all-to-all,
 * ring, 2D mesh, or a two-level switch hierarchy. Page migration and
 * Trans-FW's remote forwarding use the routed sendPeer* API, which
 * traverses — and occupies — every hop of the topology path, so
 * per-hop propagation latency and per-link bandwidth contention are
 * both modeled.
 *
 * Links are allocated per topology edge only: a 64-GPU ring owns 128
 * directed peer links, not 64² slots. Node ids 0..numGpus-1 are GPUs;
 * the Switch topology appends leaf-switch nodes and one root node
 * after them (internal to routing — the public API still speaks GPU
 * indices).
 */
class Network
{
  public:
    Network(sim::EventQueue &eq, int num_gpus, const LinkConfig &host,
            const LinkConfig &peer, Topology topology = Topology::AllToAll,
            int mesh_cols = 0, int switch_radix = 8)
        : eq_(eq), numGpus_(num_gpus), topology_(topology),
          peerConfig_(peer), switchRadix_(switch_radix)
    {
        for (int g = 0; g < num_gpus; ++g) {
            up_.push_back(std::make_unique<Link>(
                eq, sim::strfmt("net.gpu%d.to_host", g), host));
            down_.push_back(std::make_unique<Link>(
                eq, sim::strfmt("net.host.to_gpu%d", g), host));
        }
        buildFabric(mesh_cols);
    }

    /** GPU @p gpu → host link. */
    Link &toHost(int gpu) { return *up_.at(static_cast<std::size_t>(gpu)); }
    /** Host → GPU @p gpu link. */
    Link &fromHost(int gpu)
    {
        return *down_.at(static_cast<std::size_t>(gpu));
    }

    /**
     * Re-home every link onto the event queue that drives it. A link's
     * queue supplies its clock (curTick / busyUntil accounting) and its
     * default delivery target, so it must be the queue of the side that
     * calls its send methods: GPU @p g's uplink is driven by GPU g's
     * queue (far faults, remote-lookup notifications), while downlinks
     * and every fabric link are driven by the host queue (replies,
     * forwards, page transfers, migration routing). Call once, before
     * any traffic.
     */
    void
    bindQueues(const std::vector<sim::EventQueue *> &gpu_queues,
               sim::EventQueue &host_queue)
    {
        for (int g = 0; g < numGpus_; ++g) {
            up_[static_cast<std::size_t>(g)]->rebindEventQueue(
                *gpu_queues.at(static_cast<std::size_t>(g)));
            down_[static_cast<std::size_t>(g)]->rebindEventQueue(
                host_queue);
        }
        for (auto &node : adj_)
            for (auto &edge : node)
                edge.link->rebindEventQueue(host_queue);
    }

    /**
     * Per-hop observer for traced routes: called at send time of every
     * edge on the path with the node pair and that hop's queue-wait /
     * serialization / propagation split. Node ids < numGpus are GPUs;
     * larger ids are internal switch nodes.
     */
    using HopHook = std::function<void(int from, int to, const HopTiming &)>;

    /**
     * Routed bulk transfer GPU @p from → GPU @p to; the payload
     * traverses (and occupies) every hop of the topology path.
     * @p done fires at final delivery.
     */
    void
    sendPeer(int from, int to, std::uint64_t bytes,
             sim::EventQueue::Callback done)
    {
        routePeer(from, to, bytes, /*ctrl=*/false, std::move(done),
                  HopHook{});
    }

    /** Routed control message GPU @p from → GPU @p to. */
    void
    sendPeerCtrl(int from, int to, std::uint64_t bytes,
                 sim::EventQueue::Callback done)
    {
        routePeer(from, to, bytes, /*ctrl=*/true, std::move(done),
                  HopHook{});
    }

    /**
     * Like sendPeer, but @p hook observes every traversed edge — this
     * is how a routed message that carries a request gets its per-hop
     * timing onto the request's attribution timeline.
     */
    void
    sendPeerTraced(int from, int to, std::uint64_t bytes, HopHook hook,
                   sim::EventQueue::Callback done)
    {
        routePeer(from, to, bytes, /*ctrl=*/false, std::move(done),
                  std::move(hook));
    }

    /** Hop count of the peer route (1 on all-to-all). */
    int
    peerHops(int from, int to) const
    {
        if (from == to)
            return 0;
        int hops = 0;
        int node = from;
        while (node != to) {
            node = nextNode(node, to);
            ++hops;
        }
        return hops;
    }

    /** End-to-end propagation latency of the peer route. */
    sim::Tick
    peerLatency(int from, int to) const
    {
        return static_cast<sim::Tick>(peerHops(from, to)) *
               peerConfig_.latency;
    }

    int numGpus() const { return numGpus_; }
    Topology topology() const { return topology_; }
    int meshCols() const { return meshCols_; }
    int switchRadix() const { return switchRadix_; }

    /** Directed fabric links actually allocated (per-edge, not N²). */
    std::size_t
    fabricLinkCount() const
    {
        std::size_t n = 0;
        for (const auto &node : adj_)
            n += node.size();
        return n;
    }

    /** Direct link accessor (tests; only actual topology edges). */
    Link &
    peer(int from, int to)
    {
        if (from == to)
            sim::panic("peer link to self");
        Link *link = findEdge(from, to);
        if (!link)
            sim::panic("no direct link between these GPUs "
                       "(ring/mesh/switch topologies route hop-by-hop)");
        return *link;
    }

    /** Register per-link traffic gauges (keys are the link names). */
    void
    registerMetrics(obs::MetricRegistry &reg) const
    {
        forEachLink(
            [&reg](const Link &link, bool) { link.registerMetrics(reg); });
    }

    /**
     * Visit every link as fn(link, is_fabric): the host star first
     * (uplinks then downlinks, is_fabric=false), then every fabric
     * edge in adjacency order — a stable ordering the fabric report
     * and heatmap rely on.
     */
    template <typename Fn>
    void
    forEachLink(Fn &&fn) const
    {
        for (const auto &l : up_)
            fn(*l, false);
        for (const auto &l : down_)
            fn(*l, false);
        for (const auto &node : adj_)
            for (const auto &edge : node)
                fn(*edge.link, true);
    }

    /**
     * Aggregate traffic by route length: element h describes every
     * routed sendPeer* message whose path was h hops long. waitSum is
     * the total queue-wait accumulated across all hops of those
     * routes, so waitSum / (messages * h) is the mean wait per edge at
     * that distance. Element 0 is always empty (routes are >= 1 hop).
     */
    struct HopDistAgg
    {
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
        double waitSum = 0.0;
    };

    const std::vector<HopDistAgg> &hopDistances() const
    {
        return hopDist_;
    }

    /** Total bytes moved over every link (for traffic accounting). */
    std::uint64_t
    totalBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &l : up_)
            total += l->bytesSent();
        for (const auto &l : down_)
            total += l->bytesSent();
        for (const auto &node : adj_)
            for (const auto &edge : node)
                total += edge.link->bytesSent();
        return total;
    }

  private:
    struct Edge
    {
        int to;
        std::unique_ptr<Link> link;
    };

    /** Leaf-switch node id serving GPU @p gpu (Switch topology). */
    int leafNode(int gpu) const { return numGpus_ + gpu / switchRadix_; }
    int rootNode() const { return numGpus_ + numLeaves_; }

    void
    buildFabric(int mesh_cols)
    {
        int num_nodes = numGpus_;
        if (topology_ == Topology::Mesh2D) {
            meshCols_ = mesh_cols > 0
                            ? mesh_cols
                            : static_cast<int>(std::ceil(
                                  std::sqrt(static_cast<double>(numGpus_))));
            if (meshCols_ < 1)
                meshCols_ = 1;
        }
        if (topology_ == Topology::Switch) {
            if (switchRadix_ < 1)
                sim::panic("switch radix must be >= 1");
            numLeaves_ = (numGpus_ + switchRadix_ - 1) / switchRadix_;
            num_nodes = numGpus_ + numLeaves_ +
                        (numLeaves_ > 1 ? 1 : 0); // + root
        }
        adj_.resize(static_cast<std::size_t>(num_nodes));

        auto add = [this](int a, int b, std::string name) {
            adj_[static_cast<std::size_t>(a)].push_back(Edge{
                b, std::make_unique<Link>(eq_, std::move(name),
                                          peerConfig_)});
        };
        auto addGpuPair = [&](int a, int b) {
            add(a, b, sim::strfmt("net.gpu%d.to_gpu%d", a, b));
        };

        switch (topology_) {
        case Topology::AllToAll:
            for (int a = 0; a < numGpus_; ++a)
                for (int b = 0; b < numGpus_; ++b)
                    if (a != b)
                        addGpuPair(a, b);
            break;
        case Topology::Ring:
            for (int a = 0; a < numGpus_; ++a)
                for (int b = 0; b < numGpus_; ++b) {
                    int d = std::abs(a - b);
                    if (a != b && (d == 1 || d == numGpus_ - 1))
                        addGpuPair(a, b);
                }
            break;
        case Topology::Mesh2D:
            for (int g = 0; g < numGpus_; ++g) {
                int r = g / meshCols_;
                int c = g % meshCols_;
                if (c + 1 < meshCols_ && g + 1 < numGpus_)
                    addGpuPair(g, g + 1);
                if (c > 0)
                    addGpuPair(g, g - 1);
                if (g + meshCols_ < numGpus_)
                    addGpuPair(g, g + meshCols_);
                if (r > 0)
                    addGpuPair(g, g - meshCols_);
            }
            break;
        case Topology::Switch:
            for (int g = 0; g < numGpus_; ++g) {
                int leaf = g / switchRadix_;
                add(g, leafNode(g),
                    sim::strfmt("net.gpu%d.to_sw%d", g, leaf));
                add(leafNode(g), g,
                    sim::strfmt("net.sw%d.to_gpu%d", leaf, g));
            }
            for (int l = 0; l < numLeaves_ && numLeaves_ > 1; ++l) {
                add(numGpus_ + l, rootNode(),
                    sim::strfmt("net.sw%d.to_root", l));
                add(rootNode(), numGpus_ + l,
                    sim::strfmt("net.root.to_sw%d", l));
            }
            break;
        }
    }

    Link *
    findEdge(int from, int to) const
    {
        for (const auto &edge : adj_.at(static_cast<std::size_t>(from)))
            if (edge.to == to)
                return edge.link.get();
        return nullptr;
    }

    /**
     * Next node on the route toward GPU @p to. @p from may be an
     * internal switch node mid-route; @p to is always a GPU.
     */
    int
    nextNode(int from, int to) const
    {
        switch (topology_) {
        case Topology::AllToAll:
            return to;
        case Topology::Ring: {
            int forward = (to - from + numGpus_) % numGpus_;
            int backward = (from - to + numGpus_) % numGpus_;
            return forward <= backward ? (from + 1) % numGpus_
                                       : (from - 1 + numGpus_) % numGpus_;
        }
        case Topology::Mesh2D: {
            int r1 = from / meshCols_, c1 = from % meshCols_;
            int r2 = to / meshCols_, c2 = to % meshCols_;
            if (c1 != c2) {
                // X first; fall through to Y only when the X step would
                // leave the populated grid (ragged last row).
                int cand = r1 * meshCols_ + c1 + (c2 > c1 ? 1 : -1);
                if (cand < numGpus_)
                    return cand;
            }
            return (r1 + (r2 > r1 ? 1 : -1)) * meshCols_ + c1;
        }
        case Topology::Switch: {
            if (from < numGpus_)
                return leafNode(from); // GPU → its leaf switch
            if (from == rootNode() && numLeaves_ > 1)
                return leafNode(to); // root → destination leaf
            // Leaf switch: down to the GPU if local, else up to root.
            return leafNode(to) == from ? to : rootNode();
        }
        }
        sim::panic("unknown topology");
        return to;
    }

    void
    routePeer(int from, int to, std::uint64_t bytes, bool ctrl,
              sim::EventQueue::Callback done, HopHook hook,
              int route_hops = -1)
    {
        if (from == to)
            sim::panic("peer route to self");
        if (route_hops < 0) {
            route_hops = peerHops(from, to);
            HopDistAgg &agg = hopDistFor(route_hops);
            ++agg.messages;
            agg.bytes += bytes;
        }
        int hop = nextNode(from, to);
        Link *link = findEdge(from, hop);
        if (!link)
            sim::panic("missing fabric link on route");
        // The hook is copied (not moved) into the continuation: it
        // observes this hop after the send and rides along for the
        // remaining ones.
        auto forward_rest = [this, hop, to, bytes, ctrl, route_hops,
                             hook, done = std::move(done)]() mutable {
            if (hop == to) {
                done();
            } else {
                routePeer(hop, to, bytes, ctrl, std::move(done),
                          std::move(hook), route_hops);
            }
        };
        HopTiming timing;
        if (ctrl)
            link->sendCtrl(bytes, std::move(forward_rest), &timing);
        else
            link->send(bytes, std::move(forward_rest), &timing);
        hopDistFor(route_hops).waitSum +=
            static_cast<double>(timing.wait);
        if (hook)
            hook(from, hop, timing);
    }

    HopDistAgg &
    hopDistFor(int hops)
    {
        if (hopDist_.size() <= static_cast<std::size_t>(hops))
            hopDist_.resize(static_cast<std::size_t>(hops) + 1);
        return hopDist_[static_cast<std::size_t>(hops)];
    }

    sim::EventQueue &eq_;
    int numGpus_;
    Topology topology_;
    LinkConfig peerConfig_;
    int meshCols_ = 0;    ///< resolved grid width (Mesh2D only)
    int switchRadix_ = 8; ///< GPUs per leaf switch (Switch only)
    int numLeaves_ = 0;   ///< leaf-switch count (Switch only)
    std::vector<std::unique_ptr<Link>> up_;
    std::vector<std::unique_ptr<Link>> down_;
    /** Adjacency lists over node ids; owns every fabric link. */
    std::vector<std::vector<Edge>> adj_;
    std::vector<HopDistAgg> hopDist_; ///< indexed by route hop count
};

} // namespace transfw::ic

#endif // TRANSFW_INTERCONNECT_NETWORK_HPP

/**
 * @file
 * The 2D-mesh on-chip network (Garnet-inspired timing, XY routing).
 */

#ifndef PERSIM_NOC_MESH_HH
#define PERSIM_NOC_MESH_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "prof/phase.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim::noc
{

/** Output directions of a mesh router. */
enum class Direction : unsigned
{
    East = 0,
    West = 1,
    North = 2,
    South = 3,
    Eject = 4,
};

constexpr unsigned kNumDirections = 5;

/** Timing and shape parameters of the mesh (Table 1 defaults). */
struct MeshConfig
{
    unsigned rows = 4;
    unsigned cols = 8;
    /** Per-hop router pipeline latency in cycles. */
    Tick routerLatency = 2;
    /** Per-hop link traversal latency in cycles. */
    Tick linkLatency = 1;
    /** Flit width in bytes (Table 1: 16B flits). */
    unsigned flitBytes = 16;
};

/**
 * The on-chip interconnection network.
 *
 * Endpoints are identified by node ids; several nodes may share a router
 * (a tile hosts a core+L1 node and an LLC-bank node; memory controllers
 * attach at the corner routers). Timing uses link reservation: the XY
 * path is walked once at send time, each link is reserved for the
 * packet's flit count at the earliest free cycle, and a single delivery
 * event fires when the tail flit ejects. This preserves wormhole
 * serialization and head-of-line contention without per-flit events.
 *
 * Every router owns five directed output links (east/west/north/south
 * and the local ejection port); the input side of a link is the
 * neighbouring router's output, so each physical channel exists once.
 * All links live in one table of 32-byte records indexed
 * router * kNumDirections + direction, and their per-link stats
 * ("<mesh>.router[r].<dir>.{packets,busyCycles,waitCycles}") count in
 * place in those records.
 */
class Mesh : public SimObject
{
  public:
    Mesh(const std::string &name, EventQueue &eq, const MeshConfig &cfg);

    /**
     * Register endpoint @p nodeId at router (@p x, @p y).
     *
     * Node ids must be registered before use and be unique.
     */
    void attach(unsigned nodeId, unsigned x, unsigned y);

    /**
     * Send @p bytes from @p src to @p dst; run @p onDeliver on arrival.
     *
     * Messages between nodes on the same router still pay injection and
     * ejection latency (the local crossbar), but no link hops. The
     * delivery closure is constructed once, directly in its event node.
     *
     * @return The tick at which the packet is delivered.
     */
    template <typename F>
    Tick
    send(unsigned src, unsigned dst, unsigned bytes, F &&onDeliver)
    {
        prof::ScopedPhase profPhase(prof::Phase::Noc);
        const Tick arrival = reservePath(src, dst, bytes);
        eventQueue().schedule(arrival, std::forward<F>(onDeliver));
        return arrival;
    }

    /**
     * Latency a @p bytes packet would see on an idle mesh between the
     * two nodes; used by tests and for configuring dependent timeouts.
     */
    Tick idleLatency(unsigned src, unsigned dst, unsigned bytes) const;

    /** Number of XY hops between two attached nodes. */
    unsigned hops(unsigned src, unsigned dst) const;

    const MeshConfig &config() const { return _cfg; }
    StatGroup &stats() { return _stats; }

    /** Total packets injected. */
    std::uint64_t packetsSent() const { return _packets.value(); }

    /** Sum of busy cycles over every link (interval-stat sampling). */
    std::uint64_t totalLinkBusyCycles() const;

    /** Number of links (routers x directions). */
    unsigned numLinks() const
    {
        return _cfg.rows * _cfg.cols * kNumDirections;
    }

  private:
    /**
     * One directed link. A hop reads and writes only this record, so
     * the reservation touches one host cache line.
     */
    struct alignas(32) LinkState
    {
        /** First cycle at which the link is free. */
        Tick nextFree = 0;
        /** Packets that crossed the link. */
        std::uint64_t packets = 0;
        /** Flit-cycles of occupancy. */
        std::uint64_t busyCycles = 0;
        /** Cycles packets waited for the link to free up. */
        std::uint64_t waitCycles = 0;

        /**
         * Reserve the link for @p flits flit-cycles from the first free
         * cycle at or after @p earliest.
         *
         * @return The cycle the head flit starts crossing.
         */
        Tick
        reserve(Tick earliest, unsigned flits)
        {
            const Tick start = std::max(earliest, nextFree);
            waitCycles += start - earliest;
            nextFree = start + flits;
            ++packets;
            busyCycles += flits;
            return start;
        }
    };
    static_assert(sizeof(LinkState) == 32, "one link record, 32 bytes");

    struct NodeLoc
    {
        bool attached = false;
        unsigned x = 0;
        unsigned y = 0;
    };

    /**
     * Pre-resolved XY path between two nodes: a run of _routeLinks
     * link indices in reservation order, ending with the ejection
     * link. XY routing is static, so the router walk is paid once per
     * (src, dst) pair. len == 0 marks a route not built yet (every
     * route has at least its ejection link).
     */
    struct Route
    {
        std::uint32_t first = 0;
        std::uint32_t len = 0;
    };

    /**
     * Reserve every link of the src -> dst path for a @p bytes packet
     * sent now and count the packet.
     *
     * @return The tick at which the tail flit ejects.
     */
    Tick reservePath(unsigned src, unsigned dst, unsigned bytes);

    /** The cached route src -> dst, building it on first use. */
    const Route &routeFor(unsigned src, unsigned dst);

    /** Index of the (@p x, @p y) router's output link @p d. */
    std::uint16_t
    linkIndex(unsigned x, unsigned y, Direction d) const
    {
        return static_cast<std::uint16_t>(
            (y * _cfg.cols + x) * kNumDirections +
            static_cast<unsigned>(d));
    }

    unsigned flitsFor(unsigned bytes) const
    {
        return (bytes + _cfg.flitBytes - 1) / _cfg.flitBytes;
    }

    MeshConfig _cfg;
    StatGroup _stats;
    Scalar _packets;
    Scalar _flits;
    Distribution _latency;

    /** The link table, numLinks() records; never resized. */
    std::unique_ptr<LinkState[]> _links;
    /** Per-link Scalars bound to the _links counters (deque: Scalars
     * do not move). */
    std::deque<Scalar> _linkStats;

    std::vector<NodeLoc> _nodes;
    /** Lazily built (src, dst) route cache; attach() invalidates. */
    std::vector<Route> _routes;
    /** Link-index runs of the built routes. */
    std::vector<std::uint16_t> _routeLinks;
};

} // namespace persim::noc

#endif // PERSIM_NOC_MESH_HH

#include "noc/mesh.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace persim::noc
{

namespace
{
const char *const dirNames[kNumDirections] = {"east", "west", "north",
                                              "south", "eject"};
} // namespace

Mesh::Mesh(const std::string &name, EventQueue &eq, const MeshConfig &cfg)
    : SimObject(name, eq),
      _cfg(cfg),
      _stats(name),
      _packets(&_stats, "packets", "packets injected into the mesh"),
      _flits(&_stats, "flits", "flits injected into the mesh"),
      _latency(&_stats, "latency", "end-to-end packet latency (cycles)")
{
    simAssert(cfg.rows > 0 && cfg.cols > 0, "empty mesh");
    simAssert(cfg.flitBytes > 0, "zero flit width");
    simAssert(numLinks() <= 0x10000u, "mesh too large for 16-bit link ",
              "indices: ", cfg.rows, "x", cfg.cols);
    _links = std::make_unique<LinkState[]>(numLinks());
    for (unsigned r = 0; r < cfg.rows * cfg.cols; ++r) {
        const std::string router =
            name + ".router[" + std::to_string(r) + "].";
        for (unsigned d = 0; d < kNumDirections; ++d) {
            LinkState &link = _links[r * kNumDirections + d];
            const std::string prefix = router + dirNames[d];
            _linkStats.emplace_back(&_stats, prefix + ".packets",
                                    "packets crossing this link",
                                    &link.packets);
            _linkStats.emplace_back(&_stats, prefix + ".busyCycles",
                                    "flit-cycles of link occupancy",
                                    &link.busyCycles);
            _linkStats.emplace_back(&_stats, prefix + ".waitCycles",
                                    "cycles packets waited on this link",
                                    &link.waitCycles);
        }
    }
}

void
Mesh::attach(unsigned nodeId, unsigned x, unsigned y)
{
    simAssert(x < _cfg.cols && y < _cfg.rows, "attach outside mesh: (", x,
              ",", y, ")");
    if (nodeId >= _nodes.size())
        _nodes.resize(nodeId + 1);
    simAssert(!_nodes[nodeId].attached, "node ", nodeId,
              " attached twice");
    _nodes[nodeId] = NodeLoc{true, x, y};
    // Cached routes index by the node-table size; drop them whenever
    // the topology changes.
    _routes.clear();
    _routeLinks.clear();
}

const Mesh::Route &
Mesh::routeFor(unsigned src, unsigned dst)
{
    const std::size_t n = _nodes.size();
    if (_routes.size() != n * n)
        _routes.assign(n * n, Route{});
    Route &route = _routes[src * n + dst];
    if (route.len != 0)
        return route;

    // X then Y dimension-order walk, in reservation order.
    const NodeLoc &s = _nodes[src];
    const NodeLoc &d = _nodes[dst];
    route.first = static_cast<std::uint32_t>(_routeLinks.size());
    unsigned x = s.x;
    unsigned y = s.y;
    while (x != d.x) {
        Direction dir = (d.x > x) ? Direction::East : Direction::West;
        _routeLinks.push_back(linkIndex(x, y, dir));
        x = (d.x > x) ? x + 1 : x - 1;
    }
    while (y != d.y) {
        Direction dir = (d.y > y) ? Direction::South : Direction::North;
        _routeLinks.push_back(linkIndex(x, y, dir));
        y = (d.y > y) ? y + 1 : y - 1;
    }
    _routeLinks.push_back(linkIndex(x, y, Direction::Eject));
    route.len = static_cast<std::uint32_t>(_routeLinks.size()) -
                route.first;
    return route;
}

std::uint64_t
Mesh::totalLinkBusyCycles() const
{
    std::uint64_t total = 0;
    for (unsigned i = 0; i < numLinks(); ++i)
        total += _links[i].busyCycles;
    return total;
}

unsigned
Mesh::hops(unsigned src, unsigned dst) const
{
    simAssert(src < _nodes.size() && _nodes[src].attached,
              "unattached src node ", src);
    simAssert(dst < _nodes.size() && _nodes[dst].attached,
              "unattached dst node ", dst);
    const NodeLoc &s = _nodes[src];
    const NodeLoc &d = _nodes[dst];
    return static_cast<unsigned>(std::abs(int(s.x) - int(d.x)) +
                                 std::abs(int(s.y) - int(d.y)));
}

Tick
Mesh::idleLatency(unsigned src, unsigned dst, unsigned bytes) const
{
    unsigned h = hops(src, dst);
    unsigned f = flitsFor(bytes);
    // Injection + per-hop (router + link) + ejection + tail serialization.
    return _cfg.routerLatency + h * (_cfg.routerLatency + _cfg.linkLatency)
           + _cfg.linkLatency + (f - 1);
}

Tick
Mesh::reservePath(unsigned src, unsigned dst, unsigned bytes)
{
    simAssert(src < _nodes.size() && _nodes[src].attached,
              "send from unattached node ", src);
    simAssert(dst < _nodes.size() && _nodes[dst].attached,
              "send to unattached node ", dst);
    simAssert(bytes > 0, "empty packet");

    const unsigned flits = flitsFor(bytes);

    _packets.inc();
    _flits.inc(flits);

    const Route &route = routeFor(src, dst);
    const std::uint16_t *path = &_routeLinks[route.first];
    const std::uint16_t *eject = path + route.len - 1;
    const Tick hopLatency = _cfg.linkLatency + _cfg.routerLatency;

    // Head-flit cursor: time the head is ready at the next router.
    Tick cursor = curTick() + _cfg.routerLatency; // injection pipeline
    for (; path != eject; ++path)
        cursor = _links[*path].reserve(cursor, flits) + hopLatency;

    // Ejection: local port serializes the whole packet.
    const Tick start = _links[*eject].reserve(cursor, flits);
    const Tick arrival = start + _cfg.linkLatency + (flits - 1);

    _latency.sample(arrival - curTick());
    return arrival;
}

} // namespace persim::noc

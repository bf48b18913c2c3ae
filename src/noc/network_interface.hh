/**
 * @file
 * Endpoint helper that attaches a component to the mesh.
 */

#ifndef PERSIM_NOC_NETWORK_INTERFACE_HH
#define PERSIM_NOC_NETWORK_INTERFACE_HH

#include <string>
#include <utility>

#include "noc/mesh.hh"
#include "sim/types.hh"

namespace persim::noc
{

/** Bytes of a control message (request/ack/coordination; one flit). */
constexpr unsigned kControlBytes = 8;

/** Bytes of a data message: a 64B line plus an 8B header. */
constexpr unsigned kDataBytes = kLineBytes + 8;

/**
 * Network interface of one component (L1, LLC bank, memory controller).
 *
 * Thin wrapper over Mesh::send that fixes the component's node id and
 * standardizes message sizes, so protocol code never hand-computes bytes.
 */
class NetworkInterface
{
  public:
    /**
     * Attach endpoint @p nodeId to the mesh at router (@p x, @p y).
     */
    NetworkInterface(std::string name, Mesh &mesh, unsigned nodeId,
                     unsigned x, unsigned y)
        : _name(std::move(name)), _mesh(mesh), _nodeId(nodeId)
    {
        mesh.attach(nodeId, x, y);
    }

    unsigned nodeId() const { return _nodeId; }
    const std::string &name() const { return _name; }

    /** Send a one-flit control message; @p cb runs at the destination. */
    template <typename F>
    Tick
    sendControl(unsigned dst, F &&cb)
    {
        return _mesh.send(_nodeId, dst, kControlBytes, std::forward<F>(cb));
    }

    /** Send a line-carrying data message; @p cb runs at the destination. */
    template <typename F>
    Tick
    sendData(unsigned dst, F &&cb)
    {
        return _mesh.send(_nodeId, dst, kDataBytes, std::forward<F>(cb));
    }

    Mesh &mesh() { return _mesh; }

  private:
    std::string _name;
    Mesh &_mesh;
    unsigned _nodeId;
};

} // namespace persim::noc

#endif // PERSIM_NOC_NETWORK_INTERFACE_HH

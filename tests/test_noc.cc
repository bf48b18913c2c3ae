/**
 * @file
 * Unit tests for the mesh network: routing, latency, serialization and
 * contention.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "noc/mesh.hh"
#include "noc/network_interface.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace persim::noc
{

namespace
{

MeshConfig
smallMesh()
{
    MeshConfig cfg;
    cfg.rows = 2;
    cfg.cols = 4;
    return cfg;
}

} // namespace

TEST(Mesh, HopCountIsManhattanDistance)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 3, 1);
    mesh.attach(2, 0, 0); // co-located with node 0
    EXPECT_EQ(mesh.hops(0, 1), 4u);
    EXPECT_EQ(mesh.hops(1, 0), 4u);
    EXPECT_EQ(mesh.hops(0, 2), 0u);
}

TEST(Mesh, IdleLatencyMatchesFormula)
{
    EventQueue eq;
    MeshConfig cfg = smallMesh(); // router 2cy, link 1cy, 16B flits
    Mesh mesh("mesh", eq, cfg);
    mesh.attach(0, 0, 0);
    mesh.attach(1, 2, 0);
    // 2 hops, 1 flit: inject(2) + 2*(2+1) + eject link(1) + 0 = 9.
    EXPECT_EQ(mesh.idleLatency(0, 1, 8), 9u);
    // 5 flits (72B): + 4 cycles of tail serialization.
    EXPECT_EQ(mesh.idleLatency(0, 1, 72), 13u);
}

TEST(Mesh, DeliversAtComputedTick)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 3, 0);
    Tick delivered = 0;
    const Tick expected = mesh.idleLatency(0, 1, 8);
    mesh.send(0, 1, 8, [&] { delivered = eq.now(); });
    eq.run();
    EXPECT_EQ(delivered, expected);
}

TEST(Mesh, SameRouterStillPaysLocalLatency)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 1, 1);
    mesh.attach(1, 1, 1);
    Tick delivered = 0;
    mesh.send(0, 1, 8, [&] { delivered = eq.now(); });
    eq.run();
    EXPECT_GT(delivered, 0u);
    EXPECT_LE(delivered, 4u);
}

TEST(Mesh, ContentionSerializesOnSharedLink)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 3, 0);
    std::vector<Tick> arrivals;
    // Ten 72B packets (5 flits) injected the same tick over one path:
    // the first link serializes them 5 cycles apart.
    for (int i = 0; i < 10; ++i)
        mesh.send(0, 1, 72, [&] { arrivals.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(arrivals.size(), 10u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i], arrivals[i - 1] + 5);

    // Per-link accounting. The path is router[0..2].east then
    // router[3].eject. Packet i waits 5*i cycles on the first link and
    // then streams through the rest without waiting.
    std::map<std::string, double> m;
    mesh.stats().toMap(m);
    auto link = [&](unsigned r, const char *dir, const char *stat) {
        const std::string key = "mesh.mesh.router[" + std::to_string(r) +
                                "]." + dir + "." + stat;
        EXPECT_EQ(m.count(key), 1u) << key;
        return m[key];
    };
    for (unsigned r = 0; r < 3; ++r) {
        EXPECT_DOUBLE_EQ(link(r, "east", "packets"), 10.0);
        EXPECT_DOUBLE_EQ(link(r, "east", "busyCycles"), 50.0);
    }
    EXPECT_DOUBLE_EQ(link(0, "east", "waitCycles"), 5.0 * 45);
    EXPECT_DOUBLE_EQ(link(1, "east", "waitCycles"), 0.0);
    EXPECT_DOUBLE_EQ(link(2, "east", "waitCycles"), 0.0);
    EXPECT_DOUBLE_EQ(link(3, "eject", "packets"), 10.0);
    EXPECT_DOUBLE_EQ(link(3, "eject", "busyCycles"), 50.0);
    EXPECT_DOUBLE_EQ(link(3, "eject", "waitCycles"), 0.0);
    // Off-path links stay idle.
    EXPECT_DOUBLE_EQ(link(0, "west", "packets"), 0.0);
    EXPECT_DOUBLE_EQ(link(3, "east", "packets"), 0.0);
    EXPECT_DOUBLE_EQ(link(0, "eject", "busyCycles"), 0.0);
    EXPECT_EQ(mesh.totalLinkBusyCycles(), 200u);
}

TEST(Mesh, LinkStatsKeepTheirNamesAndOrder)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    const auto &scalars = mesh.stats().scalars();
    // packets, flits, then (router, direction, counter) in table order.
    ASSERT_EQ(scalars.size(), 2u + mesh.numLinks() * 3);
    EXPECT_EQ(scalars[0]->name(), "packets");
    EXPECT_EQ(scalars[1]->name(), "flits");
    EXPECT_EQ(scalars[2]->name(), "mesh.router[0].east.packets");
    EXPECT_EQ(scalars[3]->name(), "mesh.router[0].east.busyCycles");
    EXPECT_EQ(scalars[4]->name(), "mesh.router[0].east.waitCycles");
    EXPECT_EQ(scalars[5]->name(), "mesh.router[0].west.packets");
    EXPECT_EQ(scalars[14]->name(), "mesh.router[0].eject.packets");
    EXPECT_EQ(scalars[17]->name(), "mesh.router[1].east.packets");
    EXPECT_EQ(scalars.back()->name(), "mesh.router[7].eject.waitCycles");
}

TEST(Mesh, DisjointPathsDoNotInterfere)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 1, 0);
    mesh.attach(2, 2, 1);
    mesh.attach(3, 3, 1);
    Tick t01 = 0, t23 = 0;
    mesh.send(0, 1, 72, [&] { t01 = eq.now(); });
    mesh.send(2, 3, 72, [&] { t23 = eq.now(); });
    eq.run();
    EXPECT_EQ(t01, mesh.idleLatency(0, 1, 72));
    EXPECT_EQ(t23, mesh.idleLatency(2, 3, 72));
}

TEST(Mesh, StatsCountPacketsAndFlits)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    mesh.attach(1, 3, 1);
    mesh.send(0, 1, 8, [] {});
    mesh.send(0, 1, 72, [] {});
    eq.run();
    EXPECT_EQ(mesh.packetsSent(), 2u);
    std::map<std::string, double> m;
    mesh.stats().toMap(m);
    EXPECT_DOUBLE_EQ(m["mesh.flits"], 6.0); // 1 + 5
}

TEST(Mesh, UnattachedNodesPanic)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    mesh.attach(0, 0, 0);
    EXPECT_THROW(mesh.send(0, 9, 8, [] {}), SimPanic);
    EXPECT_THROW(mesh.hops(5, 0), SimPanic);
    EXPECT_THROW(mesh.attach(0, 1, 1), SimPanic); // double attach
    EXPECT_THROW(mesh.attach(7, 9, 9), SimPanic); // off-mesh
}

namespace
{

/** Capture that counts how often the closure holding it is moved. */
struct MoveCounter
{
    int *moves;
    int *copies;

    MoveCounter(int *m, int *c) : moves(m), copies(c) {}
    MoveCounter(MoveCounter &&o) noexcept : moves(o.moves), copies(o.copies)
    {
        ++*moves;
    }
    MoveCounter(const MoveCounter &o) : moves(o.moves), copies(o.copies)
    {
        ++*copies;
    }
};

} // namespace

TEST(NetworkInterface, DeliveryClosureIsMovedAtMostOnce)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    NetworkInterface a("a", mesh, 0, 0, 0);
    NetworkInterface b("b", mesh, 1, 3, 1);
    int moves = 0;
    int copies = 0;
    Tick delivered = 0;
    const Tick arrival = a.sendControl(
        1, [counter = MoveCounter(&moves, &copies), &delivered, &eq] {
            (void)counter;
            delivered = eq.now();
        });
    // Built once, directly in its event node.
    EXPECT_LE(moves, 1);
    EXPECT_EQ(copies, 0);
    eq.run();
    EXPECT_LE(moves, 1);
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(delivered, mesh.idleLatency(0, 1, kControlBytes));
    EXPECT_EQ(arrival, delivered);
}

TEST(NetworkInterface, SendsStandardSizes)
{
    EventQueue eq;
    Mesh mesh("mesh", eq, smallMesh());
    NetworkInterface a("a", mesh, 0, 0, 0);
    NetworkInterface b("b", mesh, 1, 3, 1);
    int got = 0;
    a.sendControl(1, [&] { ++got; });
    b.sendData(0, [&] { ++got; });
    eq.run();
    EXPECT_EQ(got, 2);
    std::map<std::string, double> m;
    mesh.stats().toMap(m);
    EXPECT_DOUBLE_EQ(m["mesh.flits"], 1.0 + 5.0);
}

} // namespace persim::noc

/**
 * @file
 * Microbenchmarks for the mesh NoC on the Table-1 4x8 mesh with the
 * System's tile layout (L1 node i and LLC-bank node 32 + i on router
 * i). Mesh deliveries are about half of all simulated events in the
 * figure sweeps, and every one pays the XY link reservations of
 * Mesh::send plus one event-queue round trip; these two shapes isolate
 * that cost from the caches and the persist protocol.
 */

#include <benchmark/benchmark.h>

#include <cstdint>

#include "noc/mesh.hh"
#include "noc/network_interface.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

using persim::EventQueue;
using persim::Rng;
using persim::noc::kControlBytes;
using persim::noc::Mesh;
using persim::noc::MeshConfig;

constexpr unsigned kTiles = 32;
constexpr unsigned kNodes = 2 * kTiles;
constexpr std::uint64_t kPackets = 1'000'000;

/** A Table-1 mesh with every L1 and bank node attached. */
struct Machine
{
    EventQueue eq;
    Mesh mesh{"mesh", eq, MeshConfig{}};

    Machine()
    {
        const unsigned cols = mesh.config().cols;
        for (unsigned i = 0; i < kTiles; ++i) {
            mesh.attach(i, i % cols, i / cols);
            mesh.attach(kTiles + i, i % cols, i / cols);
        }
    }
};

/**
 * Steady-state random traffic: a fixed live set of control packets
 * between uniformly random node pairs; each delivery sends the next
 * packet, so link contention and the event window stay at a sweep's
 * shape while every route of the mesh gets used.
 */
void
BM_MeshSendRandom(benchmark::State &state)
{
    const auto live = static_cast<std::uint64_t>(state.range(0));

    struct Traffic : Machine
    {
        Rng rng{1};
        std::uint64_t remaining = kPackets;

        void
        sendNext()
        {
            if (remaining == 0)
                return;
            --remaining;
            const auto src = static_cast<unsigned>(rng.below(kNodes));
            const auto dst = static_cast<unsigned>(rng.below(kNodes));
            mesh.send(src, dst, kControlBytes, [this] { sendNext(); });
        }
    };

    for (auto _ : state) {
        Traffic t;
        for (std::uint64_t i = 0; i < live; ++i)
            t.sendNext();
        t.eq.run();
        benchmark::DoNotOptimize(t.mesh.totalLinkBusyCycles());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kPackets));
}
BENCHMARK(BM_MeshSendRandom)->Arg(64)->Arg(512)->Unit(
    benchmark::kMillisecond);

/**
 * The §4.1 fan-out: the L1 node on tile 0 sends a FlushEpoch control
 * message to all 32 banks, and each bank answers with a BankAck; the
 * next epoch's broadcast starts when the last ack arrives. Items are
 * messages (64 per epoch).
 */
void
BM_FlushEpochBroadcast(benchmark::State &state)
{
    constexpr std::uint64_t kEpochs = kPackets / (2 * kTiles);

    struct Arbiter : Machine
    {
        std::uint64_t epochsLeft = kEpochs;
        unsigned acksPending = 0;

        void
        broadcast()
        {
            if (epochsLeft == 0)
                return;
            --epochsLeft;
            acksPending = kTiles;
            for (unsigned b = 0; b < kTiles; ++b) {
                mesh.send(0, kTiles + b, kControlBytes, [this, b] {
                    mesh.send(kTiles + b, 0, kControlBytes,
                              [this] { onBankAck(); });
                });
            }
        }

        void
        onBankAck()
        {
            if (--acksPending == 0)
                broadcast();
        }
    };

    for (auto _ : state) {
        Arbiter a;
        a.broadcast();
        a.eq.run();
        benchmark::DoNotOptimize(a.mesh.packetsSent());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kEpochs * 2 * kTiles));
}
BENCHMARK(BM_FlushEpochBroadcast)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

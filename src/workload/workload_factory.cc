#include "workload/workload_factory.hh"

#include "sim/logging.hh"
#include "workload/micro/hash.hh"
#include "workload/micro/queue.hh"
#include "workload/micro/rbtree.hh"
#include "workload/micro/sdg.hh"
#include "workload/micro/sps.hh"
#include "workload/synthetic/presets.hh"

namespace persim::workload
{

const char *
toString(MicroKind kind)
{
    switch (kind) {
      case MicroKind::Hash:
        return "hash";
      case MicroKind::Queue:
        return "queue";
      case MicroKind::RbTree:
        return "rbtree";
      case MicroKind::Sdg:
        return "sdg";
      case MicroKind::Sps:
        return "sps";
    }
    return "?";
}

const std::vector<MicroKind> &
allMicroKinds()
{
    static const std::vector<MicroKind> kinds = {
        MicroKind::Hash, MicroKind::Queue, MicroKind::RbTree,
        MicroKind::Sdg, MicroKind::Sps,
    };
    return kinds;
}

MicroKind
microKindFromName(const std::string &name)
{
    for (MicroKind k : allMicroKinds()) {
        if (name == toString(k))
            return k;
    }
    fatal("unknown micro-benchmark '", name, "'");
}

namespace
{

MicroParams
paramsFor(const MicroConfig &cfg, CoreId thread)
{
    MicroParams p;
    p.thread = thread;
    p.numThreads = cfg.numThreads;
    p.opsPerThread = cfg.opsPerThread;
    p.seed = cfg.seed;
    p.searchFraction = cfg.searchFraction;
    p.crossFraction = cfg.crossFraction;
    p.thinkCycles = cfg.thinkCycles;
    p.useLocks = cfg.useLocks < 0 ? (cfg.kind == MicroKind::Queue)
                                  : cfg.useLocks != 0;
    return p;
}

} // namespace

namespace
{

unsigned
defaultStructureSize(MicroKind kind)
{
    switch (kind) {
      case MicroKind::Hash:
        return 32; // buckets per thread
      case MicroKind::Queue:
        return 256; // shared ring slots
      case MicroKind::RbTree:
        return 0; // trees size themselves
      case MicroKind::Sdg:
        return 16; // vertices per thread
      case MicroKind::Sps:
        return 64; // array entries per thread
    }
    return 32;
}

} // namespace

std::vector<std::unique_ptr<cpu::Workload>>
makeMicroWorkloads(const MicroConfig &cfg_)
{
    MicroConfig cfg = cfg_;
    if (cfg.structureSize == 0)
        cfg.structureSize = defaultStructureSize(cfg.kind);
    std::vector<std::unique_ptr<cpu::Workload>> out;
    out.reserve(cfg.numThreads);
    switch (cfg.kind) {
      case MicroKind::Hash: {
        auto state = std::make_shared<HashTableState>(cfg.structureSize,
                                                       cfg.numThreads);
        for (unsigned t = 0; t < cfg.numThreads; ++t) {
            out.push_back(std::make_unique<HashBenchmark>(
                paramsFor(cfg, static_cast<CoreId>(t)), state));
        }
        break;
      }
      case MicroKind::Queue: {
        auto state = std::make_shared<QueueState>(cfg.structureSize);
        for (unsigned t = 0; t < cfg.numThreads; ++t) {
            out.push_back(std::make_unique<QueueBenchmark>(
                paramsFor(cfg, static_cast<CoreId>(t)), state));
        }
        break;
      }
      case MicroKind::RbTree: {
        auto state = std::make_shared<RbTreeState>(cfg.numThreads);
        for (unsigned t = 0; t < cfg.numThreads; ++t) {
            out.push_back(std::make_unique<RbTreeBenchmark>(
                paramsFor(cfg, static_cast<CoreId>(t)), state));
        }
        break;
      }
      case MicroKind::Sdg: {
        auto state = std::make_shared<SdgState>(cfg.structureSize,
                                                cfg.numThreads);
        for (unsigned t = 0; t < cfg.numThreads; ++t) {
            out.push_back(std::make_unique<SdgBenchmark>(
                paramsFor(cfg, static_cast<CoreId>(t)), state));
        }
        break;
      }
      case MicroKind::Sps: {
        auto state = std::make_shared<SpsState>(cfg.structureSize,
                                                cfg.numThreads);
        for (unsigned t = 0; t < cfg.numThreads; ++t) {
            out.push_back(std::make_unique<SpsBenchmark>(
                paramsFor(cfg, static_cast<CoreId>(t)), state));
        }
        break;
      }
    }
    return out;
}

std::vector<std::unique_ptr<cpu::Workload>>
makeSyntheticWorkloads(const std::string &preset, unsigned numThreads,
                       std::uint64_t opsPerThread, std::uint64_t seed)
{
    TraceGenParams params = syntheticPreset(preset);
    params.opsPerThread = opsPerThread;
    std::vector<std::unique_ptr<cpu::Workload>> out;
    out.reserve(numThreads);
    for (unsigned t = 0; t < numThreads; ++t) {
        out.push_back(std::make_unique<TraceGen>(
            params, static_cast<CoreId>(t), numThreads, seed));
    }
    return out;
}

} // namespace persim::workload

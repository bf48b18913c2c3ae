/**
 * @file
 * Experiment specification and sweep expansion.
 *
 * An ExperimentSpec is one fully-determined simulation cell: workload,
 * persistency model, barrier variant, epoch size, core count, run
 * length, and seed. It is a plain value — serializable, hashable into
 * an id, and independently runnable — so a sweep is nothing more than a
 * vector of specs, and any subset can run on any thread in any order
 * without changing the results.
 *
 * Knobs without a dedicated field reach the SystemConfig through the
 * spec's ordered override list, so an ablation is just a grid whose
 * columns carry different overrides. The grids
 * themselves are defined once, in exp/figures.hh.
 */

#ifndef PERSIM_EXP_SPEC_HH
#define PERSIM_EXP_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/workload_iface.hh"
#include "exp/json.hh"
#include "model/system_config.hh"

namespace persim::exp
{

/** One fully-determined simulation cell. */
struct ExperimentSpec
{
    /** Sweep label, e.g. "fig11". */
    std::string sweep;

    /** Micro name (hash, queue, ...) or synthetic preset (canneal...). */
    std::string workload = "hash";

    /** Column label in the figure, e.g. "LB++", "LB1K", "NP". */
    std::string configLabel;

    model::PersistencyModel pm = model::PersistencyModel::BufferedEpoch;
    persist::BarrierKind barrier = persist::BarrierKind::LBPP;

    /** BSP hardware epoch size in dynamic stores. */
    unsigned epochSize = 10000;

    /** BSP undo logging (false models the LB++NOLOG ablation). */
    bool logging = true;

    unsigned cores = 32;
    std::uint64_t ops = 300;
    std::uint64_t seed = 1;

    /**
     * Ordered "key=value" config overrides, applied by toSystemConfig()
     * after everything else. Keys: barrier.useArbiter,
     * barrier.idtRegsPerEpoch, barrier.maxInflightEpochs,
     * barrier.invalidatingFlush, barrier.avoidTaggedVictims,
     * nvram.writeLatency, l1.policy, llc.policy, llc.sizeBytes and
     * llc.pinnedRetryInterval; booleans are "true"/"false", policies
     * "lru"/"random", numbers plain decimal. toSystemConfig() throws
     * SimFatal naming the key on an unknown key or malformed value.
     * Serialized only when non-empty, so grids without overrides keep
     * their documents byte-identical.
     */
    std::vector<std::pair<std::string, std::string>> overrides;

    /** True when workload names a Table 2 micro-benchmark. */
    bool isMicro() const;

    /** Unique, filesystem-friendly id: "<workload>/<config>/s<seed>". */
    std::string id() const;

    /** Build the Table-1 (or scaled-down) SystemConfig for this cell. */
    model::SystemConfig toSystemConfig() const;

    /** Build one workload per core. */
    std::vector<std::unique_ptr<cpu::Workload>> buildWorkloads() const;

    JsonValue toJson() const;
};

/** An ordered set of independent jobs. */
struct Sweep
{
    std::string name;
    std::vector<ExperimentSpec> jobs;

    /**
     * Cross the current job list with @p seeds: every job is repeated
     * once per seed, each with a distinct deterministic seed derived
     * from its base seed and the entry in @p seeds.
     */
    void crossSeeds(const std::vector<std::uint64_t> &seeds);
};

/** Deterministic seed mixing (splitmix64) for derived per-job seeds. */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t salt);

} // namespace persim::exp

#endif // PERSIM_EXP_SPEC_HH

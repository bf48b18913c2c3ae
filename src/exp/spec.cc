#include "exp/spec.hh"

#include <charconv>
#include <stdexcept>

#include "sim/logging.hh"
#include "workload/workload_factory.hh"

namespace persim::exp
{

namespace
{

// Value parsers for the override table. They throw
// std::invalid_argument carrying what they wanted; applyOverride turns
// that into a SimFatal naming the key.

bool
asBool(const std::string &v)
{
    if (v == "true" || v == "false")
        return v == "true";
    throw std::invalid_argument("true or false");
}

std::uint64_t
asNum(const std::string &v)
{
    std::uint64_t out = 0;
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (v.empty() || ec != std::errc() || ptr != end)
        throw std::invalid_argument("a non-negative integer");
    return out;
}

unsigned
asU32(const std::string &v)
{
    const std::uint64_t n = asNum(v);
    if (n > UINT32_MAX)
        throw std::invalid_argument("a 32-bit integer");
    return static_cast<unsigned>(n);
}

cache::ReplacementPolicy
asPolicy(const std::string &v)
{
    if (v == "lru" || v == "random")
        return v == "lru" ? cache::ReplacementPolicy::Lru
                          : cache::ReplacementPolicy::Random;
    throw std::invalid_argument("lru or random");
}

using Setter = void (*)(model::SystemConfig &, const std::string &);

/** The one table of override keys. */
const std::pair<const char *, Setter> kOverrideKeys[] = {
    {"barrier.useArbiter",
     [](model::SystemConfig &c, const std::string &v) {
         c.barrier.useArbiter = asBool(v);
     }},
    {"barrier.idtRegsPerEpoch",
     [](model::SystemConfig &c, const std::string &v) {
         c.barrier.idtRegsPerEpoch = asU32(v);
     }},
    {"barrier.maxInflightEpochs",
     [](model::SystemConfig &c, const std::string &v) {
         c.barrier.maxInflightEpochs = asU32(v);
     }},
    {"barrier.invalidatingFlush",
     [](model::SystemConfig &c, const std::string &v) {
         c.barrier.invalidatingFlush = asBool(v);
     }},
    {"barrier.avoidTaggedVictims",
     [](model::SystemConfig &c, const std::string &v) {
         c.barrier.avoidTaggedVictims = asBool(v);
     }},
    {"nvram.writeLatency",
     [](model::SystemConfig &c, const std::string &v) {
         c.nvram.writeLatency = asNum(v);
     }},
    {"l1.policy",
     [](model::SystemConfig &c, const std::string &v) {
         c.l1.geometry.policy = asPolicy(v);
     }},
    {"llc.policy",
     [](model::SystemConfig &c, const std::string &v) {
         c.llcBank.geometry.policy = asPolicy(v);
     }},
    {"llc.sizeBytes",
     [](model::SystemConfig &c, const std::string &v) {
         c.llcBank.geometry.sizeBytes = asNum(v);
     }},
    {"llc.pinnedRetryInterval",
     [](model::SystemConfig &c, const std::string &v) {
         c.llcBank.pinnedRetryInterval = asNum(v);
     }},
};

void
applyOverride(model::SystemConfig &cfg, const std::string &key,
              const std::string &value)
{
    for (const auto &[name, set] : kOverrideKeys) {
        if (key != name)
            continue;
        try {
            set(cfg, value);
        } catch (const std::invalid_argument &e) {
            fatal("config override ", key, "=", value, ": want ",
                  e.what());
        }
        return;
    }
    fatal("unknown config override key '", key, "'");
}

} // namespace

bool
ExperimentSpec::isMicro() const
{
    for (auto k : workload::allMicroKinds()) {
        if (workload == workload::toString(k))
            return true;
    }
    return false;
}

std::string
ExperimentSpec::id() const
{
    return workload + "/" + configLabel + "/s" + std::to_string(seed);
}

model::SystemConfig
ExperimentSpec::toSystemConfig() const
{
    model::SystemConfig cfg =
        cores == 32 ? model::SystemConfig::paperTable1()
                    : model::SystemConfig::smallTest(cores);
    applyPersistencyModel(cfg, pm, barrier, epochSize);
    if (pm == model::PersistencyModel::BufferedStrict && !logging) {
        cfg.barrier.logging = false; // LB++NOLOG ablation
        cfg.barrier.checkpointLines = 0;
    }
    cfg.seed = seed;
    for (const auto &[key, value] : overrides)
        applyOverride(cfg, key, value);
    return cfg;
}

std::vector<std::unique_ptr<cpu::Workload>>
ExperimentSpec::buildWorkloads() const
{
    if (isMicro()) {
        workload::MicroConfig mc;
        mc.kind = workload::microKindFromName(workload);
        mc.numThreads = cores;
        mc.opsPerThread = ops;
        mc.seed = seed;
        return workload::makeMicroWorkloads(mc);
    }
    return workload::makeSyntheticWorkloads(workload, cores, ops, seed);
}

JsonValue
ExperimentSpec::toJson() const
{
    JsonValue out = JsonValue::object();
    out["sweep"] = JsonValue(sweep);
    out["workload"] = JsonValue(workload);
    out["config"] = JsonValue(configLabel);
    out["model"] = JsonValue(model::toString(pm));
    out["barrier"] = JsonValue(persist::toString(barrier));
    out["epochSize"] = JsonValue(epochSize);
    out["logging"] = JsonValue(logging);
    out["cores"] = JsonValue(cores);
    out["ops"] = JsonValue(ops);
    out["seed"] = JsonValue(seed);
    // Emitted only when present so documents of override-free grids
    // stay byte-identical with those written before overrides existed.
    if (!overrides.empty()) {
        JsonValue list = JsonValue::array();
        for (const auto &[key, value] : overrides)
            list.push(JsonValue(key + "=" + value));
        out["overrides"] = std::move(list);
    }
    return out;
}

void
Sweep::crossSeeds(const std::vector<std::uint64_t> &seeds)
{
    if (seeds.size() <= 1)
        return;
    std::vector<ExperimentSpec> expanded;
    expanded.reserve(jobs.size() * seeds.size());
    for (const ExperimentSpec &base : jobs) {
        for (std::uint64_t s : seeds) {
            ExperimentSpec spec = base;
            spec.seed = mixSeed(base.seed, s);
            expanded.push_back(std::move(spec));
        }
    }
    jobs = std::move(expanded);
}

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t salt)
{
    // splitmix64 over base ^ golden-ratio-scaled salt: cheap, well
    // distributed, and identical on every platform.
    std::uint64_t z = base + salt * UINT64_C(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

} // namespace persim::exp

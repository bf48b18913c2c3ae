/**
 * @file
 * persim_cli — command-line driver for one-off simulations.
 *
 *   persim_cli --workload hash --model BEP --barrier LB++ --ops 500
 *   persim_cli --workload ssca2 --model BSP --epoch-size 1000 --stats
 *
 * Workloads: the Table 2 micros (hash, queue, rbtree, sdg, sps) and the
 * synthetic suite stand-ins (canneal, dedup, freqmine, barnes,
 * cholesky, radix, intruder, ssca2, vacation).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "exp/spec.hh"
#include "exp/stats_export.hh"
#include "flags.hh"

#include "model/recovery.hh"
#include "sim/logging.hh"
#include "model/system.hh"

using namespace persim;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --workload NAME   hash|queue|rbtree|sdg|sps or a synthetic\n"
        "                    preset (canneal, ..., vacation). Default\n"
        "                    hash.\n"
        "  --model M         NP|SP|EP|BEP|BSP (default BEP for micros,\n"
        "                    BSP for synthetics)\n"
        "  --barrier B       LB|LB+IDT|LB+PF|LB++ (default LB++)\n"
        "  --ops N           operations per thread (default 300)\n"
        "  --cores N         cores (default 32; power of two)\n"
        "  --epoch-size N    BSP hardware epoch size (default 10000)\n"
        "  --seed N          workload seed (default 1)\n"
        "  --stats           dump the full stat tree\n"
        "  --json FILE       dump the run (result + stat tree) as JSON\n"
        "  --debug-state     dump live machine state after the run\n"
        "  --check-recovery  record the persist log and verify crash\n"
        "                    recoverability at every point\n"
        "  --help\n",
        argv0);
}

persist::BarrierKind
parseBarrier(const std::string &s)
{
    if (s == "LB")
        return persist::BarrierKind::LB;
    if (s == "LB+IDT" || s == "LBIDT")
        return persist::BarrierKind::LBIDT;
    if (s == "LB+PF" || s == "LBPF")
        return persist::BarrierKind::LBPF;
    if (s == "LB++" || s == "LBPP")
        return persist::BarrierKind::LBPP;
    persim::fatal("unknown barrier '", s, "'");
}

model::PersistencyModel
parseModel(const std::string &s)
{
    if (s == "NP")
        return model::PersistencyModel::NoPersistency;
    if (s == "SP")
        return model::PersistencyModel::Strict;
    if (s == "EP")
        return model::PersistencyModel::Epoch;
    if (s == "BEP")
        return model::PersistencyModel::BufferedEpoch;
    if (s == "BSP")
        return model::PersistencyModel::BufferedStrict;
    persim::fatal("unknown persistency model '", s, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    exp::ExperimentSpec spec;
    std::string modelName;
    std::string barrierName = "LB++";
    bool dumpStats = false;
    std::string jsonFile;
    bool debugState = false;
    bool checkRecovery = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            spec.workload = value("--workload");
        else if (arg == "--model")
            modelName = value("--model");
        else if (arg == "--barrier")
            barrierName = value("--barrier");
        else if (arg == "--ops")
            spec.ops = tools::parseNum("--ops", value("--ops"));
        else if (arg == "--cores")
            spec.cores = tools::parseNumU32("--cores", value("--cores"));
        else if (arg == "--epoch-size")
            spec.epochSize =
                tools::parseNumU32("--epoch-size", value("--epoch-size"));
        else if (arg == "--seed")
            spec.seed = tools::parseNum("--seed", value("--seed"));
        else if (arg == "--stats")
            dumpStats = true;
        else if (arg == "--json")
            jsonFile = value("--json");
        else if (arg == "--debug-state")
            debugState = true;
        else if (arg == "--check-recovery")
            checkRecovery = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    try {
        if (modelName.empty())
            modelName = spec.isMicro() ? "BEP" : "BSP";
        spec.pm = parseModel(modelName);
        spec.barrier = parseBarrier(barrierName);

        model::SystemConfig cfg = spec.toSystemConfig();
        cfg.keepPersistLog = checkRecovery;

        model::System sys(cfg);
        auto workloads = spec.buildWorkloads();
        for (unsigned t = 0; t < spec.cores; ++t)
            sys.setWorkload(static_cast<CoreId>(t),
                            std::move(workloads[t]));

        std::printf("%s | %s | %s | %llu ops/thread | seed %llu\n",
                    spec.workload.c_str(), modelName.c_str(),
                    barrierName.c_str(),
                    static_cast<unsigned long long>(spec.ops),
                    static_cast<unsigned long long>(spec.seed));
        std::printf("%s\n", cfg.describe().c_str());

        model::SimResult res = sys.run();

        std::printf("completed=%d deadlocked=%d timedOut=%d\n",
                    res.completed, res.deadlocked, res.timedOut);
        std::printf("exec %.3f Mcycles, drain +%.3f Mcycles, %llu "
                    "events\n",
                    res.execTicks / 1e6,
                    (res.drainTicks - res.execTicks) / 1e6,
                    static_cast<unsigned long long>(res.events));
        std::printf("transactions %llu (%.1f txn/Mcycle)\n",
                    static_cast<unsigned long long>(res.transactions),
                    res.throughput());
        std::printf("ordering violations: %zu\n", res.violations.size());
        for (std::size_t i = 0;
             i < res.violations.size() && i < 5; ++i)
            std::printf("  %s\n", res.violations[i].c_str());

        if (checkRecovery && sys.checker()) {
            model::RecoveryAnalysis ra(sys.checker()->log(), spec.cores);
            const std::size_t bad = ra.firstInconsistency();
            if (bad > ra.logSize()) {
                std::printf("recovery: consistent at every crash point "
                            "(%zu durable writes)\n",
                            ra.logSize());
            } else {
                std::printf("recovery: INCONSISTENT at crash point %zu\n",
                            bad);
            }
        }
        if (debugState)
            sys.debugDump(std::cout);
        if (dumpStats)
            sys.dumpStats(std::cout);
        if (!jsonFile.empty()) {
            exp::JsonValue doc = exp::JsonValue::object();
            doc["workload"] = exp::JsonValue(spec.workload);
            doc["model"] = exp::JsonValue(modelName);
            doc["barrier"] = exp::JsonValue(barrierName);
            doc["cores"] = exp::JsonValue(spec.cores);
            doc["ops"] = exp::JsonValue(spec.ops);
            doc["seed"] = exp::JsonValue(spec.seed);
            doc["result"] = exp::simResultToJson(res);
            doc["groups"] = exp::statGroupsToJson(sys.statGroups());
            std::ofstream os(jsonFile);
            if (!os)
                persim::fatal("cannot write ", jsonFile);
            doc.write(os, 2);
            os << '\n';
            std::printf("wrote %s\n", jsonFile.c_str());
        }
        return res.completed && res.violations.empty() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

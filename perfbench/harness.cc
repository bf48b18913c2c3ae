/**
 * @file
 * perfbench_harness — runs one paper-figure grid through the simulator
 * library and reports host-time spans, simulated counts and a
 * determinism hash as one JSON document on stdout.
 *
 * Every cell takes the same steps as exp::runJob, with a steady-clock
 * span around each public call:
 *
 *   exp.setup_s       ExperimentSpec::toSystemConfig
 *   model.build_s     model::System construction
 *   workload.build_s  ExperimentSpec::buildWorkloads + setWorkload
 *   model.run_s       System::run
 *   exp.export_s      System::stats + statGroupsToJson, and the sweep
 *                     document (sweepToJson, figure table, write)
 *
 * The document is the one `persim_sweep --out` writes for the same
 * grid, byte for byte. With --prof the existing SIGPROF phase sampler
 * runs, and the samples that land between the start of System::run and
 * the end of the cell's stat export are reported per phase.
 *
 *   perfbench_harness --figure 14 --configs LB --ops 2000 --cores 32 \
 *       --seed 1 --jobs 1 --doc-out out.json [--prof] \
 *       [--no-stats-out out.nostats.json] [--require-stat NAME]
 *
 * --require-stat names one more stat family ("l1[].loads") that every
 * cell must have. Exit status: 0 with a report (failed cells are
 * reported, not fatal), 2 on a usage or build error, 1 when a stat or
 * the process's VmHWM is missing.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/fault.hh"
#include "exp/figures.hh"
#include "exp/journal.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/stats_export.hh"
#include "exp/telemetry.hh"
#include "prof/phase.hh"
#include "prof/sampler.hh"

using namespace persim;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Attempts per cell, as persim_sweep runs by default (--retries 1); the
 * retry follows at once, without persim_sweep's backoff sleep.
 */
constexpr unsigned kMaxAttempts = 2;

/** The sampler period persim_sweep --prof uses (prime, in us). */
constexpr unsigned kProfPeriodUsec = 997;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Host-time spans of one cell (or their sum over a grid). */
struct Spans
{
    double setup = 0.0;
    double modelBuild = 0.0;
    double workloadBuild = 0.0;
    double run = 0.0;
    double exportS = 0.0;
    /** Whole cell, every attempt included. */
    double cell = 0.0;

    void
    add(const Spans &o)
    {
        setup += o.setup;
        modelBuild += o.modelBuild;
        workloadBuild += o.workloadBuild;
        run += o.run;
        exportS += o.exportS;
        cell += o.cell;
    }
};

/**
 * Run one cell. Spans are recorded for the successful attempt only; a
 * failed attempt's time still counts in Spans::cell.
 */
exp::JobOutcome
runCell(const exp::ExperimentSpec &spec, std::size_t index, Spans &spans,
        prof::PhaseCounts *phases)
{
    exp::JobOutcome out;
    out.spec = spec;
    out.index = index;
    const auto cellStart = Clock::now();
    for (unsigned attempt = 1; attempt <= kMaxAttempts; ++attempt) {
        out.attempts = attempt;
        try {
            exp::fault::maybeInject(index, nullptr);
            const auto t0 = Clock::now();
            model::SystemConfig cfg = spec.toSystemConfig();
            const auto t1 = Clock::now();
            model::System sys(cfg);
            const auto t2 = Clock::now();
            auto workloads = spec.buildWorkloads();
            for (unsigned t = 0; t < cfg.numCores; ++t)
                sys.setWorkload(static_cast<CoreId>(t),
                                std::move(workloads[t]));
            const auto t3 = Clock::now();
            prof::PhaseCounts before;
            if (phases)
                before = prof::Sampler::threadCounts();
            out.result = sys.run();
            const auto t4 = Clock::now();
            {
                prof::ScopedPhase profPhase(prof::Phase::StatExport);
                out.stats = sys.stats();
                out.statTree = exp::statGroupsToJson(sys.statGroups());
            }
            const auto t5 = Clock::now();
            if (phases)
                phases->add(prof::Sampler::threadCounts().minus(before));
            spans.setup = secondsBetween(t0, t1);
            spans.modelBuild = secondsBetween(t1, t2);
            spans.workloadBuild = secondsBetween(t2, t3);
            spans.run = secondsBetween(t3, t4);
            spans.exportS = secondsBetween(t4, t5);
            out.ok = true;
            out.error.clear();
            break;
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        }
    }
    spans.cell = secondsBetween(cellStart, Clock::now());
    return out;
}

/** Raised for a stat, phase or field the harness expects but lacks. */
struct MissingStat : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Flat stats of one cell with every "[N]" instance index dropped, so
 * "l1[3].misses" and "l1[7].misses" both add into "l1[].misses".
 */
std::map<std::string, double>
familySums(const std::map<std::string, double> &stats)
{
    std::map<std::string, double> out;
    for (const auto &[key, value] : stats) {
        std::string family;
        family.reserve(key.size());
        bool inIndex = false;
        for (char c : key) {
            if (c == '[')
                inIndex = true;
            else if (c == ']')
                inIndex = false;
            else if (inIndex)
                continue;
            family.push_back(c);
        }
        out[family] += value;
    }
    return out;
}

/** Sum of the families between @p prefix and @p suffix; none throws. */
double
need(const std::map<std::string, double> &families,
     const std::string &prefix, const std::string &suffix,
     const std::string &cellId)
{
    double sum = 0.0;
    bool found = false;
    for (auto it = families.lower_bound(prefix);
         it != families.end() && it->first.starts_with(prefix); ++it) {
        if (it->first.size() >= prefix.size() + suffix.size() &&
            it->first.ends_with(suffix)) {
            sum += it->second;
            found = true;
        }
    }
    if (!found)
        throw MissingStat("stat '" + prefix +
                          (suffix.empty() ? "" : "*" + suffix) +
                          "' not found in cell " + cellId);
    return sum;
}

double
need(const std::map<std::string, double> &families, const std::string &key,
     const std::string &cellId)
{
    const auto it = families.find(key);
    if (it == families.end())
        throw MissingStat("stat '" + key + "' not found in cell " + cellId);
    return it->second;
}

/**
 * Grid-wide sums of the raw stats behind the per-layer counts. Ratios
 * and means are formed once from these sums, so every cell weighs by
 * its own activity.
 */
struct Totals
{
    std::map<std::string, double> sums;

    void
    addCell(const exp::JobOutcome &o,
            const std::vector<std::string> &required)
    {
        const std::string id = o.spec.id();
        const auto f = familySums(o.stats);
        auto put = [&](const char *name, double v) { sums[name] += v; };
        put("sim.events", static_cast<double>(o.result.events));
        put("sim.execTicks", static_cast<double>(o.result.execTicks));
        put("workload.transactions",
            static_cast<double>(o.result.transactions));
        put("cpu.ops", need(f, "core[].ops", id));
        put("cpu.wbStalls", need(f, "core[].wbStalls", id));
        put("cpu.loadLatency.sum", need(f, "core[].loadLatency.sum", id));
        put("cpu.loadLatency.count",
            need(f, "core[].loadLatency.count", id));
        put("l1.loads", need(f, "l1[].loads", id));
        put("l1.stores", need(f, "l1[].stores", id));
        put("l1.misses", need(f, "l1[].misses", id));
        put("l1.lookups",
            need(f, "l1[].hits", id) + need(f, "l1[].misses", id));
        put("l1.mshrDefers", need(f, "l1[].mshrDefers", id));
        put("llc.requests", need(f, "llc[].requests", id));
        put("llc.missesToMemory", need(f, "llc[].missesToMemory", id));
        put("llc.evictionsDirty", need(f, "llc[].evictionsDirty", id));
        put("llc.victimRetries", need(f, "llc[].victimRetries", id));
        put("llc.pinWaits", need(f, "llc[].pinWaits", id));
        put("noc.flits", need(f, "mesh.flits", id));
        put("noc.waitCycles",
            need(f, "mesh.mesh.router[].", ".waitCycles", id));
        put("noc.latency.sum", need(f, "mesh.latency.sum", id));
        put("noc.latency.count", need(f, "mesh.latency.count", id));
        put("nvm.writes", need(f, "mc[].nvram.writes", id));
        put("nvm.logWrites", need(f, "mc[].logWrites", id));
        put("nvm.writeQueueing.sum",
            need(f, "mc[].nvram.writeQueueing.sum", id));
        put("nvm.writeQueueing.count",
            need(f, "mc[].nvram.writeQueueing.count", id));
        put("persist.epochsPersisted",
            need(f, "persist.arbiter[].epochsPersisted", id));
        put("persist.epochsConflicted",
            need(f, "persist.arbiter[].epochsConflicted", id));
        put("persist.flushProactive",
            need(f, "persist.arbiter[].flushProactive", id));
        put("persist.barrierStalls",
            need(f, "persist.arbiter[].barrierStalls", id));
        put("persist.splits", need(f, "persist.arbiter[].splits", id));
        put("persist.conflictWait.sum",
            need(f, "persist.conflictWait.sum", id));
        put("persist.conflictWait.count",
            need(f, "persist.conflictWait.count", id));
        put("persist.protocolMessages",
            need(f, "persist.protocolMessages", id));
        for (const std::string &key : required)
            need(f, key, id);
    }

    double
    at(const std::string &key) const
    {
        const auto it = sums.find(key);
        if (it == sums.end())
            throw MissingStat("total '" + key + "' was never summed");
        return it->second;
    }

    double
    ratio(const std::string &num, const std::string &den) const
    {
        const double d = at(den);
        return d == 0.0 ? 0.0 : at(num) / d;
    }

    /** The per-layer counts, named as the benchmark reports them. */
    exp::JsonValue
    toJson() const
    {
        exp::JsonValue c = exp::JsonValue::object();
        for (const char *k :
             {"sim.events", "workload.transactions", "cpu.ops",
              "nvm.writes"})
            c[k] = exp::JsonValue(at(k));
        c["cpu.wb_stalls"] = exp::JsonValue(at("cpu.wbStalls"));
        c["cpu.load_latency_mean_cyc"] = exp::JsonValue(
            ratio("cpu.loadLatency.sum", "cpu.loadLatency.count"));
        c["l1.accesses"] = exp::JsonValue(at("l1.loads") + at("l1.stores"));
        c["l1.miss_frac"] = exp::JsonValue(ratio("l1.misses", "l1.lookups"));
        c["l1.mshr_defers"] = exp::JsonValue(at("l1.mshrDefers"));
        c["llc.requests"] = exp::JsonValue(at("llc.requests"));
        c["llc.mem_miss_frac"] =
            exp::JsonValue(ratio("llc.missesToMemory", "llc.requests"));
        c["llc.evictions_dirty"] = exp::JsonValue(at("llc.evictionsDirty"));
        c["llc.victim_retries"] = exp::JsonValue(at("llc.victimRetries"));
        c["llc.pin_waits"] = exp::JsonValue(at("llc.pinWaits"));
        c["noc.flits"] = exp::JsonValue(at("noc.flits"));
        c["noc.wait_cycles"] = exp::JsonValue(at("noc.waitCycles"));
        c["noc.latency_mean_cyc"] =
            exp::JsonValue(ratio("noc.latency.sum", "noc.latency.count"));
        c["nvm.log_writes"] = exp::JsonValue(at("nvm.logWrites"));
        c["nvm.write_queueing_mean_cyc"] = exp::JsonValue(
            ratio("nvm.writeQueueing.sum", "nvm.writeQueueing.count"));
        c["persist.epochs_persisted"] =
            exp::JsonValue(at("persist.epochsPersisted"));
        c["persist.conflict_frac"] = exp::JsonValue(
            ratio("persist.epochsConflicted", "persist.epochsPersisted"));
        c["persist.flush_proactive"] =
            exp::JsonValue(at("persist.flushProactive"));
        c["persist.barrier_stalls"] =
            exp::JsonValue(at("persist.barrierStalls"));
        c["persist.splits"] = exp::JsonValue(at("persist.splits"));
        c["persist.conflict_wait_mean_cyc"] = exp::JsonValue(ratio(
            "persist.conflictWait.sum", "persist.conflictWait.count"));
        c["persist.protocol_messages"] =
            exp::JsonValue(at("persist.protocolMessages"));
        return c;
    }
};

/** 64-bit FNV-1a, printed as 16 hex digits. */
std::string
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** The document persim_sweep --out writes, as bytes. */
std::string
sweepDocument(int figure, const exp::Sweep &sweep,
              const std::vector<exp::JobOutcome> &outcomes,
              bool includeStats)
{
    exp::JsonValue doc = exp::sweepToJson(sweep, outcomes, includeStats);
    doc["table"] =
        exp::figureTableToJson(exp::figureTable(figure, outcomes));
    std::ostringstream buf;
    doc.write(buf, 2);
    buf << '\n';
    return buf.str();
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\n"
                 "usage: perfbench_harness --figure F --configs A,B "
                 "--ops N --cores C --seed S --jobs J --doc-out FILE\n"
                 "           [--prof] [--no-stats-out FILE] "
                 "[--require-stat NAME]\n",
                 msg.c_str());
    std::exit(2);
}

std::uint64_t
parseNum(const std::string &flag, const std::string &v)
{
    std::uint64_t out = 0;
    const auto [ptr, ec] =
        std::from_chars(v.data(), v.data() + v.size(), out);
    if (v.empty() || ec != std::errc() || ptr != v.data() + v.size())
        usageError(flag + " wants a non-negative integer, got '" + v +
                   "'");
    return out;
}

std::vector<std::string>
splitComma(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = std::min(s.find(',', pos), s.size());
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    if (buildType != "Release" || !PERFBENCH_IPO) {
        std::fprintf(stderr,
                     "perfbench_harness: refusing to measure a '%s' "
                     "build (IPO %s); configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     buildType.c_str(), PERFBENCH_IPO ? "on" : "off");
        return 2;
    }

    int figure = 0;
    std::string configs;
    std::uint64_t ops = 0, cores = 0, seed = 0, jobs = 0;
    std::string docOut, noStatsOut;
    std::vector<std::string> required;
    bool profOn = false, seedSet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--figure")
            figure = static_cast<int>(parseNum(arg, value()));
        else if (arg == "--configs")
            configs = value();
        else if (arg == "--ops")
            ops = parseNum(arg, value());
        else if (arg == "--cores")
            cores = parseNum(arg, value());
        else if (arg == "--seed") {
            seed = parseNum(arg, value());
            seedSet = true;
        } else if (arg == "--jobs")
            jobs = parseNum(arg, value());
        else if (arg == "--doc-out")
            docOut = value();
        else if (arg == "--no-stats-out")
            noStatsOut = value();
        else if (arg == "--require-stat")
            required.push_back(value());
        else if (arg == "--prof")
            profOn = true;
        else
            usageError("unknown argument '" + arg + "'");
    }
    const auto &known = exp::knownFigures();
    if (std::find(known.begin(), known.end(), figure) == known.end())
        usageError("--figure must name a known figure");
    if (configs.empty() || ops == 0 || cores == 0 || jobs == 0 ||
        docOut.empty() || !seedSet)
        usageError("--configs, --ops, --cores, --seed, --jobs and "
                   "--doc-out are required; ops, cores and jobs nonzero");
    if (cores > 1024 || jobs > 256)
        usageError("--cores is at most 1024 and --jobs at most 256");

    exp::Sweep sweep = exp::figureSweep(figure, ops,
                                        static_cast<unsigned>(cores), seed);
    const std::vector<std::string> keep = splitComma(configs);
    for (const std::string &label : keep) {
        if (std::none_of(sweep.jobs.begin(), sweep.jobs.end(),
                         [&](const auto &s) {
                             return s.configLabel == label;
                         }))
            usageError("config '" + label + "' matches no cell of " +
                       sweep.name);
    }
    std::erase_if(sweep.jobs, [&](const auto &s) {
        return std::find(keep.begin(), keep.end(), s.configLabel) ==
               keep.end();
    });

    const std::size_t total = sweep.jobs.size();
    std::vector<exp::JobOutcome> outcomes(total);
    std::vector<Spans> cellSpans(total);
    std::vector<prof::PhaseCounts> cellPhases(total);

    if (profOn && !prof::Sampler::start(kProfPeriodUsec)) {
        std::fprintf(stderr,
                     "perfbench_harness: cannot arm the phase sampler\n");
        return 2;
    }
    const auto gridStart = Clock::now();
    exp::WorkStealingPool pool(static_cast<unsigned>(jobs), total);
    pool.run([&](std::size_t index, unsigned) {
        if (profOn)
            prof::Sampler::attachThread();
        outcomes[index] =
            runCell(sweep.jobs[index], index, cellSpans[index],
                    profOn ? &cellPhases[index] : nullptr);
    });

    // Document assembly and write: the rest of exp.export_s.
    const auto docStart = Clock::now();
    prof::PhaseCounts docBefore;
    if (profOn)
        docBefore = prof::Sampler::threadCounts();
    const std::string doc = sweepDocument(figure, sweep, outcomes, true);
    exp::writeFileAtomic(docOut, doc);
    const auto gridEnd = Clock::now();
    prof::PhaseCounts phases;
    if (profOn) {
        phases = prof::Sampler::threadCounts().minus(docBefore);
        prof::Sampler::stop();
    }
    const double gridWall = secondsBetween(gridStart, gridEnd);
    const std::uint64_t peakRssKb = exp::peakRssKb();
    if (peakRssKb == 0) {
        std::fprintf(stderr, "perfbench_harness: VmHWM not found in "
                             "/proc/self/status\n");
        return 1;
    }

    // Everything after this point is off the clock.
    const std::string noStatsDoc =
        sweepDocument(figure, sweep, outcomes, false);
    if (!noStatsOut.empty())
        exp::writeFileAtomic(noStatsOut, noStatsDoc);

    Spans spans;
    spans.exportS = secondsBetween(docStart, gridEnd);
    Totals totals;
    unsigned attempts = 0;
    exp::JsonValue cells = exp::JsonValue::array();
    try {
        for (std::size_t i = 0; i < total; ++i) {
            const exp::JobOutcome &o = outcomes[i];
            spans.add(cellSpans[i]);
            phases.add(cellPhases[i]);
            attempts += o.attempts;
            exp::JsonValue c = exp::JsonValue::object();
            c["id"] = exp::JsonValue(o.spec.id());
            c["ok"] = exp::JsonValue(o.ok);
            c["completed"] = exp::JsonValue(o.result.completed);
            c["deadlocked"] = exp::JsonValue(o.result.deadlocked);
            c["timedOut"] = exp::JsonValue(o.result.timedOut);
            c["violations"] = exp::JsonValue(o.result.violations.size());
            c["attempts"] = exp::JsonValue(o.attempts);
            c["wall_s"] = exp::JsonValue(cellSpans[i].cell);
            if (!o.ok)
                c["error"] = exp::JsonValue(o.error);
            cells.push(std::move(c));
            if (o.ok)
                totals.addCell(o, required);
        }
    } catch (const MissingStat &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
    const bool anyOk = std::any_of(outcomes.begin(), outcomes.end(),
                                   [](const auto &o) { return o.ok; });

    exp::JsonValue report = exp::JsonValue::object();
    report["buildType"] = exp::JsonValue(buildType);
    report["ipo"] = exp::JsonValue(static_cast<bool>(PERFBENCH_IPO));
    report["sweep"] = exp::JsonValue(sweep.name);
    report["workers"] = exp::JsonValue(jobs);
    report["cells"] = cells;
    report["attempts"] = exp::JsonValue(attempts);
    report["gridWall_s"] = exp::JsonValue(gridWall);
    report["peakRss_kb"] = exp::JsonValue(peakRssKb);
    exp::JsonValue sp = exp::JsonValue::object();
    sp["exp.setup_s"] = exp::JsonValue(spans.setup);
    sp["model.build_s"] = exp::JsonValue(spans.modelBuild);
    sp["workload.build_s"] = exp::JsonValue(spans.workloadBuild);
    sp["model.run_s"] = exp::JsonValue(spans.run);
    sp["exp.export_s"] = exp::JsonValue(spans.exportS);
    sp["cells_s"] = exp::JsonValue(spans.cell);
    report["spans"] = std::move(sp);
    report["docHash"] = exp::JsonValue(fnv1a(doc));
    report["noStatsDocHash"] = exp::JsonValue(fnv1a(noStatsDoc));
    if (anyOk) {
        report["simTicks"] = exp::JsonValue(totals.at("sim.execTicks"));
        report["counts"] = totals.toJson();
    }
    if (figure == 11) {
        const exp::FigureTable table = exp::figureTable(figure, outcomes);
        exp::JsonValue means = exp::JsonValue::object();
        for (std::size_t c = 0; c < table.cols.size(); ++c)
            means[table.cols[c]] = exp::JsonValue(table.means[c]);
        report["figureMeans"] = std::move(means);
    }
    if (profOn) {
        exp::JsonValue pj = exp::JsonValue::object();
        pj["periodUsec"] = exp::JsonValue(kProfPeriodUsec);
        exp::JsonValue samples = exp::JsonValue::object();
        for (std::size_t p = 0; p < prof::kPhaseCount; ++p)
            samples[prof::phaseName(static_cast<prof::Phase>(p))] =
                exp::JsonValue(phases.samples[p]);
        pj["samples"] = std::move(samples);
        report["prof"] = std::move(pj);
    }
    report.write(std::cout, 0);
    std::cout << '\n';
    return 0;
}

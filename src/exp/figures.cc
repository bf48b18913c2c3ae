#include "exp/figures.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "exp/stats_export.hh"
#include "sim/logging.hh"
#include "workload/synthetic/presets.hh"
#include "workload/workload_factory.hh"

namespace persim::exp
{

namespace
{

using model::PersistencyModel;
using persist::BarrierKind;
using Overrides = std::vector<std::pair<std::string, std::string>>;

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

double
throughput(const JobOutcome &o)
{
    return o.result.throughput();
}

double
execTicks(const JobOutcome &o)
{
    return static_cast<double>(o.result.execTicks);
}

double
execMcycles(const JobOutcome &o)
{
    return static_cast<double>(o.result.execTicks) / 1e6;
}

/** NVRAM line writes (data + log + checkpoint), in thousands. */
double
nvramKiloWrites(const JobOutcome &o)
{
    return statValue(o, "mc[*].nvram.writes") / 1000.0;
}

/** Inter-thread conflicts as a % of all conflicts (§7.2). */
double
interConflictPct(const JobOutcome &o)
{
    const double inter = statValue(o, "persist.interConflicts");
    const double total = statValue(o, "persist.intraConflicts") + inter +
                         statValue(o, "persist.replacementConflicts");
    return total > 0 ? 100.0 * inter / total : 0.0;
}

// ---------------------------------------------------------------------
// The definition list
// ---------------------------------------------------------------------

GridColumn
bepColumn(const std::string &label, BarrierKind barrier,
          Overrides overrides = {})
{
    return {label, PersistencyModel::BufferedEpoch, barrier, 10000, true,
            std::move(overrides)};
}

GridColumn
bspColumn(const std::string &label, BarrierKind barrier,
          unsigned epochSize, bool logging, Overrides overrides = {})
{
    return {label, PersistencyModel::BufferedStrict, barrier, epochSize,
            logging, std::move(overrides)};
}

const GridColumn kNpColumn = {"NP", PersistencyModel::NoPersistency,
                              BarrierKind::None, 0, false, {}};

/** Every experiment, figures first. */
std::vector<SweepDefinition>
buildDefinitions()
{
    std::vector<std::string> micros;
    for (auto kind : workload::allMicroKinds())
        micros.push_back(workload::toString(kind));
    const std::vector<std::string> &presets =
        workload::syntheticPresetNames();

    const std::vector<GridColumn> bepVariants = {
        bepColumn("LB", BarrierKind::LB),
        bepColumn("LB+IDT", BarrierKind::LBIDT),
        bepColumn("LB+PF", BarrierKind::LBPF),
        bepColumn("LB++", BarrierKind::LBPP),
    };

    std::vector<SweepDefinition> defs;

    // Fig 11: BEP throughput, micros x {LB, LB+IDT, LB+PF, LB++}.
    defs.push_back({"fig11", micros, bepVariants, 300,
                    {{"Figure 11: transaction throughput normalized to "
                      "LB (higher is better)",
                      throughput, "LB", false, true}}});

    // Fig 12: the same grid; the metric (conflict %) differs.
    defs.push_back({"fig12", micros, bepVariants, 300,
                    {{"Figure 12: % epochs flushed because of a "
                      "conflict (lower is better)",
                      conflictPct, "", false, false}}});

    // Fig 13: BSP epoch-size study, NP baseline + LB at 300/1K/10K.
    defs.push_back(
        {"fig13",
         presets,
         {kNpColumn, bspColumn("LB300", BarrierKind::LB, 300, true),
          bspColumn("LB1K", BarrierKind::LB, 1000, true),
          bspColumn("LB10K", BarrierKind::LB, 10000, true)},
         20000,
         {{"Figure 13: BSP execution time normalized to NP, varying "
           "epoch size (lower is better)",
           execTicks, "NP", true, true},
          // The §7.2 coalescing mechanism behind the epoch-size effect.
          {"NVRAM line writes (x1000; persist + log + checkpoint "
           "traffic)",
           nvramKiloWrites, "", false, false}}});

    // Fig 14: BSP variants at epoch size 10000.
    defs.push_back(
        {"fig14",
         presets,
         {kNpColumn, bspColumn("LB", BarrierKind::LB, 10000, true),
          bspColumn("LB+IDT", BarrierKind::LBIDT, 10000, true),
          bspColumn("LB++", BarrierKind::LBPP, 10000, true),
          bspColumn("LB++NOLOG", BarrierKind::LBPP, 10000, false)},
         20000,
         {{"Figure 14: BSP execution time normalized to NP at epoch "
           "size 10000 (lower is better)",
           execTicks, "NP", true, true},
          {"Conflicts that are inter-thread, % (§7.2; paper: ~86% "
           "under LB)",
           interConflictPct, "", false, false}}});

    // §7: invalidating (clflush-like) vs non-invalidating (clwb-like)
    // flushes under LB++.
    defs.push_back(
        {"abl-flush-type",
         micros,
         {bepColumn("clflush", BarrierKind::LBPP,
                    {{"barrier.invalidatingFlush", "true"}}),
          bepColumn("clwb", BarrierKind::LBPP,
                    {{"barrier.invalidatingFlush", "false"}})},
         300,
         {{"Flush-type ablation: throughput of clwb-style flush "
           "normalized to clflush-style (paper: ~1.3x)",
           throughput, "clflush", false, true}}});

    // §7.2: the naive write-through implementation of strict
    // persistency; a representative subset keeps it affordable.
    defs.push_back(
        {"abl-writethrough",
         {"ssca2", "radix", "barnes"},
         {kNpColumn,
          {"SP-WT", PersistencyModel::Strict, BarrierKind::None, 0, false,
           {}}},
         4000,
         {{"Write-through strict persistency: execution time "
           "normalized to NP (paper: ~8x)",
           execTicks, "NP", true, true}}});

    // Figure 1 flavor: the persistency models on the same workloads.
    defs.push_back(
        {"abl-models",
         {"hash", "queue", "sps"},
         {kNpColumn, bepColumn("BEP++", BarrierKind::LBPP),
          bepColumn("BEP", BarrierKind::LB),
          {"EP", PersistencyModel::Epoch, BarrierKind::LB, 10000, true,
           {}},
          {"SP", PersistencyModel::Strict, BarrierKind::None, 0, false,
           {}}},
         150,
         {{"Persistency models (Figure 1): execution time normalized "
           "to NP (expected SP >> EP >= BEP > BEP++)",
           execTicks, "NP", true, true}}});

    // §4.1: per-core arbiter vs the all-to-all bank broadcast
    // strawman. The timing path is identical; the cost is mesh traffic.
    const auto meshPackets = [](const JobOutcome &o) {
        return statValue(o, "mesh.packets");
    };
    defs.push_back(
        {"abl-arbiter",
         {"hash", "queue"},
         {bepColumn("arbiter", BarrierKind::LBPP,
                    {{"barrier.useArbiter", "true"}}),
          bepColumn("allToAll", BarrierKind::LBPP,
                    {{"barrier.useArbiter", "false"}})},
         200,
         {{"Arbiter ablation (§4.1): mesh packets normalized to the "
           "per-core arbiter",
           meshPackets, "arbiter", false, true},
          {"Arbiter ablation (§4.1): mesh packets", meshPackets, "",
           false, false}}});

    // §4.3: IDT register pairs per epoch (the paper provisions 4).
    std::vector<GridColumn> regColumns;
    for (unsigned regs : {1, 2, 4, 8, 16})
        regColumns.push_back(bspColumn(
            "regs" + std::to_string(regs), BarrierKind::LBPP, 1000, true,
            {{"barrier.idtRegsPerEpoch", std::to_string(regs)}}));
    defs.push_back(
        {"abl-idt-regs",
         {"ssca2"},
         regColumns,
         15000,
         {{"IDT register sensitivity (§4.3; ssca2, BSP @1K, LB++): "
           "IDT overflows",
           [](const JobOutcome &o) {
               return statValue(o, "persist.arbiter[*].idtOverflows");
           },
           "", false, false},
          {"IDT register sensitivity: execution Mcycles", execMcycles,
           "", false, false},
          {"IDT register sensitivity: IDT resolutions",
           [](const JobOutcome &o) {
               return statValue(o, "persist.idtResolutions");
           },
           "", false, false}}});

    // §4.3: in-flight epoch window (the paper provisions 8).
    std::vector<GridColumn> windowColumns;
    for (unsigned w : {2, 4, 8, 16})
        windowColumns.push_back(bepColumn(
            "w" + std::to_string(w), BarrierKind::LBPP,
            {{"barrier.maxInflightEpochs", std::to_string(w)}}));
    defs.push_back(
        {"abl-epoch-window",
         {"hash"},
         windowColumns,
         300,
         {{"Epoch-window sensitivity (§4.3; hash, BEP, LB++; paper "
           "provisions 8): barrier stalls",
           [](const JobOutcome &o) {
               return statValue(o, "persist.arbiter[*].barrierStalls");
           },
           "", false, false},
          {"Epoch-window sensitivity: transactions per Mcycle",
           throughput, "", false, false}}});

    // NVRAM write latency vs LB++'s advantage over LB (§1 motivation).
    std::vector<GridColumn> latencyColumns;
    for (unsigned lat : {90, 180, 360, 720, 1440}) {
        for (BarrierKind b : {BarrierKind::LB, BarrierKind::LBPP})
            latencyColumns.push_back(bepColumn(
                std::string(persist::toString(b)) + "@" +
                    std::to_string(lat),
                b, {{"nvram.writeLatency", std::to_string(lat)}}));
    }
    defs.push_back(
        {"abl-nvram-latency",
         {"hash"},
         latencyColumns,
         200,
         {{"NVRAM write-latency sensitivity (hash, BEP): LB++ "
           "throughput over LB at each write latency",
           throughput, "LB", true, true},
          {"NVRAM write-latency sensitivity: transactions per Mcycle",
           throughput, "", false, false}}});

    // LLC victim selection: LRU vs Random, with and without the
    // tagged-victim avoidance that keeps demand misses from causing
    // replacement conflicts (§3.2). Small LLC banks force evictions.
    std::vector<GridColumn> replColumns;
    for (const char *policy : {"lru", "random"}) {
        for (bool avoid : {true, false})
            replColumns.push_back(bepColumn(
                std::string(policy) + (avoid ? "" : "-noavoid"),
                BarrierKind::LBPP,
                {{"llc.policy", policy},
                 {"l1.policy", policy},
                 {"barrier.avoidTaggedVictims", avoid ? "true" : "false"},
                 {"llc.sizeBytes", "16384"}}));
    }
    defs.push_back(
        {"abl-replacement",
         {"hash"},
         replColumns,
         200,
         {{"Replacement-policy ablation (hash, BEP, LB++, 16 KB LLC "
           "banks): replacement conflicts",
           [](const JobOutcome &o) {
               return statValue(o, "persist.replacementConflicts");
           },
           "", false, false},
          {"Replacement-policy ablation: transactions per Mcycle",
           throughput, "", false, false}}});

    return defs;
}

const std::vector<SweepDefinition> &
definitions()
{
    static const std::vector<SweepDefinition> defs = buildDefinitions();
    return defs;
}

// ---------------------------------------------------------------------
// Table reduction
// ---------------------------------------------------------------------

/** First outcome matching (workload, config, seed); nullptr if missing. */
const JobOutcome *
findOutcome(const std::vector<JobOutcome> &outcomes,
            const std::string &workload, const std::string &config,
            std::uint64_t seed)
{
    for (const JobOutcome &o : outcomes) {
        if (o.spec.workload == workload &&
            o.spec.configLabel == config && o.spec.seed == seed)
            return &o;
    }
    return nullptr;
}

/** Distinct seeds in first-appearance order. */
std::vector<std::uint64_t>
collectSeeds(const std::vector<JobOutcome> &outcomes)
{
    std::vector<std::uint64_t> seeds;
    for (const JobOutcome &o : outcomes) {
        if (std::find(seeds.begin(), seeds.end(), o.spec.seed) ==
            seeds.end())
            seeds.push_back(o.spec.seed);
    }
    return seeds;
}

/** Two-sided 95% critical value of Student's t with @p df dof. */
double
tCritical95(std::size_t df)
{
    static const double kTable[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kTable[df - 1];
    return 1.960; // normal approximation beyond the table
}

/** Distinct workloads / config labels in first-appearance order. */
void
collectAxes(const std::vector<JobOutcome> &outcomes,
            std::vector<std::string> &rows, std::vector<std::string> &cols)
{
    for (const JobOutcome &o : outcomes) {
        if (std::find(rows.begin(), rows.end(), o.spec.workload) ==
            rows.end())
            rows.push_back(o.spec.workload);
        if (std::find(cols.begin(), cols.end(), o.spec.configLabel) ==
            cols.end())
            cols.push_back(o.spec.configLabel);
    }
}

/** The column @p col is normalized to under @p baseline ("" = none). */
std::string
baselineOf(const std::string &baseline, const std::string &col)
{
    const std::size_t at = col.find('@');
    return at == std::string::npos ? baseline
                                   : baseline + col.substr(at);
}

FigureTable
reduceTable(const TableSpec &spec, const std::vector<JobOutcome> &outcomes)
{
    FigureTable table;
    table.title = spec.title;
    table.useGmean = spec.useGmean;
    table.meanLabel = spec.useGmean ? "gmean" : "amean";
    std::vector<std::string> allCols;
    collectAxes(outcomes, table.rows, allCols);
    for (const std::string &c : allCols) {
        if (!(spec.dropBaseline && baselineOf(spec.baseline, c) == c))
            table.cols.push_back(c);
    }
    const std::vector<std::uint64_t> seeds = collectSeeds(outcomes);
    table.seedCount = static_cast<unsigned>(seeds.size());

    // (workload, config, seed) -> value; normalized tables use the
    // same seed's baseline so each replicate is self-consistent. A
    // failed cell or baseline is missing (NaN), so its cell and its
    // column mean read n/a rather than a plausible-looking zero.
    constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();
    auto seedValue = [&](const std::string &w, const std::string &c,
                         std::uint64_t seed) -> double {
        const JobOutcome *o = findOutcome(outcomes, w, c, seed);
        if (!o || !o->ok)
            return kMissing;
        if (spec.baseline.empty())
            return spec.metric(*o);
        const JobOutcome *base =
            findOutcome(outcomes, w, baselineOf(spec.baseline, c), seed);
        if (!base || !base->ok)
            return kMissing;
        const double denom = spec.metric(*base);
        return denom == 0 ? 0.0 : spec.metric(*o) / denom;
    };

    const bool multiSeed = seeds.size() > 1;
    for (const std::string &w : table.rows) {
        std::vector<double> row;
        std::vector<double> rowCi;
        row.reserve(table.cols.size());
        for (const std::string &c : table.cols) {
            std::vector<double> vals;
            vals.reserve(seeds.size());
            for (std::uint64_t s : seeds)
                vals.push_back(seedValue(w, c, s));
            row.push_back(amean(vals));
            if (multiSeed)
                rowCi.push_back(ciHalfWidth95(vals));
        }
        table.cells.push_back(std::move(row));
        if (multiSeed)
            table.cellsCi.push_back(std::move(rowCi));
    }
    for (std::size_t c = 0; c < table.cols.size(); ++c) {
        std::vector<double> colVals;
        colVals.reserve(table.rows.size());
        for (std::size_t r = 0; r < table.rows.size(); ++r)
            colVals.push_back(table.cells[r][c]);
        table.means.push_back(table.useGmean ? gmean(colVals)
                                             : amean(colVals));
    }
    return table;
}

} // namespace

double
gmean(const std::vector<double> &xs)
{
    double logSum = 0;
    std::size_t n = 0;
    for (double x : xs) {
        if (std::isnan(x))
            return x;
        if (x > 0) {
            logSum += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(logSum / static_cast<double>(n)) : 0.0;
}

double
amean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
ciHalfWidth95(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    const double mean = amean(xs);
    double ss = 0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    const double stddev = std::sqrt(ss / static_cast<double>(n - 1));
    return tCritical95(n - 1) * stddev /
           std::sqrt(static_cast<double>(n));
}


double
statValue(const JobOutcome &outcome, const std::string &key)
{
    const std::map<std::string, double> &stats = outcome.stats;
    const std::size_t star = key.find("[*]");
    if (star == std::string::npos) {
        auto it = stats.find(key);
        if (it != stats.end())
            return it->second;
    } else {
        const std::string prefix = key.substr(0, star + 1);
        const std::string suffix = key.substr(star + 2);
        double total = 0;
        bool matched = false;
        for (auto it = stats.lower_bound(prefix);
             it != stats.end() && it->first.starts_with(prefix); ++it) {
            const std::string &k = it->first;
            if (k.size() <= prefix.size() + suffix.size() ||
                !k.ends_with(suffix))
                continue;
            const std::string index = k.substr(
                prefix.size(), k.size() - prefix.size() - suffix.size());
            if (index.find_first_of("[]") != std::string::npos)
                continue;
            total += it->second;
            matched = true;
        }
        if (matched)
            return total;
    }
    fatal("sweep ", outcome.spec.sweep, ": cell ", outcome.spec.id(),
          " has no stat '", key, "'");
}

double
conflictPct(const JobOutcome &outcome)
{
    const double conflicted =
        statValue(outcome, "persist.arbiter[*].flushIntra") +
        statValue(outcome, "persist.arbiter[*].flushInter") +
        statValue(outcome, "persist.arbiter[*].flushReplacement");
    const double total =
        statValue(outcome, "persist.arbiter[*].epochsPersisted");
    return total > 0 ? 100.0 * conflicted / total : 0.0;
}

const SweepDefinition &
findSweep(const std::string &figure)
{
    for (const SweepDefinition &def : definitions()) {
        if (def.name == figure || def.name == "fig" + figure)
            return def;
    }
    std::string known;
    for (const std::string &name : knownSweepNames())
        known += (known.empty() ? "" : ", ") + name;
    fatal("unknown figure '", figure, "' (known: ", known, ")");
}

std::vector<std::string>
knownSweepNames()
{
    std::vector<std::string> names;
    for (const SweepDefinition &def : definitions())
        names.push_back(def.name.starts_with("fig") ? def.name.substr(3)
                                                    : def.name);
    return names;
}

Sweep
makeSweep(const SweepDefinition &def, std::uint64_t ops, unsigned cores,
          std::uint64_t seed)
{
    Sweep sweep;
    sweep.name = def.name;
    for (const std::string &workload : def.workloads) {
        for (const GridColumn &col : def.columns) {
            ExperimentSpec spec;
            spec.sweep = def.name;
            spec.workload = workload;
            spec.configLabel = col.label;
            spec.pm = col.pm;
            spec.barrier = col.barrier;
            spec.epochSize = col.epochSize;
            spec.logging = col.logging;
            spec.overrides = col.overrides;
            spec.cores = cores;
            spec.ops = ops ? ops : def.defaultOps;
            spec.seed = seed;
            sweep.jobs.push_back(std::move(spec));
        }
    }
    return sweep;
}

Sweep
figureSweep(int figure, std::uint64_t ops, unsigned cores,
            std::uint64_t seed)
{
    return makeSweep(findSweep(std::to_string(figure)), ops, cores, seed);
}

const std::vector<int> &
knownFigures()
{
    static const std::vector<int> figs = {11, 12, 13, 14};
    return figs;
}

std::vector<FigureTable>
sweepTables(const SweepDefinition &def,
            const std::vector<JobOutcome> &outcomes)
{
    std::vector<FigureTable> tables;
    for (const TableSpec &spec : def.tables)
        tables.push_back(reduceTable(spec, outcomes));
    return tables;
}

FigureTable
figureTable(int figure, const std::vector<JobOutcome> &outcomes)
{
    return reduceTable(findSweep(std::to_string(figure)).tables.front(),
                       outcomes);
}

void
printFigureTable(std::ostream &os, const FigureTable &table)
{
    char buf[64];
    const bool ci = !table.cellsCi.empty();
    const int width = ci ? 18 : 12;
    os << "\n=== " << table.title << " ===";
    if (table.seedCount > 1)
        os << " [mean \xc2\xb1 95% CI over " << table.seedCount
           << " seeds]";
    os << '\n';
    std::snprintf(buf, sizeof(buf), "%-12s", "workload");
    os << buf;
    for (const auto &c : table.cols) {
        std::snprintf(buf, sizeof(buf), " %*s", width, c.c_str());
        os << buf;
    }
    os << '\n';
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        std::snprintf(buf, sizeof(buf), "%-12s", table.rows[r].c_str());
        os << buf;
        for (std::size_t c = 0; c < table.cells[r].size(); ++c) {
            if (std::isnan(table.cells[r][c])) {
                std::snprintf(buf, sizeof(buf), " %*s", width, "n/a");
            } else if (ci) {
                char cell[40];
                std::snprintf(cell, sizeof(cell), "%.3f \xc2\xb1%.3f",
                              table.cells[r][c], table.cellsCi[r][c]);
                // The +/- sign is two UTF-8 bytes but one column.
                std::snprintf(buf, sizeof(buf), " %*s", width + 1,
                              cell);
            } else {
                std::snprintf(buf, sizeof(buf), " %12.3f",
                              table.cells[r][c]);
            }
            os << buf;
        }
        os << '\n';
    }
    std::snprintf(buf, sizeof(buf), "%-12s", table.meanLabel.c_str());
    os << buf;
    for (double m : table.means) {
        if (std::isnan(m))
            std::snprintf(buf, sizeof(buf), " %*s", width, "n/a");
        else
            std::snprintf(buf, sizeof(buf), " %*.3f", width, m);
        os << buf;
    }
    os << '\n';
}

JsonValue
figureTableToJson(const FigureTable &table)
{
    JsonValue out = JsonValue::object();
    out["title"] = JsonValue(table.title);
    out["meanLabel"] = JsonValue(table.meanLabel);
    JsonValue rows = JsonValue::array();
    for (const auto &r : table.rows)
        rows.push(JsonValue(r));
    out["rows"] = std::move(rows);
    JsonValue cols = JsonValue::array();
    for (const auto &c : table.cols)
        cols.push(JsonValue(c));
    out["cols"] = std::move(cols);
    JsonValue cells = JsonValue::array();
    for (const auto &row : table.cells) {
        JsonValue jr = JsonValue::array();
        for (double v : row)
            jr.push(JsonValue(v));
        cells.push(std::move(jr));
    }
    out["cells"] = std::move(cells);
    JsonValue means = JsonValue::array();
    for (double m : table.means)
        means.push(JsonValue(m));
    out["means"] = std::move(means);
    // Only multi-seed sweeps emit the CI keys, so single-seed output
    // stays byte-identical with documents written before --seeds
    // aggregation existed.
    if (table.seedCount > 1) {
        out["seedCount"] = JsonValue(table.seedCount);
        JsonValue ci = JsonValue::array();
        for (const auto &row : table.cellsCi) {
            JsonValue jr = JsonValue::array();
            for (double v : row)
                jr.push(JsonValue(v));
            ci.push(std::move(jr));
        }
        out["cellsCi95"] = std::move(ci);
    }
    return out;
}

void
figureTableToCsv(std::ostream &os, const FigureTable &table)
{
    const bool ci = !table.cellsCi.empty();
    std::vector<std::string> header = {"workload"};
    header.insert(header.end(), table.cols.begin(), table.cols.end());
    if (ci) {
        for (const std::string &c : table.cols)
            header.push_back(c + "_ci95");
    }
    std::vector<std::vector<std::string>> rows;
    auto fmt = [](double v) {
        std::ostringstream ss;
        if (!std::isnan(v)) // a missing cell is an empty field
            writeJsonNumber(ss, v);
        return ss.str();
    };
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        std::vector<std::string> row = {table.rows[r]};
        for (double v : table.cells[r])
            row.push_back(fmt(v));
        if (ci) {
            for (double v : table.cellsCi[r])
                row.push_back(fmt(v));
        }
        rows.push_back(std::move(row));
    }
    std::vector<std::string> meanRow = {table.meanLabel};
    for (double m : table.means)
        meanRow.push_back(fmt(m));
    if (ci) {
        for (std::size_t c = 0; c < table.cols.size(); ++c)
            meanRow.push_back("");
    }
    rows.push_back(std::move(meanRow));
    writeCsv(os, header, rows);
}

} // namespace persim::exp

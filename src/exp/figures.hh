/**
 * @file
 * The experiment definitions: every paper figure and ablation is one
 * entry of a single list in figures.cc, a config grid plus the tables
 * that reduce it.
 *
 *   - Fig 11: transaction throughput normalized to LB (gmean).
 *   - Fig 12: % of epochs flushed because of a conflict (amean).
 *   - Fig 13/14: execution time normalized to the NP baseline (gmean).
 *   - abl-*: the in-text ablations (§4.1, §4.3, §7, §7.2) and the
 *     sensitivity sweeps, whose columns differ by config overrides.
 *
 * One implementation serves persim_sweep's JSON / CSV / stdout output,
 * the benchmark harness, and the tests.
 */

#ifndef PERSIM_EXP_FIGURES_HH
#define PERSIM_EXP_FIGURES_HH

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/json.hh"
#include "exp/runner.hh"

namespace persim::exp
{

/**
 * One figure reduced to rows (workloads) x cols (configs).
 *
 * When the sweep ran the grid over several seeds (persim_sweep
 * --seeds N), each cell is the arithmetic mean over the per-seed
 * values — each seed normalized against its own baseline — and
 * cellsCi holds the matching 95% confidence half-widths (Student's t).
 * Single-seed tables have seedCount == 1 and an empty cellsCi, and
 * serialize exactly as they did before seeds existed.
 */
struct FigureTable
{
    std::string title;
    std::vector<std::string> rows;
    std::vector<std::string> cols;
    /** cells[r][c]; NaN marks a missing/failed cell. */
    std::vector<std::vector<double>> cells;
    std::string meanLabel; // "gmean" or "amean"
    bool useGmean = true;
    /**
     * Column means over the workloads (matching meanLabel); NaN when
     * a cell of the column is missing.
     */
    std::vector<double> means;
    /** Distinct seeds aggregated into each cell. */
    unsigned seedCount = 1;
    /** cellsCi[r][c]: 95% CI half-width; empty when seedCount == 1. */
    std::vector<std::vector<double>> cellsCi;
};

/**
 * A per-cell value read from one successful outcome. Stat reads go
 * through statValue, so a missing stat throws instead of reading as 0.
 */
using Metric = double (*)(const JobOutcome &);

/** How one table reduces a sweep's outcomes. */
struct TableSpec
{
    std::string title;
    Metric metric = nullptr;
    /**
     * When non-empty, every cell is divided by the same workload's and
     * seed's value in this column. A column "X@v" (a parameter sweep)
     * is divided by column "<baseline>@v" instead.
     */
    std::string baseline;
    /** Leave the baseline column(s) out of the table. */
    bool dropBaseline = false;
    /** Column means: gmean when true, amean otherwise. */
    bool useGmean = true;
};

/** One config column of a sweep grid. */
struct GridColumn
{
    std::string label;
    model::PersistencyModel pm = model::PersistencyModel::BufferedEpoch;
    persist::BarrierKind barrier = persist::BarrierKind::LBPP;
    unsigned epochSize = 10000;
    bool logging = true;
    std::vector<std::pair<std::string, std::string>> overrides;
};

/** One named experiment: a workloads x columns grid and its tables. */
struct SweepDefinition
{
    /** Sweep::name, e.g. "fig11" or "abl-arbiter". */
    std::string name;
    std::vector<std::string> workloads;
    std::vector<GridColumn> columns;
    /** Operations per thread when the caller passes 0. */
    std::uint64_t defaultOps = 300;
    /**
     * The first table is the sweep's table: it goes into the --out
     * document and the CSV. The rest are printed to stdout only.
     */
    std::vector<TableSpec> tables;
};

/**
 * The definition persim_sweep --figure @p figure names: "11".."14" for
 * the paper figures, or an ablation's name ("abl-arbiter", ...).
 *
 * @throws SimFatal listing the known names when nothing matches.
 */
const SweepDefinition &findSweep(const std::string &figure);

/** The --figure spellings of every definition, figures first. */
std::vector<std::string> knownSweepNames();

/**
 * Expand @p def into its job list (workloads outer, columns inner).
 *
 * @param ops   Operations per thread; 0 picks def.defaultOps.
 * @param cores Core count (32 reproduces Table 1).
 * @param seed  Base workload seed.
 */
Sweep makeSweep(const SweepDefinition &def, std::uint64_t ops = 0,
                unsigned cores = 32, std::uint64_t seed = 1);

/** The full config grid of paper figure @p figure (11, 12, 13 or 14). */
Sweep figureSweep(int figure, std::uint64_t ops = 0, unsigned cores = 32,
                  std::uint64_t seed = 1);

/** The paper figures figureSweep() understands. */
const std::vector<int> &knownFigures();

/**
 * Geometric mean of @p xs (non-positive entries are skipped); NaN
 * when any entry is NaN (a missing cell).
 */
double gmean(const std::vector<double> &xs);

/** Arithmetic mean. */
double amean(const std::vector<double> &xs);

/**
 * Half-width of the two-sided 95% confidence interval of the mean of
 * @p xs (Student's t with n-1 degrees of freedom); 0 for n < 2.
 */
double ciHalfWidth95(const std::vector<double> &xs);

/**
 * Stat @p key of @p outcome. A key containing "[*]" sums every
 * instance ("persist.arbiter[*].barrierStalls") and must match at
 * least one.
 *
 * @throws SimFatal naming the sweep, the cell id and the key when the
 *         stat is missing.
 */
double statValue(const JobOutcome &outcome, const std::string &key);

/**
 * Fraction (in %) of persisted epochs that were flushed early because
 * of a conflict — Figure 12's metric — for one outcome.
 */
double conflictPct(const JobOutcome &outcome);

/** Reduce @p outcomes to every table of @p def (the first is primary). */
std::vector<FigureTable> sweepTables(const SweepDefinition &def,
                                     const std::vector<JobOutcome> &outcomes);

/** Reduce @p outcomes to figure @p figure's table. */
FigureTable figureTable(int figure,
                        const std::vector<JobOutcome> &outcomes);

/** Render as an aligned text table; a missing value reads n/a. */
void printFigureTable(std::ostream &os, const FigureTable &table);

/**
 * Serialize: {"title", "rows", "cols", "cells", "means", ...}; a
 * missing value is null.
 */
JsonValue figureTableToJson(const FigureTable &table);

/**
 * CSV: header "workload,<cols...>", one row per workload + mean row;
 * a missing value is an empty field.
 */
void figureTableToCsv(std::ostream &os, const FigureTable &table);

} // namespace persim::exp

#endif // PERSIM_EXP_FIGURES_HH

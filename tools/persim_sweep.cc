/**
 * @file
 * persim_sweep — parallel experiment-orchestration driver.
 *
 * Regenerates any paper figure's or ablation's full data grid in one
 * command:
 *
 *   persim_sweep --figure 11 --jobs 8 --out fig11.json
 *   persim_sweep --figure abl-epoch-window --jobs 4
 *   persim_sweep --figure 13 --jobs 4 --csv fig13.csv
 *   persim_sweep --figure 11 --trace fig11.trace.json \
 *                --trace-job hash/LB++/s1 --trace-flags Epoch,Flush
 *
 * The JSON output is deterministic: the same figure, ops, cores, and
 * seed produce byte-identical files at any --jobs value, so sweep
 * artifacts can be diffed across commits (and across serial/parallel
 * runs). Wall-clock and scheduling info never enter --out; use
 * --telemetry-out for the host-dependent numbers.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "exp/fault.hh"
#include "exp/figures.hh"
#include "exp/journal.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/trace_export.hh"
#include "flags.hh"
#include "prof/profile.hh"
#include "sim/logging.hh"

using namespace persim;
using tools::parseNum;
using tools::parseNumU32;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --figure NAME [options]\n"
        "  --figure NAME     paper figure (11, 12, 13, 14) or ablation\n"
        "                    (abl-...) to regenerate; --list alone "
        "prints\n"
        "                    every name\n"
        "  --jobs N          worker threads (default 1)\n"
        "  --ops N           operations per thread (default: figure's)\n"
        "  --cores N         simulated cores per job (default 32)\n"
        "  --seed N          base workload seed (default 1)\n"
        "  --seeds N         replicate the grid over N derived seeds;\n"
        "                    figure tables then report mean and 95%% CI\n"
        "  --workload W      keep only grid rows for workload W (a micro\n"
        "                    name or a synthetic preset)\n"
        "  --retries N       extra attempts per failed job (default 1);\n"
        "                    retries back off exponentially (100 ms "
        "base,\n"
        "                    5 s cap)\n"
        "  --job-timeout-ms N  per-job watchdog deadline per attempt;\n"
        "                    over-deadline jobs fail with error "
        "'timeout'\n"
        "                    (0 = no watchdog, the default)\n"
        "  --out FILE        write the sweep JSON (default: stdout "
        "summary only);\n"
        "                    a regular file is replaced atomically\n"
        "  --csv FILE        write the figure table as CSV\n"
        "  --no-stats        omit per-job stat trees from the JSON\n"
        "  --only PATTERN    run only jobs whose id contains PATTERN\n"
        "                    (substring match on \"<workload>/<config>/"
        "s<seed>\")\n"
        "  --trace FILE      write a Chrome/Perfetto trace of one job\n"
        "  --trace-job ID    which job to trace (default: first);\n"
        "                    ID is \"<workload>/<config>/s<seed>\"\n"
        "  --trace-flags F   comma-separated trace flags (default all)\n"
        "  --interval N      interval-stat window in ticks for the "
        "traced job\n"
        "                    (default 5000; needs --trace)\n"
        "  --interval-csv F  write the interval counter samples as CSV\n"
        "  --progress        live one-line telemetry to stderr while "
        "running\n"
        "  --prof            host-time profiling: phase-tag SIGPROF "
        "sampler\n"
        "                    + per-job hardware counters (perf_event "
        "with\n"
        "                    getrusage/clock fallback); breakdown goes "
        "to the\n"
        "                    telemetry document and --prof-out\n"
        "  --prof-out FILE   write the profile JSON (implies --prof); "
        "render\n"
        "                    and diff it with tools/persim_prof\n"
        "  --prof-hz N       sampling rate, samples per CPU-second "
        "(default\n"
        "                    ~1000; the exact period is kept prime)\n"
        "  --telemetry-out F write host telemetry JSON (per-job state, "
        "RSS,\n"
        "                    events/sec; separate from deterministic "
        "output)\n"
        "  --list            print the job grid and exit (without\n"
        "                    --figure: print the --figure names)\n"
        "  --quiet           no per-job progress lines\n"
        "  --help\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string figure;
    unsigned jobs = 1;
    std::uint64_t ops = 0;
    unsigned cores = 32;
    std::uint64_t seed = 1;
    unsigned numSeeds = 1;
    unsigned retries = 1;
    unsigned jobTimeoutMs = 0;
    std::string outFile;
    std::string csvFile;
    std::string tracePath;
    std::string traceJob;
    std::string traceFlags = "all";
    std::string onlyPattern;
    std::string workloadFilter;
    std::string telemetryFile;
    std::string intervalCsvFile;
    std::string profFile;
    bool profEnabled = false;
    unsigned profHz = 0;
    Tick intervalTicks = 0;
    bool intervalSet = false;
    bool includeStats = true;
    bool listOnly = false;
    bool liveProgress = false;
    bool quiet = false;

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
            workloadFilter = value("--workload");
        else if (arg == "--figure")
            figure = value("--figure");
        else if (arg == "--jobs")
            jobs = parseNumU32("--jobs", value("--jobs"));
        else if (arg == "--ops")
            ops = parseNum("--ops", value("--ops"));
        else if (arg == "--cores")
            cores = parseNumU32("--cores", value("--cores"));
        else if (arg == "--seed")
            seed = parseNum("--seed", value("--seed"));
        else if (arg == "--seeds")
            numSeeds = parseNumU32("--seeds", value("--seeds"));
        else if (arg == "--retries")
            retries = parseNumU32("--retries", value("--retries"));
        else if (arg == "--job-timeout-ms")
            jobTimeoutMs = parseNumU32("--job-timeout-ms",
                                       value("--job-timeout-ms"));
        else if (arg == "--out")
            outFile = value("--out");
        else if (arg == "--csv")
            csvFile = value("--csv");
        else if (arg == "--no-stats")
            includeStats = false;
        else if (arg == "--only")
            onlyPattern = value("--only");
        else if (arg == "--progress")
            liveProgress = true;
        else if (arg == "--prof")
            profEnabled = true;
        else if (arg == "--prof-out") {
            profFile = value("--prof-out");
            profEnabled = true;
        } else if (arg == "--prof-hz")
            profHz = parseNumU32("--prof-hz", value("--prof-hz"));
        else if (arg == "--telemetry-out")
            telemetryFile = value("--telemetry-out");
        else if (arg == "--interval") {
            intervalTicks = parseNum("--interval", value("--interval"));
            intervalSet = true;
        } else if (arg == "--interval-csv")
            intervalCsvFile = value("--interval-csv");
        else if (arg == "--trace")
            tracePath = value("--trace");
        else if (arg == "--trace-job")
            traceJob = value("--trace-job");
        else if (arg == "--trace-flags")
            traceFlags = value("--trace-flags");
        else if (arg == "--list")
            listOnly = true;
        else if (arg == "--quiet")
            quiet = true;
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (figure.empty() && listOnly) {
        for (const std::string &n : exp::knownSweepNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }
    if (figure.empty()) {
        std::fprintf(stderr, "--figure is required\n");
        usage(argv[0]);
        return 2;
    }
    const exp::SweepDefinition *def = nullptr;
    try {
        def = &exp::findSweep(figure);
    } catch (const SimFatal &e) {
        std::fprintf(stderr, "--figure: %s\n", e.what());
        return 2;
    }
    if (jobs == 0) {
        std::fprintf(stderr, "--jobs wants at least 1 worker\n");
        return 2;
    }

    // A malformed PERSIM_FAULT would fail every attempt of every
    // cell; refuse it once, before any cell runs.
    try {
        exp::fault::fromEnv();
    } catch (const SimFatal &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    try {
        exp::Sweep sweep = exp::makeSweep(*def, ops, cores, seed);

        if (!workloadFilter.empty()) {
            std::erase_if(sweep.jobs, [&](const auto &spec) {
                return spec.workload != workloadFilter;
            });
            if (sweep.jobs.empty()) {
                std::fprintf(stderr,
                             "--workload '%s' matches no job in %s\n",
                             workloadFilter.c_str(),
                             sweep.name.c_str());
                return 2;
            }
        }

        if (numSeeds > 1) {
            std::vector<std::uint64_t> seeds;
            for (unsigned s = 0; s < numSeeds; ++s)
                seeds.push_back(s);
            sweep.crossSeeds(seeds);
        }

        if (!onlyPattern.empty()) {
            std::erase_if(sweep.jobs, [&](const auto &spec) {
                return spec.id().find(onlyPattern) == std::string::npos;
            });
            if (sweep.jobs.empty()) {
                std::fprintf(stderr,
                             "--only '%s' matches no job in %s\n",
                             onlyPattern.c_str(), sweep.name.c_str());
                return 2;
            }
        }

        if (!traceJob.empty() &&
            std::none_of(sweep.jobs.begin(), sweep.jobs.end(),
                         [&](const auto &spec) {
                             return spec.id() == traceJob;
                         })) {
            std::fprintf(stderr,
                         "--trace-job '%s' matches no job in %s (ids "
                         "look like \"%s\")\n",
                         traceJob.c_str(), sweep.name.c_str(),
                         sweep.jobs.front().id().c_str());
            return 2;
        }

        if (listOnly) {
            for (const auto &spec : sweep.jobs)
                std::printf("%s/%s\n", sweep.name.c_str(),
                            spec.id().c_str());
            return 0;
        }

        exp::RunnerOptions opts;
        opts.jobs = jobs;
        opts.maxAttempts = 1 + retries;
        opts.jobTimeoutMs = jobTimeoutMs;
        opts.progress = !quiet;
        opts.liveProgress = liveProgress;
        opts.prof = profEnabled;
        if (profHz > 0) {
            // Nudge to the nearest smaller odd period so the sampler
            // cannot phase-lock with periodic simulator behavior.
            unsigned period = 1000000 / profHz;
            if (period == 0)
                period = 1;
            if (period > 2 && period % 2 == 0)
                --period;
            opts.profPeriodUsec = period;
        }
        if (!tracePath.empty()) {
            opts.traceFlags = traceFlags;
            opts.traceJobId = traceJob;
            // Counter sampling rides the trace capture: default to a
            // 5000-tick window unless --interval says otherwise.
            opts.counterWindow = intervalSet ? intervalTicks : 5000;
        } else if (intervalSet && intervalTicks > 0) {
            std::fprintf(stderr,
                         "--interval has no effect without --trace\n");
        }

        std::fprintf(stderr, "%s: %zu jobs, %u worker(s)\n",
                     sweep.name.c_str(), sweep.jobs.size(), jobs);
        exp::SweepRunner runner(opts);
        const std::vector<exp::JobOutcome> outcomes = runner.run(sweep);

        std::size_t failed = 0;
        for (const auto &o : outcomes)
            failed += o.ok ? 0 : 1;
        std::fprintf(stderr, "%s\n",
                     runner.telemetry().summaryLine().c_str());

        exp::JsonValue doc = exp::sweepToJson(sweep, outcomes,
                                              includeStats);
        const std::vector<exp::FigureTable> tables =
            exp::sweepTables(*def, outcomes);
        const exp::FigureTable &table = tables.front();
        doc["table"] = exp::figureTableToJson(table);

        if (!outFile.empty()) {
            // "--out /dev/null" (or any other non-regular target) is
            // written in place: renaming over a device node would
            // replace it with a regular file.
            std::error_code ec;
            const auto st = std::filesystem::status(outFile, ec);
            if (!ec && std::filesystem::exists(st) &&
                !std::filesystem::is_regular_file(st)) {
                std::ofstream os(outFile);
                if (!os)
                    fatal("cannot write ", outFile);
                doc.write(os, 2);
                os << '\n';
            } else {
                // tmp + fsync + rename: observers see the old document
                // or the complete new one, never a torn write.
                std::ostringstream buf;
                doc.write(buf, 2);
                buf << '\n';
                exp::writeFileAtomic(outFile, buf.str());
            }
            std::fprintf(stderr, "wrote %s\n", outFile.c_str());
        }
        if (!csvFile.empty()) {
            std::ofstream os(csvFile);
            if (!os)
                fatal("cannot write ", csvFile);
            exp::figureTableToCsv(os, table);
            std::fprintf(stderr, "wrote %s\n", csvFile.c_str());
        }
        if (!tracePath.empty()) {
            std::ofstream os(tracePath);
            if (!os)
                fatal("cannot write ", tracePath);
            const std::string traced =
                traceJob.empty() ? sweep.jobs.front().id() : traceJob;
            exp::writeChromeTrace(os, *runner.recorder(),
                                  sweep.name + "/" + traced);
            std::fprintf(stderr,
                         "wrote %s (%zu events, %zu spans, %zu counter "
                         "samples)\n",
                         tracePath.c_str(),
                         runner.recorder()->records().size(),
                         runner.recorder()->spans().size(),
                         runner.recorder()->counters().size());
        }
        if (!intervalCsvFile.empty()) {
            std::ofstream os(intervalCsvFile);
            if (!os)
                fatal("cannot write ", intervalCsvFile);
            static const std::vector<trace::Counter> kNoCounters;
            const auto &counters = runner.recorder()
                                       ? runner.recorder()->counters()
                                       : kNoCounters;
            exp::writeCounterCsv(os, counters);
            std::fprintf(stderr, "wrote %s (%zu samples)\n",
                         intervalCsvFile.c_str(), counters.size());
        }
        if (!profFile.empty()) {
            std::ofstream os(profFile);
            if (!os)
                fatal("cannot write ", profFile);
            runner.profile().toJson().write(os, 2);
            os << '\n';
            const prof::SweepProfile &p = runner.profile();
            std::fprintf(stderr,
                         "wrote %s (%llu samples, %.1f%% attributed, "
                         "counters: %s)\n",
                         profFile.c_str(),
                         static_cast<unsigned long long>(
                             p.phases.total()),
                         100.0 * p.attributionRatio(),
                         p.counters.source.c_str());
        }
        if (!telemetryFile.empty()) {
            std::ofstream os(telemetryFile);
            if (!os)
                fatal("cannot write ", telemetryFile);
            runner.telemetry().toJson().write(os, 2);
            os << '\n';
            std::fprintf(stderr, "wrote %s\n", telemetryFile.c_str());
        }
        for (const exp::FigureTable &t : tables)
            exp::printFigureTable(std::cout, t);
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

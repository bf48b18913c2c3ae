/**
 * @file
 * Tests for the experiment-orchestration subsystem (src/exp) and the
 * observability hooks it relies on: JSON round-trips, CSV escaping,
 * Distribution percentiles, parallel-sweep determinism, job-failure
 * isolation, work stealing, and Chrome-trace export.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>

#include "exp/figures.hh"
#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "exp/stats_export.hh"
#include "exp/trace_export.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace persim
{

using exp::ExperimentSpec;
using exp::JobOutcome;
using exp::JsonValue;
using exp::Sweep;

// ---------------------------------------------------------------------
// JSON document model
// ---------------------------------------------------------------------

TEST(ExpJson, RoundTripsScalarsAndContainers)
{
    JsonValue doc = JsonValue::object();
    doc["string"] = JsonValue("plain");
    doc["escaped"] = JsonValue("quote\" slash\\ nl\n tab\t");
    doc["int"] = JsonValue(std::uint64_t{12345});
    // Above 2^53 a double drops low bits; a derived seed must not.
    doc["seed"] = JsonValue(std::uint64_t{6238072747940578789ull});
    doc["neg"] = JsonValue(-17.0);
    doc["frac"] = JsonValue(0.3);
    doc["tiny"] = JsonValue(1.25e-10);
    doc["yes"] = JsonValue(true);
    doc["null"] = JsonValue();
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue(1.0));
    arr.push(JsonValue("two"));
    arr.push(JsonValue::object());
    doc["arr"] = std::move(arr);

    for (unsigned indent : {0u, 2u}) {
        JsonValue back = JsonValue::parse(doc.dump(indent));
        EXPECT_TRUE(back == doc) << "indent=" << indent;
        EXPECT_EQ(back.get("escaped")->asString(),
                  "quote\" slash\\ nl\n tab\t");
        EXPECT_EQ(back.get("int")->asNumber(), 12345.0);
        EXPECT_EQ(back.get("seed")->dump(0), "6238072747940578789");
        EXPECT_FALSE(*back.get("seed") ==
                     JsonValue(std::uint64_t{6238072747940578788ull}));
        EXPECT_EQ(back.get("frac")->asNumber(), 0.3);
        EXPECT_EQ(back.get("arr")->size(), 3u);
    }
}

TEST(ExpJson, IntegralNumbersSerializeWithoutFraction)
{
    EXPECT_EQ(JsonValue(300.0).dump(0), "300");
    EXPECT_EQ(JsonValue(std::uint64_t{0}).dump(0), "0");
    // 64-bit integers render exactly; up to 2^53 as their double does.
    EXPECT_EQ(JsonValue(std::numeric_limits<std::uint64_t>::max()).dump(0),
              "18446744073709551615");
    EXPECT_EQ(JsonValue(std::numeric_limits<std::int64_t>::min()).dump(0),
              "-9223372036854775808");
    constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
    EXPECT_EQ(JsonValue(k53).dump(0),
              JsonValue(static_cast<double>(k53)).dump(0));
    EXPECT_EQ(JsonValue(-5).dump(0), JsonValue(-5.0).dump(0));
    EXPECT_NE(JsonValue(0.5).dump(0).find('.'), std::string::npos);
}

TEST(ExpJson, ObjectPreservesInsertionOrder)
{
    JsonValue doc = JsonValue::object();
    doc["zebra"] = JsonValue(1.0);
    doc["alpha"] = JsonValue(2.0);
    const std::string text = doc.dump(0);
    EXPECT_LT(text.find("zebra"), text.find("alpha"));
    // append() builds the same document without the key lookup.
    JsonValue appended = JsonValue::object();
    appended.append("zebra", JsonValue(1.0));
    EXPECT_DOUBLE_EQ(appended.append("alpha", JsonValue(2.0)).asNumber(),
                     2.0);
    EXPECT_EQ(appended.dump(0), text);
}

TEST(ExpJson, ValueIsASixteenByteHandle)
{
    EXPECT_LE(sizeof(JsonValue), 16u);
}

TEST(ExpJson, MutatingACopyLeavesTheOriginalUnchanged)
{
    JsonValue list = JsonValue::array();
    list.push(JsonValue("x"));
    JsonValue orig = JsonValue::object();
    orig["a"] = JsonValue(1);
    orig["list"] = list;
    orig["nested"] = JsonValue::object();
    orig["nested"]["k"] = JsonValue(true);
    const std::string origText = orig.dump();
    const std::string listText = list.dump();

    JsonValue viaIndex = orig;
    viaIndex["a"] = JsonValue(2);
    viaIndex["nested"]["k"] = JsonValue(false);
    JsonValue viaAppend = orig;
    viaAppend.append("b", JsonValue(3));
    JsonValue viaPush = orig;
    viaPush["list"].push(JsonValue("y"));
    JsonValue listCopy = list;
    listCopy.push(JsonValue("z"));

    EXPECT_EQ(orig.dump(), origText);
    EXPECT_EQ(list.dump(), listText);
    EXPECT_EQ(viaIndex.get("a")->asNumber(), 2.0);
    EXPECT_FALSE(viaIndex.get("nested")->get("k")->asBool());
    EXPECT_EQ(viaAppend.members().size(), 4u);
    EXPECT_EQ(viaPush.get("list")->size(), 2u);
    EXPECT_EQ(listCopy.size(), 2u);
    // Mutating the original afterwards leaves the copies alone too.
    orig["a"] = JsonValue(5);
    EXPECT_EQ(viaAppend.get("a")->asNumber(), 1.0);
    EXPECT_EQ(viaPush.get("a")->asNumber(), 1.0);
}

TEST(ExpJson, WrongKindAccessorsReturnEmptyValues)
{
    const JsonValue num(4.0);
    EXPECT_EQ(num.asString(), "");
    EXPECT_TRUE(num.items().empty());
    EXPECT_TRUE(num.members().empty());
    EXPECT_EQ(num.size(), 0u);
    EXPECT_EQ(num.get("k"), nullptr);
    EXPECT_FALSE(num.asBool());
    EXPECT_EQ(JsonValue("s").asNumber(), 0.0);
    EXPECT_EQ(JsonValue::object().size(), 0u);
}

TEST(ExpJson, ParseRejectsGarbage)
{
    EXPECT_THROW(JsonValue::parse("{\"a\":}"), SimFatal);
    EXPECT_THROW(JsonValue::parse("[1, 2"), SimFatal);
    EXPECT_THROW(JsonValue::parse("{} trailing"), SimFatal);
}

// ---------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------

TEST(ExpCsv, EscapesSpecialFields)
{
    std::ostringstream os;
    exp::writeCsv(os, {"name", "value"},
                  {{"plain", "1"},
                   {"has,comma", "2"},
                   {"has\"quote", "3"}});
    EXPECT_EQ(os.str(), "name,value\n"
                        "plain,1\n"
                        "\"has,comma\",2\n"
                        "\"has\"\"quote\",3\n");
}

// ---------------------------------------------------------------------
// Distribution percentiles
// ---------------------------------------------------------------------

TEST(ExpPercentiles, SmallValuesAreExact)
{
    Distribution d(nullptr, "d", "test");
    // 1..10 once each: small values land in exact unit buckets.
    for (int v = 1; v <= 10; ++v)
        d.sample(v);
    EXPECT_EQ(d.percentile(10), 1.0);
    EXPECT_EQ(d.percentile(50), 5.0);
    EXPECT_EQ(d.percentile(100), 10.0);
    EXPECT_EQ(d.p50(), 5.0);
}

TEST(ExpPercentiles, LogBucketsBoundRelativeError)
{
    Distribution d(nullptr, "d", "test");
    for (int v = 1; v <= 10000; ++v)
        d.sample(v);
    // 8 sub-buckets per octave: <= 12.5% relative error, upper-biased.
    EXPECT_GE(d.p50(), 5000.0 * 0.99);
    EXPECT_LE(d.p50(), 5000.0 * 1.13);
    EXPECT_GE(d.p95(), 9500.0 * 0.99);
    EXPECT_LE(d.p95(), 9500.0 * 1.13);
    EXPECT_GE(d.p99(), 9900.0 * 0.99);
    EXPECT_LE(d.p99(), 9900.0 * 1.13);
    // Extremes clamp to the observed range.
    EXPECT_EQ(d.percentile(0), 1.0);
    EXPECT_EQ(d.percentile(100), 10000.0);
}

TEST(ExpPercentiles, EmptyAndResetBehave)
{
    Distribution d(nullptr, "d", "test");
    EXPECT_EQ(d.p99(), 0.0);
    d.sample(42);
    EXPECT_EQ(d.p50(), 42.0);
    d.reset();
    EXPECT_EQ(d.p50(), 0.0);
}

// ---------------------------------------------------------------------
// Stat tree serialization
// ---------------------------------------------------------------------

TEST(ExpStatsExport, StatTreeRoundTripsThroughJson)
{
    StatGroup g("grp");
    Scalar loads(&g, "loads", "load count");
    Scalar stores(&g, "stores", "store count");
    Distribution lat(&g, "latency", "latency dist");
    loads.inc(7);
    stores.inc(3);
    for (int v = 1; v <= 100; ++v)
        lat.sample(v);

    JsonValue doc = exp::statGroupsToJson({&g});
    JsonValue back = JsonValue::parse(doc.dump(2));

    const JsonValue *grp = back.get("grp");
    ASSERT_NE(grp, nullptr);
    EXPECT_EQ(grp->get("scalars")->get("loads")->asNumber(), 7.0);
    EXPECT_EQ(grp->get("scalars")->get("stores")->asNumber(), 3.0);
    const JsonValue *d = grp->get("distributions")->get("latency");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->get("count")->asNumber(), 100.0);
    EXPECT_EQ(d->get("mean")->asNumber(), lat.mean());
    EXPECT_EQ(d->get("stdev")->asNumber(), lat.stdev());
    EXPECT_EQ(d->get("min")->asNumber(), 1.0);
    EXPECT_EQ(d->get("max")->asNumber(), 100.0);
    EXPECT_EQ(d->get("p50")->asNumber(), lat.p50());
    EXPECT_EQ(d->get("p99")->asNumber(), lat.p99());
}

TEST(ExpStatsExport, CopiedA32CoreStatTreeRendersIdentically)
{
    const Sweep sweep = exp::figureSweep(11, /*ops=*/20, /*cores=*/32,
                                         /*seed=*/1);
    JobOutcome out = exp::runJob(sweep.jobs.front(), 0, nullptr);
    ASSERT_TRUE(out.ok) << out.error;
    const std::string text = out.statTree.dump(2);
    ASSERT_GT(out.statTree.members().size(), 32u);

    // The sweep document's copy shares the tree and renders the same.
    const JsonValue doc = out.toJson();
    EXPECT_EQ(doc.get("groups")->dump(2), text);
    // So does a rebuilt tree: nothing in the rendering depends on
    // sharing.
    EXPECT_EQ(JsonValue::parse(text).dump(2), text);

    // Editing a copy deep inside leaves the original's bytes alone.
    JsonValue copy = out.statTree;
    const std::string group = copy.members().front().first;
    copy[group]["scalars"].append("extra", JsonValue(1));
    EXPECT_EQ(out.statTree.dump(2), text);
    EXPECT_EQ(doc.get("groups")->dump(2), text);
    EXPECT_NE(copy.dump(2), text);
}

// ---------------------------------------------------------------------
// Spec / sweep expansion
// ---------------------------------------------------------------------

TEST(ExpSpec, FigureSweepsHaveTheRightShape)
{
    EXPECT_EQ(exp::figureSweep(11).jobs.size(), 5u * 4u);
    EXPECT_EQ(exp::figureSweep(12).jobs.size(), 5u * 4u);
    EXPECT_EQ(exp::figureSweep(13).jobs.size(), 9u * 4u);
    EXPECT_EQ(exp::figureSweep(14).jobs.size(), 9u * 5u);
    EXPECT_THROW(exp::figureSweep(99), SimFatal);
}

TEST(ExpSpec, EveryNamedSweepExpandsAndBuildsItsConfigs)
{
    const std::vector<std::string> names = exp::knownSweepNames();
    const std::vector<std::string> expected = {
        "11", "12", "13", "14", "abl-flush-type", "abl-writethrough",
        "abl-models", "abl-arbiter", "abl-idt-regs", "abl-epoch-window",
        "abl-nvram-latency", "abl-replacement"};
    EXPECT_EQ(names, expected);
    for (const std::string &name : names) {
        const exp::SweepDefinition &def = exp::findSweep(name);
        const Sweep sweep = exp::makeSweep(def, 10, 4);
        EXPECT_EQ(sweep.jobs.size(),
                  def.workloads.size() * def.columns.size())
            << name;
        EXPECT_FALSE(def.tables.empty()) << name;
        for (const ExperimentSpec &spec : sweep.jobs) {
            EXPECT_EQ(spec.sweep, sweep.name);
            EXPECT_NO_THROW(spec.toSystemConfig()) << spec.id();
        }
    }
    const Sweep window = exp::makeSweep(exp::findSweep("abl-epoch-window"));
    ASSERT_EQ(window.jobs.front().configLabel, "w2");
    EXPECT_EQ(window.jobs.front().toSystemConfig().barrier.maxInflightEpochs,
              2u);
    EXPECT_THROW(exp::findSweep("abl-nope"), SimFatal);
}

TEST(ExpSpec, ConfigOverridesApplyInOrder)
{
    ExperimentSpec spec;
    spec.cores = 4;
    const model::SystemConfig base = spec.toSystemConfig();
    spec.overrides = {{"llc.pinnedRetryInterval", "16"},
                      {"l1.policy", "random"},
                      {"llc.sizeBytes", "16384"},
                      {"nvram.writeLatency", "90"},
                      {"barrier.useArbiter", "false"},
                      {"barrier.useArbiter", "true"},
                      {"barrier.idtRegsPerEpoch", "2"}};
    const model::SystemConfig cfg = spec.toSystemConfig();
    EXPECT_EQ(cfg.llcBank.pinnedRetryInterval, 16u);
    EXPECT_EQ(cfg.l1.geometry.policy, cache::ReplacementPolicy::Random);
    EXPECT_EQ(cfg.llcBank.geometry.policy, base.llcBank.geometry.policy);
    EXPECT_EQ(cfg.llcBank.geometry.sizeBytes, 16384u);
    EXPECT_EQ(cfg.nvram.writeLatency, 90u);
    EXPECT_TRUE(cfg.barrier.useArbiter); // the later entry wins
    EXPECT_EQ(cfg.barrier.idtRegsPerEpoch, 2u);
}

TEST(ExpSpec, BadConfigOverrideIsANamedError)
{
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"barrier.nope", "1"},
        {"barrier.maxInflightEpochs", "8x"},
        {"barrier.maxInflightEpochs", "99999999999"},
        {"barrier.useArbiter", "yes"},
        {"llc.policy", "fifo"},
        {"nvram.writeLatency", ""},
    };
    for (const auto &[key, value] : bad) {
        ExperimentSpec spec;
        spec.cores = 4;
        spec.overrides = {{key, value}};
        try {
            spec.toSystemConfig();
            ADD_FAILURE() << key << "=" << value << " was accepted";
        } catch (const SimFatal &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}

TEST(ExpSpec, OverridesSerializeOnlyWhenPresent)
{
    ExperimentSpec spec;
    EXPECT_EQ(spec.toJson().get("overrides"), nullptr);
    spec.overrides = {{"nvram.writeLatency", "90"},
                      {"barrier.useArbiter", "false"}};
    const JsonValue doc = spec.toJson();
    const JsonValue *list = doc.get("overrides");
    ASSERT_NE(list, nullptr);
    ASSERT_EQ(list->size(), 2u);
    EXPECT_EQ(list->at(0).asString(), "nvram.writeLatency=90");
    EXPECT_EQ(list->at(1).asString(), "barrier.useArbiter=false");
}

TEST(ExpSpec, MultiSeedDocumentRecordsTheSeedThatRan)
{
    // --seeds 2: derived seeds are full 64-bit values, and each job's
    // spec.seed must read back as the seed in its id, so that
    // --seed <spec.seed> reruns the cell.
    Sweep sweep = exp::figureSweep(11, 20, 4);
    std::erase_if(sweep.jobs, [](const ExperimentSpec &s) {
        return s.workload != "hash";
    });
    sweep.crossSeeds({0, 1});
    std::vector<JobOutcome> outcomes;
    for (const ExperimentSpec &spec : sweep.jobs)
        outcomes.push_back(exp::runJob(spec));

    const JsonValue doc = JsonValue::parse(
        exp::sweepToJson(sweep, outcomes, /*includeStats=*/false).dump(2));
    const std::vector<JsonValue> &jobs = doc.get("jobs")->items();
    ASSERT_EQ(jobs.size(), 8u);
    bool sawBigSeed = false;
    for (const JsonValue &job : jobs) {
        const std::string &id = job.get("id")->asString();
        const std::string seed = job.get("spec")->get("seed")->dump(0);
        EXPECT_EQ(seed, id.substr(id.rfind("/s") + 2)) << id;
        sawBigSeed |= std::stoull(seed) > (std::uint64_t{1} << 53);
    }
    EXPECT_TRUE(sawBigSeed);
}

TEST(ExpSpec, CrossSeedsExpandsDeterministically)
{
    Sweep sweep = exp::figureSweep(11, 50, 4, 3);
    const std::size_t base = sweep.jobs.size();
    sweep.crossSeeds({0, 1, 2});
    ASSERT_EQ(sweep.jobs.size(), base * 3);
    EXPECT_EQ(sweep.jobs[0].seed, exp::mixSeed(3, 0));
    EXPECT_EQ(sweep.jobs[1].seed, exp::mixSeed(3, 1));
    EXPECT_NE(sweep.jobs[0].seed, sweep.jobs[1].seed);
    // mixSeed is a pure function.
    EXPECT_EQ(exp::mixSeed(3, 1), exp::mixSeed(3, 1));
}

// ---------------------------------------------------------------------
// Work-stealing pool
// ---------------------------------------------------------------------

TEST(ExpPool, EveryJobRunsExactlyOnce)
{
    const std::size_t jobs = 103;
    std::vector<std::atomic<int>> runs(jobs);
    exp::WorkStealingPool pool(4, jobs);
    pool.run([&](std::size_t job, unsigned) { ++runs[job]; });
    for (std::size_t j = 0; j < jobs; ++j)
        EXPECT_EQ(runs[j].load(), 1) << "job " << j;
    std::uint64_t executed = 0;
    for (std::uint64_t e : pool.executedPerWorker())
        executed += e;
    EXPECT_EQ(executed, jobs);
}

TEST(ExpPool, StealingDrainsAnImbalancedLoad)
{
    // 2 workers, 8 jobs; worker 0's jobs are slow. With stealing the
    // pool must still run everything exactly once.
    std::atomic<int> total{0};
    exp::WorkStealingPool pool(2, 8);
    pool.run([&](std::size_t job, unsigned) {
        if (job % 2 == 0) {
            // Busy-wait a little to skew the load.
            // Unsigned: the sum wraps instead of overflowing (UB).
            volatile unsigned sink = 0;
            for (unsigned i = 0; i < 100000; ++i)
                sink = sink + i;
        }
        ++total;
    });
    EXPECT_EQ(total.load(), 8);
}

// ---------------------------------------------------------------------
// Runner: determinism and isolation
// ---------------------------------------------------------------------

namespace
{

Sweep
tinySweep()
{
    // The full fig11 grid, scaled down for test runtime.
    return exp::figureSweep(11, /*ops=*/25, /*cores=*/4, /*seed=*/7);
}

} // namespace

TEST(ExpRunner, ParallelSweepIsByteIdenticalToSerial)
{
    const Sweep sweep = tinySweep();

    exp::RunnerOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    exp::SweepRunner r1(serial);
    auto out1 = r1.run(sweep);

    exp::RunnerOptions parallel;
    parallel.jobs = 8;
    parallel.progress = false;
    exp::SweepRunner r8(parallel);
    auto out8 = r8.run(sweep);

    ASSERT_EQ(out1.size(), sweep.jobs.size());
    const std::string json1 = exp::sweepToJson(sweep, out1).dump(2);
    const std::string json8 = exp::sweepToJson(sweep, out8).dump(2);
    EXPECT_EQ(json1, json8);

    // The figure table is identical too.
    const std::string t1 =
        exp::figureTableToJson(exp::figureTable(11, out1)).dump(2);
    const std::string t8 =
        exp::figureTableToJson(exp::figureTable(11, out8)).dump(2);
    EXPECT_EQ(t1, t8);
}

TEST(ExpRunner, Fig13LbCellIsDeterministicAcrossRunsAndJobCounts)
{
    // The determinism oracle for kernel hot-path changes: the fig13 LB
    // cell (small scale) must produce byte-identical JSON run-to-run
    // and at any worker count. Any nondeterminism introduced into the
    // event kernel (tie-break order, allocation-dependent behaviour)
    // shows up here as a diff.
    Sweep sweep = exp::figureSweep(13, /*ops=*/200, /*cores=*/4,
                                   /*seed=*/1);
    std::erase_if(sweep.jobs, [](const ExperimentSpec &s) {
        return s.configLabel != "LB300";
    });
    ASSERT_FALSE(sweep.jobs.empty());

    auto runAt = [&](unsigned workers) {
        exp::RunnerOptions opts;
        opts.jobs = workers;
        opts.progress = false;
        exp::SweepRunner r(opts);
        auto out = r.run(sweep);
        return exp::sweepToJson(sweep, out).dump(2);
    };

    const std::string first = runAt(1);
    const std::string again = runAt(1);
    const std::string parallel = runAt(8);
    EXPECT_EQ(first, again);
    EXPECT_EQ(first, parallel);
}

TEST(ExpRunner, FailedJobDoesNotKillTheSweep)
{
    Sweep sweep;
    sweep.name = "isolation";
    ExperimentSpec good;
    good.workload = "hash";
    good.configLabel = "LB";
    good.barrier = persist::BarrierKind::LB;
    good.cores = 4;
    good.ops = 20;

    ExperimentSpec bad = good;
    bad.workload = "no-such-workload";
    bad.configLabel = "LB";

    sweep.jobs = {good, bad, good};

    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 2;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].result.completed);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].attempts, 2u); // retried, then recorded
    EXPECT_NE(outcomes[1].error.find("no-such-workload"),
              std::string::npos);
    EXPECT_TRUE(outcomes[2].ok);

    // Failure status is part of the serialized sweep.
    JsonValue doc = exp::sweepToJson(sweep, outcomes,
                                     /*includeStats=*/false);
    EXPECT_EQ(doc.get("failed")->asNumber(), 1.0);
    EXPECT_FALSE(doc.get("jobs")->at(1).get("ok")->asBool());
}

TEST(ExpRunner, Fig11TableNormalizesLbToOne)
{
    exp::RunnerOptions opts;
    opts.jobs = 4;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    const Sweep sweep = tinySweep();
    auto outcomes = runner.run(sweep);
    for (const JobOutcome &o : outcomes) {
        EXPECT_TRUE(o.ok) << o.spec.id() << ": " << o.error;
        EXPECT_TRUE(o.result.completed) << o.spec.id();
        EXPECT_TRUE(o.result.violations.empty()) << o.spec.id();
    }

    const exp::FigureTable table = exp::figureTable(11, outcomes);
    ASSERT_EQ(table.rows.size(), 5u);
    ASSERT_EQ(table.cols.size(), 4u);
    ASSERT_EQ(table.cols[0], "LB");
    for (std::size_t r = 0; r < table.rows.size(); ++r)
        EXPECT_DOUBLE_EQ(table.cells[r][0], 1.0) << table.rows[r];

    // CSV has header + 5 workloads + mean row.
    std::ostringstream csv;
    exp::figureTableToCsv(csv, table);
    std::istringstream in(csv.str());
    std::string line;
    int lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 7);
}

TEST(ExpFigures, MissingStatFailsLoudNamingIt)
{
    const ExperimentSpec spec = exp::figureSweep(12, 20, 4).jobs.front();
    const JobOutcome good = exp::runJob(spec);
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_NO_THROW(exp::figureTable(12, {good}));
    EXPECT_GT(exp::statValue(good, "persist.arbiter[*].epochsPersisted"),
              0.0);

    // Every instance of a per-arbiter stat gone: the "[*]" pattern
    // matches nothing, and the table must refuse instead of reading 0.
    JobOutcome broken = good;
    const std::size_t removed = std::erase_if(
        broken.stats, [](const auto &kv) {
            return kv.first.ends_with(".flushInter");
        });
    ASSERT_EQ(removed, spec.cores);
    try {
        exp::figureTable(12, {broken});
        ADD_FAILURE() << "a missing stat read as a value";
    } catch (const SimFatal &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("persist.arbiter[*].flushInter"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("fig12"), std::string::npos) << msg;
        EXPECT_NE(msg.find(spec.id()), std::string::npos) << msg;
    }

    // Exact names fail the same way.
    JobOutcome noMesh = good;
    ASSERT_EQ(noMesh.stats.erase("mesh.packets"), 1u);
    try {
        exp::statValue(noMesh, "mesh.packets");
        ADD_FAILURE() << "a missing stat read as a value";
    } catch (const SimFatal &e) {
        EXPECT_NE(std::string(e.what()).find("mesh.packets"),
                  std::string::npos)
            << e.what();
    }

    // A failed cell is a missing cell (NaN), not an error.
    broken.ok = false;
    const exp::FigureTable table = exp::figureTable(12, {broken});
    ASSERT_EQ(table.cells.size(), 1u);
    EXPECT_TRUE(std::isnan(table.cells[0][0]));
}

TEST(ExpFigures, FailedCellIsMissingNotZero)
{
    // fig11 reduced to two workloads x {LB, LB++}; one LB++ cell fails.
    Sweep sweep = exp::figureSweep(11, 20, 4);
    std::erase_if(sweep.jobs, [](const ExperimentSpec &s) {
        return (s.workload != "hash" && s.workload != "queue") ||
               (s.configLabel != "LB" && s.configLabel != "LB++");
    });
    ASSERT_EQ(sweep.jobs.size(), 4u);
    std::vector<JobOutcome> outcomes;
    for (const ExperimentSpec &spec : sweep.jobs)
        outcomes.push_back(exp::runJob(spec));
    for (JobOutcome &o : outcomes) {
        ASSERT_TRUE(o.ok) << o.spec.id() << ": " << o.error;
        if (o.spec.workload == "hash" && o.spec.configLabel == "LB++")
            o.ok = false;
    }

    const exp::FigureTable table = exp::figureTable(11, outcomes);
    ASSERT_EQ(table.rows, (std::vector<std::string>{"hash", "queue"}));
    ASSERT_EQ(table.cols, (std::vector<std::string>{"LB", "LB++"}));
    EXPECT_DOUBLE_EQ(table.cells[0][0], 1.0);
    EXPECT_TRUE(std::isnan(table.cells[0][1]));
    EXPECT_GT(table.cells[1][1], 0.0);
    EXPECT_DOUBLE_EQ(table.means[0], 1.0);
    EXPECT_TRUE(std::isnan(table.means[1]));

    std::ostringstream text;
    exp::printFigureTable(text, table);
    EXPECT_NE(text.str().find("n/a"), std::string::npos) << text.str();
    EXPECT_EQ(text.str().find("nan"), std::string::npos) << text.str();
    EXPECT_EQ(text.str().find("0.000"), std::string::npos) << text.str();

    const JsonValue json = exp::figureTableToJson(table);
    EXPECT_EQ(json.get("cells")->at(0).dump(0), "[1,null]");
    EXPECT_EQ(json.get("means")->at(1).dump(0), "null");

    std::ostringstream csv;
    exp::figureTableToCsv(csv, table);
    std::istringstream lines(csv.str());
    std::string header, hashRow, queueRow, meanRow;
    std::getline(lines, header);
    std::getline(lines, hashRow);
    std::getline(lines, queueRow);
    std::getline(lines, meanRow);
    EXPECT_EQ(hashRow, "hash,1,");
    EXPECT_EQ(meanRow, "gmean,1,");

    // A failed baseline makes every cell normalized to it missing.
    for (JobOutcome &o : outcomes)
        o.ok = !(o.spec.workload == "queue" && o.spec.configLabel == "LB");
    const exp::FigureTable noBase = exp::figureTable(11, outcomes);
    EXPECT_TRUE(std::isnan(noBase.cells[1][0]));
    EXPECT_TRUE(std::isnan(noBase.cells[1][1]));
    EXPECT_GT(noBase.cells[0][1], 0.0);
}

TEST(ExpFigures, MultiSeedTableCarriesCiColumns)
{
    Sweep sweep = exp::figureSweep(11, 20, 4);
    std::erase_if(sweep.jobs, [](const ExperimentSpec &s) {
        return s.workload != "hash";
    });
    sweep.crossSeeds({0, 1, 2});
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    const std::vector<JobOutcome> outcomes = runner.run(sweep);

    const exp::FigureTable table = exp::figureTable(11, outcomes);
    EXPECT_EQ(table.seedCount, 3u);
    ASSERT_EQ(table.cellsCi.size(), table.rows.size());
    EXPECT_EQ(table.cellsCi[0].size(), table.cols.size());

    const JsonValue json = exp::figureTableToJson(table);
    ASSERT_NE(json.get("seedCount"), nullptr);
    EXPECT_EQ(json.get("seedCount")->asNumber(), 3.0);
    ASSERT_NE(json.get("cellsCi95"), nullptr);
    EXPECT_EQ(json.get("cellsCi95")->size(), table.rows.size());

    std::ostringstream csv;
    exp::figureTableToCsv(csv, table);
    const std::string header = csv.str().substr(0, csv.str().find('\n'));
    EXPECT_NE(header.find("LB_ci95"), std::string::npos) << header;
}

TEST(ExpFigures, ParameterColumnsNormalizeToTheirOwnBaseline)
{
    // abl-nvram-latency divides LB++@v by LB@v and drops the LB@v
    // columns, so the table holds one speedup per latency.
    exp::SweepRunner runner([] {
        exp::RunnerOptions opts;
        opts.jobs = 2;
        opts.progress = false;
        return opts;
    }());
    const exp::SweepDefinition &def = exp::findSweep("abl-nvram-latency");
    const std::vector<JobOutcome> outcomes =
        runner.run(exp::makeSweep(def, 10, 4));
    const std::vector<exp::FigureTable> tables =
        exp::sweepTables(def, outcomes);
    ASSERT_EQ(tables.size(), 2u);
    const exp::FigureTable &speedup = tables[0];
    ASSERT_EQ(speedup.cols.size(), 5u);
    EXPECT_EQ(speedup.cols[0], "LB++@90");
    const exp::FigureTable &raw = tables[1];
    ASSERT_EQ(raw.cols.size(), 10u);
    for (std::size_t c = 0; c < speedup.cols.size(); ++c)
        EXPECT_DOUBLE_EQ(speedup.cells[0][c],
                         raw.cells[0][2 * c + 1] / raw.cells[0][2 * c])
            << speedup.cols[c];
}

// ---------------------------------------------------------------------
// Trace capture and Chrome export
// ---------------------------------------------------------------------

TEST(ExpTrace, RecorderCapturesAndExportsChromeJson)
{
    ExperimentSpec spec;
    spec.workload = "hash";
    spec.configLabel = "LB++";
    spec.barrier = persist::BarrierKind::LBPP;
    spec.cores = 4;
    spec.ops = 20;

    trace::Recorder recorder("all");
    trace::attachRecorder(&recorder);
    JobOutcome outcome = exp::runJob(spec);
    trace::detachRecorder();

    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_FALSE(recorder.records().empty());

    std::ostringstream os;
    exp::writeChromeTrace(os, recorder.records(), "test/hash");
    JsonValue doc = JsonValue::parse(os.str());
    const JsonValue *events = doc.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), recorder.records().size());

    // Timestamps of instant events are non-decreasing; every instant
    // event carries a category and a track.
    double lastTs = -1.0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &ev = events->at(i);
        if (ev.get("ph")->asString() != "i")
            continue;
        EXPECT_GE(ev.get("ts")->asNumber(), lastTs);
        lastTs = ev.get("ts")->asNumber();
        EXPECT_FALSE(ev.get("cat")->asString().empty());
        EXPECT_NE(ev.get("tid"), nullptr);
    }
    EXPECT_GT(lastTs, 0.0);
}

TEST(ExpTrace, RecorderFlagFilteringWorks)
{
    trace::Recorder recorder("Epoch,Flush");
    EXPECT_TRUE(recorder.wants("Epoch"));
    EXPECT_TRUE(recorder.wants("Flush"));
    EXPECT_FALSE(recorder.wants("Evict"));
    trace::Recorder all("all");
    EXPECT_TRUE(all.wants("anything"));
}

} // namespace persim

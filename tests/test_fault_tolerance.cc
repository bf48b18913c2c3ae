/**
 * @file
 * Tests for the sweep fault-tolerance layer: deterministic fault
 * injection (PERSIM_FAULT), the per-job watchdog, retry backoff,
 * sandbox process isolation, the crash-safe journal, and resume
 * merging — including the byte-identity guarantee that a resumed or
 * isolated sweep serializes exactly like an uninterrupted in-process
 * one.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "exp/fault.hh"
#include "exp/journal.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "sim/logging.hh"

namespace persim
{

using exp::ExperimentSpec;
using exp::JobOutcome;
using exp::JsonValue;
using exp::Sweep;

namespace
{

/** RAII PERSIM_FAULT setter so a failing test cannot leak the hook. */
class ScopedFault
{
  public:
    explicit ScopedFault(const char *value)
    {
        ::setenv("PERSIM_FAULT", value, 1);
    }
    ~ScopedFault() { ::unsetenv("PERSIM_FAULT"); }
};

ExperimentSpec
tinySpec(const char *config = "LB")
{
    ExperimentSpec spec;
    spec.workload = "hash";
    spec.configLabel = config;
    spec.barrier = persist::BarrierKind::LB;
    spec.cores = 4;
    spec.ops = 20;
    return spec;
}

Sweep
tinySweep(std::size_t jobs = 3)
{
    Sweep sweep;
    sweep.name = "fault-tolerance";
    const char *configs[] = {"LB", "LB+IDT", "LB+PF", "LB++", "NP"};
    for (std::size_t i = 0; i < jobs; ++i) {
        ExperimentSpec spec = tinySpec(configs[i % 5]);
        spec.seed = i; // distinct ids even past 5 jobs
        sweep.jobs.push_back(std::move(spec));
    }
    return sweep;
}

std::string
tempPath(const char *name)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     "persim_fault_tests";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
}

} // namespace

// ---------------------------------------------------------------------
// Fault-injection hook
// ---------------------------------------------------------------------

TEST(Fault, ParsesKindAndIndex)
{
    const exp::fault::Spec t = exp::fault::parse("throw:3");
    EXPECT_EQ(t.kind, exp::fault::Kind::Throw);
    EXPECT_EQ(t.jobIndex, 3u);
    EXPECT_EQ(exp::fault::parse("hang:0").kind,
              exp::fault::Kind::Hang);
    EXPECT_EQ(exp::fault::parse("segv:12").kind,
              exp::fault::Kind::Segv);
    EXPECT_EQ(exp::fault::parse("abort:1").kind,
              exp::fault::Kind::Abort);
}

TEST(Fault, RejectsMalformedDirectives)
{
    EXPECT_THROW(exp::fault::parse("throw"), SimFatal);
    EXPECT_THROW(exp::fault::parse("throw:"), SimFatal);
    EXPECT_THROW(exp::fault::parse("throw:abc"), SimFatal);
    EXPECT_THROW(exp::fault::parse("oops:1"), SimFatal);
}

TEST(Fault, FromEnvRereadsEveryCall)
{
    ::unsetenv("PERSIM_FAULT");
    EXPECT_EQ(exp::fault::fromEnv().kind, exp::fault::Kind::None);
    {
        ScopedFault f("throw:7");
        const exp::fault::Spec s = exp::fault::fromEnv();
        EXPECT_EQ(s.kind, exp::fault::Kind::Throw);
        EXPECT_EQ(s.jobIndex, 7u);
    }
    EXPECT_EQ(exp::fault::fromEnv().kind, exp::fault::Kind::None);
}

TEST(Fault, StandaloneRunJobIsNeverFaulted)
{
    // Library callers use the default grid index (SIZE_MAX), which
    // must never match an injection directive.
    ScopedFault f("throw:0");
    const JobOutcome out = exp::runJob(tinySpec());
    EXPECT_TRUE(out.ok) << out.error;
}

TEST(Fault, InjectedThrowFailsOnlyThatCell)
{
    ScopedFault f("throw:1");
    Sweep sweep = tinySweep(3);
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.maxAttempts = 1;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].error, "injected fault: throw");
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, CancelsHungJobAsTimeout)
{
    ScopedFault f("hang:0");
    Sweep sweep = tinySweep(2);
    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.maxAttempts = 1;
    opts.jobTimeoutMs = 200;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);

    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[0].timedOut);
    EXPECT_EQ(outcomes[0].error, "timeout");
    EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;

    const exp::SweepTelemetry &tel = runner.telemetry();
    ASSERT_EQ(tel.jobs.size(), 2u);
    EXPECT_EQ(tel.jobs[0].state, exp::JobState::TimedOut);
    EXPECT_EQ(tel.timedOutJobs(), 1u);
    EXPECT_EQ(tel.failedJobs(), 1u);
}

TEST(Watchdog, FastJobsAreUntouched)
{
    Sweep sweep = tinySweep(3);
    exp::RunnerOptions opts;
    opts.jobs = 3;
    opts.jobTimeoutMs = 60000;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);
    for (const JobOutcome &o : outcomes)
        EXPECT_TRUE(o.ok) << o.spec.id() << ": " << o.error;
}

// ---------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------

TEST(Retry, BacksOffExponentiallyBetweenAttempts)
{
    Sweep sweep;
    sweep.name = "retry";
    sweep.jobs.push_back(tinySpec());
    sweep.jobs[0].workload = "no-such-workload";

    exp::RunnerOptions opts;
    opts.maxAttempts = 3;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    const auto start = std::chrono::steady_clock::now();
    const auto outcomes = runner.run(sweep);
    const double elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].ok);
    EXPECT_EQ(outcomes[0].attempts, 3u);
    EXPECT_GE(elapsed, 300.0); // both sleeps happened: 100 + 200 ms
}

// ---------------------------------------------------------------------
// Cell verdict
// ---------------------------------------------------------------------

TEST(Verdict, FailsIncompleteOrViolatingRunsNamingTheCause)
{
    auto judged = [](const model::SimResult &result) {
        JobOutcome out;
        out.result = result;
        exp::judgeResult(out);
        return out;
    };

    model::SimResult clean;
    clean.completed = true;
    const JobOutcome ok = judged(clean);
    EXPECT_TRUE(ok.ok);
    EXPECT_TRUE(ok.error.empty()) << ok.error;

    model::SimResult deadlocked;
    deadlocked.deadlocked = true;
    const JobOutcome dl = judged(deadlocked);
    EXPECT_FALSE(dl.ok);
    EXPECT_NE(dl.error.find("deadlocked"), std::string::npos) << dl.error;

    model::SimResult limit;
    limit.timedOut = true;
    const JobOutcome sl = judged(limit);
    EXPECT_FALSE(sl.ok);
    EXPECT_NE(sl.error.find("safety limit"), std::string::npos)
        << sl.error;

    model::SimResult violating = clean;
    violating.violations.push_back("epoch 3 persisted before epoch 2");
    const JobOutcome v = judged(violating);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("1 ordering violation(s); first: epoch 3 "
                           "persisted before epoch 2"),
              std::string::npos)
        << v.error;
}

// ---------------------------------------------------------------------
// Sandbox isolation
// ---------------------------------------------------------------------

TEST(Isolation, ContainsSegvToOneCell)
{
    ScopedFault f("segv:1");
    Sweep sweep = tinySweep(3);
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.maxAttempts = 1;
    opts.isolate = true;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    // Plain builds die by SIGSEGV; sanitized builds intercept the
    // signal and exit nonzero. Either way the cell fails with a named
    // cause and the sweep survives.
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_FALSE(outcomes[1].error.empty());
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;
}

TEST(Isolation, GreenSweepIsByteIdenticalToInProcess)
{
    Sweep sweep = tinySweep(4);
    auto runWith = [&](bool isolate) {
        exp::RunnerOptions opts;
        opts.jobs = 2;
        opts.isolate = isolate;
        opts.progress = false;
        exp::SweepRunner runner(opts);
        auto outcomes = runner.run(sweep);
        return exp::sweepToJson(sweep, outcomes).dump(2);
    };
    EXPECT_EQ(runWith(false), runWith(true));
}

TEST(Isolation, TelemetryRecordsChildExit)
{
    Sweep sweep = tinySweep(1);
    exp::RunnerOptions opts;
    opts.jobs = 1;
    opts.isolate = true;
    opts.progress = false;
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);
    ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_EQ(outcomes[0].exitCode, 0);
    ASSERT_EQ(runner.telemetry().jobs.size(), 1u);
    EXPECT_TRUE(runner.telemetry().jobs[0].isolated);
}

// ---------------------------------------------------------------------
// Journal + resume
// ---------------------------------------------------------------------

TEST(Journal, OutcomeWireRoundTripsByteExact)
{
    const ExperimentSpec spec = tinySpec();
    const JobOutcome out = exp::runJob(spec);
    ASSERT_TRUE(out.ok) << out.error;

    const std::string wireText = exp::outcomeToWire(out).dump(0);
    const JobOutcome back = exp::outcomeFromWire(
        JsonValue::parse(wireText), spec, out.index);

    EXPECT_EQ(out.toJson().dump(2), back.toJson().dump(2));
    EXPECT_EQ(out.stats.size(), back.stats.size());
    EXPECT_EQ(exp::outcomeToWire(back).dump(0), wireText);
}

TEST(Journal, AppendsHeaderAndUniqueEntries)
{
    const std::string path = tempPath("unique.journal");
    std::filesystem::remove(path);

    Sweep sweep = tinySweep(3);
    exp::JournalHeader header;
    header.sweep = sweep.name;
    header.jobCount = sweep.jobs.size();
    header.gridHash = exp::gridFingerprint(sweep.jobs);

    exp::RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.journal = std::make_shared<exp::SweepJournal>();
    opts.journal->open(path, header, /*fresh=*/true);
    exp::SweepRunner runner(opts);
    auto outcomes = runner.run(sweep);
    opts.journal->close();
    for (const JobOutcome &o : outcomes)
        ASSERT_TRUE(o.ok) << o.error;

    const exp::JournalContents jc = exp::loadJournal(path);
    ASSERT_TRUE(jc.exists);
    ASSERT_TRUE(jc.headerOk);
    EXPECT_TRUE(jc.header.matches(header));
    EXPECT_EQ(jc.dropped, 0u);
    EXPECT_EQ(jc.duplicates, 0u);

    // Every completed cell appears exactly once.
    std::set<std::string> ids;
    for (const auto &[id, wire] : jc.entries)
        ids.insert(id);
    EXPECT_EQ(jc.entries.size(), sweep.jobs.size());
    EXPECT_EQ(ids.size(), sweep.jobs.size());
    for (const ExperimentSpec &spec : sweep.jobs)
        EXPECT_EQ(ids.count(spec.id()), 1u) << spec.id();
}

TEST(Journal, ToleratesTornTailAndRejectsForeignHeader)
{
    const std::string path = tempPath("torn.journal");
    std::filesystem::remove(path);

    Sweep sweep = tinySweep(2);
    exp::JournalHeader header;
    header.sweep = sweep.name;
    header.jobCount = sweep.jobs.size();
    header.gridHash = exp::gridFingerprint(sweep.jobs);

    {
        exp::SweepJournal journal;
        journal.open(path, header, /*fresh=*/true);
        journal.append(exp::runJob(sweep.jobs[0]));
    }
    // Simulate a crash mid-append: a torn, unterminated JSON prefix.
    {
        std::ofstream os(path, std::ios::app);
        os << "{\"id\":\"half-writ";
    }
    const exp::JournalContents jc = exp::loadJournal(path);
    ASSERT_TRUE(jc.headerOk);
    EXPECT_EQ(jc.entries.size(), 1u);
    EXPECT_EQ(jc.dropped, 1u);

    // A journal from a different grid must not match.
    exp::JournalHeader other = header;
    other.gridHash ^= 1;
    EXPECT_FALSE(jc.header.matches(other));
}

TEST(Journal, GridFingerprintTracksResultRelevantFields)
{
    Sweep a = tinySweep(3);
    Sweep b = tinySweep(3);
    EXPECT_EQ(exp::gridFingerprint(a.jobs),
              exp::gridFingerprint(b.jobs));
    b.jobs[1].ops += 1;
    EXPECT_NE(exp::gridFingerprint(a.jobs),
              exp::gridFingerprint(b.jobs));
    Sweep c = tinySweep(3);
    c.jobs[2].overrides = {{"llc.pinnedRetryInterval", "16"}};
    EXPECT_NE(exp::gridFingerprint(a.jobs),
              exp::gridFingerprint(c.jobs));
}

TEST(Journal, InterruptedThenResumedSweepIsByteIdentical)
{
    Sweep sweep = tinySweep(4);

    // Reference: uninterrupted run.
    exp::RunnerOptions plain;
    plain.jobs = 2;
    plain.progress = false;
    exp::SweepRunner ref(plain);
    const std::string full =
        exp::sweepToJson(sweep, ref.run(sweep)).dump(2);

    // "Interrupted" run: only cells 0 and 2 made it into the journal
    // before the crash.
    const std::string path = tempPath("resume.journal");
    std::filesystem::remove(path);
    exp::JournalHeader header;
    header.sweep = sweep.name;
    header.jobCount = sweep.jobs.size();
    header.gridHash = exp::gridFingerprint(sweep.jobs);
    {
        exp::SweepJournal journal;
        journal.open(path, header, /*fresh=*/true);
        journal.append(exp::runJob(sweep.jobs[0]));
        journal.append(exp::runJob(sweep.jobs[2]));
    }

    // Resume: load, skip journaled cells, run the rest, merge.
    const exp::JournalContents jc = exp::loadJournal(path);
    ASSERT_TRUE(jc.headerOk);
    ASSERT_TRUE(jc.header.matches(header));
    Sweep rest = sweep;
    std::erase_if(rest.jobs, [&](const ExperimentSpec &spec) {
        for (const auto &[id, wire] : jc.entries)
            if (id == spec.id())
                return true;
        return false;
    });
    ASSERT_EQ(rest.jobs.size(), 2u);

    exp::SweepRunner resumed(plain);
    auto merged = exp::mergeResumedOutcomes(sweep, jc.entries,
                                            resumed.run(rest));
    ASSERT_EQ(merged.size(), sweep.jobs.size());
    EXPECT_EQ(exp::sweepToJson(sweep, merged).dump(2), full);
}

TEST(Journal, MergeRefusesUncoveredCell)
{
    Sweep sweep = tinySweep(3);
    // One journaled cell, no fresh outcomes: cells 1 and 2 are covered
    // by neither source.
    std::vector<std::pair<std::string, JsonValue>> entries;
    entries.emplace_back(
        sweep.jobs[0].id(),
        exp::outcomeToWire(exp::runJob(sweep.jobs[0])));
    EXPECT_THROW(exp::mergeResumedOutcomes(sweep, entries, {}),
                 SimFatal);
}

TEST(Journal, AtomicWriteReplacesFile)
{
    const std::string path = tempPath("atomic.json");
    exp::writeFileAtomic(path, "first\n");
    exp::writeFileAtomic(path, "second\n");
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "second\n");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

} // namespace persim

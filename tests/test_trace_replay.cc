/**
 * @file
 * End-to-end tests for trace capture and replay: capturing a workload
 * does not perturb the run, replaying the captured trace reproduces
 * the run's complete results (stats included), lock records replay
 * execution-driven through the shared LockManager, and transaction
 * markers restore the throughput metric.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/runner.hh"
#include "exp/spec.hh"
#include "sim/logging.hh"
#include "workload/trace/trace_capture.hh"
#include "workload/trace/trace_reader.hh"
#include "workload/trace/trace_replay.hh"
#include "workload/workload_factory.hh"

namespace persim
{

using exp::ExperimentSpec;
using exp::JobOutcome;
using workload::trace::TraceReader;
using workload::trace::TraceRecord;

namespace
{

/** A micro/synthetic cell small enough to round-trip quickly. */
ExperimentSpec
smallSpec(const std::string &workload, std::uint64_t ops)
{
    ExperimentSpec spec;
    spec.sweep = "test";
    spec.workload = workload;
    spec.configLabel = "LB++";
    spec.cores = 4;
    spec.ops = ops;
    spec.seed = 1;
    return spec;
}

std::string
tempTracePath(const std::string &tag)
{
    return testing::TempDir() + "persim_" + tag + ".ptrace";
}

/** Full outcome serialization, stats included. */
std::string
outcomeJson(const JobOutcome &o)
{
    return o.toJson(true).dump(2);
}

std::shared_ptr<const TraceReader>
readerFromText(const std::string &text)
{
    std::istringstream is(text);
    auto data = workload::trace::parseTextTrace(is, "inline");
    auto reader = std::make_shared<const TraceReader>(
        workload::trace::encodeTrace(data), "inline");
    reader->validate();
    return reader;
}

} // namespace

TEST(TraceReplay, RoundTripsEveryMicroBenchmark)
{
    for (auto kind : workload::allMicroKinds()) {
        const std::string name = workload::toString(kind);
        const std::string path = tempTracePath("micro_" + name);

        ExperimentSpec direct = smallSpec(name, 50);
        const JobOutcome directOut = exp::runJob(direct);
        ASSERT_TRUE(directOut.ok) << name << ": " << directOut.error;

        // Capturing must not perturb the run in any observable way.
        ExperimentSpec capture = direct;
        capture.captureFile = path;
        const JobOutcome captureOut = exp::runJob(capture);
        ASSERT_TRUE(captureOut.ok) << name << ": " << captureOut.error;
        EXPECT_EQ(outcomeJson(directOut), outcomeJson(captureOut))
            << name << ": capture perturbed the run";

        // Replaying the capture must reproduce the run bit for bit.
        ExperimentSpec replay = direct;
        replay.traceFile = path;
        const JobOutcome replayOut = exp::runJob(replay);
        ASSERT_TRUE(replayOut.ok) << name << ": " << replayOut.error;
        EXPECT_EQ(outcomeJson(directOut), outcomeJson(replayOut))
            << name << ": replay diverged from the captured run";

        std::remove(path.c_str());
    }
}

TEST(TraceReplay, RoundTripsASyntheticWorkload)
{
    const std::string path = tempTracePath("synthetic");
    ExperimentSpec direct = smallSpec("canneal", 300);
    const JobOutcome directOut = exp::runJob(direct);
    ASSERT_TRUE(directOut.ok) << directOut.error;

    ExperimentSpec capture = direct;
    capture.captureFile = path;
    const JobOutcome captureOut = exp::runJob(capture);
    ASSERT_TRUE(captureOut.ok) << captureOut.error;
    EXPECT_EQ(outcomeJson(directOut), outcomeJson(captureOut));

    ExperimentSpec replay = direct;
    replay.traceFile = path;
    const JobOutcome replayOut = exp::runJob(replay);
    ASSERT_TRUE(replayOut.ok) << replayOut.error;
    EXPECT_EQ(outcomeJson(directOut), outcomeJson(replayOut));

    std::remove(path.c_str());
}

TEST(TraceReplay, CapturedTraceCarriesMetaAndTransactions)
{
    const std::string path = tempTracePath("meta");
    ExperimentSpec capture = smallSpec("queue", 40);
    capture.captureFile = path;
    const JobOutcome out = exp::runJob(capture);
    ASSERT_TRUE(out.ok) << out.error;

    auto reader = workload::trace::openTrace(path);
    EXPECT_EQ(reader->meta().name, "queue");
    EXPECT_EQ(reader->meta().threadCount, 4u);
    EXPECT_EQ(reader->meta().seed, 1u);
    EXPECT_GT(reader->totalRecords(), 0u);

    // The TxnMark records must add up to the run's transaction count,
    // and every stream must end in a halt.
    std::uint64_t txns = 0;
    for (unsigned t = 0; t < reader->meta().threadCount; ++t) {
        auto cursor = reader->stream(t);
        TraceRecord r;
        TraceRecord last;
        while (cursor.next(r)) {
            if (r.kind == TraceRecord::Kind::TxnMark)
                txns += r.count;
            last = r;
        }
        EXPECT_EQ(last.kind, TraceRecord::Kind::Halt) << "thread " << t;
    }
    EXPECT_EQ(txns, out.result.transactions);
    std::remove(path.c_str());
}

TEST(TraceReplay, ThreadCountMismatchIsNamedError)
{
    auto reader = readerFromText("ptrace v1\n"
                                 "threads 2\n"
                                 "thread 0\n@0 halt\n"
                                 "thread 1\n@0 halt\n");
    try {
        workload::trace::makeTraceReplay(reader, 8);
        FAIL() << "expected SimFatal";
    } catch (const SimFatal &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("2 thread(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("8 core(s)"), std::string::npos) << msg;
    }
}

TEST(TraceReplay, LockRecordsReplayThroughTheLockManager)
{
    // Both threads fight over the lock word at 0x100; thread 0 also
    // reports one transaction.
    auto reader = readerFromText("ptrace v1\n"
                                 "name locks\n"
                                 "threads 2\n"
                                 "thread 0\n"
                                 "@0 lock 0x100\n"
                                 "@10 store 0x200\n"
                                 "@20 txn 1\n"
                                 "@20 unlock 0x100\n"
                                 "@30 halt\n"
                                 "thread 1\n"
                                 "@0 lock 0x100\n"
                                 "@40 unlock 0x100\n"
                                 "@50 halt\n");
    auto ws = workload::trace::makeTraceReplay(reader, 2);
    ASSERT_EQ(ws.size(), 2u);
    cpu::Workload &w0 = *ws[0];
    cpu::Workload &w1 = *ws[1];

    // Thread 0 probes the free lock and wins it.
    cpu::MemOp op = w0.next(0);
    ASSERT_EQ(op.kind, cpu::MemOp::Kind::Load);
    EXPECT_EQ(op.addr, 0x100u);
    w0.onLoadComplete(0x100, 5);
    op = w0.next(5);
    ASSERT_EQ(op.kind, cpu::MemOp::Kind::Store) << "winning CAS";
    EXPECT_EQ(op.addr, 0x100u);

    // Thread 1 probes while the lock is held: backoff, then re-probe.
    op = w1.next(6);
    ASSERT_EQ(op.kind, cpu::MemOp::Kind::Load);
    w1.onLoadComplete(0x100, 9);
    op = w1.next(9);
    ASSERT_EQ(op.kind, cpu::MemOp::Kind::Compute)
        << "contended probe must back off";
    EXPECT_GT(op.cycles, 0u);
    op = w1.next(30);
    ASSERT_EQ(op.kind, cpu::MemOp::Kind::Load) << "re-probe";

    // Thread 0 finishes its critical section and releases.
    op = w0.next(12);
    ASSERT_EQ(op.kind, cpu::MemOp::Kind::Store); // @10 store 0x200
    EXPECT_EQ(op.addr, 0x200u);
    op = w0.next(22);
    ASSERT_EQ(op.kind, cpu::MemOp::Kind::Store); // unlock write
    EXPECT_EQ(op.addr, 0x100u);
    EXPECT_EQ(w0.transactions(), 1u) << "txn record before unlock";
    op = w0.next(32);
    EXPECT_EQ(op.kind, cpu::MemOp::Kind::Halt);

    // Now thread 1's pending probe can succeed.
    w1.onLoadComplete(0x100, 35);
    op = w1.next(35);
    ASSERT_EQ(op.kind, cpu::MemOp::Kind::Store) << "winning CAS";
    op = w1.next(45);
    ASSERT_EQ(op.kind, cpu::MemOp::Kind::Store); // unlock write
    op = w1.next(55);
    EXPECT_EQ(op.kind, cpu::MemOp::Kind::Halt);
    EXPECT_EQ(w1.transactions(), 0u);
}

TEST(TraceReplay, EmptyStreamHaltsImmediately)
{
    auto reader = readerFromText("ptrace v1\n"
                                 "threads 2\n"
                                 "thread 0\n"
                                 "@0 store 0x40\n@1 halt\n"
                                 "thread 1\n");
    auto ws = workload::trace::makeTraceReplay(reader, 2);
    EXPECT_EQ(ws[1]->next(0).kind, cpu::MemOp::Kind::Halt);
    EXPECT_EQ(ws[1]->next(1).kind, cpu::MemOp::Kind::Halt)
        << "halt must be sticky";
}

TEST(TraceReplay, ReplayIsDeterministicAcrossRuns)
{
    const std::string path = tempTracePath("deterministic");
    ExperimentSpec capture = smallSpec("sps", 40);
    capture.captureFile = path;
    ASSERT_TRUE(exp::runJob(capture).ok);

    ExperimentSpec replay = smallSpec("sps", 40);
    replay.traceFile = path;
    const JobOutcome a = exp::runJob(replay);
    const JobOutcome b = exp::runJob(replay);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(outcomeJson(a), outcomeJson(b));
    std::remove(path.c_str());
}

} // namespace persim

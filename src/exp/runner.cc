#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>

#include "exp/fault.hh"
#include "exp/stats_export.hh"
#include "prof/hw_counters.hh"
#include "prof/phase.hh"
#include "prof/sampler.hh"

namespace persim::exp
{

namespace
{

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Retry k sleeps min(kRetryBackoffMs << (k - 1), kRetryBackoffCapMs). */
constexpr unsigned kRetryBackoffMs = 100;
constexpr unsigned kRetryBackoffCapMs = 5000;

/** Milliseconds between live telemetry lines (liveProgress). */
constexpr unsigned kLiveIntervalMs = 2000;

/** Backoff before the @p retryIdx'th retry (1-based), in ms. */
unsigned
backoffDelayMs(unsigned retryIdx)
{
    const unsigned shift = std::min(retryIdx - 1, 20u);
    return static_cast<unsigned>(std::min<std::uint64_t>(
        std::uint64_t{kRetryBackoffMs} << shift, kRetryBackoffCapMs));
}

} // namespace

JsonValue
JobOutcome::toJson(bool includeStats) const
{
    JsonValue out = JsonValue::object();
    out["id"] = JsonValue(spec.id());
    out["spec"] = spec.toJson();
    out["ok"] = JsonValue(ok);
    out["attempts"] = JsonValue(attempts);
    if (!ok)
        out["error"] = JsonValue(error);
    out["result"] = simResultToJson(result);
    if (includeStats)
        out["groups"] = statTree;
    return out;
}

void
judgeResult(JobOutcome &out)
{
    const model::SimResult &r = out.result;
    std::string why;
    if (r.timedOut)
        why = "hit the simulation safety limit";
    else if (r.deadlocked)
        why = "deadlocked";
    else if (!r.completed)
        why = "did not drain";
    if (!r.violations.empty()) {
        if (!why.empty())
            why += "; ";
        why += std::to_string(r.violations.size()) +
               " ordering violation(s); first: " + r.violations.front();
    }
    out.ok = why.empty();
    out.error = std::move(why);
}

JobOutcome
runJob(const ExperimentSpec &spec, std::size_t index,
       const std::atomic<bool> *cancel)
{
    JobOutcome out;
    out.spec = spec;
    out.attempts = 1;
    const auto start = std::chrono::steady_clock::now();
    try {
        fault::maybeInject(index, cancel);
        model::SystemConfig cfg = spec.toSystemConfig();
        model::System sys(cfg);
        sys.setCancelFlag(cancel);
        auto workloads = spec.buildWorkloads();
        for (unsigned t = 0; t < cfg.numCores; ++t)
            sys.setWorkload(static_cast<CoreId>(t),
                            std::move(workloads[t]));
        out.result = sys.run();
        {
            prof::ScopedPhase profPhase(prof::Phase::StatExport);
            out.stats = sys.stats();
            out.statTree = statGroupsToJson(sys.statGroups());
        }
        judgeResult(out);
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    } catch (...) {
        out.ok = false;
        out.error = "unknown exception";
    }
    out.wallMs = msSince(start);
    return out;
}

// ---------------------------------------------------------------------
// WorkStealingPool
// ---------------------------------------------------------------------

WorkStealingPool::WorkStealingPool(unsigned numWorkers,
                                   std::size_t numJobs)
    : _numWorkers(numWorkers ? numWorkers : 1),
      _executed(_numWorkers, 0), _steals(_numWorkers, 0)
{
    _deques.reserve(_numWorkers);
    for (unsigned w = 0; w < _numWorkers; ++w)
        _deques.push_back(std::make_unique<WorkerDeque>());
    // Deal jobs round-robin so every worker starts with a local run
    // of the grid; imbalance is fixed dynamically by stealing.
    for (std::size_t j = 0; j < numJobs; ++j)
        _deques[j % _numWorkers]->jobs.push_back(j);
}

bool
WorkStealingPool::popOwn(unsigned worker, std::size_t &out)
{
    WorkerDeque &dq = *_deques[worker];
    std::lock_guard<std::mutex> lock(dq.mutex);
    if (dq.jobs.empty())
        return false;
    out = dq.jobs.back();
    dq.jobs.pop_back();
    return true;
}

bool
WorkStealingPool::stealFrom(unsigned victim, std::size_t &out)
{
    WorkerDeque &dq = *_deques[victim];
    std::lock_guard<std::mutex> lock(dq.mutex);
    if (dq.jobs.empty())
        return false;
    out = dq.jobs.front();
    dq.jobs.pop_front();
    return true;
}

void
WorkStealingPool::run(
    const std::function<void(std::size_t, unsigned)> &fn)
{
    auto workerLoop = [this, &fn](unsigned worker) {
        while (true) {
            std::size_t job;
            if (popOwn(worker, job)) {
                fn(job, worker);
                ++_executed[worker];
                continue;
            }
            bool stole = false;
            for (unsigned i = 1; i < _numWorkers && !stole; ++i) {
                const unsigned victim = (worker + i) % _numWorkers;
                if (stealFrom(victim, job)) {
                    fn(job, worker);
                    ++_executed[worker];
                    ++_steals[worker];
                    stole = true;
                }
            }
            if (!stole)
                return; // every deque empty: no new work is ever added
        }
    };

    if (_numWorkers == 1) {
        workerLoop(0);
        return;
    }
    std::vector<std::thread> threads;
    threads.reserve(_numWorkers);
    for (unsigned w = 0; w < _numWorkers; ++w)
        threads.emplace_back(workerLoop, w);
    for (auto &t : threads)
        t.join();
}

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

std::vector<JobOutcome>
SweepRunner::run(const Sweep &sweep)
{
    const std::size_t total = sweep.jobs.size();
    std::vector<JobOutcome> outcomes(total);
    _traceRecords.clear();
    _telemetry = SweepTelemetry{};

    // Which job (if any) records a trace.
    std::size_t traceIndex = SIZE_MAX;
    if (!_opts.traceFlags.empty()) {
        traceIndex = 0;
        if (!_opts.traceJobId.empty()) {
            traceIndex = SIZE_MAX;
            for (std::size_t i = 0; i < total; ++i) {
                if (sweep.jobs[i].id() == _opts.traceJobId) {
                    traceIndex = i;
                    break;
                }
            }
        }
    }

    std::atomic<std::size_t> done{0};
    std::atomic<std::uint64_t> doneEvents{0};
    std::mutex progressMutex;
    _recorder = std::make_unique<trace::Recorder>(_opts.traceFlags,
                                                  _opts.counterWindow);

    // Host-time profiling rides the whole sweep: one interval timer,
    // per-thread phase counters, and a hardware counter group around
    // each job. All of it observes the host only — the deterministic
    // sweep output cannot see whether profiling was on.
    _profile = prof::SweepProfile{};
    const bool profOn = _opts.prof;
    if (profOn)
        prof::Sampler::start(_opts.profPeriodUsec);
    std::vector<prof::PhaseCounts> jobProf(total);
    std::vector<prof::CounterReading> jobCounters(total);

    // Host-side per-job state, shared with the live monitor thread.
    std::vector<std::atomic<unsigned char>> states(total);
    for (auto &s : states)
        s.store(static_cast<unsigned char>(JobState::Queued));
    std::vector<unsigned> jobWorker(total, 0);
    std::vector<std::uint64_t> jobRssKb(total, 0);

    // Watchdog bookkeeping. attemptStartMs holds msSince(start)+1 for
    // the running attempt (0 = no attempt in flight, so the epoch
    // itself can never read as idle); cancelFlags is the cooperative
    // cancel handshake with model::System.
    std::vector<std::atomic<std::uint64_t>> attemptStartMs(total);
    std::vector<std::atomic<bool>> cancelFlags(total);
    for (std::size_t i = 0; i < total; ++i) {
        attemptStartMs[i].store(0);
        cancelFlags[i].store(false);
    }

    const auto start = std::chrono::steady_clock::now();

    std::atomic<bool> stopWatchdog{false};
    std::thread watchdog;
    if (_opts.jobTimeoutMs > 0) {
        watchdog = std::thread([&] {
            const std::uint64_t limit = _opts.jobTimeoutMs;
            while (!stopWatchdog.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(25));
                const std::uint64_t now =
                    static_cast<std::uint64_t>(msSince(start)) + 1;
                for (std::size_t i = 0; i < total; ++i) {
                    const std::uint64_t began =
                        attemptStartMs[i].load(
                            std::memory_order_relaxed);
                    if (began == 0 || now < began ||
                        now - began <= limit)
                        continue;
                    // Re-read before firing: if the worker moved on to
                    // a new attempt between the check and the store,
                    // cancelling now would shoot the fresh attempt.
                    if (attemptStartMs[i].load(
                            std::memory_order_relaxed) != began)
                        continue;
                    cancelFlags[i].store(true,
                                         std::memory_order_relaxed);
                }
            }
        });
    }

    // The monitor only reads atomics and /proc: it cannot touch any
    // simulation state, so determinism is unaffected.
    std::atomic<bool> stopMonitor{false};
    std::thread monitor;
    if (_opts.liveProgress) {
        monitor = std::thread([&] {
            while (!stopMonitor.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(kLiveIntervalMs));
                std::size_t counts[kJobStateCount] = {};
                for (const auto &s : states)
                    ++counts[s.load(std::memory_order_relaxed)];
                const double elapsed = msSince(start);
                const double evPerSec =
                    elapsed > 0.0 ? static_cast<double>(
                                        doneEvents.load()) *
                                        1e3 / elapsed
                                  : 0.0;
                // Live top-phase readout: which named phase owns the
                // largest share of host samples so far.
                char profLine[64] = "";
                if (profOn) {
                    const prof::PhaseCounts pc =
                        prof::Sampler::totalCounts();
                    const std::uint64_t totalSamples = pc.total();
                    std::size_t top = 0;
                    for (std::size_t p = 1; p < prof::kPhaseCount; ++p)
                        if (pc.samples[p] > pc.samples[top])
                            top = p;
                    if (totalSamples > 0) {
                        std::snprintf(
                            profLine, sizeof(profLine),
                            " | top %s %.0f%%",
                            prof::phaseName(
                                static_cast<prof::Phase>(top)),
                            100.0 *
                                static_cast<double>(
                                    pc.samples[top]) /
                                static_cast<double>(totalSamples));
                    }
                }
                std::lock_guard<std::mutex> lock(progressMutex);
                std::fprintf(
                    stderr,
                    "  -- %zu queued, %zu running, %zu retrying, "
                    "%zu done, %zu failed, %zu timed-out | %.1f s | "
                    "%.2f Mev/s | RSS %.1f MB (peak %.1f MB)%s\n",
                    counts[static_cast<unsigned>(JobState::Queued)],
                    counts[static_cast<unsigned>(JobState::Running)],
                    counts[static_cast<unsigned>(JobState::Retrying)],
                    counts[static_cast<unsigned>(JobState::Done)],
                    counts[static_cast<unsigned>(JobState::Failed)],
                    counts[static_cast<unsigned>(JobState::TimedOut)],
                    elapsed / 1e3, evPerSec / 1e6,
                    static_cast<double>(currentRssKb()) / 1024.0,
                    static_cast<double>(peakRssKb()) / 1024.0,
                    profLine);
            }
        });
    }

    WorkStealingPool pool(_opts.jobs, total);
    pool.run([&](std::size_t index, unsigned worker) {
        const ExperimentSpec &spec = sweep.jobs[index];
        auto &state = states[index];
        state.store(static_cast<unsigned char>(JobState::Running),
                    std::memory_order_relaxed);

        const bool tracing = index == traceIndex;
        if (tracing)
            trace::attachRecorder(_recorder.get());

        // Per-job profiling bracket: worker threads attach lazily (the
        // block persists across this worker's jobs), and a fresh
        // counter group scopes exactly this job's hardware activity.
        prof::PhaseCounts profBefore;
        std::unique_ptr<prof::HwCounterGroup> counters;
        if (profOn) {
            prof::Sampler::attachThread();
            profBefore = prof::Sampler::threadCounts();
            counters = std::make_unique<prof::HwCounterGroup>();
            counters->start();
        }

        // The one attempt loop: the deadline clock and the retry
        // policy live here, around each runJob.
        const unsigned maxAttempts =
            _opts.maxAttempts ? _opts.maxAttempts : 1;
        JobOutcome outcome;
        for (unsigned attempt = 1; attempt <= maxAttempts; ++attempt) {
            if (attempt > 1) {
                // Bounded exponential backoff: an immediate re-attempt
                // just re-hits whatever transient host condition (OOM
                // pressure, fd exhaustion) failed the last one.
                state.store(static_cast<unsigned char>(JobState::Retrying),
                            std::memory_order_relaxed);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoffDelayMs(attempt - 1)));
            }
            // Armed after the backoff sleep, so the deadline measures
            // the attempt, not the wait before it.
            cancelFlags[index].store(false, std::memory_order_relaxed);
            attemptStartMs[index].store(
                static_cast<std::uint64_t>(msSince(start)) + 1,
                std::memory_order_relaxed);
            outcome = runJob(spec, index, &cancelFlags[index]);
            attemptStartMs[index].store(0, std::memory_order_relaxed);
            outcome.attempts = attempt;
            if (!outcome.ok &&
                cancelFlags[index].load(std::memory_order_relaxed)) {
                // The watchdog cancelled this attempt; report it as a
                // timeout, not as SimCancelled.
                outcome.timedOut = true;
                outcome.error = "timeout";
            }
            if (outcome.ok)
                break;
        }

        if (profOn) {
            jobCounters[index] = counters->stop();
            jobProf[index] =
                prof::Sampler::threadCounts().minus(profBefore);
        }
        if (tracing)
            trace::detachRecorder();

        outcome.index = index;
        state.store(
            static_cast<unsigned char>(
                outcome.ok ? JobState::Done
                           : (outcome.timedOut ? JobState::TimedOut
                                               : JobState::Failed)),
            std::memory_order_relaxed);
        jobWorker[index] = worker;
        jobRssKb[index] = currentRssKb();
        doneEvents.fetch_add(outcome.result.events,
                             std::memory_order_relaxed);
        const std::size_t finished = done.fetch_add(1) + 1;
        if (_opts.progress) {
            std::lock_guard<std::mutex> lock(progressMutex);
            if (outcome.ok) {
                std::fprintf(stderr,
                             "  [%zu/%zu] %-28s ok    %8.3f Mcycles  "
                             "%7.0f ms  (w%u)\n",
                             finished, total, spec.id().c_str(),
                             outcome.result.execTicks / 1e6,
                             outcome.wallMs, worker);
            } else {
                std::fprintf(stderr,
                             "  [%zu/%zu] %-28s FAILED after %u "
                             "attempt(s): %s\n",
                             finished, total, spec.id().c_str(),
                             outcome.attempts, outcome.error.c_str());
            }
        }
        outcomes[index] = std::move(outcome);
    });
    if (watchdog.joinable()) {
        stopWatchdog.store(true);
        watchdog.join();
    }
    if (monitor.joinable()) {
        stopMonitor.store(true);
        monitor.join();
    }
    _telemetry.wallMs = msSince(start);
    _traceRecords = _recorder->records();
    if (profOn)
        prof::Sampler::stop();

    _telemetry.sweep = sweep.name;
    _telemetry.workers = _opts.jobs ? _opts.jobs : 1;
    _telemetry.peakRssKb = peakRssKb();
    _telemetry.hostCpus = hostCpuCount();
    _telemetry.loadAvg1 = loadAverage1();
    _telemetry.jobs.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        const JobOutcome &o = outcomes[i];
        JobTelemetry jt;
        jt.id = o.spec.id();
        jt.state = o.ok ? JobState::Done
                        : (o.timedOut ? JobState::TimedOut
                                      : JobState::Failed);
        jt.attempts = o.attempts;
        jt.worker = jobWorker[i];
        jt.wallMs = o.wallMs;
        jt.events = o.result.events;
        jt.rssAfterKb = jobRssKb[i];
        if (profOn) {
            jt.profiled = true;
            jt.profPhases = jobProf[i];
            jt.counters = jobCounters[i];
        }
        _telemetry.jobs.push_back(std::move(jt));
    }

    if (profOn) {
        _telemetry.profiled = true;
        _telemetry.profPeriodUsec = _opts.profPeriodUsec;
        _telemetry.profPhases = prof::Sampler::totalCounts();

        _profile.sweep = sweep.name;
        _profile.periodUsec = _opts.profPeriodUsec;
        _profile.hostCpus = _telemetry.hostCpus;
        _profile.loadAvg1 = _telemetry.loadAvg1;
        _profile.phases = _telemetry.profPhases;
        _profile.unattributed = prof::Sampler::unattributedSamples();
        _profile.jobs.reserve(total);
        for (std::size_t i = 0; i < total; ++i) {
            prof::JobProfile jp;
            jp.id = outcomes[i].spec.id();
            jp.phases = jobProf[i];
            jp.counters = jobCounters[i];
            _profile.counters.add(jobCounters[i]);
            _profile.jobs.push_back(std::move(jp));
        }
        _telemetry.counters = _profile.counters;
    }
    return outcomes;
}

JsonValue
sweepToJson(const Sweep &sweep, const std::vector<JobOutcome> &outcomes,
            bool includeStats)
{
    prof::ScopedPhase profPhase(prof::Phase::StatExport);
    JsonValue out = JsonValue::object();
    out["sweep"] = JsonValue(sweep.name);
    out["jobCount"] = JsonValue(outcomes.size());
    std::size_t failed = 0;
    for (const JobOutcome &o : outcomes)
        failed += o.ok ? 0 : 1;
    out["failed"] = JsonValue(failed);
    JsonValue jobs = JsonValue::array();
    for (const JobOutcome &o : outcomes)
        jobs.push(o.toJson(includeStats));
    out["jobs"] = std::move(jobs);
    return out;
}

} // namespace persim::exp
